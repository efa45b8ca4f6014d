//! `agent_tasks`: repeated passes over the 20 Table-A tasks in Conseca
//! mode, enforced by the served engine through `Agent::with_remote_engine`.
//!
//! The seed shuffles the task order of each pass; the trial is the pass
//! number mod 5. The tenant is flushed between passes, so every task pays
//! fetch miss → generate → install → served per-action checks. The agent
//! owns its `Client` and cannot hand it back, and each task needs a fresh
//! world, so each task gets a fresh `Env`, agent and connection — all
//! built outside the timed span. The oracle is the report fingerprint of
//! the in-process engine path for the same (task, trial).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use conseca_agent::{build_trusted_context, Agent, AgentConfig, PolicyMode, TaskReport};
use conseca_core::PolicyGenerator;
use conseca_engine::{Engine, SessionState};
use conseca_llm::TemplatePolicyModel;
use conseca_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle};
use conseca_shell::{default_registry, parse_command};
use conseca_workloads::{
    all_tasks, golden_examples, make_planner, report_fingerprint, run_task_once_engine, Env,
    CURRENT_USER,
};

use crate::corpus::TENANT;
use crate::layers::{ratio, wire_costs, LoopSpans, ServerCounters, Tags};
use crate::oracle::Tally;
use crate::probes::{connect, total_calls, StreamCounts, TimedModel};
use crate::stats::{Rng, Samples, Windows};
use crate::trace::{tracer, Name, PHASE_LOOP};
use crate::{repeated_setup, Args, Outcome};

const TRIALS: usize = 5;
/// Passes per statistics window: two of each trial, so every window
/// holds each (task, trial) twice, 200 tasks in all.
const PASSES_PER_WINDOW: usize = 2 * TRIALS;
/// The quantile reported as `op_tail_us`. Tasks 16 and 17 are a tenth
/// of every pass and take several times longer than any other task, so
/// p90 falls on the edge between them and the rest, where it flips with
/// single samples; p95 lies inside their group and still has ten
/// samples beyond it in each window.
const TAIL: f64 = 0.95;

struct Bench {
    server: ServerHandle,
    /// Reference fingerprints, indexed `[trial][task_id - 1]`.
    expected: Vec<Vec<Vec<u8>>>,
    descriptions: Vec<&'static str>,
    rng: Rng,
    counts: Vec<Arc<StreamCounts>>,
}

impl Bench {
    fn new(seed: u64) -> Bench {
        let reference = Arc::new(Engine::default());
        let expected = (0..TRIALS)
            .map(|trial| {
                (1..=20)
                    .map(|task| {
                        reference.flush_tenant(TENANT);
                        let run = run_task_once_engine(
                            task,
                            trial,
                            PolicyMode::Conseca,
                            false,
                            &reference,
                            TENANT,
                        );
                        report_fingerprint(&run.report)
                    })
                    .collect()
            })
            .collect();
        let config = ServeConfig { worker_threads: crate::host::nproc(), ..ServeConfig::default() };
        let server = Server::start(Arc::new(Engine::default()), config);
        let mut bench = Bench {
            server,
            expected,
            descriptions: all_tasks().iter().map(|t| t.description).collect(),
            rng: Rng::new(seed),
            counts: Vec::new(),
        };
        // Warm-up: one whole pass, checked but not counted.
        let mut tally = Tally::default();
        bench.pass(0, None, &mut Vec::new(), &mut tally, &mut Vec::new());
        assert_eq!(tally.failed, 0, "warm-up pass diverged from the in-process engine path");
        bench
    }

    fn agent(&mut self, env: &Env) -> Agent<TimedModel<TemplatePolicyModel>> {
        let client =
            Client::over(connect(&self.server, true, &mut self.counts)).expect("handshake");
        let registry = default_registry();
        let generator = PolicyGenerator::new(TimedModel(TemplatePolicyModel::new()), &registry)
            .with_golden_examples(golden_examples());
        Agent::new(
            env.vfs.clone(),
            env.mail.clone(),
            CURRENT_USER,
            registry,
            generator,
            AgentConfig::for_mode(PolicyMode::Conseca),
        )
        .with_remote_engine(client, TENANT)
    }

    /// One pass over the 20 tasks in seeded order; stops early (between
    /// tasks) at `deadline`. Returns whether the pass completed.
    fn pass(
        &mut self,
        pass: usize,
        deadline: Option<Instant>,
        timings: &mut Vec<f64>,
        tally: &mut Tally,
        reports: &mut Vec<(usize, TaskReport)>,
    ) -> bool {
        let trial = pass % TRIALS;
        let mut order: Vec<usize> = (1..=20).collect();
        self.rng.shuffle(&mut order);
        self.server.engine().flush_tenant(TENANT);
        for task in order {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            let env = Env::build();
            let mut agent = self.agent(&env);
            let planner = make_planner(task, trial);
            tracer().set_request(tally.attempted as u32);
            let span = tracer().open(Name::Op, 0);
            let start = Instant::now();
            let report = agent.run_task(self.descriptions[task - 1], planner);
            let elapsed = start.elapsed();
            tracer().close(span);
            drop(agent);
            timings.push(elapsed.as_nanos() as f64 / 1e3);
            let ok = report_fingerprint(&report) == self.expected[trial][task - 1];
            tally.record(ok, || format!("task {task} trial {trial}: report differs"));
            if reports.len() < 20 {
                reports.push((task, report));
            }
        }
        true
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let (mut bench, setup_s) = repeated_setup(process_start, || Bench::new(args.seed));
    let mut out = Outcome { setup_s, ..Outcome::default() };
    tracer().set_phase(PHASE_LOOP);
    let mut pass = 1;
    let mut reports = Vec::new();
    let mut traced_counters = None;
    for (budget, traced) in args.segments(1.0) {
        tracer().set_enabled(traced);
        bench.counts.clear();
        let before = ServerCounters::read(&bench.server);
        let deadline = Instant::now() + budget;
        let mut timings = Vec::new();
        // Windows hold whole passes, so every window has the same task mix.
        let mut windows = Windows::new(None, TAIL);
        let mut tasks = 0usize;
        for passes in 1.. {
            let complete =
                bench.pass(pass, Some(deadline), &mut timings, &mut out.tally, &mut reports);
            tasks += timings.len();
            for us in timings.drain(..) {
                windows.record(Some(us), 1, us / 1e6);
            }
            pass += 1;
            if !complete {
                break;
            }
            if usize::is_multiple_of(passes, PASSES_PER_WINDOW) {
                windows.close();
            }
        }
        let summary = windows.summary();
        if traced {
            traced_counters = Some((before, ServerCounters::read(&bench.server), tasks as f64));
            out.traced_op = summary;
        } else {
            out.op = summary;
        }
    }
    tracer().set_enabled(false);
    let workers = bench.server.connect().and_then(|mut c| c.stats_full(TENANT)).map(|s| s.workers);
    out.fact("server_workers", workers.unwrap_or(0));
    out.fact_str("fs", &crate::host::fs_type(Path::new(".")));
    if let Some((before, after, ops)) = traced_counters {
        fill_layers(&mut out, &bench, before, after, ops, &reports);
    }
    out
}

fn fill_layers(
    out: &mut Outcome,
    bench: &Bench,
    before: ServerCounters,
    after: ServerCounters,
    ops: f64,
    reports: &[(usize, TaskReport)],
) {
    let tags = Tags::learn();
    let spans = LoopSpans::new(tracer().snapshot());
    let layers = &mut out.layers;
    layers.insert("llm.generate_us", spans.p50_us(Name::Generate, None));
    layers.insert("llm.generate_calls", ratio(spans.count(Name::Generate) as f64, ops));
    layers.insert("client.round_trip_us", spans.p50_us(Name::RoundTrip, None));
    layers.insert("client.wait_us", ratio(spans.sum_us(Name::Read), ops));
    layers.insert("client.requests", ratio(spans.count(Name::RoundTrip) as f64, ops));
    layers.insert("op.self_us", spans.op_self_p50_us());
    layers.insert("client.install_us", spans.p50_us(Name::RoundTrip, Some(tags.install)));
    layers.insert("client.reload_us", spans.p50_us(Name::RoundTrip, Some(tags.reload)));
    layers.insert("client.revoke_us", spans.p50_us(Name::RoundTrip, Some(tags.revoke)));
    before.fill(&after, ops, layers);
    let (reads, writes) = total_calls(&bench.counts);
    let requests = spans.count(Name::RoundTrip) as f64;
    layers.insert("transport.reads_per_req", ratio(reads as f64, requests));
    layers.insert("transport.writes_per_req", ratio(writes as f64, requests));

    // Same-run reference: the in-process engine checking each reported
    // task's calls against that task's policy, under the real context.
    let engine = Engine::default();
    let env = Env::build();
    let context = build_trusted_context(&env.vfs, &env.mail, CURRENT_USER);
    let registry = default_registry();
    let mut engine_check = Samples::default();
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (task, report) in reports {
        let description = bench.descriptions[task - 1];
        engine.install(TENANT, description, &context, &report.policy);
        let mut session = SessionState::new();
        for line in report.executed_commands.iter().chain(&report.denied_commands) {
            let Ok(call) = parse_command(line, &registry) else { continue };
            let start = Instant::now();
            let decision = engine.check_session(TENANT, description, &context, &mut session, &call);
            engine_check.push(start.elapsed().as_nanos() as f64 / 1e3);
            requests.push(Request::Check {
                tenant: TENANT.into(),
                task: description.into(),
                context: context.clone(),
                call,
            });
            responses.push(Response::Verdict { decision });
        }
    }
    let engine_us = engine_check.p50();
    let served_check_us = spans.p50_us(Name::RoundTrip, Some(tags.check));
    let (encode, decode) = wire_costs(&requests, &responses);
    layers.insert("engine.check_us", engine_us);
    layers.insert("serve.vs_inproc", ratio(served_check_us, engine_us));
    layers.insert("wire.encode_us", encode);
    layers.insert("wire.decode_us", decode);
    layers.insert("serve.handoff_us", (served_check_us - engine_us - encode - decode).max(0.0));
}
