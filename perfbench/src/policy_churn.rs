//! `policy_churn`: the control plane and the cached-client check.
//!
//! The server runs a `LifecycleDaemon` whose data directory lives inside
//! the benchmark's own directory. Set-up installs the corpus, takes a
//! snapshot, stops the server and starts it again, so the restart runs
//! crash recovery. Then one sync `Client` mutates and one subscribed
//! `CachedClient` checks. Each step makes one mutation on a Zipf-chosen
//! key (reload : revoke : install = 2 : 1 : 1; a revoked key is
//! re-installed on its next touch, always with the key's next variant),
//! then the subscriber checks the mutated key — a refetch after the push —
//! and 4 other keys. The benchmark calls `snapshot_now()` every 256
//! mutations, outside the timed spans; no daemon timer runs. An
//! in-process mirror engine, mutated in lockstep, is the oracle: after an
//! acknowledged revoke the subscriber must get `None`, after a reload the
//! new policy's decision.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use conseca_core::Policy;
use conseca_engine::{Engine, SessionState};
use conseca_serve::{
    CachedClient, Client, DaemonConfig, LifecycleDaemon, Request, Response, ServeConfig, Server,
    ServerHandle,
};

use crate::corpus::{Corpus, TENANT};
use crate::layers::{ratio, wire_costs, Layers, LoopSpans, ServerCounters};
use crate::oracle::{digest, Tally};
use crate::probes::{connect, total_calls, StreamCounts};
use crate::stats::{Rng, Samples, Windows, Zipf};
use crate::trace::{tracer, Name, PHASE_LOOP};
use crate::{repeated_setup, Args, Outcome};

const VARIANTS: usize = 3;
const SNAPSHOT_EVERY: u64 = 256;
const OTHER_KEYS: usize = 4;
const WARMUP_STEPS: usize = 256;
/// Seconds of accounted step time per statistics window (about 800
/// mutations).
const WINDOW_S: f64 = 0.5;
/// The quantile reported as `op_tail_us`.
const TAIL: f64 = 0.9;
/// Mutation messages kept for the wire metrics.
const WIRE_SAMPLE: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Install,
    Reload,
    Revoke,
}

#[derive(Debug, Clone, Copy)]
struct KeyState {
    variant: usize,
    live: bool,
}

/// Timings of one step, in µs.
struct Step {
    kind: Kind,
    mutation_us: f64,
    checks_us: f64,
    refetch_us: f64,
}

/// The daemon's data directory, removed on drop.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Bench {
    server: ServerHandle,
    corpus: Corpus,
    variants: Vec<Vec<Policy>>,
    mirror: Engine,
    sessions: HashMap<usize, SessionState>,
    keys: Vec<KeyState>,
    zipf: Zipf,
    rng: Rng,
    mutator: Client,
    subscriber: CachedClient,
    counts: Vec<Arc<StreamCounts>>,
    mutations: u64,
    corpus_s: f64,
    recover_s: f64,
    /// Recent mutation requests and their responses, for the wire metrics.
    messages: Vec<(Request, Response)>,
    /// Last, so it is removed after the server has shut down.
    dir: DataDir,
}

fn serve_config() -> ServeConfig {
    ServeConfig { worker_threads: crate::host::nproc(), ..ServeConfig::default() }
}

impl Bench {
    fn new(seed: u64) -> Bench {
        let start = Instant::now();
        let corpus = Corpus::generate();
        let variants = corpus.variants(VARIANTS);
        let corpus_s = start.elapsed().as_secs_f64();

        let dir = DataDir(crate::out_dir().join(format!("churn-{}", std::process::id())));
        let _ = std::fs::remove_dir_all(&dir.0);
        std::fs::create_dir_all(&dir.0).expect("create the daemon's data directory");
        let first = Server::start_with_daemon(
            Arc::new(Engine::default()),
            serve_config(),
            DaemonConfig::at(&dir.0),
        )
        .expect("start the daemon");
        let mut installer = first.connect().expect("connect");
        let mirror = Engine::default();
        for (key, policies) in corpus.keys.iter().zip(&variants) {
            installer
                .install(TENANT, key.description, &key.context, &policies[0])
                .expect("install");
            mirror.install(TENANT, key.description, &key.context, &policies[0]);
        }
        first.daemon().expect("daemon").snapshot_now();
        installer.close();
        first.shutdown();

        // The restart recovers the corpus from the snapshot log.
        let start = Instant::now();
        let server = Server::start_with_daemon(
            Arc::new(Engine::default()),
            serve_config(),
            DaemonConfig::at(&dir.0),
        )
        .expect("restart the daemon");
        let recover_s = start.elapsed().as_secs_f64();
        let recovered = server.daemon().expect("daemon").recovery().installed();
        assert_eq!(recovered, corpus.keys.len(), "recovery lost installed policies");

        // Transport counts are per sync-client request, so only the
        // mutator's connection is counted.
        let mut counts = Vec::new();
        let mutator = Client::over(connect(&server, true, &mut counts)).expect("handshake");
        let subscriber = CachedClient::over(connect(&server, false, &mut Vec::new()), TENANT)
            .expect("subscribe");
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(corpus.keys.len(), 1.0, &mut rng);
        let keys = vec![KeyState { variant: 0, live: true }; corpus.keys.len()];
        let mut bench = Bench {
            server,
            corpus,
            variants,
            mirror,
            sessions: HashMap::new(),
            keys,
            zipf,
            rng,
            mutator,
            subscriber,
            counts,
            mutations: 0,
            corpus_s,
            recover_s,
            messages: Vec::new(),
            dir,
        };
        let mut tally = Tally::default();
        for _ in 0..WARMUP_STEPS {
            bench.step(&mut tally);
        }
        assert_eq!(tally.failed, 0, "warm-up steps diverged from the mirror engine");
        bench
    }

    fn daemon(&self) -> &Arc<LifecycleDaemon> {
        self.server.daemon().expect("daemon")
    }

    fn mutate(&mut self, k: usize, tally: &mut Tally) -> (Kind, f64) {
        let state = self.keys[k];
        let kind = if !state.live {
            Kind::Install
        } else {
            match self.rng.below(4) {
                0 | 1 => Kind::Reload,
                2 => Kind::Revoke,
                _ => Kind::Install,
            }
        };
        let key = &self.corpus.keys[k];
        let (task, context) = (key.description, &key.context);
        let current = self.variants[k][state.variant].fingerprint();
        let next = (state.variant + 1) % VARIANTS;
        let policy = &self.variants[k][next];
        let span = tracer().open(Name::Op, 0);
        let start = Instant::now();
        let served = match kind {
            Kind::Revoke => {
                self.mutator.revoke(TENANT, current).map(|removed| Response::Revoked { removed })
            }
            Kind::Install => self
                .mutator
                .install(TENANT, task, context, policy)
                .map(|r| Response::Installed { fingerprint: r.fingerprint, entries: r.entries }),
            Kind::Reload => {
                self.mutator.reload(TENANT, task, context, policy).map(|r| Response::Reloaded {
                    old_fingerprint: r.old_fingerprint,
                    fingerprint: r.fingerprint,
                    entries: r.entries,
                })
            }
        };
        let elapsed = start.elapsed().as_nanos() as f64 / 1e3;
        tracer().close(span);

        // The mirror applies the same mutation; the receipt must match it.
        let (fingerprint, entries) = (policy.fingerprint(), policy.len() as u64);
        let (expected, request) = match kind {
            Kind::Revoke => {
                let removed = self.mirror.revoke_fingerprint(TENANT, current) as u64;
                self.keys[k].live = false;
                let request = Request::Revoke { tenant: TENANT.into(), fingerprint: current };
                (Response::Revoked { removed }, request)
            }
            Kind::Install => {
                self.mirror.install(TENANT, task, context, policy);
                self.keys[k] = KeyState { variant: next, live: true };
                let request = Request::Install {
                    tenant: TENANT.into(),
                    task: task.into(),
                    context: context.clone(),
                    policy: policy.clone(),
                };
                (Response::Installed { fingerprint, entries }, request)
            }
            Kind::Reload => {
                self.mirror.reload(TENANT, task, context, policy);
                self.keys[k] = KeyState { variant: next, live: true };
                let request = Request::Reload {
                    tenant: TENANT.into(),
                    task: task.into(),
                    context: context.clone(),
                    policy: policy.clone(),
                };
                (
                    Response::Reloaded { old_fingerprint: Some(current), fingerprint, entries },
                    request,
                )
            }
        };
        match served {
            Ok(response) => {
                tally.record(response == expected, || {
                    format!("{kind:?} of key {k}: receipt {response:?}, expected {expected:?}")
                });
                if self.messages.len() < WIRE_SAMPLE {
                    self.messages.push((request, response));
                }
            }
            Err(e) => tally.error(format!("{kind:?} of key {k}: {e}")),
        }
        self.mutations += 1;
        (kind, elapsed)
    }

    /// One subscriber check of key `k`, judged against the mirror;
    /// returns its latency in µs.
    fn check(&mut self, k: usize, tally: &mut Tally) -> f64 {
        let key = &self.corpus.keys[k];
        let calls = &self.corpus.calls[key.task];
        let call = &calls[self.rng.below(calls.len())];
        let span = tracer().open(Name::CacheCheck, 0);
        let start = Instant::now();
        let served = self.subscriber.check(key.description, &key.context, call);
        let elapsed = start.elapsed().as_nanos() as f64 / 1e3;
        tracer().close(span);
        let session = self.sessions.entry(k).or_default();
        let expected =
            self.mirror.check_session(TENANT, key.description, &key.context, session, call);
        match served {
            Ok(decision) => tally.record(digest(&decision) == digest(&expected), || {
                format!("subscriber check of key {k}: {decision:?}, expected {expected:?}")
            }),
            Err(e) => tally.error(format!("subscriber check of key {k}: {e}")),
        }
        elapsed
    }

    fn step(&mut self, tally: &mut Tally) -> Step {
        let k = self.zipf.sample(&mut self.rng);
        let (kind, mutation_us) = self.mutate(k, tally);
        let refetch_us = self.check(k, tally);
        let mut checks_us = refetch_us;
        for _ in 0..OTHER_KEYS {
            let mut other = self.zipf.sample(&mut self.rng);
            while other == k {
                other = self.zipf.sample(&mut self.rng);
            }
            checks_us += self.check(other, tally);
        }
        if self.mutations.is_multiple_of(SNAPSHOT_EVERY) {
            let daemon = Arc::clone(self.daemon());
            let start = Instant::now();
            daemon.snapshot_now();
            tracer().record(Name::Snapshot, start, Instant::now());
        }
        Step { kind, mutation_us, checks_us, refetch_us }
    }
}

/// Counters read before and after the traced segment.
#[derive(Clone, Copy)]
struct ChurnCounters {
    server: ServerCounters,
    journal_appends: u64,
    journal_compactions: u64,
    journal_io_errors: u64,
    cache_epoch: u64,
    cache_hits: u64,
    fallbacks: u64,
    calls: (u64, u64),
}

impl ChurnCounters {
    fn read(bench: &Bench) -> Self {
        let journal = bench.daemon().journal();
        ChurnCounters {
            server: ServerCounters::read(&bench.server),
            journal_appends: journal.appended_total(),
            journal_compactions: journal.compactions(),
            journal_io_errors: bench.daemon().counters().io_errors,
            cache_epoch: bench.subscriber.cache().epoch(),
            cache_hits: bench.subscriber.cache().counters().hits,
            fallbacks: bench.subscriber.fallbacks(),
            calls: total_calls(&bench.counts),
        }
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let (mut bench, setup_s) = repeated_setup(process_start, || Bench::new(args.seed));
    let mut out = Outcome { setup_s, ..Outcome::default() };
    tracer().set_phase(PHASE_LOOP);
    let mut layers = Layers::new();
    let mut traced = None;
    for (budget, is_traced) in args.segments(1.0) {
        tracer().set_enabled(is_traced);
        let before = ChurnCounters::read(&bench);
        let deadline = Instant::now() + budget;
        let mut windows = Windows::new(Some(WINDOW_S), TAIL);
        let mut by_kind: HashMap<&'static str, Samples> = HashMap::new();
        let mut refetch = Samples::default();
        let mut checks = 0usize;
        while Instant::now() < deadline {
            tracer().set_request(out.tally.attempted as u32);
            let step = bench.step(&mut out.tally);
            windows.record(Some(step.mutation_us), 1, (step.mutation_us + step.checks_us) / 1e6);
            let kind = match step.kind {
                Kind::Install => "client.install_us",
                Kind::Reload => "client.reload_us",
                Kind::Revoke => "client.revoke_us",
            };
            by_kind.entry(kind).or_default().push(step.mutation_us);
            refetch.push(step.refetch_us);
            checks += 1 + OTHER_KEYS;
        }
        if is_traced {
            traced = Some((before, ChurnCounters::read(&bench), by_kind, refetch, checks));
            out.traced_op = windows.summary();
        } else {
            out.op = windows.summary();
        }
    }
    tracer().set_enabled(false);
    let io_errors = bench.daemon().counters().io_errors;
    out.tally.record(io_errors == 0, || format!("{io_errors} persistence I/O errors"));
    let workers = bench.mutator.stats_full(TENANT).map(|s| s.workers).unwrap_or(0);
    out.fact("server_workers", workers);
    out.fact_str("fs", &crate::host::fs_type(&bench.dir.0));
    out.fact("mutations", bench.mutations);

    if let Some((before, after, by_kind, refetch, checks)) = traced {
        let spans = LoopSpans::new(tracer().snapshot());
        let ops = (checks / (1 + OTHER_KEYS)) as f64;
        layers.insert("setup.corpus_s", bench.corpus_s);
        layers.insert("daemon.recover_s", bench.recover_s);
        layers.insert("llm.generate_us", spans.p50_us_any_phase(Name::Generate, None));
        layers.insert("client.round_trip_us", spans.p50_us(Name::RoundTrip, None));
        layers.insert("client.wait_us", ratio(spans.sum_us(Name::Read), ops));
        layers.insert("client.requests", ratio(spans.count(Name::RoundTrip) as f64, ops));
        layers.insert("op.self_us", spans.op_self_p50_us());
        for (name, samples) in &by_kind {
            layers.insert(name, samples.p50());
        }
        before.server.fill(&after.server, ops, &mut layers);
        let requests = spans.count(Name::RoundTrip) as f64;
        layers.insert(
            "transport.reads_per_req",
            ratio((after.calls.0 - before.calls.0) as f64, requests),
        );
        layers.insert(
            "transport.writes_per_req",
            ratio((after.calls.1 - before.calls.1) as f64, requests),
        );
        layers.insert(
            "journal.appends",
            ratio((after.journal_appends - before.journal_appends) as f64, ops),
        );
        layers.insert(
            "journal.compactions",
            (after.journal_compactions - before.journal_compactions) as f64,
        );
        layers.insert(
            "journal.io_errors",
            (after.journal_io_errors - before.journal_io_errors) as f64,
        );
        layers.insert(
            "cache.invalidations",
            ratio((after.cache_epoch - before.cache_epoch) as f64, ops),
        );
        layers.insert(
            "cache.hit_ratio",
            ratio((after.cache_hits - before.cache_hits) as f64, checks as f64),
        );
        layers.insert("cache.refetch_us", refetch.p50());
        layers.insert("cache.fallbacks", (after.fallbacks - before.fallbacks) as f64);
        layers.insert("daemon.snapshot_us", spans.p50_us(Name::Snapshot, None));

        // Same-run reference: the mirror's in-process check on the
        // subscriber's own keys and calls.
        let mut engine_check = Samples::default();
        let mut sessions: HashMap<usize, SessionState> = HashMap::new();
        let mut rng = Rng::new(args.seed ^ 0x5eed);
        for _ in 0..WIRE_SAMPLE {
            let k = bench.zipf.sample(&mut rng);
            let key = &bench.corpus.keys[k];
            let calls = &bench.corpus.calls[key.task];
            let call = &calls[rng.below(calls.len())];
            let session = sessions.entry(k).or_default();
            let start = Instant::now();
            let decision =
                bench.mirror.check_session(TENANT, key.description, &key.context, session, call);
            engine_check.push(start.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(decision);
        }
        let engine_us = engine_check.p50();
        let (requests, responses): (Vec<Request>, Vec<Response>) =
            bench.messages.iter().cloned().unzip();
        let (encode, decode) = wire_costs(&requests, &responses);
        let cached_check_us = spans.p50_us(Name::CacheCheck, None);
        layers.insert("engine.check_us", engine_us);
        layers.insert("serve.vs_inproc", ratio(cached_check_us, engine_us));
        layers.insert("wire.encode_us", encode);
        layers.insert("wire.decode_us", decode);
        let round_trip = spans.p50_us(Name::RoundTrip, None);
        layers.insert("serve.handoff_us", (round_trip - encode - decode).max(0.0));
    }
    out.layers = layers;
    out
}
