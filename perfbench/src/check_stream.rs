//! `check_stream`: the served check hot path with no agent work.
//!
//! Set-up generates the policy corpus and harvests each task's calls,
//! installs the corpus over the wire, and warms the serial connection.
//! Keys are Zipf-skewed by the seed; calls are drawn from the key's task.
//! The serial phase checks one call at a time on a sync `Client` (the
//! `op_*` latencies); the pipelined phase keeps a 32-deep sliding window
//! on each of two `AsyncClient` connections (`ops_per_s`). Every served
//! decision is replayed afterwards through the in-process
//! `Engine::check_session` with one `SessionState` per (connection, key).

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use conseca_core::Decision;
use conseca_engine::{Engine, SessionState};
use conseca_serve::{
    AsyncClient, Client, Pending, Request, Response, ServeConfig, Server, ServerHandle,
};

use crate::corpus::{Corpus, TENANT};
use crate::layers::{ratio, wire_costs, Layers, LoopSpans, ServerCounters, Tags};
use crate::oracle::{digest, Tally};
use crate::probes::{connect, total_calls, StreamCounts};
use crate::stats::{Rng, Samples, Windows, Zipf};
use crate::trace::{tracer, Name, PHASE_LOOP};
use crate::{repeated_setup, Args, Outcome};

const SERIAL_WARMUP: usize = 2_000;
const PIPELINED_WARMUP: usize = 4_000;
/// Checks in flight per pipelined connection.
const DEPTH: usize = 32;
/// Seconds per statistics window.
const WINDOW_S: f64 = 0.5;
/// The quantile reported as `op_tail_us`.
const TAIL: f64 = 0.9;
const CONNECTIONS: usize = 2;
/// Served messages re-encoded/decoded for the wire metrics.
const WIRE_SAMPLE: usize = 2_000;

/// One check: (key index, call index within the key's task).
type Op = (u16, u16);

/// The ops one connection sent, in order, with each served answer's
/// digest.
#[derive(Default)]
struct Sent {
    ops: Vec<Op>,
    digests: Vec<u64>,
}

struct Bench {
    server: ServerHandle,
    corpus: Corpus,
    oracle: Engine,
    zipf: Zipf,
    rng: Rng,
    /// The serial-phase connection (closed before the pipelined phase).
    serial: Option<Client>,
    serial_sent: Sent,
    counts: Vec<Arc<StreamCounts>>,
}

impl Bench {
    fn new(seed: u64) -> (Bench, f64) {
        let start = Instant::now();
        let corpus = Corpus::generate();
        let corpus_s = start.elapsed().as_secs_f64();
        let config = ServeConfig { worker_threads: crate::host::nproc(), ..ServeConfig::default() };
        let server = Server::start(Arc::new(Engine::default()), config);
        let mut counts = Vec::new();
        let mut serial = Client::over(connect(&server, true, &mut counts)).expect("handshake");
        let oracle = Engine::default();
        for (key, policy) in corpus.keys.iter().zip(&corpus.policies) {
            serial.install(TENANT, key.description, &key.context, policy).expect("install");
            oracle.install(TENANT, key.description, &key.context, policy);
        }
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(corpus.keys.len(), 1.0, &mut rng);
        let mut bench = Bench {
            server,
            corpus,
            oracle,
            zipf,
            rng,
            serial: Some(serial),
            serial_sent: Sent::default(),
            counts,
        };
        for _ in 0..SERIAL_WARMUP {
            bench.serial_check();
        }
        (bench, corpus_s)
    }

    fn next_op(&mut self) -> Op {
        let key = self.zipf.sample(&mut self.rng);
        let calls = self.corpus.calls[self.corpus.keys[key].task].len();
        (key as u16, self.rng.below(calls) as u16)
    }

    fn request(&self, (key, call): Op) -> Request {
        let k = &self.corpus.keys[key as usize];
        Request::Check {
            tenant: TENANT.into(),
            task: k.description.into(),
            context: k.context.clone(),
            call: self.corpus.calls[k.task][call as usize].clone(),
        }
    }

    /// One serial check; returns its latency in µs.
    fn serial_check(&mut self) -> f64 {
        let op = self.next_op();
        let k = &self.corpus.keys[op.0 as usize];
        let call = &self.corpus.calls[k.task][op.1 as usize];
        let span = tracer().open(Name::Op, 0);
        let start = Instant::now();
        let client = self.serial.as_mut().expect("serial phase");
        let served = client.check(TENANT, k.description, &k.context, call);
        let elapsed = start.elapsed();
        tracer().close(span);
        self.serial_sent.ops.push(op);
        self.serial_sent.digests.push(served.map_or(u64::MAX, |d| digest(&d)));
        elapsed.as_nanos() as f64 / 1e3
    }

    fn submit(&mut self, client: &AsyncClient, sent: &mut Sent) -> Pending<Option<Decision>> {
        let op = self.next_op();
        let k = &self.corpus.keys[op.0 as usize];
        let call = &self.corpus.calls[k.task][op.1 as usize];
        let span = tracer().open(Name::Submit, 0);
        let pending = client.check(TENANT, k.description, &k.context, call).expect("submit");
        tracer().close(span);
        sent.ops.push(op);
        pending
    }

    /// Completes the oldest check on each connection and refills its
    /// window; returns the checks completed.
    fn turn(
        &mut self,
        clients: &[AsyncClient],
        inflight: &mut [VecDeque<Pending<Option<Decision>>>],
        sent: &mut [Sent],
    ) -> usize {
        for (c, client) in clients.iter().enumerate() {
            let pending = inflight[c].pop_front().expect("window is full");
            let span = tracer().open(Name::Wait, 0);
            let served = pending.wait();
            tracer().close(span);
            sent[c].digests.push(served.map_or(u64::MAX, |d| digest(&d)));
            let next = self.submit(client, &mut sent[c]);
            inflight[c].push_back(next);
        }
        clients.len()
    }

    /// Replays one connection's ops through the in-process engine and
    /// counts every mismatch. Returns the per-check engine times (µs) and
    /// the first `keep` requests with their expected responses.
    fn verify(
        &self,
        sent: &Sent,
        tally: &mut Tally,
        keep: usize,
    ) -> (Samples, Vec<(Request, Response)>) {
        let mut sessions: HashMap<u16, SessionState> = HashMap::new();
        let mut times = Samples::default();
        let mut kept = Vec::new();
        for (i, (&op, &served)) in sent.ops.iter().zip(&sent.digests).enumerate() {
            let key = op.0;
            let k = &self.corpus.keys[key as usize];
            let call = &self.corpus.calls[k.task][op.1 as usize];
            let session = sessions.entry(key).or_default();
            let start = Instant::now();
            let expected =
                self.oracle.check_session(TENANT, k.description, &k.context, session, call);
            times.push(start.elapsed().as_nanos() as f64 / 1e3);
            tally.record(digest(&expected) == served, || {
                format!("check {i} on key {key}: served decision differs from the engine's")
            });
            if kept.len() < keep {
                kept.push((self.request(op), Response::Verdict { decision: expected }));
            }
        }
        (times, kept)
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let (built, setup_s) = repeated_setup(process_start, || Bench::new(args.seed));
    let (mut bench, corpus_s) = built;
    let mut out = Outcome { setup_s, ..Outcome::default() };
    tracer().set_phase(PHASE_LOOP);
    let mut layers = Layers::new();
    layers.insert("setup.corpus_s", corpus_s);

    // Serial phase: the op latencies.
    let mut serial_traced_ops = 0.0;
    let mut serial_reqs = (0u64, 0u64);
    for (budget, traced) in args.segments(0.5) {
        tracer().set_enabled(traced);
        let before = total_calls(&bench.counts);
        let deadline = Instant::now() + budget;
        let mut windows = Windows::new(Some(WINDOW_S), TAIL);
        let mut ops = 0u32;
        while Instant::now() < deadline {
            tracer().set_request(ops);
            let us = bench.serial_check();
            windows.record(Some(us), 1, us / 1e6);
            ops += 1;
        }
        let summary = windows.summary();
        if traced {
            let after = total_calls(&bench.counts);
            serial_reqs = (after.0 - before.0, after.1 - before.1);
            serial_traced_ops = f64::from(ops);
            out.traced_op = summary;
        } else {
            out.op = summary;
        }
    }
    tracer().set_enabled(false);
    let serial_sent = std::mem::take(&mut bench.serial_sent);
    let (engine_times, messages) = bench.verify(&serial_sent, &mut out.tally, WIRE_SAMPLE);
    let mut serial = bench.serial.take().expect("serial phase");
    let workers = serial.stats_full(TENANT).map(|s| s.workers).unwrap_or(0);
    serial.close();

    // Pipelined phase: two connections, a sliding window on each.
    let mut counts = Vec::new();
    let clients: Vec<AsyncClient> = (0..CONNECTIONS)
        .map(|_| AsyncClient::over(connect(&bench.server, false, &mut counts)).expect("handshake"))
        .collect();
    let mut sent: Vec<Sent> = (0..CONNECTIONS).map(|_| Sent::default()).collect();
    let mut inflight: Vec<VecDeque<Pending<Option<Decision>>>> =
        (0..CONNECTIONS).map(|_| VecDeque::with_capacity(DEPTH)).collect();
    let mut completed = 0usize;
    let mut pipelined_counters = None;
    for (c, client) in clients.iter().enumerate() {
        for _ in 0..DEPTH {
            let pending = bench.submit(client, &mut sent[c]);
            inflight[c].push_back(pending);
        }
    }
    while completed < PIPELINED_WARMUP {
        completed += bench.turn(&clients, &mut inflight, &mut sent);
    }
    for (budget, traced) in args.segments(0.5) {
        tracer().set_enabled(traced);
        let before_calls = total_calls(&counts);
        let before = ServerCounters::read(&bench.server);
        let start_completed = completed;
        let mut windows = Windows::new(Some(WINDOW_S), TAIL);
        let mut last = Instant::now();
        let deadline = last + budget;
        while last < deadline {
            let done = bench.turn(&clients, &mut inflight, &mut sent);
            completed += done;
            let now = Instant::now();
            windows.record(None, done, (now - last).as_secs_f64());
            last = now;
        }
        if traced {
            let after_calls = total_calls(&counts);
            pipelined_counters = Some((
                before,
                ServerCounters::read(&bench.server),
                (completed - start_completed) as f64,
                (after_calls.0 - before_calls.0, after_calls.1 - before_calls.1),
            ));
        } else {
            out.op.per_s = windows.summary().per_s;
        }
    }
    tracer().set_enabled(false);
    for (c, queue) in inflight.iter_mut().enumerate() {
        for pending in queue.drain(..) {
            sent[c].digests.push(pending.wait().map_or(u64::MAX, |d| digest(&d)));
        }
    }
    drop(clients);
    for connection in &sent {
        bench.verify(connection, &mut out.tally, 0);
    }

    out.fact("server_workers", workers);
    out.fact_str("fs", &crate::host::fs_type(Path::new(".")));
    out.fact("engine_check_p50_us", engine_times.p50());
    out.fact("pipelined_checks", completed);
    if args.trace {
        let spans = LoopSpans::new(tracer().snapshot());
        let tags = Tags::learn();
        let engine_us = engine_times.p50();
        let round_trip = spans.p50_us(Name::RoundTrip, Some(tags.check));
        let (requests, responses): (Vec<Request>, Vec<Response>) = messages.into_iter().unzip();
        let (encode, decode) = wire_costs(&requests, &responses);
        let serial_rts = spans.count(Name::RoundTrip) as f64;
        layers.insert("llm.generate_us", spans.p50_us_any_phase(Name::Generate, None));
        layers.insert("client.round_trip_us", round_trip);
        layers.insert("client.wait_us", ratio(spans.sum_us(Name::Read), serial_traced_ops));
        layers.insert("client.requests", ratio(serial_rts, serial_traced_ops));
        layers.insert("op.self_us", spans.op_self_p50_us());
        layers.insert(
            "client.install_us",
            spans.p50_us_any_phase(Name::RoundTrip, Some(tags.install)),
        );
        layers.insert("engine.check_us", engine_us);
        layers.insert("serve.vs_inproc", ratio(out.op.p50_us, engine_us));
        layers.insert("wire.encode_us", encode);
        layers.insert("wire.decode_us", decode);
        layers.insert("serve.handoff_us", (round_trip - engine_us - encode - decode).max(0.0));
        layers.insert("aclient.submit_us", spans.p50_us(Name::Submit, None));
        layers.insert("aclient.wait_us", spans.p50_us(Name::Wait, None));
        if let Some((before, after, done, (reads, writes))) = pipelined_counters {
            before.fill(&after, done, &mut layers);
            let requests = serial_rts + done;
            layers
                .insert("transport.reads_per_req", ratio((reads + serial_reqs.0) as f64, requests));
            layers.insert(
                "transport.writes_per_req",
                ratio((writes + serial_reqs.1) as f64, requests),
            );
        }
    }
    out.layers = layers;
    out
}
