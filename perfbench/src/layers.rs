//! Per-layer metrics: the list every traced run reports, and helpers that
//! turn recorded spans and counter deltas into those numbers.

use std::collections::HashMap;
use std::time::Instant;

use conseca_core::{Policy, TrustedContext};
use conseca_serve::{Request, Response, ServeMetrics, ServerHandle};
use conseca_shell::ApiCall;

use crate::stats::Samples;
use crate::trace::{Name, Span, PHASE_LOOP};

/// Every per-layer metric with its unit. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("llm.generate_us", "us"),
    ("llm.generate_calls", "count"),
    ("client.round_trip_us", "us"),
    ("client.wait_us", "us"),
    ("client.requests", "count"),
    ("op.self_us", "us"),
    ("engine.store_misses", "count"),
    ("engine.check_us", "us"),
    ("serve.vs_inproc", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("serve.handoff_us", "us"),
    ("aclient.submit_us", "us"),
    ("aclient.wait_us", "us"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.requests_per_batch", "ratio"),
    ("transport.reads_per_req", "ratio"),
    ("transport.writes_per_req", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("client.install_us", "us"),
    ("client.reload_us", "us"),
    ("client.revoke_us", "us"),
    ("journal.appends", "count"),
    ("journal.compactions", "count"),
    ("journal.io_errors", "count"),
    ("cache.invalidations", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.refetch_us", "us"),
    ("cache.fallbacks", "count"),
    ("daemon.snapshot_us", "us"),
    ("daemon.recover_s", "s"),
    ("setup.corpus_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values a workload measured, by name.
pub type Layers = HashMap<&'static str, f64>;

/// Frame tags of the request kinds the probes tell apart, learned by
/// encoding one request of each kind.
#[derive(Debug, Clone, Copy)]
pub struct Tags {
    pub check: u8,
    pub install: u8,
    pub reload: u8,
    pub revoke: u8,
}

impl Tags {
    pub fn learn() -> Tags {
        let ctx = TrustedContext::for_user("u");
        let policy = Policy::new("t");
        let tag = |r: Request| r.encode().tag;
        Tags {
            check: tag(Request::Check {
                tenant: "t".into(),
                task: "t".into(),
                context: ctx.clone(),
                call: ApiCall::new("fs", "ls", vec![]),
            }),
            install: tag(Request::Install {
                tenant: "t".into(),
                task: "t".into(),
                context: ctx.clone(),
                policy: policy.clone(),
            }),
            reload: tag(Request::Reload {
                tenant: "t".into(),
                task: "t".into(),
                context: ctx,
                policy,
            }),
            revoke: tag(Request::Revoke { tenant: "t".into(), fingerprint: 1 }),
        }
    }
}

/// Spans of the measured loop, with their self times.
pub struct LoopSpans {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl LoopSpans {
    pub fn new(all: Vec<Span>) -> Self {
        let self_ns = crate::trace::self_times(&all);
        LoopSpans { spans: all, self_ns }
    }

    fn matching(&self, name: Name, detail: Option<u8>) -> impl Iterator<Item = (usize, &Span)> {
        self.spans.iter().enumerate().filter(move |(_, s)| {
            s.phase == PHASE_LOOP
                && s.end > 0
                && s.name == name
                && detail.is_none_or(|d| s.detail == d)
        })
    }

    pub fn count(&self, name: Name) -> usize {
        self.matching(name, None).count()
    }

    pub fn p50_us(&self, name: Name, detail: Option<u8>) -> f64 {
        durations(self.matching(name, detail).map(|(_, s)| s)).p50()
    }

    pub fn sum_us(&self, name: Name) -> f64 {
        durations(self.matching(name, None).map(|(_, s)| s)).sum()
    }

    /// Median self time of the loop's `op` spans.
    pub fn op_self_p50_us(&self) -> f64 {
        let mut samples = Samples::default();
        for (i, _) in self.matching(Name::Op, None) {
            samples.push(self.self_ns[i] as f64 / 1e3);
        }
        samples.p50()
    }

    /// Median duration of `name` spans in any phase (setup included).
    pub fn p50_us_any_phase(&self, name: Name, detail: Option<u8>) -> f64 {
        durations(
            self.spans
                .iter()
                .filter(|s| s.end > 0 && s.name == name && detail.is_none_or(|d| s.detail == d)),
        )
        .p50()
    }
}

fn durations<'a>(spans: impl Iterator<Item = &'a Span>) -> Samples {
    let mut samples = Samples::default();
    for s in spans {
        samples.push(s.duration_ns() as f64 / 1e3);
    }
    samples
}

/// Median `Request::encode` and `Response::decode` times over a
/// workload's own messages.
pub fn wire_costs(requests: &[Request], responses: &[Response]) -> (f64, f64) {
    let mut encode = Samples::default();
    for request in requests {
        let t = Instant::now();
        let frame = request.encode();
        encode.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(frame);
    }
    let mut decode = Samples::default();
    for response in responses {
        let frame = response.encode();
        let t = Instant::now();
        let decoded = Response::decode(&frame);
        decode.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(decoded.is_ok());
    }
    (encode.p50(), decode.p50())
}

/// Server-side counters read before and after the traced segment.
#[derive(Debug, Clone, Copy)]
pub struct ServerCounters {
    pub serve: ServeMetrics,
    pub store_hits: u64,
    pub store_misses: u64,
    pub tenant_misses: u64,
}

impl ServerCounters {
    pub fn read(server: &ServerHandle) -> Self {
        let engine = server.engine();
        ServerCounters {
            serve: server.metrics(),
            store_hits: engine.store().hits(),
            store_misses: engine.store().misses(),
            tenant_misses: engine.tenant_counters(crate::corpus::TENANT).misses,
        }
    }

    /// Fills the counter-derived serving layers from `self` → `after`,
    /// per `ops` operations.
    pub fn fill(&self, after: &ServerCounters, ops: f64, layers: &mut Layers) {
        let requests = (after.serve.requests - self.serve.requests) as f64;
        let batches = (after.serve.batches - self.serve.batches) as f64;
        let coalesced = (after.serve.coalesced_checks - self.serve.coalesced_checks) as f64;
        let hits = (after.store_hits - self.store_hits) as f64;
        let misses = (after.store_misses - self.store_misses) as f64;
        layers.insert("serve.coalesced_ratio", ratio(coalesced, requests));
        layers.insert("serve.requests_per_batch", ratio(requests, batches));
        layers.insert("store.hit_ratio", ratio(hits, hits + misses));
        layers.insert(
            "engine.store_misses",
            ratio((after.tenant_misses - self.tenant_misses) as f64, ops),
        );
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
