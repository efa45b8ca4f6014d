//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own probes around calls into
//! each layer's public API — nothing inside the program is instrumented.
//! Each span has a name, start, end, the span that caused it (the
//! innermost span open on the recording thread) and the request id the
//! workload was serving. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span names: one per layer boundary the probes wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One timed workload operation (task, check, mutation).
    Op,
    /// `PolicyModel::generate`.
    Generate,
    /// A sync-client request frame written until its response frame read.
    RoundTrip,
    /// One blocking transport read inside a round trip.
    Read,
    /// `AsyncClient::check` (submit).
    Submit,
    /// `Pending::wait`.
    Wait,
    /// `CachedClient::check`.
    CacheCheck,
    /// `LifecycleDaemon::snapshot_now`.
    Snapshot,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Generate => "llm.generate",
            Name::RoundTrip => "client.round_trip",
            Name::Read => "transport.read",
            Name::Submit => "aclient.submit",
            Name::Wait => "aclient.wait",
            Name::CacheCheck => "cache.check",
            Name::Snapshot => "daemon.snapshot",
        }
    }
}

/// Which part of the run a span belongs to.
pub const PHASE_SETUP: u8 = 0;
pub const PHASE_LOOP: u8 = 1;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `end == 0` while open. `detail` carries a
/// name-specific byte (the request frame tag for round trips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub detail: u8,
    pub phase: u8,
    pub parent: u32,
    pub req: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub fn parent(&self) -> Option<usize> {
        (self.parent != NO_PARENT).then_some(self.parent as usize)
    }
}

/// Most spans kept; later ones are counted and dropped so a long traced
/// run stays bounded in memory.
pub const SPAN_CAP: usize = 1 << 20;

pub struct Tracer {
    on: AtomicBool,
    phase: AtomicU8,
    req: AtomicU32,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide recorder (disabled until [`Tracer::set_enabled`]).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            phase: AtomicU8::new(PHASE_SETUP),
            req: AtomicU32::new(0),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_phase(&self, phase: u8) {
        self.phase.store(phase, Ordering::Relaxed);
    }

    /// The request id stamped on spans from now on.
    pub fn set_request(&self, id: u32) {
        self.req.store(id, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    fn at(&self, t: Instant) -> u64 {
        // +1 keeps 0 free to mean "still open".
        t.saturating_duration_since(self.epoch).as_nanos() as u64 + 1
    }

    fn push(&self, name: Name, detail: u8, start: u64, end: u64) -> Option<u32> {
        let parent = OPEN.with(|open| open.borrow().last().copied()).unwrap_or(NO_PARENT);
        let span = Span {
            name,
            detail,
            phase: self.phase.load(Ordering::Relaxed),
            parent,
            req: self.req.load(Ordering::Relaxed),
            start,
            end,
        };
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() >= SPAN_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        spans.push(span);
        Some((spans.len() - 1) as u32)
    }

    /// Opens a span as the child of the innermost open span on this
    /// thread; it becomes the innermost until [`close`](Self::close).
    /// `None` when tracing is off or the buffer is full.
    pub fn open(&self, name: Name, detail: u8) -> Option<u32> {
        if !self.enabled() {
            return None;
        }
        let id = self.push(name, detail, self.now(), 0)?;
        OPEN.with(|open| open.borrow_mut().push(id));
        Some(id)
    }

    pub fn close(&self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end = self.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.remove(pos);
            }
        });
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(span) = spans.get_mut(id as usize) {
            span.end = end;
        }
    }

    /// Opens a span closed when the guard drops.
    pub fn span(&self, name: Name) -> Guard {
        Guard(self.open(name, 0))
    }

    /// Records an already-finished leaf span under the innermost open
    /// span.
    pub fn record(&self, name: Name, start: Instant, end: Instant) {
        self.record_detail(name, 0, start, end);
    }

    /// [`record`](Self::record) with a name-specific detail byte.
    pub fn record_detail(&self, name: Name, detail: u8, start: Instant, end: Instant) {
        if self.enabled() {
            self.push(name, detail, self.at(start), self.at(end));
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every span recorded so far (closed or not).
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Closes its span on drop.
pub struct Guard(Option<u32>);

impl Drop for Guard {
    fn drop(&mut self) {
        tracer().close(self.0.take());
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once, and a
/// child's time outside its parent's interval does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent() {
            if let Some(list) = children.get_mut(parent) {
                list.push((span.start, span.end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            let (lo, hi) = (span.start, span.end.max(span.start));
            let mut clipped: Vec<(u64, u64)> = kids
                .drain(..)
                .map(|(s, e)| (s.max(lo), e.min(hi)))
                .filter(|(s, e)| s < e)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for (s, e) in clipped {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (hi - lo) - covered
        })
        .collect()
}

/// Writes the spans as tab-separated lines:
/// `id name detail phase start_ns end_ns parent req`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tdetail\tphase\tstart_ns\tend_ns\tparent\treq")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent().map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{}",
            s.name.label(),
            s.detail,
            s.phase,
            s.start,
            s.end,
            s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: Name::Op,
            detail: 0,
            phase: PHASE_LOOP,
            parent: parent.unwrap_or(NO_PARENT),
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,60).
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_parent() {
        // Children [10,30) and [20,50) overlap: 40 covered, not 50.
        // Child [90,130) sticks out of the parent: only 10 counts.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
        // A child covering the whole parent leaves no self time.
        let spans = [span(5, 10, None), span(0, 20, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn open_spans_nest_by_thread() {
        let t = Tracer::new();
        t.set_enabled(true);
        let outer = t.open(Name::Op, 0);
        let inner = t.open(Name::Read, 0);
        t.close(inner);
        t.record(Name::Generate, Instant::now(), Instant::now());
        t.close(outer);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent(), Some(0));
        assert_eq!(spans[2].parent(), Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start && s.end > 0));
        t.set_enabled(false);
        assert_eq!(t.open(Name::Op, 0), None);
    }
}
