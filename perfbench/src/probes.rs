//! Timing wrappers around two public layer interfaces: the policy model
//! (`PolicyModel`) and the client's transport (`Stream`). Both forward
//! untouched while tracing is off.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use conseca_core::{PolicyDraft, PolicyModel, PolicyRequest};
use conseca_serve::{DuplexStream, ServerHandle, Stream};
use futures::reactor::Registration;

use crate::trace::{tracer, Name};

/// A `PolicyModel` that records an `llm.generate` span per call.
pub struct TimedModel<M>(pub M);

impl<M: PolicyModel> PolicyModel for TimedModel<M> {
    fn generate(&self, request: &PolicyRequest) -> PolicyDraft {
        let _span = tracer().span(Name::Generate);
        self.0.generate(request)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Call counters shared by every handle of one wrapped connection.
#[derive(Debug, Default)]
pub struct StreamCounts {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
}

impl StreamCounts {
    pub fn get(&self) -> (u64, u64) {
        (self.reads.load(Ordering::Relaxed), self.writes.load(Ordering::Relaxed))
    }
}

/// Where one sync round trip stands: the request's first write opens
/// it, its second write carries the frame tag, and the response frame's
/// last byte closes it.
#[derive(Debug, Default)]
struct RoundTrip {
    start: Option<Instant>,
    writes: u32,
    tag: u8,
    header: [u8; 4],
    header_len: usize,
    body_left: usize,
}

/// A `Stream` around a `DuplexStream` that counts read and write calls
/// and, for a strict request/response client (`round_trips`), records
/// one `client.round_trip` span per request plus a `transport.read`
/// span per blocking read.
pub struct TimedStream {
    inner: DuplexStream,
    counts: Arc<StreamCounts>,
    round_trip: Option<Arc<Mutex<RoundTrip>>>,
}

impl TimedStream {
    pub fn new(inner: DuplexStream, round_trips: bool) -> Self {
        TimedStream { inner, counts: Arc::default(), round_trip: round_trips.then(Arc::default) }
    }

    pub fn counts(&self) -> Arc<StreamCounts> {
        Arc::clone(&self.counts)
    }
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !tracer().enabled() {
            return self.inner.read(buf);
        }
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        let Some(rt) = &self.round_trip else { return self.inner.read(buf) };
        let start = Instant::now();
        let n = self.inner.read(buf)?;
        let end = Instant::now();
        let mut rt = rt.lock().unwrap_or_else(|e| e.into_inner());
        let Some(rt_start) = rt.start else { return Ok(n) };
        tracer().record(Name::Read, start, end);
        let mut bytes = &buf[..n];
        while !bytes.is_empty() {
            if rt.header_len < 4 {
                let take = (4 - rt.header_len).min(bytes.len());
                let at = rt.header_len;
                rt.header[at..at + take].copy_from_slice(&bytes[..take]);
                rt.header_len += take;
                bytes = &bytes[take..];
                if rt.header_len == 4 {
                    rt.body_left = u32::from_be_bytes(rt.header) as usize;
                }
            } else {
                let take = rt.body_left.min(bytes.len());
                rt.body_left -= take;
                bytes = &bytes[take..];
            }
            if rt.header_len == 4 && rt.body_left == 0 {
                tracer().record_detail(Name::RoundTrip, rt.tag, rt_start, end);
                *rt = RoundTrip::default();
                break;
            }
        }
        Ok(n)
    }
}

impl Write for TimedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !tracer().enabled() {
            return self.inner.write(buf);
        }
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(rt) = &self.round_trip {
            let mut rt = rt.lock().unwrap_or_else(|e| e.into_inner());
            if rt.start.is_none() {
                *rt = RoundTrip { start: Some(Instant::now()), ..RoundTrip::default() };
            }
            rt.writes += 1;
            if rt.writes == 2 {
                rt.tag = buf.first().copied().unwrap_or(0);
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Stream for TimedStream {
    fn try_split(&self) -> io::Result<Self> {
        Ok(TimedStream {
            inner: self.inner.try_split()?,
            counts: Arc::clone(&self.counts),
            round_trip: self.round_trip.clone(),
        })
    }

    fn close(&self) {
        self.inner.close();
    }

    fn register(&self) -> io::Result<Registration> {
        self.inner.register()
    }
}

/// Opens an in-process connection to `server` through a [`TimedStream`]
/// and keeps its counters in `counts`. The wrapper is inert while tracing
/// is off, so traced and untraced runs drive the same code path.
pub fn connect(
    server: &ServerHandle,
    round_trips: bool,
    counts: &mut Vec<Arc<StreamCounts>>,
) -> TimedStream {
    let stream = TimedStream::new(server.connect_stream().expect("connect"), round_trips);
    counts.push(stream.counts());
    stream
}

/// Total (reads, writes) over a set of wrapped connections.
pub fn total_calls(counts: &[Arc<StreamCounts>]) -> (u64, u64) {
    counts.iter().fold((0, 0), |(r, w), c| {
        let (cr, cw) = c.get();
        (r + cr, w + cw)
    })
}
