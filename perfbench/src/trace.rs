//! Tracing from outside the program: spans around calls into each layer,
//! and a timing [`StreamSource`] that attributes stream synthesis.
//!
//! Spans live in memory while the workload runs and are written out as
//! JSON lines when it ends. Nothing here touches simulated state: the
//! timing source hands out exactly the streams live synthesis does, so
//! traced reports are byte-identical to untraced ones.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bc_workloads::{AccessStream, LiveSynthesis, StreamSource, WarpOp, Workload};

/// One timed interval: `name` ran from `start_ns` to `end_ns` (relative
/// to the trace's epoch) on behalf of `owner` (a cell index or job id),
/// caused by span `parent`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub owner: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store of one run.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent's interval is known.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records span `id`.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        owner: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            owner,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a fresh leaf span under `parent`.
    pub fn leaf(&self, parent: u64, name: &'static str, owner: u64, start: Instant, end: Instant) {
        self.record(self.id(), Some(parent), name, owner, start, end);
    }

    /// Takes every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"owner\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.owner, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Time spent synthesizing access streams and the ops handed out.
#[derive(Debug, Default)]
pub struct SynthCounters {
    pub ns: AtomicU64,
    pub next_op_calls: AtomicU64,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Live synthesis with a stopwatch around `open_stream` and every
/// `next_op`. Use one per cell: its counters then hold that cell's
/// synthesis cost once the cell's `System` is dropped.
pub struct TimedSource {
    pub counters: Arc<SynthCounters>,
}

impl TimedSource {
    pub fn new() -> Self {
        TimedSource {
            counters: Arc::new(SynthCounters::default()),
        }
    }
}

impl StreamSource for TimedSource {
    fn open_stream(
        &self,
        workload: &dyn Workload,
        wf: u32,
        total_wfs: u32,
        seed: u64,
    ) -> Box<dyn AccessStream> {
        let started = Instant::now();
        let inner = LiveSynthesis.open_stream(workload, wf, total_wfs, seed);
        self.counters
            .ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
        Box::new(TimedStream {
            inner,
            ns: 0,
            calls: 0,
            counters: Arc::clone(&self.counters),
        })
    }
}

/// A stream that keeps its totals locally and publishes them when dropped.
struct TimedStream {
    inner: Box<dyn AccessStream>,
    ns: u64,
    calls: u64,
    counters: Arc<SynthCounters>,
}

impl AccessStream for TimedStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        let started = Instant::now();
        let op = self.inner.next_op();
        self.ns += elapsed_ns(started);
        self.calls += 1;
        op
    }
}

impl Drop for TimedStream {
    fn drop(&mut self) {
        self.counters.ns.fetch_add(self.ns, Ordering::Relaxed);
        self.counters
            .next_op_calls
            .fetch_add(self.calls, Ordering::Relaxed);
    }
}
