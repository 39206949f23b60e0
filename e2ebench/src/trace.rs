//! Tracing for the per-layer run, entirely on the benchmark's side of
//! the program's public interface: a span recorder, a `Wrapper`
//! decorator that times every wrapper call, and self-time computation.
//!
//! Spans are kept in memory and written out once the run ends.  A span
//! opened on a client thread carries its query's id and its parent; a
//! wrapper span runs on a runtime thread that knows neither, so it is
//! attributed afterwards by interval to the one query running at its
//! start, or to the workload when concurrent queries overlap it.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use disco_algebra::{CapabilitySet, LogicalExpr};
use disco_value::Bag;
use disco_wrapper::{
    AnswerSink, AnswerSummary, Wrapper, WrapperAnswer, WrapperError, WrapperRegistry,
};

/// Name of every wrapper-call span.
pub const WRAPPER_CALL: &str = "wrapper.call";

/// How far before a span a wrapper call may have started and still
/// overlap it.  The mediator's deadline (500 ms by default) cancels
/// calls long before this.
const LONGEST_CALL_NS: u64 = 1_000_000_000;

/// A timed interval at a layer boundary.  Times are nanoseconds since
/// the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The query (operation) id; 0 when not known at record time.
    pub query: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Rows pushed into the sink (wrapper spans).
    pub rows: u64,
    /// Chunks pushed into the sink (wrapper spans).
    pub chunks: u64,
    /// When the first chunk reached the sink (wrapper spans).
    pub first_push: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    query: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    pub fn open(&self, query: u64, parent: u64, name: &'static str) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            query,
            parent,
            name,
            start: self.now(),
        }
    }

    pub fn close(&self, open: Open) {
        self.push(Span {
            id: open.id,
            query: open.query,
            parent: open.parent,
            name: open.name,
            start: open.start,
            end: self.now(),
            rows: 0,
            chunks: 0,
            first_push: None,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(&self, query: u64, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(query, parent, name);
        let out = f();
        self.close(open);
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Replaces every wrapper in `registry` with a [`TracedWrapper`] under
/// the same name.
pub fn install(registry: &WrapperRegistry, recorder: &Arc<Recorder>) {
    for name in registry.names() {
        let inner = registry
            .wrapper(&name)
            .expect("name listed by the registry");
        registry.register(Arc::new(TracedWrapper {
            inner,
            recorder: Arc::clone(recorder),
        }));
    }
}

/// Delegates to the original wrapper and records one span per call,
/// with the rows and chunks pushed into the sink and the time of the
/// first push.
pub struct TracedWrapper {
    inner: Arc<dyn Wrapper>,
    recorder: Arc<Recorder>,
}

impl TracedWrapper {
    fn record(&self, start: u64, rows: u64, chunks: u64, first_push: Option<u64>) {
        self.recorder.push(Span {
            id: self.recorder.next_id.fetch_add(1, Ordering::Relaxed),
            query: 0,
            parent: 0,
            name: WRAPPER_CALL,
            start,
            end: self.recorder.now(),
            rows,
            chunks,
            first_push,
        });
    }
}

impl Wrapper for TracedWrapper {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> &str {
        self.inner.kind()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }

    fn submit(&self, expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError> {
        let start = self.recorder.now();
        let answer = self.inner.submit(expr);
        let rows = answer.as_ref().map_or(0, |a| a.rows.len() as u64);
        let end = self.recorder.now();
        self.record(start, rows, u64::from(rows > 0), Some(end));
        answer
    }

    fn submit_streaming(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        let start = self.recorder.now();
        let mut counting = CountingSink {
            inner: sink,
            recorder: &self.recorder,
            rows: 0,
            chunks: 0,
            first_push: None,
        };
        let summary = self.inner.submit_streaming(expr, &mut counting);
        let (rows, chunks, first_push) = (counting.rows, counting.chunks, counting.first_push);
        self.record(start, rows, chunks, first_push);
        summary
    }

    fn is_available(&self) -> bool {
        self.inner.is_available()
    }
}

struct CountingSink<'a> {
    inner: &'a mut dyn AnswerSink,
    recorder: &'a Recorder,
    rows: u64,
    chunks: u64,
    first_push: Option<u64>,
}

impl AnswerSink for CountingSink<'_> {
    fn push(&mut self, rows: Bag) -> bool {
        if self.first_push.is_none() {
            self.first_push = Some(self.recorder.now());
        }
        self.rows += rows.len() as u64;
        self.chunks += 1;
        self.inner.push(rows)
    }

    fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match &mut current {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = current {
                    total += ce - cs;
                }
                current = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// The interval of one operation of the closed loop, for attributing
/// wrapper spans.
#[derive(Debug, Clone, Copy)]
pub struct OpInterval {
    pub query: u64,
    pub start: u64,
    pub end: u64,
}

/// Sets each wrapper span's `query` to the one operation whose interval
/// contains its start; spans overlapped by several concurrent
/// operations (or none) stay attributed to the workload (0).
pub fn attribute(spans: &mut [Span], ops: &[OpInterval]) {
    let mut ops = ops.to_vec();
    ops.sort_by_key(|o| o.start);
    for span in spans.iter_mut().filter(|s| s.name == WRAPPER_CALL) {
        let upto = ops.partition_point(|o| o.start <= span.start);
        let mut containing = ops[..upto]
            .iter()
            .rev()
            .take(8)
            .filter(|o| o.end >= span.start);
        if let (Some(only), None) = (containing.next(), containing.next()) {
            span.query = only.query;
        }
    }
}

/// Self time of every span: its duration minus the part covered by its
/// children.  Wrapper spans count as children of every span named in
/// `wrapper_parents` they overlap, since the runtime threads that run
/// them carry no parent.
pub fn self_times(spans: &[Span], wrapper_parents: &[&str]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let wrappers: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == WRAPPER_CALL)
        .map(|s| (s.start, s.end))
        .collect();
    spans
        .iter()
        .filter(|s| s.name != WRAPPER_CALL)
        .map(|s| {
            let mut inner = children.get(&s.id).cloned().unwrap_or_default();
            if wrapper_parents.contains(&s.name) {
                let lo =
                    wrappers.partition_point(|w| w.0 < s.start.saturating_sub(LONGEST_CALL_NS));
                inner.extend(
                    wrappers[lo..]
                        .iter()
                        .take_while(|w| w.0 <= s.end)
                        .filter(|w| w.1 >= s.start),
                );
            }
            (s.id, s.duration() - covered(s.start, s.end, inner))
        })
        .collect()
}

/// Writes the spans as CSV (`id,query,parent,name,start_ns,end_ns,rows,
/// chunks,first_push_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id,query,parent,name,start_ns,end_ns,rows,chunks,first_push_ns"
    )?;
    for s in spans {
        let first = s.first_push.map_or(String::new(), |t| t.to_string());
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            s.id, s.query, s.parent, s.name, s.start, s.end, s.rows, s.chunks, first
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            query: 1,
            parent,
            name,
            start,
            end,
            rows: 0,
            chunks: 0,
            first_push: None,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, [(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(20, 55, [(10, 30), (50, 70)]), 15);
        assert_eq!(covered(0, 10, [(20, 30)]), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_overlapping_wrapper_calls() {
        let spans = vec![
            span(1, 0, "query", 0, 100),
            span(2, 1, "runtime.execute", 10, 90),
            span(3, 0, WRAPPER_CALL, 20, 40),
            span(4, 0, WRAPPER_CALL, 30, 50),
        ];
        let selfs = self_times(&spans, &["runtime.execute"]);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 50);
    }

    #[test]
    fn wrapper_spans_go_to_the_single_enclosing_operation() {
        let mut spans = vec![
            span(1, 0, WRAPPER_CALL, 15, 20),
            span(2, 0, WRAPPER_CALL, 35, 40),
        ];
        for s in &mut spans {
            s.query = 0;
        }
        let ops = [
            OpInterval {
                query: 7,
                start: 10,
                end: 30,
            },
            OpInterval {
                query: 8,
                start: 25,
                end: 50,
            },
            OpInterval {
                query: 9,
                start: 32,
                end: 45,
            },
        ];
        attribute(&mut spans, &ops);
        assert_eq!(spans[0].query, 7);
        assert_eq!(spans[1].query, 0, "overlapping operations: workload-level");
    }
}
