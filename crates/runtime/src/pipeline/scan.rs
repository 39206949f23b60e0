//! Leaf cursors: scans over in-memory bags and over still-streaming
//! pending sources.

use std::sync::Arc;

use disco_value::Bag;

use crate::exec::{ChunkSlice, PendingSource};

use super::{PipelineMetrics, Result, Row, RowStream};

/// Streams the elements of a bag **by reference**: the bag lives in the
/// plan (`memscan` literal data) or in the resolved `exec` outcomes, both
/// of which outlive the pipeline, so the scan yields one borrowed frame
/// per row — no clone, no collect, not even a reference-count bump.  A
/// value is cloned only if its row survives to a consumer that needs
/// ownership (join build table, distinct seen-set, the final sink).
pub(crate) struct ScanCursor<'a> {
    items: &'a [disco_value::Value],
    index: usize,
}

impl<'a> ScanCursor<'a> {
    pub(crate) fn new(bag: &'a Bag) -> Self {
        ScanCursor::over(bag.as_slice())
    }

    /// A scan over an arbitrary value slice — the parallel engine hands
    /// each worker one morsel-sized sub-slice of a leaf bag through this.
    pub(crate) fn over(items: &'a [disco_value::Value]) -> Self {
        ScanCursor { items, index: 0 }
    }
}

impl<'a> RowStream<'a> for ScanCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        let item = self.items.get(self.index)?;
        self.index += 1;
        Some(Ok(Row::borrowed(item)))
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let end = (self.index + max).min(self.items.len());
        out.extend(self.items[self.index..end].iter().map(Row::borrowed));
        self.index = end;
        Ok(self.index < self.items.len())
    }
}

/// One consumer's read position in a [`PendingSource`] spool — the wait
/// protocol, source-wait metering and error mapping shared by every
/// consumer of a pending leaf (the row scan below, the columnar spine).
///
/// Each read hands out one shared chunk run ([`ChunkSlice`]); several
/// readers of the same deduplicated call read one spool independently,
/// each with its own index.  At the execution deadline a blocked wait
/// flips the spool to unavailable and the read surfaces
/// [`RuntimeError::PendingUnavailable`](crate::RuntimeError::PendingUnavailable),
/// which the executor catches to
/// fall back to partial evaluation.
pub(crate) struct SpoolReader {
    source: Arc<PendingSource>,
    /// Read index into the spool (rows already handed out).
    index: usize,
    exhausted: bool,
}

impl SpoolReader {
    pub(crate) fn new(source: Arc<PendingSource>) -> Self {
        SpoolReader {
            source,
            index: 0,
            exhausted: false,
        }
    }

    /// Waits for the next run of arrived rows (the rest of one pushed
    /// chunk); `None` once the stream completed.  Blocked time is charged
    /// to [`PipelineMetrics::source_wait`].
    pub(crate) fn next_run(&mut self, metrics: &PipelineMetrics) -> Result<Option<ChunkSlice>> {
        if self.exhausted {
            return Ok(None);
        }
        let (progress, blocked) = self.source.wait_rows(self.index, usize::MAX);
        if !blocked.is_zero() {
            metrics.add_source_wait(blocked);
        }
        let run = progress.into_rows(self.source.repository())?;
        match &run {
            Some(rows) => self.index += rows.len(),
            None => self.exhausted = true,
        }
        Ok(run)
    }

    /// Whether [`SpoolReader::next_run`] would return without blocking.
    pub(crate) fn ready(&self) -> bool {
        self.exhausted || self.source.ready(self.index)
    }
}

/// Streams a still-resolving `exec` call row by row: runs are pulled out
/// of the [`PendingSource`] spool as the wrapper thread pushes chunks, so
/// the pipeline above combines data while slower sources are still
/// answering.  The cursor blocks only when *its own* source is behind.
///
/// Rows leave the shared chunk as owned values (one `Arc` bump each), so
/// the cursor owns its rows.  This is the row path for pending leaves the
/// columnar engine does not fuse (bare scans, `DISCO_COLUMNAR=0`).
pub(crate) struct PendingScanCursor<'a> {
    reader: SpoolReader,
    metrics: &'a PipelineMetrics,
    /// The run fetched but not yet handed out.
    run: Option<ChunkSlice>,
}

impl<'a> PendingScanCursor<'a> {
    pub(crate) fn new(source: Arc<PendingSource>, metrics: &'a PipelineMetrics) -> Self {
        PendingScanCursor {
            reader: SpoolReader::new(source),
            metrics,
            run: None,
        }
    }

    /// The current run with rows left, fetching the next one when needed;
    /// `None` when the stream completed.
    fn current(&mut self) -> Result<Option<&mut ChunkSlice>> {
        if self.run.as_ref().is_none_or(ChunkSlice::is_empty) {
            self.run = self.reader.next_run(self.metrics)?;
        }
        Ok(self.run.as_mut())
    }
}

impl<'a> RowStream<'a> for PendingScanCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        match self.current() {
            Ok(Some(run)) => {
                let row = run.split_front(1).rows()[0].clone();
                Some(Ok(Row::owned(row)))
            }
            Ok(None) => None,
            Err(err) => Some(Err(err)),
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        match self.current()? {
            Some(run) => {
                let batch = run.split_front(max);
                out.extend(batch.rows().iter().cloned().map(Row::owned));
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn ready(&self) -> bool {
        self.run.as_ref().is_some_and(|run| !run.is_empty()) || self.reader.ready()
    }
}

/// A scan over one shared chunk run — the parallel engine's morsel unit
/// for *growing* (pending) sources: workers claim runs as they land in
/// the spool and run their cursor tree over each.
pub(crate) struct ChunkScanCursor {
    rows: ChunkSlice,
}

impl ChunkScanCursor {
    pub(crate) fn new(rows: ChunkSlice) -> Self {
        ChunkScanCursor { rows }
    }
}

impl<'a> RowStream<'a> for ChunkScanCursor {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        if self.rows.is_empty() {
            return None;
        }
        Some(Ok(Row::owned(self.rows.split_front(1).rows()[0].clone())))
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let batch = self.rows.split_front(max);
        out.extend(batch.rows().iter().cloned().map(Row::owned));
        Ok(!self.rows.is_empty())
    }
}
