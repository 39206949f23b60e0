//! The self-calibrating cost store (§3.3).
//!
//! "DISCO solves this problem by recording previous `exec` calls to a data
//! source and the actual cost of the call.  When the exec call finishes,
//! the arguments of the call, the time taken and the amount of data
//! generated is recorded.  A new call is compared to the previous calls."
//!
//! Three lookup outcomes, exactly as in the paper:
//!
//! * **exact match** — a previous call with identical arguments; a
//!   smoothing function combines the recorded observations,
//! * **close match** — a previous call with the same structure but
//!   different constants (found through the plan fingerprint, a
//!   predicate-based matching in the spirit of the paper's reference to
//!   predicate-based caching); the smoothed observations are used,
//! * **default** — no information about the call shape.  For a
//!   repository that has never been called, "a default time cost of 0 and
//!   a data cost of 1 is used", which biases the optimizer towards pushing
//!   the maximum amount of computation to the data source.  For a
//!   repository that has answered calls before, the cost model instead
//!   estimates a new shape from the repository's recent calls (per-call
//!   time, per-row time and base cardinality), so a call that has never
//!   run is never costed as free next to one that has.

use std::collections::BTreeMap;

use disco_algebra::LogicalExpr;
use parking_lot::RwLock;

/// How many exactly-matching observations are kept per call shape
/// ("only a fixed number of exactly matching calls are recorded").
const MAX_OBSERVATIONS: usize = 8;

/// How many recent calls of any shape feed a repository's
/// [`RepositoryProfile`].
const MAX_REPOSITORY_CALLS: usize = 32;

/// One recorded `exec` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Wall-clock (or simulated) time of the call, in milliseconds.
    pub time_ms: f64,
    /// Number of rows the call returned.
    pub rows: f64,
}

/// The source of a cost estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// An exactly matching previous call was found.
    Exact,
    /// A structurally matching call (constants differ) was found.
    Close,
    /// No matching call; the paper's defaults were used.
    Default,
}

/// A cost estimate for an `exec` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated time in milliseconds.
    pub time_ms: f64,
    /// Estimated rows returned.
    pub rows: f64,
    /// How the estimate was obtained.
    pub source: MatchKind,
}

impl CostEstimate {
    /// The paper's default estimate: time 0, data 1.
    #[must_use]
    pub fn default_estimate() -> Self {
        CostEstimate {
            time_ms: 0.0,
            rows: 1.0,
            source: MatchKind::Default,
        }
    }
}

/// What a repository's recent calls, of every shape, say about a call
/// shape it has not answered yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RepositoryProfile {
    /// Fixed cost of one call, in milliseconds.
    pub(crate) per_call_ms: f64,
    /// Cost of each returned row, in milliseconds.
    pub(crate) per_row_ms: f64,
    /// Estimated rows of an unfiltered collection: the largest observed
    /// answer, scaled back through the selections pushed inside its call.
    pub(crate) base_rows: f64,
}

/// One call as seen by its repository's profile.
#[derive(Debug, Clone, Copy)]
struct RepositoryCall {
    obs: Observation,
    /// Selections pushed inside the call.
    selections: i32,
}

/// Per-repository health tracking: the best (lowest) per-row latency
/// ever observed is the repository's baseline; each call's latency in
/// excess of that baseline feeds an exponential moving average.  A
/// chronically degraded source accumulates a large smoothed excess; a
/// recovered source decays it by half per healthy observation.
#[derive(Debug, Clone, Copy)]
struct Degradation {
    /// Fastest observed per-row latency (ms/row) — the healthy baseline.
    best_per_row_ms: f64,
    /// Smoothed per-call latency excess over the baseline, in ms.
    excess_ms: f64,
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Exact observations keyed by `(repository, plan text)`.
    exact: BTreeMap<(String, String), Vec<Observation>>,
    /// Close-match observations keyed by `(repository, plan fingerprint)`.
    close: BTreeMap<(String, String), Vec<Observation>>,
    /// Recent calls of every shape, keyed by repository name.
    calls: BTreeMap<String, Vec<RepositoryCall>>,
    /// Per-repository degradation state, keyed by repository name.
    degraded: BTreeMap<String, Degradation>,
}

/// Thread-safe store of recorded `exec` calls with smoothing.
#[derive(Debug, Default)]
pub struct CalibrationStore {
    inner: RwLock<StoreInner>,
}

impl CalibrationStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        CalibrationStore::default()
    }

    /// Records a finished `exec` call: the repository, the shipped
    /// expression, the time taken and the rows returned.
    pub fn record(&self, repository: &str, expr: &LogicalExpr, time_ms: f64, rows: usize) {
        #[allow(clippy::cast_precision_loss)]
        let obs = Observation {
            time_ms,
            rows: rows as f64,
        };
        let exact_key = (repository.to_owned(), expr.to_string());
        let close_key = (repository.to_owned(), expr.fingerprint());
        let call = RepositoryCall {
            obs,
            selections: selections(expr),
        };
        let mut inner = self.inner.write();
        push_capped(&mut inner.exact, exact_key, obs, MAX_OBSERVATIONS);
        push_capped(&mut inner.close, close_key, obs, MAX_OBSERVATIONS);
        push_capped(
            &mut inner.calls,
            repository.to_owned(),
            call,
            MAX_REPOSITORY_CALLS,
        );
    }

    /// The profile of `repository` from its recent calls, or `None` when
    /// it has answered none.  `filter_selectivity` is the cost model's
    /// selectivity per selection, used to scale filtered answers back to
    /// the collection size.
    ///
    /// Time is fitted as `per_call + per_row × rows` by least squares,
    /// with both coefficients non-negative.  When the rows do not vary
    /// enough to separate the two, or the fit is not sensible, all time is
    /// charged per row (the ratio of total time to total rows), which keeps
    /// estimates strictly increasing in rows.
    #[must_use]
    pub(crate) fn repository_profile(
        &self,
        repository: &str,
        filter_selectivity: f64,
    ) -> Option<RepositoryProfile> {
        let inner = self.inner.read();
        let calls = inner.calls.get(repository).filter(|c| !c.is_empty())?;
        #[allow(clippy::cast_precision_loss)]
        let n = calls.len() as f64;
        let mean_rows = calls.iter().map(|c| c.obs.rows).sum::<f64>() / n;
        let mean_time = calls.iter().map(|c| c.obs.time_ms).sum::<f64>() / n;
        let (mut var, mut cov) = (0.0, 0.0);
        for c in calls {
            var += (c.obs.rows - mean_rows).powi(2);
            cov += (c.obs.rows - mean_rows) * (c.obs.time_ms - mean_time);
        }
        let slope = if var > 0.0 { cov / var } else { 0.0 };
        let intercept = mean_time - slope * mean_rows;
        let (per_call_ms, per_row_ms) = if slope > 0.0 && intercept >= 0.0 {
            (intercept, slope)
        } else {
            (0.0, mean_time / mean_rows.max(1.0))
        };
        let base_rows = calls
            .iter()
            .map(|c| c.obs.rows / filter_selectivity.powi(c.selections))
            .fold(1.0, f64::max);
        Some(RepositoryProfile {
            per_call_ms,
            per_row_ms,
            base_rows,
        })
    }

    /// Feeds one observed source call into the repository's degradation
    /// tracker: `latency_ms` of wall/simulated latency (including any
    /// time the mediator spent blocked waiting on the source's chunks)
    /// for `rows` rows returned.
    ///
    /// The lowest per-row latency ever seen is the repository's healthy
    /// baseline; the excess of each call over that baseline is smoothed
    /// (EWMA) into a penalty that [`CalibrationStore::estimate`] adds to
    /// every estimate against the repository — so repeated queries
    /// re-plan around a chronically degraded source, and the penalty
    /// halves with each healthy call once the source recovers.
    pub fn note_source_wait(&self, repository: &str, latency_ms: f64, rows: usize) {
        if !latency_ms.is_finite() || latency_ms < 0.0 {
            return;
        }
        #[allow(clippy::cast_precision_loss)]
        let per_row = latency_ms / rows.max(1) as f64;
        let mut inner = self.inner.write();
        let entry = inner
            .degraded
            .entry(repository.to_owned())
            .or_insert(Degradation {
                best_per_row_ms: per_row,
                excess_ms: 0.0,
            });
        if per_row < entry.best_per_row_ms {
            entry.best_per_row_ms = per_row;
        }
        #[allow(clippy::cast_precision_loss)]
        let excess = (per_row - entry.best_per_row_ms) * rows.max(1) as f64;
        let alpha = 0.5;
        entry.excess_ms = alpha * excess + (1.0 - alpha) * entry.excess_ms;
    }

    /// The smoothed latency excess (ms) of `repository` over its healthy
    /// baseline — `0.0` for an untracked or healthy repository.
    #[must_use]
    pub fn degradation_ms(&self, repository: &str) -> f64 {
        self.inner
            .read()
            .degraded
            .get(repository)
            .map_or(0.0, |d| d.excess_ms)
    }

    /// Estimates the cost of an `exec` call against `repository` shipping
    /// `expr`, using exact → close → default lookup.  The repository's
    /// smoothed degradation penalty ([`CalibrationStore::
    /// note_source_wait`]) is added to the time estimate of every match
    /// kind, so a chronically slow source costs more than its recorded
    /// call shapes alone suggest.
    #[must_use]
    pub fn estimate(&self, repository: &str, expr: &LogicalExpr) -> CostEstimate {
        let inner = self.inner.read();
        let penalty = inner.degraded.get(repository).map_or(0.0, |d| d.excess_ms);
        let exact_key = (repository.to_owned(), expr.to_string());
        if let Some(observations) = inner.exact.get(&exact_key) {
            if !observations.is_empty() {
                let (time_ms, rows) = smooth(observations);
                return CostEstimate {
                    time_ms: time_ms + penalty,
                    rows,
                    source: MatchKind::Exact,
                };
            }
        }
        let close_key = (repository.to_owned(), expr.fingerprint());
        if let Some(observations) = inner.close.get(&close_key) {
            if !observations.is_empty() {
                let (time_ms, rows) = smooth(observations);
                return CostEstimate {
                    time_ms: time_ms + penalty,
                    rows,
                    source: MatchKind::Close,
                };
            }
        }
        let mut estimate = CostEstimate::default_estimate();
        estimate.time_ms += penalty;
        estimate
    }

    /// Number of distinct exact call shapes recorded.
    #[must_use]
    pub fn exact_shapes(&self) -> usize {
        self.inner.read().exact.len()
    }

    /// Number of distinct close-match (fingerprint) shapes recorded.
    #[must_use]
    pub fn close_shapes(&self) -> usize {
        self.inner.read().close.len()
    }

    /// Total number of stored observations (exact side).
    #[must_use]
    pub fn observation_count(&self) -> usize {
        self.inner.read().exact.values().map(Vec::len).sum()
    }

    /// Clears every recorded observation and degradation state.
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.exact.clear();
        inner.close.clear();
        inner.calls.clear();
        inner.degraded.clear();
    }
}

/// Appends an entry, keeping only the most recent `cap` entries per key.
fn push_capped<K: Ord, T>(map: &mut BTreeMap<K, Vec<T>>, key: K, item: T, cap: usize) {
    let entry = map.entry(key).or_default();
    entry.push(item);
    if entry.len() > cap {
        let excess = entry.len() - cap;
        entry.drain(0..excess);
    }
}

/// The number of selections in a shipped expression.
fn selections(expr: &LogicalExpr) -> i32 {
    let mut count = 0;
    expr.walk(&mut |e| count += i32::from(matches!(e, LogicalExpr::Filter { .. })));
    count
}

/// The smoothing function: an exponentially weighted average favouring the
/// most recent observations.
fn smooth(observations: &[Observation]) -> (f64, f64) {
    let alpha = 0.5;
    let mut time = observations[0].time_ms;
    let mut rows = observations[0].rows;
    for obs in &observations[1..] {
        time = alpha * obs.time_ms + (1.0 - alpha) * time;
        rows = alpha * obs.rows + (1.0 - alpha) * rows;
    }
    (time, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{ScalarExpr, ScalarOp};

    fn filter_plan_pred(threshold: i64) -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(threshold),
        )
    }

    fn filter_plan(threshold: i64) -> LogicalExpr {
        LogicalExpr::get("person0").filter(filter_plan_pred(threshold))
    }

    #[test]
    fn defaults_match_the_paper() {
        let store = CalibrationStore::new();
        let est = store.estimate("r0", &filter_plan(10));
        assert_eq!(est.source, MatchKind::Default);
        assert_eq!(est.time_ms, 0.0);
        assert_eq!(est.rows, 1.0);
    }

    #[test]
    fn exact_match_after_recording_same_call() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        let est = store.estimate("r0", &filter_plan(10));
        assert_eq!(est.source, MatchKind::Exact);
        assert!((est.time_ms - 12.0).abs() < 1e-9);
        assert!((est.rows - 40.0).abs() < 1e-9);
    }

    #[test]
    fn close_match_when_only_constants_differ() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        let est = store.estimate("r0", &filter_plan(99));
        assert_eq!(est.source, MatchKind::Close);
        assert!(est.time_ms > 0.0);
    }

    #[test]
    fn different_repository_or_structure_falls_back_to_default() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        assert_eq!(
            store.estimate("r1", &filter_plan(10)).source,
            MatchKind::Default
        );
        let other = LogicalExpr::get("person0").project(["name"]);
        assert_eq!(store.estimate("r0", &other).source, MatchKind::Default);
    }

    #[test]
    fn smoothing_tracks_recent_observations_and_caps_history() {
        let store = CalibrationStore::new();
        for i in 0..20 {
            store.record("r0", &filter_plan(10), f64::from(i), 10);
        }
        assert_eq!(store.observation_count(), MAX_OBSERVATIONS);
        let est = store.estimate("r0", &filter_plan(10));
        // The estimate is pulled towards the most recent (larger) values.
        assert!(est.time_ms > 15.0, "estimate {est:?}");
        assert_eq!(store.exact_shapes(), 1);
        assert_eq!(store.close_shapes(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 5.0, 3);
        store.note_source_wait("r0", 100.0, 1);
        store.note_source_wait("r0", 900.0, 1);
        store.clear();
        assert_eq!(store.exact_shapes(), 0);
        assert_eq!(store.degradation_ms("r0"), 0.0);
        assert_eq!(
            store.estimate("r0", &filter_plan(10)).source,
            MatchKind::Default
        );
    }

    #[test]
    fn degradation_penalty_raises_estimates_for_slow_sources() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        // Healthy baseline: 1 ms/row.  The source then degrades ~10x.
        store.note_source_wait("r0", 40.0, 40);
        assert_eq!(store.degradation_ms("r0"), 0.0, "baseline is healthy");
        store.note_source_wait("r0", 400.0, 40);
        let penalty = store.degradation_ms("r0");
        assert!((penalty - 180.0).abs() < 1e-9, "penalty {penalty}");
        let est = store.estimate("r0", &filter_plan(10));
        assert_eq!(est.source, MatchKind::Exact);
        assert!((est.time_ms - (12.0 + penalty)).abs() < 1e-9);
        // Other repositories are unaffected, including their defaults.
        assert_eq!(store.estimate("r1", &filter_plan(10)).time_ms, 0.0);
        // The default estimate for the degraded repository also carries
        // the penalty, steering the optimizer away even without history.
        let other = LogicalExpr::get("person9").project(["name"]);
        let default = store.estimate("r0", &other);
        assert_eq!(default.source, MatchKind::Default);
        assert!((default.time_ms - penalty).abs() < 1e-9);
    }

    #[test]
    fn repository_profile_fits_per_call_and_per_row_time() {
        let store = CalibrationStore::new();
        assert_eq!(store.repository_profile("r0", 0.5), None);
        // 2 ms per call plus 0.01 ms per row, over three shapes.
        store.record("r0", &LogicalExpr::get("person0"), 12.0, 1000);
        store.record("r0", &filter_plan(10), 4.0, 200);
        store.record("r0", &filter_plan(10).filter(filter_plan_pred(5)), 2.5, 50);
        let profile = store.repository_profile("r0", 0.5).unwrap();
        assert!((profile.per_call_ms - 2.0).abs() < 1e-9, "{profile:?}");
        assert!((profile.per_row_ms - 0.01).abs() < 1e-9, "{profile:?}");
        // The largest answer scaled back through its selections: 1000
        // unfiltered, 200 / 0.5 and 50 / 0.25.
        assert!((profile.base_rows - 1000.0).abs() < 1e-9, "{profile:?}");
        // Other repositories stay unobserved.
        assert_eq!(store.repository_profile("r1", 0.5), None);
    }

    #[test]
    fn repository_profile_charges_per_row_when_rows_do_not_vary() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 0.6, 1);
        store.record("r0", &filter_plan(20), 0.8, 1);
        let profile = store.repository_profile("r0", 0.25).unwrap();
        assert_eq!(profile.per_call_ms, 0.0);
        assert!((profile.per_row_ms - 0.7).abs() < 1e-9, "{profile:?}");
        assert!((profile.base_rows - 4.0).abs() < 1e-9, "{profile:?}");
    }

    #[test]
    fn degradation_penalty_decays_once_the_source_recovers() {
        let store = CalibrationStore::new();
        store.note_source_wait("r0", 10.0, 10);
        store.note_source_wait("r0", 100.0, 10);
        let degraded = store.degradation_ms("r0");
        assert!(degraded > 0.0);
        for _ in 0..8 {
            store.note_source_wait("r0", 10.0, 10);
        }
        let recovered = store.degradation_ms("r0");
        assert!(
            recovered < degraded / 100.0,
            "penalty should decay: {degraded} -> {recovered}"
        );
    }
}
