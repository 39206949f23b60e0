//! Set-up, the closed loops, and the metrics of one run.
//!
//! The program is driven only through its public entry points:
//! `Mediator::query` (`scan_wide`, `join_selective`), `Session::query`
//! (`serving_fanout`) and `DiscoServer::update_catalog`.  The traced run
//! adds a *layered* operation that makes the same public calls, in the
//! same order, as `Mediator::query` / `Session::query` (plan cache →
//! parse → compile → optimize → execute), each inside a span.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use disco_algebra::CapabilitySet;
use disco_catalog::{Attribute, Catalog, InterfaceDef, MetaExtent, TypeRef};
use disco_core::Mediator;
use disco_optimizer::{compile_query, CalibrationStore, CostParams, Optimizer, Plan, PlanCache};
use disco_oql::parse_query;
use disco_runtime::{Answer, ExecutionStats, Executor, ResolutionMode, SourcePool};
use disco_server::{DiscoServer, ServerConfig, ServerStats, Session};
use disco_source::Table;
use disco_wrapper::WrapperRegistry;

use crate::json::Json;
use crate::stats::{mean, median, quantile, tail_percentile, Percentile};
use crate::trace::{self, OpInterval, Recorder, Span, WRAPPER_CALL};
use crate::workload::{Multiset, Op, Oracle, Shape, Spec, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The query phase runs at least until this many untraced queries
/// completed (15 rounds of 7), so that p90 has ten samples beyond it.
const MIN_PLAIN_SAMPLES: usize = 105;
/// Each mode of a traced run needs at least this many queries.
const MIN_TRACED_SAMPLES: usize = 20;
/// The query phase never runs longer than this.
const PHASE_CAP: Duration = Duration::from_secs(130);
/// Admission cap and per-repository pool cap of `serving_fanout`.
const SERVING_CAP: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// How an operation reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `Mediator::query` / `Session::query`, untimed inside.
    Plain,
    /// `Session::query` inside a `server.query` span.
    Whole,
    /// The same public calls the entry point makes, one span each.
    Layered,
}

/// The program instance of one set-up.
struct Fed {
    mediator: Mediator,
    server: DiscoServer,
    pool: Option<Arc<SourcePool>>,
    /// The churn source's extent, absent from the catalog after set-up.
    churn: MetaExtent,
}

/// The mediator settings the layered path replays.
struct Settings {
    calibration: Arc<CalibrationStore>,
    cost_params: CostParams,
    deadline: Option<Duration>,
    resolution: ResolutionMode,
}

struct Ctx<'a> {
    spec: &'a Spec,
    fed: &'a Fed,
    settings: Settings,
    recorder: Option<&'a Arc<Recorder>>,
    /// The layered path's plan cache, filled with the same plans as the
    /// program's cache during warm-up.
    replica: PlanCache,
    epoch: Instant,
}

impl<'a> Ctx<'a> {
    fn new(
        spec: &'a Spec,
        fed: &'a Fed,
        recorder: Option<&'a Arc<Recorder>>,
        replica: PlanCache,
        epoch: Instant,
    ) -> Self {
        let m = &fed.mediator;
        Ctx {
            spec,
            fed,
            settings: Settings {
                calibration: Arc::clone(m.calibration()),
                cost_params: m.cost_params(),
                deadline: m.deadline(),
                resolution: m.resolution(),
            },
            recorder,
            replica,
            epoch,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn served(&self) -> bool {
        self.spec.workload.served()
    }

    fn registry(&self) -> &WrapperRegistry {
        if self.served() {
            self.fed.server.registry()
        } else {
            self.fed.mediator.registry()
        }
    }

    /// The catalog the entry point would plan against right now.
    fn catalog(&self) -> CatalogRef<'_> {
        if self.served() {
            CatalogRef::Snapshot(self.fed.server.catalog().snapshot())
        } else {
            CatalogRef::Mediator(self.fed.mediator.catalog())
        }
    }

    fn optimizer(&self) -> Optimizer {
        Optimizer::with_store(
            self.registry().clone(),
            Arc::clone(&self.settings.calibration),
        )
        .with_cost_params(self.settings.cost_params)
    }

    fn mode(&self, op_index: usize) -> Mode {
        match (self.recorder.is_some(), self.served()) {
            (false, _) => Mode::Plain,
            (true, false) => [Mode::Plain, Mode::Layered][op_index % 2],
            (true, true) => [Mode::Plain, Mode::Whole, Mode::Layered][op_index % 3],
        }
    }
}

enum CatalogRef<'a> {
    Mediator(&'a Catalog),
    Snapshot(Arc<Catalog>),
}

impl std::ops::Deref for CatalogRef<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        match self {
            CatalogRef::Mediator(c) => c,
            CatalogRef::Snapshot(c) => c,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Ok,
    Partial,
    Error(String),
    Mismatch(String),
}

/// What the layered path learns about the plan it ran.
#[derive(Debug, Clone)]
struct PlanInfo {
    est_rows: f64,
    alternatives: usize,
    fingerprint: u64,
    strategy: &'static str,
}

impl PlanInfo {
    fn of(plan: &Plan) -> Self {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", plan.physical).hash(&mut hasher);
        PlanInfo {
            est_rows: plan.cost.rows,
            alternatives: plan.alternatives.len(),
            fingerprint: hasher.finish(),
            strategy: plan.chosen_strategy(),
        }
    }
}

/// The execution counters a sample keeps (not the per-call list, whose
/// size would grow the benchmark's own memory with the source count).
#[derive(Debug, Clone, Copy)]
struct Counters {
    elapsed: Duration,
    rows_transferred: usize,
    rows_kernel: usize,
    rows_fallback: usize,
    rows_materialized: usize,
    source_wait: Duration,
    time_to_first_row: Option<Duration>,
}

impl Counters {
    fn of(stats: &ExecutionStats) -> Self {
        Counters {
            elapsed: stats.elapsed,
            rows_transferred: stats.rows_transferred,
            rows_kernel: stats.rows_kernel,
            rows_fallback: stats.rows_fallback,
            rows_materialized: stats.rows_materialized,
            source_wait: stats.source_wait,
            time_to_first_row: stats.time_to_first_row,
        }
    }
}

/// One query of the closed loop.
struct Sample {
    query: u64,
    template: &'static str,
    text: String,
    mode: Mode,
    start: u64,
    end: u64,
    outcome: Outcome,
    answer_rows: usize,
    stats: Option<Counters>,
    plan: Option<PlanInfo>,
    drop_ns: u64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ns_to_ms(self.end - self.start)
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn err_string(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Everything one client thread observed.
#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    updates_ms: Vec<f64>,
    update_failures: Vec<String>,
    /// Time spent checking answers, excluded from throughput.
    pause: Duration,
}

/// The result of one run, ready for printing.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub detail: Json,
    pub mismatches: Vec<String>,
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let spec = Spec::new(opts.workload, opts.seed);
    // Data generation, outside every timed interval.
    let tables: Vec<Table> = spec.sources.iter().map(|s| s.table()).collect();
    let churn_table = spec.churn.table();
    let recorder = opts.trace.then(|| Arc::new(Recorder::new(epoch)));

    // Set-up, several times; the last instance is the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        drop(warm.take());
        let (fed, registration) = setup(
            &spec,
            tables.clone(),
            churn_table.clone(),
            recorder.as_ref(),
        )?;
        let ctx = Ctx::new(&spec, &fed, recorder.as_ref(), PlanCache::new(), epoch);
        let warmup = warm_up(&ctx)?;
        setup_s.push((registration + warmup.elapsed).as_secs_f64());
        drop(ctx);
        warm = Some((fed, warmup));
    }
    let (fed, warmup) = warm.expect("at least one set-up");
    let ctx = Ctx::new(&spec, &fed, recorder.as_ref(), warmup.replica, epoch);

    // The timed query phase.
    let cache_before = plan_cache_stats(&ctx);
    let server_before = fed.server.stats();
    let pool_before = fed.pool.as_ref().map(|p| p.queue_stats());
    let cpu_before = cpu_ms();
    let phase_start = ctx.now();
    let started = Instant::now();
    let outs = closed_loop(&ctx, opts);
    let phase_wall = started.elapsed();
    let phase_end = ctx.now();
    let cpu_ms_used = cpu_ms() - cpu_before;
    let cache_after = plan_cache_stats(&ctx);
    let server_after = fed.server.stats();
    let pool_after = fed.pool.as_ref().map(|p| p.queue_stats());

    let mut samples: Vec<Sample> = Vec::new();
    let mut updates_ms: Vec<f64> = Vec::new();
    let mut update_failures: Vec<String> = Vec::new();
    let mut pause = Duration::ZERO;
    for out in outs {
        samples.extend(out.samples);
        updates_ms.extend(out.updates_ms);
        update_failures.extend(out.update_failures);
        pause += out.pause;
    }
    samples.sort_by_key(|s| s.start);

    let peak_rss = peak_rss_mib();

    // Failure accounting over every operation attempted: warm-up and
    // timed phase.
    let all_outcomes = warmup
        .outcomes
        .iter()
        .chain(samples.iter().map(|s| &s.outcome));
    let mut errors = 0;
    let mut partial = 0;
    let mut mismatches = Vec::new();
    for outcome in all_outcomes {
        match outcome {
            Outcome::Ok => {}
            Outcome::Partial => partial += 1,
            Outcome::Error(e) => {
                errors += 1;
                if errors <= 3 {
                    eprintln!("query error: {e}");
                }
            }
            Outcome::Mismatch(m) => mismatches.push(m.clone()),
        }
    }
    errors += update_failures.len();
    let attempted =
        warmup.outcomes.len() + samples.len() + updates_ms.len() + update_failures.len();
    let failed = errors + partial + mismatches.len();
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| s.mode == Mode::Plain)
        .map(Sample::latency_ms)
        .collect();
    let clients = spec.clients as f64;
    let queries_per_s =
        samples.len() as f64 / (phase_wall.as_secs_f64() - pause.as_secs_f64() / clients);

    let mut detail = vec![
        ("workload", Json::str(spec.workload.name())),
        (
            "seed",
            Json::Int(i64::try_from(opts.seed).unwrap_or(i64::MAX)),
        ),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::count(nproc())),
        ("clients", Json::count(spec.clients)),
        ("commit", Json::str(commit())),
        ("sources", Json::count(spec.sources.len())),
        ("rows_per_source", Json::count(spec.sources[0].rows.len())),
        ("phase_s", Json::Num(phase_wall.as_secs_f64())),
        ("queries", Json::count(samples.len())),
        ("catalog_updates", Json::count(updates_ms.len())),
        ("errors", Json::count(errors)),
        ("partial_answers", Json::count(partial)),
        ("wrong_answers", Json::count(mismatches.len())),
        ("error_rate", Json::Num(error_rate)),
        (
            "setup_s_samples",
            Json::Arr(setup_s.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("template_p50_ms", template_medians(&samples)),
        ("by_third", thirds(&samples, phase_start, phase_end)),
        ("plan_stability", plan_stability(&samples, &warmup.plans)),
    ];

    let metrics = if opts.trace {
        let recorder = recorder.as_ref().expect("traced run");
        let mut spans: Vec<Span> = recorder
            .spans()
            .into_iter()
            .filter(|s| (phase_start..=phase_end).contains(&s.start))
            .collect();
        let ops: Vec<OpInterval> = samples
            .iter()
            .map(|s| OpInterval {
                query: s.query,
                start: s.start,
                end: s.end,
            })
            .collect();
        trace::attribute(&mut spans, &ops);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.csv", spec.workload.name()));
        if let Err(e) = trace::write_csv(&path, &spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
        let layer = Layers {
            ctx: &ctx,
            samples: &samples,
            spans: &spans,
            plain: &plain,
            cpu_ms: cpu_ms_used,
            cache: (
                cache_after.0 - cache_before.0,
                cache_after.1 - cache_before.1,
            ),
            server: (server_before, server_after),
            pool: pool_before.zip(pool_after),
        };
        let (metrics, self_ms) = layer.metrics();
        detail.push(("self_ms_p50", self_ms));
        detail.push(("spans", Json::count(spans.len())));
        detail.push((
            "not_applicable",
            Json::Arr(if spec.workload.served() {
                Vec::new()
            } else {
                [
                    "server.query_ms",
                    "server.admission_wait_ms",
                    "server.admission_queued_ratio",
                ]
                .into_iter()
                .chain(["server.pool_wait_ms", "server.pool_queued_ratio"])
                .map(Json::str)
                .collect()
            }),
        ));
        metrics
    } else {
        let p50 = median(&plain).ok_or("no untraced query completed")?;
        let p90: Percentile = tail_percentile(&plain, 0.9).ok_or_else(|| {
            format!(
                "only {} untraced queries in the phase cap: too few for a p90 with \
                 10 samples beyond it",
                plain.len()
            )
        })?;
        detail.push((
            "samples",
            Json::obj([
                ("query_p50_ms", Json::count(plain.len())),
                ("query_p90_ms", Json::count(p90.samples)),
                ("query_p90_ms_beyond", Json::count(p90.beyond)),
                ("catalog_update_p50_ms", Json::count(updates_ms.len())),
                ("setup_s", Json::count(setup_s.len())),
            ]),
        ));
        vec![
            ("setup_s", median(&setup_s).expect("set-up ran"), "s"),
            ("query_p50_ms", p50, "ms"),
            ("query_p90_ms", p90.value, "ms"),
            ("queries_per_s", queries_per_s, "1/s"),
            (
                "catalog_update_p50_ms",
                median(&updates_ms).ok_or("no catalog update succeeded")?,
                "ms",
            ),
            ("peak_rss_mib", peak_rss, "MiB"),
        ]
    };

    Ok(RunResult {
        correct: mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        detail: Json::obj(detail),
        mismatches,
    })
}

/// Registers the sources and creates the server.  Returns the program
/// time spent (data generation excluded).
fn setup(
    spec: &Spec,
    tables: Vec<Table>,
    churn_table: Table,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(Fed, Duration), String> {
    let started = Instant::now();
    let mut mediator = Mediator::new(format!("bench-{}", spec.workload.name()));
    mediator
        .define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .map_err(err_string)?;
    for (source, table) in spec.sources.iter().zip(tables) {
        mediator
            .add_relational_source(
                &source.extent,
                "Person",
                &source.repository,
                table,
                spec.profile.clone(),
                CapabilitySet::full(),
            )
            .map_err(err_string)?;
    }
    // The churn source is registered (wrapper, repository) but its
    // extent starts outside the catalog.
    mediator
        .add_relational_source(
            &spec.churn.extent,
            "Person",
            &spec.churn.repository,
            churn_table,
            spec.profile.clone(),
            CapabilitySet::full(),
        )
        .map_err(err_string)?;
    let churn = mediator
        .remove_extent(&spec.churn.extent)
        .map_err(err_string)?;
    let registration = started.elapsed();

    if let Some(recorder) = recorder {
        trace::install(mediator.registry(), recorder);
    }

    let started = Instant::now();
    let (config, pool) = if spec.workload.served() {
        let pool = Arc::new(SourcePool::new(SERVING_CAP));
        let config = ServerConfig::default()
            .with_max_concurrent(SERVING_CAP)
            .with_source_pool(Arc::clone(&pool));
        (config, Some(pool))
    } else {
        (ServerConfig::default(), None)
    };
    let server = DiscoServer::from_mediator(&mediator, config);
    let elapsed = registration + started.elapsed();
    Ok((
        Fed {
            mediator,
            server,
            pool,
            churn,
        },
        elapsed,
    ))
}

struct Warmup {
    elapsed: Duration,
    replica: PlanCache,
    /// The plan each warm text was cached with, by template.
    plans: Vec<(&'static str, PlanInfo)>,
    outcomes: Vec<Outcome>,
}

/// Runs every warm-up text once through the entry point, in the spec's
/// fixed order.  Just before each, the same optimizer call the entry
/// point is about to make records the plan it will cache (untimed); the
/// layered path's cache receives that plan.
fn warm_up(ctx: &Ctx<'_>) -> Result<Warmup, String> {
    let session = ctx.served().then(|| ctx.fed.server.session());
    let mut oracle = Oracle::new(ctx.spec);
    let replica = PlanCache::new();
    let mut elapsed = Duration::ZERO;
    let mut plans = Vec::new();
    let mut outcomes = Vec::new();
    for shape in ctx.spec.warmup() {
        let text = shape.text();
        let catalog = ctx.catalog();
        let mut plan = ctx
            .optimizer()
            .optimize_text(&text, &catalog)
            .map_err(err_string)?;
        plan.query = Some(text.clone());
        drop(catalog);
        let started = Instant::now();
        let result = plain_query(ctx, session.as_ref(), &text);
        elapsed += started.elapsed();
        outcomes.push(check(&mut oracle, &shape, &result));
        replica.put(&plan);
        plans.push((shape.template(), PlanInfo::of(&plan)));
    }
    Ok(Warmup {
        elapsed,
        replica,
        plans,
        outcomes,
    })
}

fn plain_query(ctx: &Ctx<'_>, session: Option<&Session>, text: &str) -> Result<Answer, String> {
    match session {
        Some(session) => session.query(text),
        None => ctx.fed.mediator.query(text),
    }
    .map_err(err_string)
}

fn check(oracle: &mut Oracle<'_>, shape: &Shape, result: &Result<Answer, String>) -> Outcome {
    match result {
        Err(e) => Outcome::Error(e.clone()),
        Ok(answer) if !answer.is_complete() => Outcome::Partial,
        Ok(answer) => {
            let got = Multiset::of_values(answer.data().iter());
            match oracle.expected(shape).diff(&got) {
                None => Outcome::Ok,
                Some(diff) => Outcome::Mismatch(format!("{}: {diff}", shape.text())),
            }
        }
    }
}

fn plan_cache_stats(ctx: &Ctx<'_>) -> (u64, u64) {
    if ctx.served() {
        ctx.fed.server.stats().plan_cache
    } else {
        ctx.fed.mediator.plan_cache_stats()
    }
}

/// Runs every client's closed loop until the phase is long enough.
fn closed_loop(ctx: &Ctx<'_>, opts: &Options) -> Vec<ClientOut> {
    let counts = PhaseCounts::default();
    let target = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let enough = || {
        let elapsed = started.elapsed();
        if elapsed >= PHASE_CAP {
            return true;
        }
        let plain = counts.plain.load(Ordering::Relaxed);
        let traced = counts.traced.load(Ordering::Relaxed);
        let samples_ok = if opts.trace {
            plain >= MIN_TRACED_SAMPLES && traced >= MIN_TRACED_SAMPLES
        } else {
            plain >= MIN_PLAIN_SAMPLES
        };
        elapsed >= target && samples_ok
    };
    if ctx.spec.clients == 1 {
        return vec![client(ctx, 0, None, &counts, &enough)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.spec.clients)
            .map(|c| {
                let session = ctx.fed.server.session();
                let (counts, enough) = (&counts, &enough);
                scope.spawn(move || client(ctx, c, Some(session), counts, enough))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

#[derive(Default)]
struct PhaseCounts {
    plain: AtomicUsize,
    traced: AtomicUsize,
}

/// One client: whole rounds until `enough` holds at a round boundary.
fn client(
    ctx: &Ctx<'_>,
    index: usize,
    session: Option<Session>,
    counts: &PhaseCounts,
    enough: &(dyn Fn() -> bool + Sync),
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut rounds = ctx.spec.rounds(index);
    let mut oracle = Oracle::new(ctx.spec);
    let mut churn_present = false;
    let mut op_index = 0;
    // Query ids are unique across clients.
    let mut next_query = 1_000_000 * (index as u64 + 1);
    loop {
        for op in rounds.next_round() {
            match op {
                Op::Query(shape) => {
                    let mode = ctx.mode(op_index);
                    op_index += 1;
                    next_query += 1;
                    let sample = one_query(
                        ctx,
                        session.as_ref(),
                        &shape,
                        mode,
                        next_query,
                        &mut oracle,
                        &mut out.pause,
                    );
                    let counter = if mode == Mode::Plain {
                        &counts.plain
                    } else {
                        &counts.traced
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    out.samples.push(sample);
                }
                Op::CatalogUpdate => match timed_update(ctx, &mut churn_present) {
                    Ok(ms) => out.updates_ms.push(ms),
                    Err(e) => out.update_failures.push(e),
                },
            }
        }
        if enough() {
            return out;
        }
    }
}

/// Adds the churn source if absent, removes it if present, through
/// `DiscoServer::update_catalog`; returns the call's latency in ms.
fn timed_update(ctx: &Ctx<'_>, present: &mut bool) -> Result<f64, String> {
    let add = (!*present).then(|| ctx.fed.churn.clone());
    let name = ctx.spec.churn.extent.clone();
    let span = ctx.recorder.map(|r| r.open(0, 0, "catalog.update"));
    let started = Instant::now();
    let result = ctx.fed.server.update_catalog(move |catalog| match add {
        Some(extent) => catalog.add_extent(extent),
        None => catalog.remove_extent(&name).map(drop),
    });
    let elapsed = started.elapsed();
    if let (Some(recorder), Some(span)) = (ctx.recorder, span) {
        recorder.close(span);
    }
    result.map_err(err_string)?;
    *present = !*present;
    Ok(elapsed.as_secs_f64() * 1e3)
}

fn one_query(
    ctx: &Ctx<'_>,
    session: Option<&Session>,
    shape: &Shape,
    mode: Mode,
    query: u64,
    oracle: &mut Oracle<'_>,
    pause: &mut Duration,
) -> Sample {
    let text = shape.text();
    let start = ctx.now();
    let (result, plan) = match mode {
        Mode::Plain => (plain_query(ctx, session, &text), None),
        Mode::Whole => {
            let recorder = ctx.recorder.expect("traced mode");
            let session = session.expect("served workload");
            (
                recorder.time(query, 0, "server.query", || {
                    session.query(&text).map_err(err_string)
                }),
                None,
            )
        }
        Mode::Layered => match layered_query(ctx, &text, query) {
            Ok((answer, plan)) => (Ok(answer), Some(PlanInfo::of(&plan))),
            Err(e) => (Err(e), None),
        },
    };
    let end = ctx.now();

    let checking = Instant::now();
    let outcome = check(oracle, shape, &result);
    *pause += checking.elapsed();

    let (answer_rows, stats) = match &result {
        Ok(answer) => (answer.data().len(), Some(Counters::of(answer.stats()))),
        Err(_) => (0, None),
    };
    let dropping = ctx.now();
    match (mode, ctx.recorder) {
        (Mode::Layered, Some(recorder)) => {
            recorder.time(query, 0, "value.answer_drop", || drop(result))
        }
        _ => drop(result),
    }
    let drop_ns = ctx.now() - dropping;
    Sample {
        query,
        template: shape.template(),
        text,
        mode,
        start,
        end,
        outcome,
        answer_rows,
        stats,
        plan,
        drop_ns,
    }
}

/// The public calls `Mediator::query` / `Session::query` make, in their
/// order, each in its own span: plan cache lookup, then on a miss parse,
/// compile (view and extent expansion included) and optimize, then
/// execute.  Admission is internal to the server and not replayed.
fn layered_query(ctx: &Ctx<'_>, text: &str, query: u64) -> Result<(Answer, Plan), String> {
    let recorder = ctx.recorder.expect("traced mode");
    let root = recorder.open(query, 0, "query");
    let result = (|| {
        let catalog = ctx.catalog();
        let generation = catalog.generation();
        let cached = recorder.time(query, root.id, "optimizer.plan_cache", || {
            ctx.replica.get(text, generation)
        });
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let optimizer = ctx.optimizer();
                let ast = recorder
                    .time(query, root.id, "oql.parse", || parse_query(text))
                    .map_err(err_string)?;
                let logical = recorder
                    .time(query, root.id, "optimizer.compile", || {
                        compile_query(&ast, &catalog)
                    })
                    .map_err(err_string)?;
                let mut plan = recorder
                    .time(query, root.id, "optimizer.optimize", || {
                        optimizer.optimize_logical(&logical, generation)
                    })
                    .map_err(err_string)?;
                plan.query = Some(text.to_owned());
                ctx.replica.put(&plan);
                plan
            }
        };
        let settings = &ctx.settings;
        let mut executor = Executor::new(ctx.registry().clone())
            .with_deadline(settings.deadline)
            .with_resolution(settings.resolution);
        if ctx.served() {
            executor = executor.with_threads(0).with_row_budget(None);
        }
        executor = executor.with_calibration(Arc::clone(&settings.calibration));
        if let Some(pool) = &ctx.fed.pool {
            executor = executor.with_source_pool(Arc::clone(pool));
        }
        let answer = recorder
            .time(query, root.id, "runtime.execute", || {
                executor.execute(&plan.physical, &catalog)
            })
            .map_err(err_string)?;
        Ok((answer, plan))
    })();
    recorder.close(root);
    result
}

/// Per-template median latency of the untraced queries.
fn template_medians(samples: &[Sample]) -> Json {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.mode == Mode::Plain) {
        by.entry(s.template).or_default().push(s.latency_ms());
    }
    Json::obj(
        by.into_iter()
            .map(|(t, v)| (t, Json::Num(median(&v).unwrap_or(0.0)))),
    )
}

/// Median untraced latency and mean rows shipped in each third of the
/// phase, to tell drift within a run (such as plans changing as the
/// calibration store learns) from differences between runs.
fn thirds(samples: &[Sample], start: u64, end: u64) -> Json {
    let third = (end - start) / 3 + 1;
    let mut latency: [Vec<f64>; 3] = Default::default();
    let mut shipped: [Vec<f64>; 3] = Default::default();
    for s in samples.iter().filter(|s| s.mode == Mode::Plain) {
        let i = usize::try_from(s.start.saturating_sub(start) / third).expect("small index");
        latency[i.min(2)].push(s.latency_ms());
        if let Some(stats) = &s.stats {
            shipped[i.min(2)].push(stats.rows_transferred as f64);
        }
    }
    let nums = |values: Vec<f64>| Json::Arr(values.into_iter().map(Json::Num).collect());
    Json::obj([
        (
            "p50_ms",
            nums(latency.iter().map(|p| median(p).unwrap_or(0.0)).collect()),
        ),
        (
            "rows_shipped_mean",
            nums(shipped.iter().map(|p| mean(p)).collect()),
        ),
    ])
}

/// Per template: the strategies of the plans cached at warm-up and
/// chosen by layered queries, the number of distinct physical plans,
/// and the range of rows shipped from the sources.
fn plan_stability(samples: &[Sample], warm: &[(&'static str, PlanInfo)]) -> Json {
    #[derive(Default)]
    struct Record {
        /// The cached plan's strategy per text, in warm-up order.
        warm: Vec<&'static str>,
        strategies: BTreeSet<&'static str>,
        plans: BTreeSet<u64>,
        shipped: Vec<usize>,
    }
    let mut by: BTreeMap<&str, Record> = BTreeMap::new();
    for (template, plan) in warm {
        let r = by.entry(template).or_default();
        r.warm.push(plan.strategy);
        r.strategies.insert(plan.strategy);
        r.plans.insert(plan.fingerprint);
    }
    for s in samples {
        let r = by.entry(s.template).or_default();
        if let Some(plan) = &s.plan {
            r.strategies.insert(plan.strategy);
            r.plans.insert(plan.fingerprint);
        }
        if let Some(stats) = &s.stats {
            r.shipped.push(stats.rows_transferred);
        }
    }
    Json::obj(by.into_iter().map(|(t, r)| {
        let (lo, hi) = (r.shipped.iter().min(), r.shipped.iter().max());
        (
            t,
            Json::obj([
                (
                    "warm_strategies",
                    Json::Arr(r.warm.into_iter().map(Json::str).collect()),
                ),
                (
                    "strategies",
                    Json::Arr(r.strategies.into_iter().map(Json::str).collect()),
                ),
                ("physical_plans", Json::count(r.plans.len())),
                (
                    "rows_shipped_min",
                    lo.map_or(Json::Null, |&v| Json::count(v)),
                ),
                (
                    "rows_shipped_max",
                    hi.map_or(Json::Null, |&v| Json::count(v)),
                ),
                (
                    "rows_shipped_mean",
                    Json::Num(mean(
                        &r.shipped.iter().map(|&v| v as f64).collect::<Vec<_>>(),
                    )),
                ),
            ]),
        )
    }))
}

/// Inputs of the per-layer metrics of a traced run.
struct Layers<'a> {
    ctx: &'a Ctx<'a>,
    samples: &'a [Sample],
    spans: &'a [Span],
    plain: &'a [f64],
    cpu_ms: f64,
    /// Program plan-cache (hits, misses) during the phase.
    cache: (u64, u64),
    server: (ServerStats, ServerStats),
    pool: Option<((u64, Duration), (u64, Duration))>,
}

impl Layers<'_> {
    fn metrics(&self) -> (Vec<(&'static str, f64, &'static str)>, Json) {
        let samples = self.samples;
        let queries = samples.len().max(1) as f64;
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let by_query: HashMap<u64, Vec<&Span>> =
            self.spans.iter().fold(HashMap::new(), |mut m, s| {
                m.entry(s.query).or_insert_with(Vec::new).push(s);
                m
            });
        let selfs = trace::self_times(self.spans, &["runtime.execute", "server.query"]);
        let span_of = |q: u64, name: &str| -> Vec<&Span> {
            by_query
                .get(&q)
                .map(|v| v.iter().copied().filter(|s| s.name == name).collect())
                .unwrap_or_default()
        };
        let layered: Vec<&Sample> = samples.iter().filter(|s| s.mode == Mode::Layered).collect();
        let n_layered = layered.len().max(1) as f64;
        let total_ms = |name: &str| -> f64 {
            layered
                .iter()
                .flat_map(|s| span_of(s.query, name))
                .map(|s| ns_to_ms(s.duration()))
                .sum::<f64>()
                / n_layered
        };
        let per_layered = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
            layered.iter().filter_map(|s| f(s)).collect()
        };
        let execute_span = |s: &Sample| span_of(s.query, "runtime.execute").first().copied();

        // Optimizer.
        let alternatives = per_layered(&|s| s.plan.as_ref().map(|p| p.alternatives as f64));
        let q_error = per_layered(&|s| {
            let plan = s.plan.as_ref()?;
            let (est, act) = (plan.est_rows.max(1.0), (s.answer_rows as f64).max(1.0));
            Some((est / act).max(act / est))
        });
        let mut plans_per_text: HashMap<&str, BTreeSet<u64>> = HashMap::new();
        for s in &layered {
            if let Some(p) = &s.plan {
                plans_per_text
                    .entry(&s.text)
                    .or_default()
                    .insert(p.fingerprint);
            }
        }
        let distinct_plans = plans_per_text
            .values()
            .map(BTreeSet::len)
            .max()
            .unwrap_or(0);
        let (hits, misses) = self.cache;
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

        // Catalog.
        let updates: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "catalog.update")
            .map(|s| ns_to_ms(s.duration()))
            .collect();

        // Wrapper.
        let calls: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.name == WRAPPER_CALL)
            .collect();
        let call_ms: Vec<f64> = calls.iter().map(|s| ns_to_ms(s.duration())).collect();
        let first_chunk: Vec<f64> = calls
            .iter()
            .filter_map(|s| s.first_push.map(|t| ns_to_ms(t.saturating_sub(s.start))))
            .collect();
        let rows_out: u64 = calls.iter().map(|s| s.rows).sum();
        let answer_rows: usize = samples.iter().map(|s| s.answer_rows).sum();

        // Runtime.
        let execute_ms = per_layered(&|s| execute_span(s).map(|e| ns_to_ms(e.duration())));
        let combine_self = per_layered(&|s| execute_span(s).map(|e| ns_to_ms(selfs[&e.id])));
        let unaccounted = per_layered(&|s| {
            let e = execute_span(s)?;
            let elapsed = s.stats.as_ref()?.elapsed.as_nanos() as f64 / 1e6;
            Some(ns_to_ms(e.duration()) - elapsed)
        });
        let stats: Vec<&Counters> = samples.iter().filter_map(|s| s.stats.as_ref()).collect();
        let n_stats = stats.len().max(1) as f64;
        let kernel: usize = stats.iter().map(|s| s.rows_kernel).sum();
        let transferred: usize = stats.iter().map(|s| s.rows_transferred).sum();
        let source_wait: Vec<f64> = stats
            .iter()
            .map(|s| s.source_wait.as_secs_f64() * 1e3)
            .collect();
        let first_row: Vec<f64> = stats
            .iter()
            .filter_map(|s| s.time_to_first_row.map(|t| t.as_secs_f64() * 1e3))
            .collect();
        let drop_ms = per_layered(&|s| Some(ns_to_ms(s.drop_ns)));

        // Server.
        let whole: Vec<f64> = samples
            .iter()
            .filter(|s| s.mode == Mode::Whole)
            .map(Sample::latency_ms)
            .collect();
        let (before, after) = &self.server;
        let served = (after.queries_served - before.queries_served).max(1) as f64;
        let (admission_wait, admission_queued) = if self.ctx.served() {
            (
                (after.admission_queued.1 - before.admission_queued.1).as_secs_f64() * 1e3 / served,
                (after.admission_queued.0 - before.admission_queued.0) as f64 / served,
            )
        } else {
            (0.0, 0.0)
        };
        let (pool_wait, pool_queued) = match self.pool {
            Some(((q0, w0), (q1, w1))) => (
                (w1 - w0).as_secs_f64() * 1e3 / queries,
                (q1 - q0) as f64 / calls.len().max(1) as f64,
            ),
            None => (0.0, 0.0),
        };

        let traced_p50 = if self.ctx.served() {
            med(&whole)
        } else {
            med(&layered.iter().map(|s| s.latency_ms()).collect::<Vec<_>>())
        };
        let overhead = traced_p50 / med(self.plain).max(f64::MIN_POSITIVE) - 1.0;

        let metrics = vec![
            ("oql.parse_ms", total_ms("oql.parse"), "ms"),
            ("optimizer.compile_ms", total_ms("optimizer.compile"), "ms"),
            (
                "optimizer.optimize_ms",
                total_ms("optimizer.optimize"),
                "ms",
            ),
            ("optimizer.alternatives", mean(&alternatives), "count"),
            ("optimizer.plan_cache_hit_ratio", hit_ratio, "ratio"),
            ("optimizer.rows_q_error", med(&q_error), "ratio"),
            ("optimizer.distinct_plans", distinct_plans as f64, "count"),
            ("catalog.update_ms", med(&updates), "ms"),
            ("wrapper.calls", calls.len() as f64 / queries, "count"),
            ("wrapper.call_ms", med(&call_ms), "ms"),
            (
                "wrapper.call_p90_ms",
                quantile(&call_ms, 0.9).unwrap_or(0.0),
                "ms",
            ),
            (
                "wrapper.busy_ms",
                call_ms.iter().sum::<f64>() / queries,
                "ms",
            ),
            ("wrapper.first_chunk_ms", med(&first_chunk), "ms"),
            ("wrapper.rows_out", rows_out as f64 / queries, "count"),
            (
                "wrapper.rows_per_answer_row",
                rows_out as f64 / answer_rows.max(1) as f64,
                "ratio",
            ),
            ("runtime.execute_ms", med(&execute_ms), "ms"),
            ("runtime.combine_self_ms", med(&combine_self), "ms"),
            ("runtime.unaccounted_ms", med(&unaccounted), "ms"),
            (
                "runtime.kernel_ratio",
                kernel as f64 / transferred.max(1) as f64,
                "ratio",
            ),
            (
                "runtime.rows_fallback",
                stats.iter().map(|s| s.rows_fallback as f64).sum::<f64>() / n_stats,
                "count",
            ),
            (
                "runtime.rows_materialized",
                stats
                    .iter()
                    .map(|s| s.rows_materialized as f64)
                    .sum::<f64>()
                    / n_stats,
                "count",
            ),
            ("runtime.source_wait_ms", med(&source_wait), "ms"),
            ("runtime.first_row_ms", med(&first_row), "ms"),
            ("value.answer_drop_ms", med(&drop_ms), "ms"),
            ("server.query_ms", med(&whole), "ms"),
            ("server.admission_wait_ms", admission_wait, "ms"),
            ("server.admission_queued_ratio", admission_queued, "ratio"),
            ("server.pool_wait_ms", pool_wait, "ms"),
            ("server.pool_queued_ratio", pool_queued, "ratio"),
            ("process.cpu_ms_per_query", self.cpu_ms / queries, "ms"),
            ("trace.overhead_ratio", overhead, "ratio"),
        ];

        // Median self time per layer span, over the traced queries.
        let mut self_by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name != WRAPPER_CALL) {
            self_by_name
                .entry(s.name)
                .or_default()
                .push(ns_to_ms(selfs[&s.id]));
        }
        let self_ms = Json::obj(
            self_by_name
                .into_iter()
                .map(|(n, v)| (n, Json::Num(med(&v)))),
        );
        (metrics, self_ms)
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// User plus system CPU time of the process, in ms (`/proc/self/stat`
/// reports clock ticks of 1/100 s).
fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of the line (utime, stime) are 11 and 12 after
    // the command name.
    (ticks(11) + ticks(12)) * 10.0
}

/// `VmHWM` of the process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout, when it is a git working tree.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}
