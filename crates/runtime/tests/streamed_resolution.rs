//! Differential and fault-injection suite for **streamed source
//! resolution**: wrapper answers feed the cursor pipeline as they arrive
//! (`ResolutionMode::Streamed`) and must be observationally equivalent to
//! the blocking collect-then-combine path (`ResolutionMode::Blocking`) —
//! multiset-equal data, identical residual plans under injected
//! unavailability, identical `rows_materialized` — at 1, 2 and 4 worker
//! threads.  Fault injection covers degraded (trickling) sources,
//! mid-stream hard failures, panicking wrappers, and the deadline
//! regression: a slow source under a deadline yields the fast sources'
//! data plus a residual plan, with `time_to_first_row` well under the
//! deadline.

mod common;

use std::sync::Arc;
use std::time::Duration;

use disco_algebra::CapabilitySet;
use disco_algebra::{lower, AggKind, LogicalExpr, ScalarExpr, ScalarOp};
use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco_runtime::{AdaptiveMode, Answer, Executor, MemBudget, ResolutionMode, RuntimeError};
use disco_source::{generator, Availability, NetworkProfile, RelationalStore, SimulatedLink};
use disco_value::Value;
use disco_wrapper::{RelationalWrapper, Wrapper, WrapperAnswer, WrapperError, WrapperRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A federation of `n` relational person sources (`person0..person{n-1}`
/// on repositories `r0..`), each behind its own simulated link.
struct Federation {
    catalog: Catalog,
    registry: WrapperRegistry,
    links: Vec<Arc<SimulatedLink>>,
}

fn federation_with(profiles: &[NetworkProfile], rows: usize, seed: u64) -> Federation {
    let mut catalog = Catalog::new();
    catalog
        .define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
    let registry = WrapperRegistry::new();
    let mut links = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let extent = format!("person{i}");
        let repo = format!("r{i}");
        let wrapper_name = format!("w{i}");
        catalog
            .add_wrapper(WrapperDef::new(&wrapper_name, "relational"))
            .unwrap();
        catalog.add_repository(Repository::new(&repo)).unwrap();
        catalog
            .add_extent(MetaExtent::new(&extent, "Person", &wrapper_name, &repo))
            .unwrap();
        let store = Arc::new(RelationalStore::new());
        store.put_table(generator::person_table(&extent, rows, i as u64, seed));
        let link = Arc::new(SimulatedLink::new(&repo, profile.clone(), seed + i as u64));
        registry.register(Arc::new(RelationalWrapper::new(
            &wrapper_name,
            store,
            Arc::clone(&link),
        )));
        links.push(link);
    }
    Federation {
        catalog,
        registry,
        links,
    }
}

/// An instant, deterministic profile (no real sleeps, no jitter).
fn instant_profile(chunk_rows: usize) -> NetworkProfile {
    NetworkProfile {
        jitter: 0.0,
        chunk_rows,
        ..NetworkProfile::fast()
    }
}

fn branch(i: usize, threshold: i64) -> LogicalExpr {
    LogicalExpr::get(format!("person{i}"))
        .submit(format!("r{i}"), format!("w{i}"), format!("person{i}"))
        .filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(threshold),
        ))
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name"))
}

/// A random federated plan over `n` sources, in the shape families the
/// mediator produces (union of per-source scans, equi-join of two
/// sources, aggregate over a source, distinct over a union).
fn random_federated_plan(rng: &mut StdRng, n: usize) -> LogicalExpr {
    match rng.gen_range(0..4) {
        0 => {
            let branches = (0..n).map(|i| branch(i, rng.gen_range(0..600))).collect();
            LogicalExpr::Union(branches)
        }
        1 if n >= 2 => {
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            LogicalExpr::Join {
                left: Box::new(
                    LogicalExpr::get(format!("person{a}"))
                        .submit(format!("r{a}"), format!("w{a}"), format!("person{a}"))
                        .bind("x"),
                ),
                right: Box::new(
                    LogicalExpr::get(format!("person{b}"))
                        .submit(format!("r{b}"), format!("w{b}"), format!("person{b}"))
                        .bind("y"),
                ),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "id"),
                    ScalarExpr::var_field("y", "id"),
                )),
            }
            .map_project(ScalarExpr::var_field("x", "name"))
        }
        2 => LogicalExpr::Aggregate {
            func: [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max]
                [rng.gen_range(0..4usize)],
            input: Box::new(
                LogicalExpr::get("person0")
                    .submit("r0", "w0", "person0")
                    .bind("x")
                    .map_project(ScalarExpr::var_field("x", "salary")),
            ),
        },
        _ => {
            let branches = (0..n).map(|i| branch(i, rng.gen_range(0..600))).collect();
            LogicalExpr::Distinct(Box::new(LogicalExpr::Union(branches)))
        }
    }
}

fn execute(
    federation: &Federation,
    plan: &LogicalExpr,
    mode: ResolutionMode,
    threads: usize,
    deadline: Option<Duration>,
) -> disco_runtime::Result<Answer> {
    let physical = lower(plan).unwrap();
    Executor::new(federation.registry.clone())
        .with_resolution(mode)
        .with_threads(threads)
        .with_deadline(deadline)
        .execute(&physical, &federation.catalog)
}

/// Asserts full observational equivalence of the two resolution modes.
fn assert_equivalent(plan: &LogicalExpr, federation: &Federation, threads: usize, label: &str) {
    let deadline = Some(Duration::from_secs(5));
    let blocking = execute(
        federation,
        plan,
        ResolutionMode::Blocking,
        threads,
        deadline,
    )
    .unwrap_or_else(|e| panic!("{label}: blocking failed: {e}"));
    let streamed = execute(
        federation,
        plan,
        ResolutionMode::Streamed,
        threads,
        deadline,
    )
    .unwrap_or_else(|e| panic!("{label}: streamed failed: {e}"));
    assert_eq!(
        blocking.data(),
        streamed.data(),
        "{label}: answer multisets differ"
    );
    assert_eq!(
        blocking.is_complete(),
        streamed.is_complete(),
        "{label}: completeness differs"
    );
    assert_eq!(
        blocking.residual(),
        streamed.residual(),
        "{label}: residual plans differ"
    );
    assert_eq!(
        blocking.unavailable_sources(),
        streamed.unavailable_sources(),
        "{label}: unavailable classification differs"
    );
    assert_eq!(
        blocking.stats().rows_materialized,
        streamed.stats().rows_materialized,
        "{label}: rows_materialized differs"
    );
    assert_eq!(
        blocking.stats().rows_transferred,
        streamed.stats().rows_transferred,
        "{label}: rows_transferred differs"
    );
    assert_eq!(
        blocking.stats().exec_calls,
        streamed.stats().exec_calls,
        "{label}: exec_calls differs"
    );
}

#[test]
fn random_plans_differential_all_available() {
    let mut rng = StdRng::seed_from_u64(0xd15c0);
    for trial in 0..24 {
        let n = rng.gen_range(2..5usize);
        let chunk_rows = [0usize, 3, 16][rng.gen_range(0..3usize)];
        let federation = federation_with(
            &vec![instant_profile(chunk_rows); n],
            rng.gen_range(1..40),
            trial,
        );
        let plan = random_federated_plan(&mut rng, n);
        for threads in [1usize, 2, 4] {
            assert_equivalent(
                &plan,
                &federation,
                threads,
                &format!("trial {trial} threads {threads} chunks {chunk_rows}"),
            );
        }
    }
}

#[test]
fn random_plans_differential_with_injected_unavailability() {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for trial in 0..24 {
        let n = rng.gen_range(2..5usize);
        let chunk_rows = [0usize, 5][rng.gen_range(0..2usize)];
        let federation = federation_with(
            &vec![instant_profile(chunk_rows); n],
            rng.gen_range(1..30),
            100 + trial,
        );
        // Each source independently goes down; keep at least one run with
        // everything down to cover the pure-residual shape.
        let mut any_down = false;
        for link in &federation.links {
            if rng.gen_bool(0.4) {
                link.set_availability(Availability::Unavailable);
                any_down = true;
            }
        }
        if !any_down {
            federation.links[0].set_availability(Availability::Unavailable);
        }
        let plan = random_federated_plan(&mut rng, n);
        for threads in [1usize, 4] {
            assert_equivalent(
                &plan,
                &federation,
                threads,
                &format!("trial {trial} threads {threads}"),
            );
        }
    }
}

#[test]
fn degraded_source_streams_slowly_but_equivalently() {
    // A wrapper that trickles chunks out (degraded throughput) must still
    // produce the same answer as the blocking path, within the deadline.
    let degraded = NetworkProfile {
        jitter: 0.0,
        chunk_rows: 4,
        real_sleep: true,
        availability: Availability::Degraded { chunk_extra_ms: 5 },
        ..NetworkProfile::fast()
    };
    let mut profiles = vec![instant_profile(4); 3];
    profiles[1] = degraded;
    let federation = federation_with(&profiles, 24, 7);
    let plan = LogicalExpr::Union((0..3).map(|i| branch(i, 0)).collect());
    assert_equivalent(&plan, &federation, 1, "degraded");
    assert_equivalent(&plan, &federation, 4, "degraded parallel");
}

// ---------------------------------------------------------------------
// Adaptive scheduling over streamed federations: the adaptive build-side
// choice (build whichever source answered first) and rate-scaled claims
// must be answer-transparent in both resolution modes.
// ---------------------------------------------------------------------

fn execute_adaptive(
    federation: &Federation,
    plan: &LogicalExpr,
    mode: ResolutionMode,
    threads: usize,
    adaptive: AdaptiveMode,
) -> Answer {
    let physical = lower(plan).unwrap();
    Executor::new(federation.registry.clone())
        .with_resolution(mode)
        .with_threads(threads)
        .with_adaptive(adaptive)
        .with_deadline(Some(Duration::from_secs(5)))
        .execute(&physical, &federation.catalog)
        .expect("federated plan executes")
}

#[test]
fn adaptive_scheduling_is_transparent_over_streamed_federations() {
    let mut rng = StdRng::seed_from_u64(0xADA);
    for trial in 0..8u64 {
        let n = rng.gen_range(2..5usize);
        // One source trickles behind the others so the adaptive engine
        // has a genuinely heterogeneous federation to schedule around.
        let mut profiles = vec![instant_profile(4); n];
        profiles[0] = NetworkProfile {
            real_sleep: true,
            availability: Availability::Degraded { chunk_extra_ms: 2 },
            ..instant_profile(4)
        };
        let federation = federation_with(&profiles, rng.gen_range(10..40), 300 + trial);
        let plan = random_federated_plan(&mut rng, n);
        for mode in [ResolutionMode::Blocking, ResolutionMode::Streamed] {
            for threads in [1usize, 4] {
                let pinned = execute_adaptive(&federation, &plan, mode, threads, AdaptiveMode::Off);
                let adaptive =
                    execute_adaptive(&federation, &plan, mode, threads, AdaptiveMode::On);
                let label = format!("trial {trial} {mode:?} threads {threads}");
                // `rows_materialized` is deliberately NOT compared: the
                // adaptive build-side choice may buffer the other input.
                assert_eq!(
                    pinned.data(),
                    adaptive.data(),
                    "{label}: answer multisets differ"
                );
                assert_eq!(
                    pinned.is_complete(),
                    adaptive.is_complete(),
                    "{label}: completeness differs"
                );
                assert_eq!(
                    pinned.residual(),
                    adaptive.residual(),
                    "{label}: residual plans differ"
                );
                assert_eq!(
                    pinned.unavailable_sources(),
                    adaptive.unavailable_sources(),
                    "{label}: unavailable classification differs"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection: mid-stream failure and panicking wrappers.
// ---------------------------------------------------------------------

/// A wrapper that pushes one chunk and then fails hard mid-stream.
struct FailsMidStream;

impl Wrapper for FailsMidStream {
    fn name(&self) -> &str {
        "w_fail"
    }
    fn kind(&self) -> &str {
        "relational"
    }
    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::full()
    }
    fn submit(&self, _expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError> {
        Err(WrapperError::TypeConflict {
            extent: "person0".into(),
            missing_attribute: "salary".into(),
        })
    }
    fn submit_streaming(
        &self,
        _expr: &LogicalExpr,
        sink: &mut dyn disco_wrapper::AnswerSink,
    ) -> Result<disco_wrapper::AnswerSummary, WrapperError> {
        sink.push([common::person(1, "early", 10)].into_iter().collect());
        Err(WrapperError::TypeConflict {
            extent: "person0".into(),
            missing_attribute: "salary".into(),
        })
    }
}

/// A wrapper whose call panics.
struct PanicsOnSubmit;

impl Wrapper for PanicsOnSubmit {
    fn name(&self) -> &str {
        "w_panic"
    }
    fn kind(&self) -> &str {
        "relational"
    }
    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::full()
    }
    fn submit(&self, _expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError> {
        panic!("wrapper exploded mid-call");
    }
}

/// One healthy source plus one faulty wrapper, under a short deadline.
fn faulty_federation(faulty: Arc<dyn Wrapper>) -> (Federation, LogicalExpr) {
    let mut federation = federation_with(&[instant_profile(0)], 8, 3);
    let wrapper_name = faulty.name().to_owned();
    federation
        .catalog
        .add_wrapper(WrapperDef::new(&wrapper_name, "relational"))
        .unwrap();
    federation
        .catalog
        .add_repository(Repository::new("r_faulty"))
        .unwrap();
    federation
        .catalog
        .add_extent(MetaExtent::new(
            "person_faulty",
            "Person",
            &wrapper_name,
            "r_faulty",
        ))
        .unwrap();
    federation.registry.register(faulty);
    let plan = LogicalExpr::Union(vec![
        branch(0, -1),
        LogicalExpr::get("person_faulty")
            .submit("r_faulty", &wrapper_name, "person_faulty")
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
    ]);
    (federation, plan)
}

#[test]
fn mid_stream_failure_surfaces_identically_in_both_modes() {
    let (federation, plan) = faulty_federation(Arc::new(FailsMidStream));
    let deadline = Some(Duration::from_millis(500));
    let started = std::time::Instant::now();
    for mode in [ResolutionMode::Blocking, ResolutionMode::Streamed] {
        let err = execute(&federation, &plan, mode, 1, deadline).unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Wrapper(WrapperError::TypeConflict { .. })
            ),
            "{mode:?}: expected the mid-stream failure, got {err}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "failure handling must not hang past the deadline"
    );
}

#[test]
fn panicking_wrapper_surfaces_worker_panic_in_both_modes() {
    let (federation, plan) = faulty_federation(Arc::new(PanicsOnSubmit));
    let deadline = Some(Duration::from_millis(500));
    let started = std::time::Instant::now();
    for mode in [ResolutionMode::Blocking, ResolutionMode::Streamed] {
        let err = execute(&federation, &plan, mode, 1, deadline).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerPanic(_)),
            "{mode:?}: expected a contained panic, got {err}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "panic handling must not hang past the deadline"
    );
}

// ---------------------------------------------------------------------
// Deadline regression: fast sources answer, the slow one goes residual.
// ---------------------------------------------------------------------

#[test]
fn deadline_returns_fast_data_plus_residual_for_the_slow_source() {
    let fast = NetworkProfile {
        base_latency_us: 500,
        per_row_us: 5,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 8,
        availability: Availability::Available,
    };
    let slow = NetworkProfile {
        availability: Availability::Slow { extra_ms: 1500 },
        ..fast.clone()
    };
    let federation = federation_with(&[fast.clone(), fast, slow], 16, 11);
    let plan = LogicalExpr::Union((0..3).map(|i| branch(i, -1)).collect());
    let deadline = Duration::from_millis(250);
    let answer = execute(
        &federation,
        &plan,
        ResolutionMode::Streamed,
        1,
        Some(deadline),
    )
    .unwrap();
    assert!(!answer.is_complete(), "slow source must go residual");
    assert_eq!(answer.unavailable_sources(), &["r2".to_owned()]);
    assert_eq!(
        answer.data().len(),
        32,
        "both fast sources' rows are in the data part"
    );
    let residual = answer.residual_oql().expect("residual over r2");
    assert!(
        residual.contains("person2"),
        "residual names the slow extent: {residual}"
    );
    assert!(
        !residual.contains("person0") && !residual.contains("person1"),
        "fast extents are fully answered: {residual}"
    );
    let t_first = answer
        .time_to_first_row()
        .expect("fast rows reached the sink during streaming");
    assert!(
        t_first < deadline,
        "first row ({t_first:?}) must arrive well before the deadline ({deadline:?})"
    );
}

// ---------------------------------------------------------------------
// The deadline leak fix: timed-out calls observe the disconnect and stop.
// ---------------------------------------------------------------------

#[test]
fn timed_out_wrapper_call_is_cancelled_not_leaked() {
    // 40 chunks * 30 ms: the call would keep trickling for ~1.2 s after
    // a 60 ms deadline if cancellation did not reach it.
    let trickle = NetworkProfile {
        base_latency_us: 100,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 5,
        availability: Availability::Degraded { chunk_extra_ms: 30 },
    };
    let federation = federation_with(&[instant_profile(0), trickle], 200, 13);
    let plan = LogicalExpr::Union(vec![branch(0, -1), branch(1, -1)]);
    let started = std::time::Instant::now();
    let answer = execute(
        &federation,
        &plan,
        ResolutionMode::Streamed,
        1,
        Some(Duration::from_millis(60)),
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "deadline classification must not wait out the stream, took {:?}",
        started.elapsed()
    );
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r1".to_owned()]);
    // Give the cancelled call time to observe the disconnect, then check
    // that chunk production has stopped for good.
    std::thread::sleep(Duration::from_millis(200));
    let after_cancel = federation.links[1].chunk_count();
    assert!(
        after_cancel < 40,
        "the call must stop early, produced {after_cancel} chunks"
    );
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        federation.links[1].chunk_count(),
        after_cancel,
        "a timed-out call kept producing chunks in the background"
    );
}

#[test]
fn parallel_worker_failure_interrupts_a_blocked_stream_claim() {
    // A trickling pending leaf under the parallel scheduler: one worker's
    // chunk evaluation panics (the `__disco_panic_if__` fail point) while
    // other workers are blocked claiming chunks.  The abort must
    // interrupt the stream — surfacing the failure promptly instead of
    // waiting out the remaining ~1 s of trickle (or the deadline).
    let trickle = NetworkProfile {
        base_latency_us: 100,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 5,
        availability: Availability::Degraded { chunk_extra_ms: 25 },
    };
    let federation = federation_with(&[trickle], 200, 19);
    let panic_if = ScalarExpr::Call(
        "__disco_panic_if__".into(),
        vec![ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::attr("id"),
            ScalarExpr::constant(0i64),
        )],
    );
    let plan = LogicalExpr::get("person0")
        .submit("r0", "w0", "person0")
        .filter(panic_if)
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name"));
    let started = std::time::Instant::now();
    let err = execute(
        &federation,
        &plan,
        ResolutionMode::Streamed,
        4,
        Some(Duration::from_secs(10)),
    )
    .unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerPanic(_)),
        "expected the contained fail-point panic, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(600),
        "abort must interrupt the blocked stream claim, took {:?}",
        started.elapsed()
    );
}

// ---------------------------------------------------------------------
// Pending-leaf columnar spines: under streamed resolution the columnar
// engine consumes the spools chunk by chunk (serial spines, the
// parallel engine's chunk morsels, the columnar distinct and aggregate).
// Every shape must agree with blocking resolution and the reference
// evaluator, serially and on 4 workers, unbounded and under a 64 KiB
// budget (whose spools spill to disk and are read back in runs).
// ---------------------------------------------------------------------

/// The query shapes of the pending-leaf cases, with whether the streamed
/// spines cover every transferred row (a select, a mediator-side filter,
/// a distinct and a count do; the hash join's sides are bare scans).
fn pending_leaf_plans(n: usize) -> Vec<(&'static str, LogicalExpr, bool)> {
    let bare = |i: usize, var: &str| {
        LogicalExpr::get(format!("person{i}"))
            .submit(format!("r{i}"), format!("w{i}"), format!("person{i}"))
            .bind(var)
    };
    vec![
        (
            "select",
            LogicalExpr::Union(
                (0..n)
                    .map(|i| bare(i, "x").map_project(ScalarExpr::var_field("x", "name")))
                    .collect(),
            ),
            true,
        ),
        (
            "mediator-side filter",
            LogicalExpr::Union((0..n).map(|i| branch(i, 150)).collect()),
            true,
        ),
        (
            "distinct",
            LogicalExpr::Distinct(Box::new(branch(0, 100))),
            true,
        ),
        (
            "distinct over a union",
            LogicalExpr::Distinct(Box::new(LogicalExpr::Union(
                (0..n).map(|i| branch(i, 100)).collect(),
            ))),
            true,
        ),
        (
            "count",
            LogicalExpr::Aggregate {
                func: AggKind::Count,
                input: Box::new(branch(1, 100)),
            },
            true,
        ),
        (
            "equi-join",
            LogicalExpr::Join {
                left: Box::new(bare(0, "x")),
                right: Box::new(bare(1, "y")),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::var_field("y", "salary"),
                )),
            }
            .map_project(ScalarExpr::var_field("y", "name")),
            false,
        ),
    ]
}

#[test]
fn pending_leaf_spines_match_blocking_and_the_reference() {
    let columnar = disco_runtime::PipelineOptions::default().columnar_enabled();
    let adaptive = disco_runtime::PipelineOptions::default().adaptive_enabled();
    for chunk_rows in [0usize, 37] {
        let federation = federation_with(&vec![instant_profile(chunk_rows); 3], 400, 23);
        for (label, plan, fusable) in pending_leaf_plans(3) {
            let physical = lower(&plan).unwrap();
            let resolved = disco_runtime::resolve_execs(
                &physical,
                &federation.registry,
                &federation.catalog,
                &disco_runtime::ExecutionConfig::default(),
            )
            .unwrap();
            let expected =
                disco_runtime::reference::evaluate_physical(&physical, &resolved).unwrap();
            for threads in [1usize, 4] {
                for budget in [MemBudget::Unbounded, MemBudget::Bytes(64 * 1024)] {
                    let case =
                        format!("{label}, chunks {chunk_rows}, threads {threads}, {budget:?}");
                    let run = |mode| {
                        Executor::new(federation.registry.clone())
                            .with_resolution(mode)
                            .with_threads(threads)
                            .with_mem_budget(budget)
                            .with_deadline(Some(Duration::from_secs(5)))
                            .execute(&physical, &federation.catalog)
                            .unwrap_or_else(|e| panic!("{case}: {e}"))
                    };
                    let streamed = run(ResolutionMode::Streamed);
                    let blocking = run(ResolutionMode::Blocking);
                    assert!(streamed.is_complete(), "{case}");
                    assert_eq!(streamed.data(), &expected, "{case}: streamed vs reference");
                    assert_eq!(blocking.data(), &expected, "{case}: blocking vs reference");
                    if !adaptive {
                        assert_eq!(
                            streamed.stats().rows_materialized,
                            blocking.stats().rows_materialized,
                            "{case}: rows_materialized"
                        );
                    }
                    if budget != MemBudget::Unbounded {
                        assert!(
                            streamed.stats().bytes_spilled > 0,
                            "{case}: the spools spill and are read back from disk"
                        );
                    }
                    if fusable && columnar {
                        assert_eq!(
                            streamed.stats().rows_kernel,
                            streamed.stats().rows_transferred,
                            "{case}: every streamed row runs through the kernels"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sanity: streamed complete answers report first-row latency.
// ---------------------------------------------------------------------

#[test]
fn streamed_complete_answers_report_time_to_first_row() {
    let federation = federation_with(&vec![instant_profile(4); 3], 12, 17);
    let plan = LogicalExpr::Union((0..3).map(|i| branch(i, 0)).collect());
    let answer = execute(
        &federation,
        &plan,
        ResolutionMode::Streamed,
        1,
        Some(Duration::from_secs(5)),
    )
    .unwrap();
    assert!(answer.is_complete());
    assert!(answer.time_to_first_row().is_some());
    assert!(answer.time_to_first_row().unwrap() <= answer.stats().elapsed);
}

/// Keep the shared generator linked in (it also documents the common
/// module is reusable from this suite, as the other differential suites
/// do).
#[test]
fn shared_generator_produces_plans() {
    let mut rng = StdRng::seed_from_u64(1);
    let plan = common::random_plan(&mut rng);
    let _ = format!("{plan}");
    let _ = Value::Int(0);
}
