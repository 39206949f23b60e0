//! Streamed resolution runs the columnar kernels on wrapper answers as
//! they arrive.  Over small relational federations, the default
//! `Streamed` resolution, `Blocking` resolution and the reference
//! evaluator (`disco_runtime::reference`) must agree on every answer,
//! while streamed spines report their rows as kernel-evaluated.  Chunked
//! links, irregular chunks (a row missing a field, a non-struct row) and a
//! deadline hit mid-stream are pinned too.

use std::sync::Arc;
use std::time::Duration;

use disco::algebra::{lower, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp};
use disco::catalog::{Attribute, MetaExtent, Repository, TypeRef};
use disco::core::{
    Answer, Availability, CapabilitySet, InterfaceDef, Mediator, NetworkProfile, ResolutionMode,
    StructValue, Table, Value,
};
use disco::runtime::{reference, resolve_execs, ExecutionConfig, Executor, PipelineOptions};
use disco::value::Bag;
use disco::wrapper::{AnswerSink, AnswerSummary, Wrapper, WrapperAnswer, WrapperError};

const SOURCES: usize = 4;
const ROWS: i64 = 250;

fn person_interface() -> InterfaceDef {
    InterfaceDef::new("Person")
        .with_extent_name("person")
        .with_attribute(Attribute::new("id", TypeRef::Int))
        .with_attribute(Attribute::new("name", TypeRef::String))
        .with_attribute(Attribute::new("salary", TypeRef::Int))
}

/// `SOURCES` relational sources of `ROWS` people each; `profile_of(i)`
/// is source `i`'s link.
fn federation(
    capabilities: &CapabilitySet,
    profile_of: impl Fn(usize) -> NetworkProfile,
) -> Mediator {
    let mut m = Mediator::new("streamed-columnar");
    m.define_interface(person_interface()).unwrap();
    for s in 0..SOURCES {
        let extent = format!("person{s}");
        let mut table = Table::new(&extent, ["id", "name", "salary"]);
        for i in 0..ROWS {
            let id = s as i64 * ROWS + i;
            table
                .insert_values([
                    ("id", Value::Int(id)),
                    ("name", Value::from(format!("n{}", (id * 7) % 60))),
                    ("salary", Value::Int((id * 37) % 300)),
                ])
                .unwrap();
        }
        m.add_relational_source(
            &extent,
            "Person",
            &format!("r{s}"),
            table,
            profile_of(s),
            capabilities.clone(),
        )
        .unwrap();
    }
    m
}

fn instant() -> NetworkProfile {
    NetworkProfile {
        jitter: 0.0,
        ..NetworkProfile::fast()
    }
}

fn run(m: &Mediator, plan: &PhysicalExpr, mode: ResolutionMode) -> disco::runtime::Result<Answer> {
    Executor::new(m.registry().clone())
        .with_resolution(mode)
        .with_deadline(m.deadline())
        .execute(plan, m.catalog())
}

fn reference_answer(m: &Mediator, plan: &PhysicalExpr) -> Bag {
    let resolved = resolve_execs(plan, m.registry(), m.catalog(), &ExecutionConfig::default())
        .expect("every source answers");
    reference::evaluate_physical(plan, &resolved).expect("reference evaluates")
}

fn columnar_enabled() -> bool {
    PipelineOptions::default().columnar_enabled()
}

/// Runs `query` streamed and blocking against the reference; when
/// `fusable`, every row a streamed source transferred must have gone
/// through the kernels.  Returns the streamed answer.
fn check(m: &Mediator, label: &str, query: &str, fusable: bool) -> Answer {
    let plan = m.explain(query).unwrap().physical;
    let expected = reference_answer(m, &plan);
    let streamed = run(m, &plan, ResolutionMode::Streamed).unwrap();
    let blocking = run(m, &plan, ResolutionMode::Blocking).unwrap();
    assert!(streamed.is_complete() && blocking.is_complete(), "{label}");
    assert_eq!(
        streamed.data(),
        &expected,
        "{label}: streamed vs reference\nplan: {plan}"
    );
    assert_eq!(
        blocking.data(),
        &expected,
        "{label}: blocking vs reference\nplan: {plan}"
    );
    // Adaptive scheduling may build a join on whichever side answered
    // first, which trades this pin for overlap by design.
    if !PipelineOptions::default().adaptive_enabled() {
        assert_eq!(
            streamed.stats().rows_materialized,
            blocking.stats().rows_materialized,
            "{label}: rows_materialized"
        );
    }
    if fusable && columnar_enabled() {
        assert_eq!(
            streamed.stats().rows_kernel,
            streamed.stats().rows_transferred,
            "{label}: every streamed row runs through the kernels\nplan: {plan}"
        );
        assert_eq!(streamed.stats().rows_fallback, 0, "{label}");
    }
    streamed
}

const SELECT: &str = "select x.name from x in person where x.salary > 120";
const DISTINCT: &str = "select distinct x.name from x in person where x.salary > 120";
const COUNT: &str = "count(select x.id from x in person where x.salary > 120)";
const JOIN: &str = "select struct(a: x.id, b: y.id) from x in person0, y in person1 \
                    where x.name = y.name and x.salary > 250";

#[test]
fn streamed_blocking_and_reference_agree_and_streamed_spines_use_the_kernels() {
    let full = federation(&CapabilitySet::full(), |_| instant());
    let answer = check(&full, "select", SELECT, true);
    assert!(answer.data().len() > 100, "the select keeps a real share");
    check(&full, "distinct", DISTINCT, true);
    check(&full, "count", COUNT, false);
    check(&full, "equi-join", JOIN, false);

    // Get-only wrappers keep the filter at the mediator, where the
    // streamed spine evaluates it.
    let get_only = federation(&CapabilitySet::get_only(), |_| instant());
    let plan = get_only.explain(SELECT).unwrap().physical;
    assert!(
        plan.to_string().contains("mkselect"),
        "filter stays at the mediator: {plan}"
    );
    check(&get_only, "mediator-side filter", SELECT, true);
}

#[test]
fn chunked_links_give_the_same_answers() {
    let chunked = federation(&CapabilitySet::full(), |s| NetworkProfile {
        chunk_rows: 7 + s,
        ..instant()
    });
    for (label, query, fusable) in [
        ("select", SELECT, true),
        ("distinct", DISTINCT, true),
        ("count", COUNT, false),
        ("equi-join", JOIN, false),
    ] {
        check(&chunked, &format!("chunked {label}"), query, fusable);
    }
}

/// A wrapper that answers in two chunks: ten regular rows (all carrying
/// the extra `bonus` field the mediator filters on), then the rows of
/// `second`.
struct TwoChunks {
    second: Vec<Value>,
}

fn person(id: i64, salary: i64, bonus: Option<i64>) -> Value {
    let mut fields = vec![
        ("id", Value::Int(id)),
        ("name", Value::from(format!("p{id}"))),
        ("salary", Value::Int(salary)),
    ];
    if let Some(bonus) = bonus {
        fields.push(("bonus", Value::Int(bonus)));
    }
    Value::Struct(StructValue::new(fields).unwrap())
}

impl Wrapper for TwoChunks {
    fn name(&self) -> &str {
        "w_odd"
    }
    fn kind(&self) -> &str {
        "relational"
    }
    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::get_only()
    }
    fn submit(&self, _expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError> {
        unreachable!("the runtime streams")
    }
    fn submit_streaming(
        &self,
        _expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        let first: Bag = (0..10)
            .map(|i| person(i, 100 + i * 20, Some(i % 3)))
            .collect();
        sink.push(first);
        sink.push(self.second.iter().cloned().collect());
        Ok(AnswerSummary {
            rows_scanned: 10 + self.second.len(),
            latency: Duration::ZERO,
        })
    }
}

/// A mediator over one `TwoChunks` source, plus the plan
/// `select x.name from x in odd where x.salary > 100 and x.bonus > 0`
/// with both filters at the mediator (salary first).
fn irregular(second: Vec<Value>) -> (Mediator, PhysicalExpr) {
    let mut m = Mediator::new("irregular");
    m.define_interface(person_interface()).unwrap();
    m.register_wrapper(Arc::new(TwoChunks { second })).unwrap();
    m.register_repository(Repository::new("r_odd")).unwrap();
    m.register_extent(MetaExtent::new("odd", "Person", "w_odd", "r_odd"))
        .unwrap();
    let gt = |field: &str, k: i64| {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", field),
            ScalarExpr::constant(k),
        )
    };
    let plan = LogicalExpr::get("odd")
        .submit("r_odd", "w_odd", "odd")
        .bind("x")
        .filter(gt("salary", 100))
        .filter(gt("bonus", 0))
        .map_project(ScalarExpr::var_field("x", "name"));
    (m, lower(&plan).unwrap())
}

#[test]
fn a_chunk_with_a_row_missing_a_field_falls_back_alone() {
    // The second chunk's rows lack `bonus`, but the salary filter (run
    // first) drops them, so the row path never reads the missing field.
    let second = (10..20).map(|i| person(i, 50, None)).collect();
    let (m, plan) = irregular(second);
    let expected = reference_answer(&m, &plan);
    let streamed = run(&m, &plan, ResolutionMode::Streamed).unwrap();
    let blocking = run(&m, &plan, ResolutionMode::Blocking).unwrap();
    assert!(!expected.is_empty());
    assert_eq!(streamed.data(), &expected);
    assert_eq!(blocking.data(), &expected);
    if columnar_enabled() {
        let stats = streamed.stats();
        assert_eq!(
            stats.rows_fallback, 10,
            "only the irregular chunk falls back"
        );
        assert_eq!(
            stats.rows_kernel, 10,
            "the regular chunk stays on the kernels"
        );
    }
}

#[test]
fn a_chunk_with_a_non_struct_row_reports_the_row_paths_error() {
    let second = vec![person(10, 300, Some(1)), Value::Int(7)];
    let (m, plan) = irregular(second);
    let streamed = run(&m, &plan, ResolutionMode::Streamed).unwrap_err();
    let blocking = run(&m, &plan, ResolutionMode::Blocking).unwrap_err();
    assert_eq!(streamed.to_string(), blocking.to_string());
}

#[test]
fn a_deadline_hit_mid_stream_gives_the_blocking_partial_answer() {
    // Source 3 trickles 5-row chunks 25 ms apart, far past the deadline.
    let mut m = federation(&CapabilitySet::full(), |s| match s {
        3 => NetworkProfile {
            chunk_rows: 5,
            real_sleep: true,
            availability: Availability::Degraded { chunk_extra_ms: 25 },
            ..instant()
        },
        _ => instant(),
    });
    m.set_deadline(Some(Duration::from_millis(100)));
    for query in [SELECT, DISTINCT] {
        let plan = m.explain(query).unwrap().physical;
        let streamed = run(&m, &plan, ResolutionMode::Streamed).unwrap();
        let blocking = run(&m, &plan, ResolutionMode::Blocking).unwrap();
        assert!(
            !streamed.is_complete() && !blocking.is_complete(),
            "{query}"
        );
        assert_eq!(streamed.unavailable_sources(), &["r3".to_owned()]);
        assert_eq!(
            streamed.unavailable_sources(),
            blocking.unavailable_sources()
        );
        assert_eq!(streamed.data(), blocking.data(), "{query}");
        assert_eq!(streamed.residual_oql(), blocking.residual_oql(), "{query}");
    }
}
