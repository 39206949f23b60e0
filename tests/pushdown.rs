//! Integration tests for capability-driven query processing (§1.4, §3.2):
//! the optimizer pushes work onto wrappers exactly when their advertised
//! capabilities allow it, answers are identical either way, and pushing
//! reduces the data transferred from sources.

use disco::algebra::{CapabilityGrammar, CapabilitySet, LogicalExpr, OperatorKind};
use disco::core::{Attribute, InterfaceDef, Mediator, NetworkProfile, TypeRef};
use disco::source::generator;

const ROWS_PER_SOURCE: usize = 200;

fn mediator_with_capabilities(caps: CapabilitySet) -> Mediator {
    let mut m = Mediator::new("caps");
    m.define_interface(
        InterfaceDef::new("Employee")
            .with_extent_name("employee")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("dept", TypeRef::Int))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    for i in 0..2 {
        m.add_relational_source(
            &format!("employee{i}"),
            "Employee",
            &format!("r{i}"),
            generator::employee_table(&format!("employee{i}"), ROWS_PER_SOURCE, 8, i as u64),
            NetworkProfile::fast(),
            caps.clone(),
        )
        .unwrap();
    }
    m
}

const SELECTIVE_QUERY: &str = "select e.name from e in employee where e.salary > 880";

#[test]
fn answers_are_identical_regardless_of_wrapper_power() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let a = full.query(SELECTIVE_QUERY).unwrap();
    let b = minimal.query(SELECTIVE_QUERY).unwrap();
    assert_eq!(
        a.data(),
        b.data(),
        "semantics must not depend on capabilities"
    );
    assert!(a.is_complete() && b.is_complete());
}

#[test]
fn pushdown_transfers_fewer_rows_than_get_only() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let pushed = full.query(SELECTIVE_QUERY).unwrap();
    let shipped_everything = minimal.query(SELECTIVE_QUERY).unwrap();
    assert!(
        pushed.stats().rows_transferred < shipped_everything.stats().rows_transferred,
        "pushdown {} rows vs full fetch {} rows",
        pushed.stats().rows_transferred,
        shipped_everything.stats().rows_transferred
    );
    assert_eq!(
        shipped_everything.stats().rows_transferred,
        2 * ROWS_PER_SOURCE,
        "a get-only wrapper must ship whole collections"
    );
}

#[test]
fn plan_shapes_reflect_capabilities() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let pushed_plan = full.explain(SELECTIVE_QUERY).unwrap();
    let minimal_plan = minimal.explain(SELECTIVE_QUERY).unwrap();
    let pushed_text = pushed_plan.logical.to_string();
    let minimal_text = minimal_plan.logical.to_string();
    // Full wrappers receive select/project inside the submit…
    assert!(
        pushed_text.contains("submit(r0, project(") || pushed_text.contains("submit(r0, select("),
        "expected pushdown in: {pushed_text}"
    );
    // …get-only wrappers receive exactly `get(extent)`.
    assert!(
        minimal_text.contains("submit(r0, get(employee0))"),
        "expected bare get in: {minimal_text}"
    );
    assert!(pushed_plan.alternatives.len() >= 2);
}

#[test]
fn mixed_capability_federation_pushes_per_source() {
    let mut m = Mediator::new("mixed");
    m.define_interface(
        InterfaceDef::new("Employee")
            .with_extent_name("employee")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("dept", TypeRef::Int))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    m.add_relational_source(
        "employee0",
        "Employee",
        "r0",
        generator::employee_table("employee0", ROWS_PER_SOURCE, 8, 0),
        NetworkProfile::fast(),
        CapabilitySet::full(),
    )
    .unwrap();
    m.add_relational_source(
        "employee1",
        "Employee",
        "r1",
        generator::employee_table("employee1", ROWS_PER_SOURCE, 8, 1),
        NetworkProfile::fast(),
        CapabilitySet::get_only(),
    )
    .unwrap();
    let plan = m.explain(SELECTIVE_QUERY).unwrap();
    let text = plan.logical.to_string();
    assert!(
        text.contains("submit(r1, get(employee1))"),
        "legacy source receives only get: {text}"
    );
    assert!(
        text.contains("submit(r0, project(") || text.contains("submit(r0, select("),
        "capable source receives pushed operators: {text}"
    );
    // The answer combines both sources and matches the all-full federation.
    let answer = m.query(SELECTIVE_QUERY).unwrap();
    let reference = mediator_with_capabilities(CapabilitySet::full())
        .query(SELECTIVE_QUERY)
        .unwrap();
    assert_eq!(answer.data(), reference.data());
}

#[test]
fn join_is_pushed_only_when_both_relations_live_in_the_same_repository() {
    // Built directly on the algebra, as the §3.2 employee/manager example.
    use disco::algebra::rules::push_join_into_submit;
    use std::collections::BTreeMap;

    let mut caps = BTreeMap::new();
    caps.insert("w0".to_owned(), CapabilitySet::full());
    let same_repo = LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
        right: Box::new(LogicalExpr::get("manager0").submit("r0", "w0", "manager0")),
        on: vec![("dept".into(), "dept".into())],
    };
    assert!(push_join_into_submit(&same_repo, &caps).is_some());
    let cross_repo = LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::get("employee0").submit("r0", "w0", "employee0")),
        right: Box::new(LogicalExpr::get("manager1").submit("r1", "w0", "manager1")),
        on: vec![("dept".into(), "dept".into())],
    };
    assert!(
        push_join_into_submit(&cross_repo, &caps).is_none(),
        "submit has RPC semantics: semijoin-style shipping between sources is impossible"
    );
}

#[test]
fn capability_grammars_travel_as_text_between_wrapper_and_mediator() {
    // §3.2: the wrapper returns a grammar; the mediator reconstructs the
    // capability set from it and checks expressions against it.
    let advertised =
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true);
    let grammar_text = advertised.to_grammar().to_string();
    assert!(grammar_text.contains("project OPEN ATTRIBUTE COMMA s CLOSE"));
    let parsed = CapabilityGrammar::parse(&grammar_text).unwrap();
    let reconstructed = CapabilitySet::from_grammar(&parsed).unwrap();
    let pushed = LogicalExpr::get("person0").project(["name"]);
    assert!(reconstructed.accepts(&pushed).is_ok());
    let filter = LogicalExpr::get("person0").filter(disco::algebra::ScalarExpr::binary(
        disco::algebra::ScalarOp::Gt,
        disco::algebra::ScalarExpr::attr("salary"),
        disco::algebra::ScalarExpr::constant(10i64),
    ));
    assert!(reconstructed.accepts(&filter).is_err());
}

#[test]
fn document_sources_expose_restricted_selects_only() {
    let mut m = Mediator::new("docs");
    m.define_interface(
        InterfaceDef::new("Report")
            .with_extent_name("report")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("title", TypeRef::String))
            .with_attribute(Attribute::new("body", TypeRef::String))
            .with_attribute(Attribute::new("keyword", TypeRef::String)),
    )
    .unwrap();
    m.add_document_source(
        "report0",
        "Report",
        "r_doc",
        generator::document_store(60, 5),
        NetworkProfile::fast(),
    )
    .unwrap();
    // Equality on the keyword pseudo-attribute uses the native index and is
    // pushable; a range predicate on id is not and runs at the mediator.
    let keyword = m
        .query("select d.title from d in report where d.keyword = \"water\"")
        .unwrap();
    let range = m
        .query("select d.title from d in report where d.id > 40")
        .unwrap();
    assert!(keyword.is_complete() && range.is_complete());
    assert!(keyword.stats().rows_transferred <= 60);
    assert_eq!(
        range.stats().rows_transferred,
        60,
        "range predicates cannot be pushed"
    );
}

// ---------------------------------------------------------------------
// Multi-variable queries: the where clause of a join is split into its
// conjuncts and each single-side conjunct travels to its own sources.
// ---------------------------------------------------------------------

const SELF_JOIN: &str = "select struct(a: x.id, b: y.id) from x in employee, y in employee \
                         where x.dept = y.dept and x.salary > 880 and y.salary < 120";

/// Rows of the whole `employee` federation that satisfy `predicate`
/// (written over `e`), counted through a single-variable query.
fn matching_rows(m: &Mediator, predicate: &str) -> usize {
    m.query(&format!("select e.id from e in employee where {predicate}"))
        .unwrap()
        .data()
        .len()
}

/// The physical plan `explain` reports for `query`, as text.
fn explained(m: &Mediator, query: &str) -> String {
    m.explain(query).unwrap().physical.to_string()
}

#[test]
fn self_join_ships_only_the_rows_matching_each_side() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let pushed = full.query(SELF_JOIN).unwrap();
    let shipped_everything = minimal.query(SELF_JOIN).unwrap();
    assert!(pushed.is_complete() && shipped_everything.is_complete());
    assert!(
        !pushed.data().is_empty(),
        "the test query should match rows"
    );
    assert_eq!(pushed.data(), shipped_everything.data());
    let expected = matching_rows(&full, "e.salary > 880") + matching_rows(&full, "e.salary < 120");
    assert_eq!(
        pushed.stats().rows_transferred,
        expected,
        "each side ships exactly its matching rows: {}",
        explained(&full, SELF_JOIN)
    );
    assert_eq!(
        shipped_everything.stats().rows_transferred,
        2 * ROWS_PER_SOURCE,
        "get-only wrappers ship both collections, once for both bindings"
    );
}

#[test]
fn conjuncts_spanning_both_sides_stay_at_the_mediator() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let query = "select struct(a: x.id, b: y.id) from x in employee, y in employee \
                 where x.dept = y.dept and x.salary < y.salary \
                 and (x.salary > 880 or y.salary < 120)";
    let plan = full.explain(query).unwrap();
    let text = plan.physical.to_string();
    assert!(
        text.contains(
            "x.dept=y.dept, ((x.salary < y.salary) and ((x.salary > 880) or (y.salary < 120))))"
        ),
        "cross-side conjuncts are the hash join's residual: {text}"
    );
    for exec in plan.physical.collect_execs() {
        assert!(
            !exec.to_string().contains("select("),
            "no cross-side conjunct reaches a source: {exec}"
        );
    }
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    assert_eq!(
        full.query(query).unwrap().data(),
        minimal.query(query).unwrap().data()
    );
}

#[test]
fn three_variable_query_pushes_into_every_binding() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let query = "select struct(a: x.id, b: y.id, c: z.id) \
                 from x in employee0, y in employee1, z in employee \
                 where x.dept = y.dept and y.id = z.id \
                 and x.salary > 800 and y.salary > 700 and z.salary < 300";
    let plan = full.explain(query).unwrap();
    let text = plan.physical.to_string();
    let execs = plan.physical.collect_execs();
    assert_eq!(execs.len(), 4, "{text}");
    for exec in &execs {
        assert!(
            exec.to_string().contains("select((salary "),
            "every binding's sources receive its selection: {exec}"
        );
    }
    assert!(!text.contains("nljoin"), "no cross product: {text}");
    assert_eq!(
        text.matches("hashjoin(").count(),
        2,
        "the inner pair is hash-joined on x.dept = y.dept: {text}"
    );
    assert!(text.contains("x.dept=y.dept"), "{text}");
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let answer = full.query(query).unwrap();
    assert!(
        !answer.data().is_empty(),
        "the test query should match rows"
    );
    assert_eq!(answer.data(), minimal.query(query).unwrap().data());
}

#[test]
fn call_and_correlated_aggregate_conjuncts_are_never_moved() {
    let full = mediator_with_capabilities(CapabilitySet::full());
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    for (query, kept) in [
        (
            "select struct(a: x.id, b: y.id) from x in employee, y in employee \
             where x.dept = y.dept and coalesce(x.salary, 0) > 880",
            "coalesce(",
        ),
        (
            "select struct(a: x.id, b: y.id) from x in employee0, y in employee1 \
             where x.id = y.id and x.salary > 870 \
             and x.dept < count(select e.id from e in employee0 where e.salary > 870)",
            "count(",
        ),
    ] {
        let plan = full.explain(query).unwrap();
        let text = plan.physical.to_string();
        let residual_start = text.find("=y.id, ").or_else(|| text.find("=y.dept, "));
        let residual = &text[residual_start.unwrap_or_else(|| panic!("no residual: {text}"))..];
        assert!(
            residual.contains(kept),
            "{kept} stays in the join's residual: {text}"
        );
        for exec in plan.physical.collect_execs() {
            assert!(!exec.to_string().contains(kept), "{kept} pushed: {exec}");
        }
        assert_eq!(
            text.matches(kept).count(),
            1,
            "{kept} is evaluated in one place only: {text}"
        );
        assert_eq!(
            full.query(query).unwrap().data(),
            minimal.query(query).unwrap().data(),
            "{query}"
        );
    }
}

#[test]
fn get_only_wrappers_filter_below_the_join_at_the_mediator() {
    let minimal = mediator_with_capabilities(CapabilitySet::get_only());
    let text = explained(&minimal, SELF_JOIN);
    for (repository, extent) in [("r0", "employee0"), ("r1", "employee1")] {
        for predicate in ["(salary > 880)", "(salary < 120)"] {
            let below = format!("mkselect({predicate}, exec(field({repository}), get({extent})))");
            assert!(text.contains(&below), "expected {below} in {text}");
        }
    }
    assert!(
        text.contains("x.dept=y.dept)"),
        "only the equi-join key is left on the join: {text}"
    );
}

#[test]
fn explain_shows_every_where_clause_conjunct() {
    use disco::algebra::rules::rewrite_env_predicate;
    use disco::algebra::{referenced_vars, ScalarExpr, ScalarOp};

    fn join_predicate(plan: &LogicalExpr) -> Option<ScalarExpr> {
        let mut found = None;
        plan.walk(&mut |e| {
            if let LogicalExpr::Join {
                predicate: Some(p), ..
            } = e
            {
                found.get_or_insert_with(|| p.clone());
            }
        });
        found
    }

    let queries = [
        SELF_JOIN,
        "select struct(a: x.id, b: y.id) from x in employee, y in employee \
         where x.dept = y.dept and x.salary < y.salary and (x.salary > 880 or y.salary < 120)",
        "select x.id from x in employee0, y in employee1 where x.salary > y.salary and y.dept = 3",
        "select struct(a: x.id, c: z.id) from x in employee0, y in employee1, z in employee \
         where x.dept = y.dept and y.id = z.id and x.salary > 800 and 1 = 1 and z.salary < 300",
    ];
    let mut mixed = mediator_with_capabilities(CapabilitySet::get_only());
    mixed
        .add_relational_source(
            "employee2",
            "Employee",
            "r2",
            generator::employee_table("employee2", ROWS_PER_SOURCE, 8, 2),
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )
        .unwrap();
    let federations = [
        mediator_with_capabilities(CapabilitySet::full()),
        mediator_with_capabilities(CapabilitySet::get_only()),
        mixed,
    ];
    for m in &federations {
        for query in queries {
            let compiled = disco::optimizer::compile_text(query, m.catalog()).unwrap();
            let predicate = join_predicate(&compiled).expect("a join query");
            let text = explained(m, query);
            for conjunct in predicate.conjuncts() {
                let mut renderings = vec![conjunct.to_string()];
                if let [var] = referenced_vars(conjunct).as_slice() {
                    renderings.extend(rewrite_env_predicate(conjunct, var).map(|p| p.to_string()));
                }
                if let ScalarExpr::Binary {
                    op: ScalarOp::Eq,
                    left,
                    right,
                } = conjunct
                {
                    renderings.push(format!("{left}={right}"));
                    renderings.push(format!("{right}={left}"));
                }
                assert!(
                    renderings.iter().any(|r| text.contains(r.as_str())),
                    "{conjunct} of `{query}` is missing from explain: {text}"
                );
            }
        }
    }
}
