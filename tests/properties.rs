//! Property-based integration tests: for randomly generated federations
//! and data, the mediator's answers must equal a naive in-memory
//! computation, must not depend on wrapper capabilities, and partial
//! answers followed by resubmission must converge to the full answer.
//!
//! Cases are generated with a seeded deterministic RNG (the offline `rand`
//! shim) rather than proptest — the build environment has no crates.io
//! access.  Every failure reproduces from its printed seed.

use disco::core::{
    Availability, CapabilitySet, InterfaceDef, Mediator, NetworkProfile, Table, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthetic person row.
#[derive(Debug, Clone)]
struct PersonRow {
    name: String,
    salary: i64,
}

fn random_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..9usize);
    (0..len)
        .map(|_| char::from(b'a' + u8::try_from(rng.gen_range(0..26u32)).unwrap()))
        .collect()
}

fn random_federation(rng: &mut StdRng) -> Vec<Vec<PersonRow>> {
    let sources = rng.gen_range(1..5usize);
    (0..sources)
        .map(|_| {
            let rows = rng.gen_range(0..12usize);
            (0..rows)
                .map(|_| PersonRow {
                    name: random_name(rng),
                    salary: rng.gen_range(0..500i64),
                })
                .collect()
        })
        .collect()
}

fn person_interface() -> InterfaceDef {
    InterfaceDef::new("Person")
        .with_extent_name("person")
        .with_attribute(disco::catalog::Attribute::new(
            "name",
            disco::catalog::TypeRef::String,
        ))
        .with_attribute(disco::catalog::Attribute::new(
            "salary",
            disco::catalog::TypeRef::Int,
        ))
}

fn build_mediator(sources: &[Vec<PersonRow>], caps: CapabilitySet) -> Mediator {
    let mut m = Mediator::new("prop");
    m.define_interface(person_interface()).unwrap();
    for (i, rows) in sources.iter().enumerate() {
        let mut table = Table::new(format!("person{i}"), ["name", "salary"]);
        for row in rows {
            table
                .insert_values([
                    ("name", Value::from(row.name.clone())),
                    ("salary", Value::Int(row.salary)),
                ])
                .unwrap();
        }
        m.add_relational_source(
            &format!("person{i}"),
            "Person",
            &format!("r{i}"),
            table,
            NetworkProfile::fast(),
            caps.clone(),
        )
        .unwrap();
    }
    m
}

/// The reference answer computed naively in memory.
fn reference_answer(sources: &[Vec<PersonRow>], threshold: i64) -> Vec<String> {
    let mut names: Vec<String> = sources
        .iter()
        .flatten()
        .filter(|r| r.salary > threshold)
        .map(|r| r.name.clone())
        .collect();
    names.sort();
    names
}

fn answer_names(answer: &disco::runtime::Answer) -> Vec<String> {
    let mut names: Vec<String> = answer
        .data()
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    names.sort();
    names
}

const CASES: u64 = 24;

#[test]
fn mediator_answers_match_naive_evaluation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources = random_federation(&mut rng);
        let threshold = rng.gen_range(0..500i64);
        let m = build_mediator(&sources, CapabilitySet::full());
        let query = format!("select x.name from x in person where x.salary > {threshold}");
        let answer = m.query(&query).unwrap();
        assert!(answer.is_complete(), "seed {seed}");
        assert_eq!(
            answer_names(&answer),
            reference_answer(&sources, threshold),
            "seed {seed}"
        );
    }
}

#[test]
fn answers_do_not_depend_on_wrapper_capabilities() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x10_0000 + seed);
        let sources = random_federation(&mut rng);
        let threshold = rng.gen_range(0..500i64);
        let query = format!("select x.name from x in person where x.salary > {threshold}");
        let full = build_mediator(&sources, CapabilitySet::full());
        let minimal = build_mediator(&sources, CapabilitySet::get_only());
        let a = full.query(&query).unwrap();
        let b = minimal.query(&query).unwrap();
        assert_eq!(a.data(), b.data(), "seed {seed}");
    }
}

#[test]
fn partial_plus_resubmission_equals_full_answer() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x20_0000 + seed);
        let sources = random_federation(&mut rng);
        let threshold = rng.gen_range(0..500i64);
        let down_index = rng.gen_range(0..4usize);

        // Re-build the mediator keeping the per-source links.
        let mut m = Mediator::new("prop");
        m.define_interface(person_interface()).unwrap();
        let mut links = Vec::new();
        for (i, rows) in sources.iter().enumerate() {
            let mut table = Table::new(format!("person{i}"), ["name", "salary"]);
            for row in rows {
                table
                    .insert_values([
                        ("name", Value::from(row.name.clone())),
                        ("salary", Value::Int(row.salary)),
                    ])
                    .unwrap();
            }
            links.push(
                m.add_relational_source(
                    &format!("person{i}"),
                    "Person",
                    &format!("r{i}"),
                    table,
                    NetworkProfile::fast(),
                    CapabilitySet::full(),
                )
                .unwrap(),
            );
        }
        let query = format!("select x.name from x in person where x.salary > {threshold}");
        let full = m.query(&query).unwrap();

        let down = down_index % links.len();
        links[down].set_availability(Availability::Unavailable);
        let partial = m.query(&query).unwrap();
        // Partial data never invents values.
        for value in partial.data() {
            assert!(full.data().contains(value), "seed {seed}");
        }
        links[down].set_availability(Availability::Available);
        let recovered = m.resubmit(&partial).unwrap();
        assert!(recovered.is_complete(), "seed {seed}");
        assert_eq!(answer_names(&recovered), answer_names(&full), "seed {seed}");
    }
}

#[test]
fn aggregates_match_naive_sums() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x30_0000 + seed);
        let sources = random_federation(&mut rng);
        let m = build_mediator(&sources, CapabilitySet::full());
        let expected: i64 = sources.iter().flatten().map(|r| r.salary).sum();
        let answer = m.query("sum(select x.salary from x in person)").unwrap();
        let got = answer.data().iter().next().unwrap().as_int().unwrap();
        assert_eq!(got, expected, "seed {seed}");
        let count = m.query("count(select x.name from x in person)").unwrap();
        let total: i64 = sources.iter().map(|s| s.len() as i64).sum();
        assert_eq!(
            count.data().iter().next().unwrap().as_int().unwrap(),
            total,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Join queries: whatever the optimizer moves below a join, the chosen
// plan's answer equals the reference evaluation of the compiled plan.
// ---------------------------------------------------------------------

const JOIN_NAMES: [&str; 4] = ["ann", "bob", "cy", "dee"];

/// A federation of 1–3 `Person` sources with small name and salary
/// domains, so equalities across bindings match, and with a random
/// capability set per source.  Returns the mediator and its source count.
fn join_federation(rng: &mut StdRng) -> (Mediator, usize) {
    use disco::algebra::OperatorKind::{Get, Project, Select};
    let mut m = Mediator::new("joins");
    m.define_interface(person_interface()).unwrap();
    let sources = rng.gen_range(1..4usize);
    for i in 0..sources {
        let mut table = Table::new(format!("person{i}"), ["name", "salary"]);
        for _ in 0..rng.gen_range(0..7usize) {
            let name = JOIN_NAMES[rng.gen_range(0..JOIN_NAMES.len())];
            table
                .insert_values([
                    ("name", Value::from(name)),
                    ("salary", Value::Int(rng.gen_range(0..8i64))),
                ])
                .unwrap();
        }
        let caps = match rng.gen_range(0..4u32) {
            0 => CapabilitySet::full(),
            1 => CapabilitySet::get_only(),
            2 => CapabilitySet::new([Get, Select]).with_composition(true),
            _ => CapabilitySet::new([Get, Project]).with_composition(true),
        };
        m.add_relational_source(
            &format!("person{i}"),
            "Person",
            &format!("r{i}"),
            table,
            NetworkProfile::fast(),
            caps,
        )
        .unwrap();
    }
    (m, sources)
}

fn random_conjunct(rng: &mut StdRng, vars: &[&str]) -> String {
    let var = |rng: &mut StdRng| vars[rng.gen_range(0..vars.len())];
    let two = |rng: &mut StdRng| {
        let a = rng.gen_range(0..vars.len());
        let b = (a + rng.gen_range(1..vars.len())) % vars.len();
        (vars[a], vars[b])
    };
    let op = |rng: &mut StdRng| ["<", ">", "=", "!=", "<=", ">="][rng.gen_range(0..6usize)];
    match rng.gen_range(0..6u32) {
        0 | 1 => format!("{}.salary {} {}", var(rng), op(rng), rng.gen_range(0..8i64)),
        2 => format!(
            "{}.name = \"{}\"",
            var(rng),
            JOIN_NAMES[rng.gen_range(0..JOIN_NAMES.len())]
        ),
        3 => {
            let (a, b) = two(rng);
            let attr = if rng.gen_bool(0.5) { "name" } else { "salary" };
            format!("{a}.{attr} = {b}.{attr}")
        }
        4 => {
            let (a, b) = two(rng);
            format!(
                "({a}.salary < {} or {b}.salary > {})",
                rng.gen_range(0..8i64),
                rng.gen_range(0..8i64)
            )
        }
        _ => ["1 = 1", "2 < 1", "\"a\" = \"a\"", "3 >= 2"][rng.gen_range(0..4usize)].to_owned(),
    }
}

fn random_join_query(rng: &mut StdRng, extents: usize) -> String {
    let vars: &[&str] = if rng.gen_bool(0.5) {
        &["x", "y"]
    } else {
        &["x", "y", "z"]
    };
    let from: Vec<String> = vars
        .iter()
        .map(|v| {
            let collection = if rng.gen_bool(0.5) {
                "person".to_owned()
            } else {
                format!("person{}", rng.gen_range(0..extents))
            };
            format!("{v} in {collection}")
        })
        .collect();
    let conjuncts: Vec<String> = (0..rng.gen_range(1..6usize))
        .map(|_| random_conjunct(rng, vars))
        .collect();
    let fields: Vec<String> = vars
        .iter()
        .map(|v| format!("{v}n: {v}.name, {v}s: {v}.salary"))
        .collect();
    format!(
        "select struct({}) from {} where {}",
        fields.join(", "),
        from.join(", "),
        conjuncts.join(" and ")
    )
}

#[test]
fn join_answers_match_the_reference_evaluation_of_the_compiled_plan() {
    use disco::runtime::{reference, resolve_execs, ExecutionConfig};
    let (mut non_empty, mut pushed) = (0, 0);
    for seed in 0..2 * CASES {
        let mut rng = StdRng::seed_from_u64(0x40_0000 + seed);
        let (m, extents) = join_federation(&mut rng);
        // Several queries per federation, so later ones are planned
        // against a calibration store that has seen earlier calls.
        for q in 0..4 {
            let query = random_join_query(&mut rng, extents);
            let compiled = disco::optimizer::compile_text(&query, m.catalog()).unwrap();
            let physical = disco::algebra::lower(&compiled).unwrap();
            let resolved = resolve_execs(
                &physical,
                m.registry(),
                m.catalog(),
                &ExecutionConfig::default(),
            )
            .unwrap();
            let expected = reference::evaluate_physical(&physical, &resolved).unwrap();
            let answer = m.query(&query).unwrap();
            let plan = m.explain(&query).unwrap().physical;
            assert!(answer.is_complete(), "seed {seed} query {q}: {query}");
            assert_eq!(
                answer.data(),
                &expected,
                "seed {seed} query {q}: {query}\nplan: {plan}"
            );
            non_empty += usize::from(!expected.is_empty());
            pushed += usize::from(
                plan.collect_execs()
                    .iter()
                    .any(|e| e.to_string().contains("select(")),
            );
        }
    }
    // The generator must exercise both matches and pushed selections.
    assert!(non_empty >= 20, "only {non_empty} non-empty answers");
    assert!(pushed >= 20, "only {pushed} plans pushed a selection");
}
