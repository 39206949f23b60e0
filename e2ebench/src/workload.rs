//! The three seeded workloads: generated tables, query texts, the
//! operation sequence each client runs, and the answer oracle.
//!
//! Everything here is a function of the workload name and the seed.
//! The program under test only ever receives the tables (through source
//! registration) and the query texts.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use disco_source::{NetworkProfile, Table};
use disco_value::Value;

use crate::rng::Rng;

/// Number of distinct `name` values in every workload.
pub const DISTINCT_NAMES: u64 = 5_000;
/// Salaries are uniform in `0..SALARY_SPAN`.
pub const SALARY_SPAN: u64 = 1_000;
/// Rows of the churn source (the source that joins and leaves).
const CHURN_ROWS: usize = 200;
/// Churn rows carry ids from here on, beyond every id a lookup asks for.
const CHURN_ID_BASE: i64 = 10_000_000;
/// Churn rows all carry this salary, above every `count` bound used.
const CHURN_SALARY: i64 = 999;
/// Ids the fresh lookups of `serving_fanout` cycle through.  Any reuse
/// of an id comes after dozens of catalog updates, so every fresh text
/// still misses the plan cache, while the number of distinct texts (and
/// with it what the program caches per text) stays the same however
/// fast the queries run.
const FRESH_POOL: usize = 128;
/// Catalog updates per round of the `Mediator::query` workloads.  They
/// change the server's catalog, which `Mediator::query` never reads, and
/// are spread over the run so their median does not hang on one moment.
const MEDIATOR_UPDATES_PER_ROUND: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanWide,
    JoinSelective,
    ServingFanout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanWide,
        Workload::JoinSelective,
        Workload::ServingFanout,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanWide => "scan_wide",
            Workload::JoinSelective => "join_selective",
            Workload::ServingFanout => "serving_fanout",
        }
    }

    /// Whether queries go through `DiscoServer` sessions (otherwise
    /// through `Mediator::query`).
    pub fn served(self) -> bool {
        self == Workload::ServingFanout
    }
}

/// One generated row of the `Person` interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Person {
    pub id: i64,
    pub name: Arc<str>,
    pub salary: i64,
}

/// The rows of one relational source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceData {
    pub extent: String,
    pub repository: String,
    pub rows: Vec<Person>,
}

impl SourceData {
    pub fn table(&self) -> Table {
        let mut table = Table::new(&self.extent, ["id", "name", "salary"]);
        for row in &self.rows {
            table
                .insert_values([
                    ("id", Value::Int(row.id)),
                    ("name", Value::Str(Arc::clone(&row.name))),
                    ("salary", Value::Int(row.salary)),
                ])
                .expect("generated rows match the table's columns");
        }
        table
    }
}

/// One query of a workload.  The template names the query class the
/// plan-stability record and per-template latencies are grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `select x.name … where x.salary > K`; the tag names the
    /// selectivity band.
    NameGt(&'static str, i64),
    /// `select distinct x.name … where x.salary > K`.
    DistinctNameGt(&'static str, i64),
    /// `count(select x.id … where x.salary > K)`.
    CountGt(i64),
    /// A self-join over `person` with a single-side conjunct per variable.
    SelfJoin(i64, i64),
    /// An equi-join of two named extents with no single-side conjunct.
    CrossJoin(usize, usize),
    /// A point lookup by id over every source.
    Lookup { id: i64, fresh: bool },
    /// `count(select x.id … where x.salary < K)`.
    CountLt(i64),
}

impl Shape {
    pub fn template(&self) -> &'static str {
        match self {
            Shape::NameGt(tag, _) => tag,
            Shape::DistinctNameGt(tag, _) => tag,
            Shape::CountGt(_) => "count_gt",
            Shape::SelfJoin(..) => "self_join_pushable",
            Shape::CrossJoin(..) => "cross_join",
            Shape::Lookup { fresh: false, .. } => "lookup_hot",
            Shape::Lookup { fresh: true, .. } => "lookup_new",
            Shape::CountLt(_) => "count_lt",
        }
    }

    pub fn text(&self) -> String {
        match *self {
            Shape::NameGt(_, k) => format!("select x.name from x in person where x.salary > {k}"),
            Shape::DistinctNameGt(_, k) => {
                format!("select distinct x.name from x in person where x.salary > {k}")
            }
            Shape::CountGt(k) => {
                format!("count(select x.id from x in person where x.salary > {k})")
            }
            Shape::SelfJoin(k1, k2) => format!(
                "select struct(a: x.id, b: y.id) from x in person, y in person \
                 where x.name = y.name and x.salary = {k1} and y.salary = {k2}"
            ),
            Shape::CrossJoin(i, j) => format!(
                "select struct(a: x.id, b: y.id) from x in person{i}, y in person{j} \
                 where x.name = y.name"
            ),
            Shape::Lookup { id, .. } => format!("select x.name from x in person where x.id = {id}"),
            Shape::CountLt(k) => {
                format!("count(select x.id from x in person where x.salary < {k})")
            }
        }
    }
}

/// An operation of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query(Shape),
    /// Add the churn source if it is absent, remove it if present.
    CatalogUpdate,
}

/// A workload instance: its data, the warm-up order and the source of
/// each client's rounds.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub sources: Vec<SourceData>,
    /// A source whose rows no query selects; it joins and leaves the
    /// catalog through `DiscoServer::update_catalog`.
    pub churn: SourceData,
    pub profile: NetworkProfile,
    pub clients: usize,
    /// The queries of one round, before the per-round shuffle.  Every
    /// round holds each of them once, an odd number, so the median of a
    /// run of whole rounds falls inside one template's samples rather
    /// than in the gap between two.
    round: Vec<Shape>,
    /// The pool of ids for `Shape::Lookup { fresh: true }`, in the order
    /// they are handed out (client `c` takes every `clients`-th, from `c`).
    fresh_ids: Vec<i64>,
    /// Client 0 updates the catalog `updates_per_turn` times after
    /// every `update_every` rounds.
    update_every: usize,
    updates_per_turn: usize,
}

impl Spec {
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let mut data_rng = Rng::stream(seed, 1);
        let mut const_rng = Rng::stream(seed, 2);
        let churn = churn_source();
        match workload {
            Workload::ScanWide => {
                let sources = generate_sources(&mut data_rng, 8, 20_000);
                let mut band = |tag, lo, hi| Shape::NameGt(tag, const_rng.range(lo, hi));
                let mut round = vec![
                    band("select_gt_99pct", 5, 15),
                    band("select_gt_75pct", 245, 255),
                    band("select_gt_25pct", 745, 755),
                    band("select_gt_1pct", 985, 995),
                ];
                round.push(Shape::DistinctNameGt(
                    "distinct_gt_50pct",
                    const_rng.range(495, 505),
                ));
                round.push(Shape::DistinctNameGt(
                    "distinct_gt_1pct",
                    const_rng.range(985, 995),
                ));
                round.push(Shape::CountGt(const_rng.range(295, 305)));
                Spec {
                    workload,
                    seed,
                    sources,
                    churn,
                    profile: NetworkProfile::fast(),
                    clients: 1,
                    round,
                    fresh_ids: Vec::new(),
                    update_every: 1,
                    updates_per_turn: MEDIATOR_UPDATES_PER_ROUND,
                }
            }
            Workload::JoinSelective => {
                let sources = generate_sources(&mut data_rng, 8, 5_000);
                let mut round = Vec::new();
                // Three pushable joins built from a real same-name pair,
                // so their answers are non-empty, and two with random
                // constants.
                let all: Vec<&Person> = sources.iter().flat_map(|s| &s.rows).collect();
                let mut by_name: HashMap<&str, Vec<&Person>> = HashMap::new();
                for p in &all {
                    by_name.entry(&p.name).or_default().push(p);
                }
                while round.len() < 3 {
                    let x = all[index(&mut const_rng, all.len())];
                    let peers = &by_name[&*x.name];
                    let y = peers[index(&mut const_rng, peers.len())];
                    let shape = Shape::SelfJoin(x.salary, y.salary);
                    if !round.contains(&shape) {
                        round.push(shape);
                    }
                }
                while round.len() < 5 {
                    let span = i64::try_from(SALARY_SPAN).expect("small constant") - 1;
                    let shape = Shape::SelfJoin(const_rng.range(0, span), const_rng.range(0, span));
                    if !round.contains(&shape) {
                        round.push(shape);
                    }
                }
                while round.len() < 7 {
                    let i = index(&mut const_rng, sources.len());
                    let j = index(&mut const_rng, sources.len());
                    let shape = Shape::CrossJoin(i, j);
                    if i != j && !round.contains(&shape) {
                        round.push(shape);
                    }
                }
                Spec {
                    workload,
                    seed,
                    sources,
                    churn,
                    profile: NetworkProfile::fast(),
                    clients: 1,
                    round,
                    fresh_ids: Vec::new(),
                    update_every: 1,
                    updates_per_turn: MEDIATOR_UPDATES_PER_ROUND,
                }
            }
            Workload::ServingFanout => {
                let sources = generate_sources(&mut data_rng, 64, 200);
                let total = sources.len() * 200;
                let mut ids: Vec<i64> = (0..i64::try_from(total).expect("small")).collect();
                const_rng.shuffle(&mut ids);
                let hot: Vec<i64> = ids.drain(..4).collect();
                let mut round: Vec<Shape> = hot
                    .iter()
                    .map(|&id| Shape::Lookup { id, fresh: false })
                    .collect();
                // The `fresh` slot's id is replaced per round, see
                // `ClientRounds::next_round`.
                round.push(Shape::Lookup {
                    id: -1,
                    fresh: true,
                });
                round.push(Shape::CountLt(const_rng.range(8, 12)));
                round.push(Shape::CountLt(const_rng.range(16, 20)));
                Spec {
                    workload,
                    seed,
                    sources,
                    churn,
                    profile: NetworkProfile {
                        base_latency_us: 300,
                        per_row_us: 2,
                        jitter: 0.1,
                        real_sleep: true,
                        chunk_rows: 64,
                        ..NetworkProfile::default()
                    },
                    clients: 2,
                    round,
                    fresh_ids: ids.into_iter().take(FRESH_POOL).collect(),
                    update_every: 2,
                    updates_per_turn: 1,
                }
            }
        }
    }

    /// The warm-up pass: every query text of the run's rounds (fresh
    /// lookups excepted, which must stay new), in template order, so
    /// the calibration state each cached plan is built from does not
    /// depend on the seed.
    pub fn warmup(&self) -> Vec<Shape> {
        self.round
            .iter()
            .copied()
            .filter(|s| !matches!(s, Shape::Lookup { fresh: true, .. }))
            .collect()
    }

    /// The number of query slots in one round.
    #[cfg(test)]
    pub fn round_len(&self) -> usize {
        self.round.len()
    }

    pub fn rounds(&self, client: usize) -> ClientRounds<'_> {
        ClientRounds {
            spec: self,
            client,
            rng: Rng::stream(self.seed, 100 + client as u64),
            round: 0,
            fresh_taken: 0,
        }
    }
}

/// The endless sequence of one client's rounds.
#[derive(Debug)]
pub struct ClientRounds<'a> {
    spec: &'a Spec,
    client: usize,
    rng: Rng,
    round: usize,
    fresh_taken: usize,
}

impl ClientRounds<'_> {
    pub fn next_round(&mut self) -> Vec<Op> {
        let spec = self.spec;
        let mut shapes = spec.round.clone();
        for shape in &mut shapes {
            if let Shape::Lookup { id, fresh: true } = shape {
                // Clients take disjoint ids and cycle through the pool.
                let slot = self.client + spec.clients * self.fresh_taken;
                *id = spec.fresh_ids[slot % spec.fresh_ids.len()];
                self.fresh_taken += 1;
            }
        }
        self.rng.shuffle(&mut shapes);
        let mut ops: Vec<Op> = shapes.into_iter().map(Op::Query).collect();
        self.round += 1;
        if self.client == 0 && self.round.is_multiple_of(spec.update_every) {
            ops.extend(std::iter::repeat_n(
                Op::CatalogUpdate,
                spec.updates_per_turn,
            ));
        }
        ops
    }
}

fn index(rng: &mut Rng, len: usize) -> usize {
    usize::try_from(rng.below(len as u64)).expect("index fits usize")
}

fn generate_sources(rng: &mut Rng, count: usize, rows: usize) -> Vec<SourceData> {
    let names: Vec<Arc<str>> = (0..DISTINCT_NAMES)
        .map(|n| Arc::from(format!("n{n:04}")))
        .collect();
    (0..count)
        .map(|s| SourceData {
            extent: format!("person{s}"),
            repository: format!("r{s}"),
            rows: (0..rows)
                .map(|r| Person {
                    id: i64::try_from(s * rows + r).expect("small id"),
                    name: Arc::clone(&names[index(rng, names.len())]),
                    salary: i64::try_from(rng.below(SALARY_SPAN)).expect("small salary"),
                })
                .collect(),
        })
        .collect()
}

fn churn_source() -> SourceData {
    let name: Arc<str> = Arc::from("churn");
    SourceData {
        extent: "churn".into(),
        repository: "rchurn".into(),
        rows: (0..CHURN_ROWS)
            .map(|r| Person {
                id: CHURN_ID_BASE + i64::try_from(r).expect("small"),
                name: Arc::clone(&name),
                salary: CHURN_SALARY,
            })
            .collect(),
    }
}

// ----------------------------------------------------------------------
// The answer oracle
// ----------------------------------------------------------------------

/// One answer element in a form the oracle can sort and compare without
/// going through the program's own value equality.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    Int(i64),
    Str(Arc<str>),
    Pair(i64, i64),
    /// Anything else; never expected.
    Other(String),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Int(v) => write!(f, "{v}"),
            Key::Str(s) => write!(f, "{s:?}"),
            Key::Pair(a, b) => write!(f, "(a: {a}, b: {b})"),
            Key::Other(s) => f.write_str(s),
        }
    }
}

/// Converts one answer element to its oracle key.
pub fn key_of(value: &Value) -> Key {
    match value {
        Value::Int(v) => Key::Int(*v),
        Value::Str(s) => Key::Str(Arc::clone(s)),
        Value::Struct(fields) => match (fields.get("a"), fields.get("b"), fields.len()) {
            (Some(Value::Int(a)), Some(Value::Int(b)), 2) => Key::Pair(*a, *b),
            _ => Key::Other(format!("{value:?}")),
        },
        other => Key::Other(format!("{other:?}")),
    }
}

/// A multiset of answer elements, kept sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Multiset(Vec<Key>);

impl Multiset {
    pub fn new(mut keys: Vec<Key>) -> Self {
        keys.sort_unstable();
        Multiset(keys)
    }

    pub fn of_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Self {
        Multiset::new(values.into_iter().map(key_of).collect())
    }

    /// `None` when equal, otherwise a one-line description of the first
    /// difference.
    pub fn diff(&self, got: &Multiset) -> Option<String> {
        if self == got {
            return None;
        }
        let first = self
            .0
            .iter()
            .zip(&got.0)
            .position(|(e, g)| e != g)
            .unwrap_or_else(|| self.0.len().min(got.0.len()));
        let show = |m: &Multiset| m.0.get(first).map_or("<end>".to_owned(), Key::to_string);
        Some(format!(
            "expected {} elements, got {}; first difference at sorted position {first}: \
             expected {}, got {}",
            self.0.len(),
            got.0.len(),
            show(self),
            show(got)
        ))
    }
}

/// Computes expected answers from the generated rows.
#[derive(Debug)]
pub struct Oracle<'a> {
    spec: &'a Spec,
    by_id: HashMap<i64, &'a Person>,
    cache: HashMap<Shape, Multiset>,
}

impl<'a> Oracle<'a> {
    pub fn new(spec: &'a Spec) -> Self {
        let by_id = spec
            .sources
            .iter()
            .flat_map(|s| &s.rows)
            .map(|p| (p.id, p))
            .collect();
        Oracle {
            spec,
            by_id,
            cache: HashMap::new(),
        }
    }

    fn people(&self) -> impl Iterator<Item = &'a Person> {
        self.spec.sources.iter().flat_map(|s| &s.rows)
    }

    /// The expected answer of `shape`.  Answers are cached per shape,
    /// except fresh lookups, which each occur once.
    pub fn expected(&mut self, shape: &Shape) -> Multiset {
        if let Some(m) = self.cache.get(shape) {
            return m.clone();
        }
        let m = self.compute(shape);
        if !matches!(shape, Shape::Lookup { fresh: true, .. }) {
            self.cache.insert(*shape, m.clone());
        }
        m
    }

    fn compute(&self, shape: &Shape) -> Multiset {
        let name = |p: &Person| Key::Str(Arc::clone(&p.name));
        let count = |n: usize| Multiset::new(vec![Key::Int(i64::try_from(n).expect("small"))]);
        match *shape {
            Shape::NameGt(_, k) => {
                Multiset::new(self.people().filter(|p| p.salary > k).map(name).collect())
            }
            Shape::DistinctNameGt(_, k) => {
                let mut keys: Vec<Key> = self.people().filter(|p| p.salary > k).map(name).collect();
                keys.sort_unstable();
                keys.dedup();
                Multiset::new(keys)
            }
            Shape::CountGt(k) => count(self.people().filter(|p| p.salary > k).count()),
            Shape::CountLt(k) => count(self.people().filter(|p| p.salary < k).count()),
            Shape::SelfJoin(k1, k2) => {
                let xs: Vec<&Person> = self.people().filter(|p| p.salary == k1).collect();
                let ys: Vec<&Person> = self.people().filter(|p| p.salary == k2).collect();
                join_pairs(&xs, &ys)
            }
            Shape::CrossJoin(i, j) => {
                let xs: Vec<&Person> = self.spec.sources[i].rows.iter().collect();
                let ys: Vec<&Person> = self.spec.sources[j].rows.iter().collect();
                join_pairs(&xs, &ys)
            }
            Shape::Lookup { id, .. } => {
                Multiset::new(self.by_id.get(&id).map(|p| name(p)).into_iter().collect())
            }
        }
    }
}

fn join_pairs(xs: &[&Person], ys: &[&Person]) -> Multiset {
    let mut by_name: HashMap<&str, Vec<i64>> = HashMap::new();
    for y in ys {
        by_name.entry(&y.name).or_default().push(y.id);
    }
    let mut keys = Vec::new();
    for x in xs {
        for &b in by_name.get(&*x.name).map_or(&[][..], Vec::as_slice) {
            keys.push(Key::Pair(x.id, b));
        }
    }
    Multiset::new(keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(spec: &Spec, client: usize, rounds: usize) -> Vec<String> {
        let mut seq = spec.rounds(client);
        (0..rounds)
            .flat_map(|_| seq.next_round())
            .map(|op| match op {
                Op::Query(shape) => shape.text(),
                Op::CatalogUpdate => "update".into(),
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_tables_and_query_sequences() {
        for workload in Workload::ALL {
            let a = Spec::new(workload, 7);
            let b = Spec::new(workload, 7);
            assert_eq!(a.sources, b.sources, "{}", workload.name());
            for client in 0..a.clients {
                assert_eq!(texts(&a, client, 5), texts(&b, client, 5));
            }
            assert_eq!(a.warmup(), b.warmup());
        }
    }

    #[test]
    fn different_seeds_give_different_constants() {
        for workload in Workload::ALL {
            let a = Spec::new(workload, 1);
            let b = Spec::new(workload, 2);
            assert_ne!(a.sources, b.sources, "{}", workload.name());
            assert_ne!(a.warmup(), b.warmup(), "{}", workload.name());
            assert_ne!(texts(&a, 0, 3), texts(&b, 0, 3), "{}", workload.name());
        }
    }

    #[test]
    fn rounds_hold_each_template_once_and_an_odd_number_of_queries() {
        for workload in Workload::ALL {
            let spec = Spec::new(workload, 3);
            assert_eq!(spec.round_len() % 2, 1, "{}", workload.name());
            let mut seq = spec.rounds(0);
            for _ in 0..4 {
                let round = seq.next_round();
                let queries = round.iter().filter(|op| matches!(op, Op::Query(_))).count();
                assert_eq!(queries, spec.round_len());
            }
        }
    }

    #[test]
    fn fresh_lookups_repeat_only_after_many_catalog_updates() {
        let spec = Spec::new(Workload::ServingFanout, 11);
        let warm: Vec<String> = spec.warmup().iter().map(Shape::text).collect();
        // Per client: the text of each fresh lookup and the number of
        // catalog updates client 0 had made by then (clients run rounds
        // at about the same pace).
        let mut last_use: HashMap<String, usize> = HashMap::new();
        let mut updates = 0;
        let mut seqs: Vec<_> = (0..spec.clients).map(|c| spec.rounds(c)).collect();
        for _ in 0..500 {
            for seq in &mut seqs {
                for op in seq.next_round() {
                    match op {
                        Op::CatalogUpdate => updates += 1,
                        Op::Query(shape @ Shape::Lookup { fresh: true, .. }) => {
                            let text = shape.text();
                            assert!(!warm.contains(&text));
                            if let Some(then) = last_use.insert(text, updates) {
                                assert!(updates - then >= 16, "fresh text reused too soon");
                            }
                        }
                        Op::Query(_) => {}
                    }
                }
            }
        }
        assert!(last_use.len() <= FRESH_POOL);
    }

    #[test]
    fn oracle_rejects_a_corrupted_answer() {
        let spec = Spec::new(Workload::JoinSelective, 5);
        let mut oracle = Oracle::new(&spec);
        let shape = spec.warmup()[0];
        let expected = oracle.expected(&shape);
        assert!(
            !expected.0.is_empty(),
            "the first join is built to be non-empty"
        );
        let mut keys = expected.0.clone();
        assert_eq!(expected.diff(&Multiset::new(keys.clone())), None);
        // A changed element, a lost element and a duplicated element are
        // each caught.
        let mut changed = keys.clone();
        changed[0] = Key::Pair(-1, -1);
        assert!(expected.diff(&Multiset::new(changed)).is_some());
        let mut duplicated = keys.clone();
        duplicated.push(keys[0].clone());
        assert!(expected.diff(&Multiset::new(duplicated)).is_some());
        keys.pop();
        assert!(expected.diff(&Multiset::new(keys)).is_some());
    }

    #[test]
    fn oracle_keys_match_program_values() {
        let pair = Value::new_struct([("a", Value::Int(1)), ("b", Value::Int(2))]).unwrap();
        assert_eq!(key_of(&pair), Key::Pair(1, 2));
        let other = Value::new_struct([("a", Value::Int(1))]).unwrap();
        assert!(matches!(key_of(&other), Key::Other(_)));
        assert_eq!(key_of(&Value::from("n0001")), Key::Str(Arc::from("n0001")));
    }

    #[test]
    fn churn_rows_match_no_query() {
        for workload in Workload::ALL {
            let spec = Spec::new(workload, 9);
            let churn_ids: Vec<i64> = spec.churn.rows.iter().map(|p| p.id).collect();
            let max_id = spec
                .sources
                .iter()
                .flat_map(|s| &s.rows)
                .map(|p| p.id)
                .max();
            assert!(churn_ids.iter().all(|&id| Some(id) > max_id));
            for shape in spec.warmup() {
                if let Shape::CountLt(k) = shape {
                    assert!(spec.churn.rows.iter().all(|p| p.salary >= k));
                }
            }
        }
    }
}
