//! Frozen inputs: the SNB-like generator, the probe sampler, the append
//! batches and the SQL texts this benchmark measures.
//!
//! They are copied here rather than imported from the shared `workloads`
//! crate, and use their own PRNG rather than the `rand` shim, so that a
//! later edit to either cannot change what is measured. The unit tests pin
//! the digest of a small generated input.

use dataframe::{col, lit, AggFunc, Context, DataFrame, PlanError};
use rowstore::{DataType, Field, Row, Schema, Value};
use std::sync::Arc;

/// Average out-degree of a person (edges = persons × this).
pub const AVG_DEGREE: u64 = 10;
/// Zipf exponent of `edge_dest` popularity.
pub const THETA: f64 = 0.8;
/// Rows per `append_table` call in the `ingest` workload.
pub const APPEND_BATCH: usize = 256;
/// Rows per `join` probe table (Table III's 1:1000 probe-to-edge ratio).
pub const PROBE_ROWS: usize = 1000;

/// Independent random streams derived from one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    Persons = 1,
    Edges = 2,
    Probes = 3,
    Ops = 4,
    Warmup = 5,
    Appends = 6,
}

/// SplitMix64: small, fast, and fixed forever by this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: Stream) -> Rng {
        let mut r = Rng(seed ^ (stream as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over `1..=n` (Gray et al., SIGMOD'94): O(n) setup, O(1)
/// per sample.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 2;
        }
        let k = 1.0 + self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (k as u64).clamp(1, self.n)
    }
}

pub fn person_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
        Field::new("city", DataType::Int32),
        Field::new("creation_date", DataType::Int64),
    ])
}

pub fn edge_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("edge_source", DataType::Int64),
        Field::new("edge_dest", DataType::Int64),
        Field::new("creation_date", DataType::Int64),
        Field::new("weight", DataType::Float64),
    ])
}

pub fn probe_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("edge_source", DataType::Int64),
        Field::new("tag", DataType::Int64),
    ])
}

pub fn persons(n: u64, seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed, Stream::Persons);
    (0..n as i64)
        .map(|id| {
            vec![
                Value::Int64(id),
                Value::Utf8(format!("person-{id}")),
                Value::Int32(rng.below(500) as i32),
                Value::Int64(1_500_000_000 + rng.below(100_000_000) as i64),
            ]
        })
        .collect()
}

/// Edge stream: uniform `edge_source` (everyone posts), Zipf `edge_dest`
/// (a few celebrities receive most edges).
pub struct EdgeGen {
    rng: Rng,
    dest: Zipf,
    persons: u64,
}

impl EdgeGen {
    pub fn new(persons: u64, seed: u64, stream: Stream) -> EdgeGen {
        EdgeGen {
            rng: Rng::new(seed, stream),
            dest: Zipf::new(persons, THETA),
            persons,
        }
    }

    pub fn edge(&mut self) -> Row {
        let src = self.rng.below(self.persons) as i64;
        let dst = self.dest.sample(&mut self.rng) as i64 - 1;
        vec![
            Value::Int64(src),
            Value::Int64(dst),
            Value::Int64(1_500_000_000 + self.rng.below(100_000_000) as i64),
            Value::Float64(self.rng.unit()),
        ]
    }

    pub fn edges(&mut self, n: usize) -> Vec<Row> {
        (0..n).map(|_| self.edge()).collect()
    }
}

/// A probe table of `n` rows whose keys are sampled edge sources (so key
/// frequency follows out-degree), each with a random tag.
pub fn probe(edges: &[Row], n: usize, rng: &mut Rng) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let e = &edges[rng.below(edges.len() as u64) as usize];
            vec![e[0].clone(), Value::Int64(rng.below(1000) as i64)]
        })
        .collect()
}

/// SQL text of short read SQ`q` on `persons`/`edges` (SQ5 and SQ6 take no
/// person id).
pub fn short_read_sql(q: usize, id: i64) -> String {
    match q {
        1 => format!("SELECT * FROM persons WHERE id = {id}"),
        2 => format!("SELECT * FROM edges WHERE edge_source = {id} LIMIT 10"),
        3 => format!("SELECT * FROM edges JOIN persons ON edge_dest = id WHERE edge_source = {id}"),
        4 => format!("SELECT creation_date FROM edges WHERE edge_source = {id}"),
        5 => "SELECT edge_dest, creation_date, weight FROM edges".to_string(),
        6 => "SELECT edge_dest, count(*) AS n FROM edges GROUP BY edge_dest".to_string(),
        7 => format!(
            "SELECT * FROM edges JOIN edges ON edge_dest = edge_source WHERE edge_source = {id}"
        ),
        other => panic!("short read SQ{other} does not exist"),
    }
}

/// The `analytic` workload's third query: a filtered group-by.
pub const LIGHT_EDGES_SQL: &str =
    "SELECT edge_dest, count(*) AS n FROM edges WHERE weight < 0.1 GROUP BY edge_dest";

/// Weight threshold of the `ingest` workload's standing view.
pub const VIEW_WEIGHT_BELOW: f64 = 0.5;

/// The `ingest` workload's standing view, `SELECT edge_dest, count(*) AS n
/// FROM edges WHERE weight < 0.5 GROUP BY edge_dest`. Built with the
/// DataFrame API: the SQL front end puts a projection above the aggregate,
/// which the delta planner does not take, so the SQL form is recomputed on
/// every append instead of maintained incrementally.
pub fn view(ctx: &Arc<Context>) -> Result<DataFrame, PlanError> {
    Ok(ctx
        .table("edges")?
        .filter(col("weight").lt(lit(VIEW_WEIGHT_BELOW)))
        .group_by(&["edge_dest"])
        .agg(vec![(AggFunc::Count, None, "n")]))
}

/// The `join` workload's query against probe table `probe`.
pub fn join_sql(probe: &str) -> String {
    format!("SELECT * FROM edges JOIN {probe} ON edges.edge_source = {probe}.edge_source")
}

/// The `ingest` workload's read of one key: every row, so the rows of the
/// batch just appended must all be visible.
pub fn fresh_read_sql(id: i64) -> String {
    format!("SELECT * FROM edges WHERE edge_source = {id}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::rows_digest;

    #[test]
    fn generation_is_frozen() {
        // A changed generator changes what is measured: this digest must
        // only move together with a documented benchmark redefinition.
        let p = persons(50, 7);
        let e = EdgeGen::new(50, 7, Stream::Edges).edges(500);
        let mut rng = Rng::new(7, Stream::Probes);
        let pr = probe(&e, 20, &mut rng);
        let digest = rows_digest([&p, &e, &pr].into_iter().flatten());
        assert_eq!(digest, 0x96a6_ffc5_db48_841f, "got {digest:#x}");
    }

    #[test]
    fn streams_are_independent_and_seeded() {
        let a = EdgeGen::new(100, 1, Stream::Edges).edges(10);
        let b = EdgeGen::new(100, 1, Stream::Edges).edges(10);
        let c = EdgeGen::new(100, 2, Stream::Edges).edges(10);
        let d = EdgeGen::new(100, 1, Stream::Ops).edges(10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_skews_and_stays_in_range() {
        let z = Zipf::new(1000, THETA);
        let mut rng = Rng::new(3, Stream::Edges);
        let mut top10 = 0;
        for _ in 0..20_000 {
            let s = z.sample(&mut rng);
            assert!((1..=1000).contains(&s));
            top10 += (s <= 10) as u32;
        }
        assert!(top10 > 2000, "top-10 share {top10}/20000");
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = Rng::new(9, Stream::Ops);
        for n in [1, 2, 7, 1000] {
            assert!((0..500).all(|_| rng.below(n) < n));
        }
        assert!((0..500)
            .map(|_| rng.unit())
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
