//! The four workloads: what each generates, loads and runs per operation,
//! and how each operation's result is checked.
//!
//! Every workload is one closed-loop client: the benchmark thread submits
//! an operation, waits for its result, checks it, and only then submits the
//! next. Each workload keeps to one cost class, so its latency distribution
//! does not mix microsecond lookups with millisecond scans.

use crate::answer::{
    analytic_answers, check_join, rows_digest, Checksum, Graph, IngestKey, LookupKey,
};
use crate::gen::{self, EdgeGen, Rng, Stream, AVG_DEGREE};
use crate::trace::{Tracer, ROOT};
use dataframe::{
    gather, optimize, parse_query, ColumnarTable, Context, ExecConfig, PlanError, Planner,
};
use indexed_df::{ContextViewExt, IndexedDataFrame};
use rowstore::{Row, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;
use std::time::Instant;

/// Two single-core executors on two workers. With the process pinned to
/// one CPU this is the geometry whose per-run medians repeat; see README.
pub const GEOMETRY: ClusterConfig = ClusterConfig {
    workers: 2,
    executors_per_worker: 1,
    cores_per_executor: 1,
    max_task_attempts: 4,
    skew_ratio: 2.0,
};

/// Probe tables of the `join` workload, used in rotation.
const PROBE_TABLES: usize = 8;
/// Short reads of the `lookup` rotation.
const LOOKUP_QUERIES: [usize; 5] = [1, 2, 3, 4, 7];
/// Reads issued after each append of the `ingest` workload.
const FRESH_READS: usize = 4;
/// Name of the `ingest` workload's standing view.
const VIEW: &str = "light_dests";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Join,
    Analytic,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Lookup, Kind::Join, Kind::Analytic, Kind::Ingest];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::Join => "join",
            Kind::Analytic => "analytic",
            Kind::Ingest => "ingest",
        }
    }

    /// Person ids in the generated graph; there are [`AVG_DEGREE`] edges
    /// per person. `analytic` scans every row per operation, so it runs on
    /// a tenth of the data to keep each operation in the millisecond class.
    pub fn persons(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Kind::Analytic, false) => 5_000,
            (Kind::Analytic, true) => 500,
            (_, false) => 100_000,
            (_, true) => 2_000,
        }
    }

    /// Operations run during set-up, before timing starts: about 1% of a
    /// run's operations.
    pub fn warmup_ops(self) -> usize {
        match self {
            Kind::Lookup => 2000,
            Kind::Join => 50,
            Kind::Analytic => 15,
            Kind::Ingest => 40,
        }
    }

    /// Set-ups per run, each in a fresh process; `setup_s` is their median.
    /// `analytic` sets up in a tenth of a second, so it takes more samples.
    pub fn setups(self) -> usize {
        match self {
            Kind::Analytic => 15,
            _ => 5,
        }
    }

    /// Operations that rotate through every query of the workload once.
    pub fn rotation(self) -> usize {
        match self {
            Kind::Lookup => LOOKUP_QUERIES.len(),
            Kind::Join => PROBE_TABLES,
            Kind::Analytic => 3,
            Kind::Ingest => 1,
        }
    }
}

/// How one SQL statement is driven.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `submit_sql` + `wait`, untraced: what every untraced run does.
    Plain,
    /// The same inside one span.
    Submit,
    /// parse → optimize → plan → execute → gather on the benchmark thread,
    /// one span per layer.
    Decomposed,
}

/// Generated inputs of one set-up, consumed by [`Engine::load`].
pub struct Inputs {
    pub persons: Vec<Row>,
    pub edges: Vec<Row>,
    pub probes: Vec<Vec<Row>>,
    /// Order-dependent digest of every generated row.
    pub digest: u64,
    /// Σ logical value bytes of every loaded row.
    pub logical_bytes: u64,
}

/// Bytes a value carries for a user, before any engine layout.
pub fn logical_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .flatten()
        .map(|v| match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int32(_) => 4,
            Value::Int64(_) | Value::Float64(_) => 8,
            Value::Utf8(s) => s.len() as u64,
        })
        .sum()
}

pub fn generate(kind: Kind, smoke: bool, seed: u64) -> Inputs {
    let n = kind.persons(smoke);
    let persons = if kind == Kind::Lookup {
        gen::persons(n, seed)
    } else {
        Vec::new()
    };
    let edges = EdgeGen::new(n, seed, Stream::Edges).edges((n * AVG_DEGREE) as usize);
    let probes: Vec<Vec<Row>> = if kind == Kind::Join {
        let mut rng = Rng::new(seed, Stream::Probes);
        (0..PROBE_TABLES)
            .map(|_| gen::probe(&edges, gen::PROBE_ROWS, &mut rng))
            .collect()
    } else {
        Vec::new()
    };
    let all = || persons.iter().chain(&edges).chain(probes.iter().flatten());
    Inputs {
        digest: rows_digest(all()),
        logical_bytes: all().map(|r| logical_bytes(std::slice::from_ref(r))).sum(),
        persons,
        edges,
        probes,
    }
}

/// What every operation of a workload must return.
pub enum Answers {
    Lookup(LookupKey),
    Join(Vec<Checksum>),
    Analytic([Checksum; 3]),
    Ingest(IngestKey),
}

impl Answers {
    pub fn build(kind: Kind, smoke: bool, inputs: &Inputs) -> Answers {
        let n = kind.persons(smoke) as usize;
        match kind {
            Kind::Lookup => Answers::Lookup(LookupKey::build(&inputs.persons, &inputs.edges)),
            Kind::Join => {
                let graph = Graph::new(n, &inputs.edges);
                Answers::Join(inputs.probes.iter().map(|p| graph.join_answer(p)).collect())
            }
            Kind::Analytic => Answers::Analytic(analytic_answers(n, &inputs.edges)),
            Kind::Ingest => Answers::Ingest(IngestKey::build(n, &inputs.edges)),
        }
    }
}

/// One loaded engine: a fresh cluster and context holding a workload's
/// tables, indexes and views.
pub struct Engine {
    pub kind: Kind,
    pub ctx: Arc<Context>,
    /// Seconds spent building the `edges` index (`from_rows` +
    /// `cache_index`).
    pub edge_build_s: f64,
    pub edge_rows: usize,
}

fn indexed(
    ctx: &Arc<Context>,
    schema: Arc<rowstore::Schema>,
    rows: Vec<Row>,
    col: &str,
) -> Result<IndexedDataFrame, String> {
    let idf = IndexedDataFrame::from_rows(ctx, schema, rows, col).map_err(|e| e.to_string())?;
    idf.cache_index().map_err(|e| e.to_string())?;
    Ok(idf)
}

impl Engine {
    /// Hand the generated rows to a fresh engine: the timed part of set-up.
    /// Uses only the user-level API.
    pub fn load(kind: Kind, inputs: Inputs) -> Result<Engine, String> {
        let ctx = Context::with_config(Cluster::new(GEOMETRY), ExecConfig::default());
        let err = |e: PlanError| e.to_string();
        if kind == Kind::Lookup {
            indexed(&ctx, gen::person_schema(), inputs.persons, "id")?
                .register("persons")
                .map_err(err)?;
        }
        let edge_rows = inputs.edges.len();
        let t = Instant::now();
        let edges = indexed(&ctx, gen::edge_schema(), inputs.edges, "edge_source")?;
        let edge_build_s = t.elapsed().as_secs_f64();
        if kind == Kind::Ingest {
            ctx.track_indexed_table("edges", &edges).map_err(err)?;
            ctx.register_view(VIEW, &gen::view(&ctx).map_err(err)?)
                .map_err(err)?;
        } else {
            edges.register("edges").map_err(err)?;
        }
        let parts = GEOMETRY.default_partitions();
        for (j, probe) in inputs.probes.into_iter().enumerate() {
            let table = ColumnarTable::from_rows(gen::probe_schema(), probe, parts);
            ctx.register_table(format!("probe{j}"), Arc::new(table));
        }
        Ok(Engine {
            kind,
            ctx,
            edge_build_s,
            edge_rows,
        })
    }

    /// The registered indexed tables (the latest version of each).
    pub fn frames(&self) -> Vec<IndexedDataFrame> {
        ["persons", "edges"]
            .iter()
            .filter_map(|t| self.ctx.provider(t).ok())
            .filter_map(|p| p.as_any().downcast_ref::<IndexedDataFrame>().cloned())
            .collect()
    }

    /// Σ (index + data bytes) over the tables' current versions.
    pub fn stored_bytes(&self) -> u64 {
        self.frames()
            .iter()
            .map(|f| (f.index_bytes() + f.data_bytes()) as u64)
            .sum()
    }
}

/// Run one statement in `mode`, recording spans for operation `op`.
pub fn run_sql(
    ctx: &Arc<Context>,
    sql: &str,
    mode: Mode,
    tr: &mut Tracer,
    op: u64,
) -> Result<Vec<Row>, PlanError> {
    match mode {
        Mode::Plain => ctx.submit_sql(sql)?.wait(),
        Mode::Submit => {
            let root = tr.begin(op, ROOT, "op.submit");
            let rows = ctx.submit_sql(sql).and_then(|h| h.wait());
            tr.end(root);
            rows
        }
        Mode::Decomposed => {
            let root = tr.begin(op, ROOT, "op.decomposed");
            let s = tr.begin(op, root, "sql.parse");
            let plan = parse_query(sql, ctx);
            tr.end(s);
            let s = tr.begin(op, root, "optimizer.optimize");
            let plan = plan.map(optimize);
            tr.end(s);
            let s = tr.begin(op, root, "planner.plan");
            let phys = plan.and_then(|p| Planner::new().plan(&p, ctx));
            tr.end(s);
            let s = tr.begin(op, root, "exec.execute");
            let parts = phys.and_then(|p| p.execute(ctx).map_err(PlanError::from));
            tr.end(s);
            let s = tr.begin(op, root, "exec.gather");
            let rows = parts.map(gather);
            tr.end(s);
            tr.end(root);
            rows
        }
    }
}

/// One operation's outcome.
pub struct Outcome {
    /// Latency of the operation (the append, for `ingest`), in µs.
    pub latency_us: f64,
    pub ok: bool,
    /// Latencies of the reads issued after an append, in µs (`ingest`).
    pub fresh_reads_us: Vec<f64>,
    /// Seconds the client spent outside the system: making inputs and
    /// checking results.
    pub client_s: f64,
}

/// Drives one workload's operations against a loaded engine.
pub struct Client {
    pub engine: Engine,
    answers: Answers,
    persons: u64,
    appends: Option<EdgeGen>,
    /// Logical bytes of every row loaded or appended so far.
    pub logical_bytes: u64,
}

impl Client {
    pub fn new(
        engine: Engine,
        answers: Answers,
        logical_bytes: u64,
        smoke: bool,
        seed: u64,
    ) -> Client {
        let persons = engine.kind.persons(smoke);
        let appends =
            (engine.kind == Kind::Ingest).then(|| EdgeGen::new(persons, seed, Stream::Appends));
        Client {
            engine,
            answers,
            persons,
            appends,
            logical_bytes,
        }
    }

    /// Run operation `i`, drawing its parameters from `rng`.
    pub fn op(&mut self, i: u64, rng: &mut Rng, mode: Mode, tr: &mut Tracer) -> Outcome {
        let kind = self.engine.kind;
        let slot = i as usize % kind.rotation();
        let (sql, query) = match kind {
            Kind::Lookup => {
                let q = LOOKUP_QUERIES[slot];
                let id = rng.below(self.persons) as i64;
                (gen::short_read_sql(q, id), (q, id))
            }
            Kind::Join => (gen::join_sql(&format!("probe{slot}")), (slot, 0)),
            Kind::Analytic => {
                let sql = match slot {
                    0 => gen::short_read_sql(5, 0),
                    1 => gen::short_read_sql(6, 0),
                    _ => gen::LIGHT_EDGES_SQL.to_string(),
                };
                (sql, (slot, 0))
            }
            Kind::Ingest => return self.ingest_op(i, rng, mode, tr),
        };
        let t = Instant::now();
        let rows = run_sql(&self.engine.ctx, &sql, mode, tr, i);
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let ok = rows.is_ok_and(|rows| match &self.answers {
            Answers::Lookup(key) => key.check(query.0, query.1, &rows),
            Answers::Join(keys) => check_join(&rows, keys[query.0]),
            Answers::Analytic(keys) => Checksum::of(&rows) == keys[query.0],
            Answers::Ingest(_) => unreachable!("ingest operations return above"),
        });
        Outcome {
            latency_us,
            ok,
            fresh_reads_us: Vec::new(),
            client_s: t.elapsed().as_secs_f64(),
        }
    }

    fn ingest_op(&mut self, i: u64, rng: &mut Rng, mode: Mode, tr: &mut Tracer) -> Outcome {
        let ctx = Arc::clone(&self.engine.ctx);
        let Answers::Ingest(key) = &mut self.answers else {
            unreachable!("ingest answers")
        };
        let t = Instant::now();
        let batch = self
            .appends
            .as_mut()
            .expect("ingest has an append stream")
            .edges(gen::APPEND_BATCH);
        let reads: Vec<i64> = (0..FRESH_READS)
            .map(|_| match batch[rng.below(batch.len() as u64) as usize][0] {
                Value::Int64(k) => k,
                _ => unreachable!("generated edge_source is Int64"),
            })
            .collect();
        // The engine takes the batch; the key learns it only once committed.
        let committed = batch.clone();
        let mut client_s = t.elapsed().as_secs_f64();

        let span = (mode != Mode::Plain).then(|| tr.begin(i, ROOT, "ingest.append"));
        let t = Instant::now();
        let appended = ctx.append_table("edges", batch);
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(s) = span {
            tr.end(s);
        }
        let mut ok = appended.is_ok();
        let t = Instant::now();
        if ok {
            key.absorb(&committed);
            self.logical_bytes += logical_bytes(&committed);
        }
        client_s += t.elapsed().as_secs_f64();
        let mut fresh_reads_us = Vec::with_capacity(FRESH_READS);
        for id in reads {
            let t = Instant::now();
            let rows = run_sql(&ctx, &gen::fresh_read_sql(id), mode, tr, i);
            fresh_reads_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            ok &= rows.is_ok_and(|rows| key.check_read(id, &rows));
            client_s += t.elapsed().as_secs_f64();
        }
        Outcome {
            latency_us,
            ok,
            fresh_reads_us,
            client_s,
        }
    }

    /// Checks that need the whole run: the standing view of `ingest` must
    /// equal its recomputation from every committed row.
    pub fn final_check(&self) -> bool {
        match &self.answers {
            Answers::Ingest(key) => self
                .engine
                .ctx
                .view(VIEW)
                .is_some_and(|v| v.is_incremental() && key.check_view(&v.rows())),
            _ => true,
        }
    }
}
