//! Memory-governance benchmark (`figures memory`).
//!
//! Exercises the per-worker memory accountant end to end: a multi-tenant
//! SNB working set **2–4× larger than the byte budget** is served through
//! SQL while the governor evicts, spills and re-admits indexed partitions.
//! Two phases on identical data and an identical zipf-skewed SQ1–SQ7
//! mix:
//!
//! 1. **ungoverned** — budget 0 (accounting only). Establishes the
//!    resident peak of the full working set and the no-pressure qps.
//! 2. **governed** — budget = ungoverned peak / 3, cost-based retention:
//!    cold victims spill to compressed disk blocks and restore on demand;
//!    hot, expensive blocks are kept by the recompute-cost × reuse score.
//!
//! Each tenant's tables are built from a [`ReplayableSource`] that
//! *regenerates* the social network on replay — modeling re-ingest from
//! an upstream system (Kafka/HDFS in the paper, §III-D), which is
//! exactly the cost class spilling is supposed to dodge. The headline
//! number is `governed_qps`; the acceptance shape is governed peak ≤
//! budget with evictions and spilled bytes both > 0.

use crate::perf::Perf;
use crate::{banner, write_csv, Opts};
use dataframe::Context;
use indexed_df::{IndexedDataFrame, ReplayableSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rowstore::Row;
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;
use std::time::Instant;
use workloads::{snb, Zipf};

/// Tenants sharing the cluster; tenant 1 is the zipf-hottest.
const TENANTS: usize = 6;

/// Zipf exponent for tenant popularity (matches the serve bench's skew
/// regime: a hot head, a long cold tail the governor should shed).
const TENANT_THETA: f64 = 0.85;

/// Partitions per table: small enough that one lineage recompute (a full
/// tenant regeneration per lost partition) stays measurable, large
/// enough that eviction works at sub-table granularity.
const PARTITIONS: usize = 8;

/// Modeled latency of one upstream source read (2 ms — an HDFS/Kafka
/// fetch over a LAN), paid by every lineage replay. In-process row
/// generation is orders of magnitude faster than the remote re-ingest
/// it stands in for, which would make recompute look artificially
/// competitive with spill-restore; this models the gap the same way the
/// serve bench models the driver→executor dispatch RTT. Recorded in the
/// perf record (`source_fetch_ns`) for transparency.
const SOURCE_FETCH_NS: u64 = 2_000_000;

fn persons_per_tenant(opts: &Opts) -> u64 {
    1200 * opts.scale.max(1)
}

fn tenant_cfg(opts: &Opts, tenant: usize) -> snb::SnbConfig {
    snb::SnbConfig {
        persons: persons_per_tenant(opts),
        avg_degree: 12,
        seed: 100 + tenant as u64,
        ..snb::SnbConfig::default()
    }
}

/// Which half of the generated graph a source delivers.
#[derive(Clone, Copy)]
enum Half {
    Persons,
    Edges,
}

/// A replayable source that *regenerates* its tenant's social network on
/// every replay instead of keeping the rows pinned: lineage recompute
/// costs real CPU (as re-reading an upstream source would), so the
/// spill-vs-recompute tradeoff the governor manages is genuine.
struct RegenSource {
    cfg: snb::SnbConfig,
    half: Half,
    rows: usize,
}

impl RegenSource {
    fn new(cfg: snb::SnbConfig, half: Half) -> RegenSource {
        // One generation up front to learn the exact row count (cheap
        // relative to the runs that follow; the rows are dropped).
        let data = snb::generate(cfg);
        let rows = match half {
            Half::Persons => data.persons.len(),
            Half::Edges => data.edges.len(),
        };
        RegenSource { cfg, half, rows }
    }
}

impl ReplayableSource for RegenSource {
    fn replay(&self) -> Vec<Row> {
        std::thread::sleep(std::time::Duration::from_nanos(SOURCE_FETCH_NS));
        let data = snb::generate(self.cfg);
        match self.half {
            Half::Persons => data.persons,
            Half::Edges => data.edges,
        }
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn describe(&self) -> String {
        format!(
            "snb regen seed {} ({} rows)",
            self.cfg.seed,
            match self.half {
                Half::Persons => "person",
                Half::Edges => "edge",
            }
        )
    }
}

fn memory_ctx(workers: usize) -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig {
        workers,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    }))
}

/// Build and register both tables of every tenant. Returns the frames so
/// the caller keeps their dataset leases alive for the whole phase.
fn register_tenants(ctx: &Arc<Context>, opts: &Opts) -> Vec<IndexedDataFrame> {
    let mut frames = Vec::new();
    for t in 1..=TENANTS {
        let cfg = tenant_cfg(opts, t);
        for (half, schema, table, index_col) in [
            (
                Half::Persons,
                snb::person_schema(),
                format!("persons_{t}"),
                "id",
            ),
            (
                Half::Edges,
                snb::edge_schema(),
                format!("edges_{t}"),
                "edge_source",
            ),
        ] {
            let idf = IndexedDataFrame::builder(ctx, schema, index_col)
                .expect("index column exists")
                .source(Arc::new(RegenSource::new(cfg, half)))
                .partitions(PARTITIONS)
                .build()
                .expect("frame builds");
            idf.cache_index().expect("index build succeeds");
            idf.register(&table).expect("registration succeeds");
            frames.push(idf);
        }
    }
    frames
}

/// One closed-loop pass of the SQ1–SQ7 mix with zipf-skewed tenant
/// selection. Returns queries per second.
fn run_mix(ctx: &Arc<Context>, opts: &Opts, queries: usize) -> f64 {
    let zipf = Zipf::new(TENANTS as u64, TENANT_THETA);
    let mut rng = StdRng::seed_from_u64(42);
    let persons = persons_per_tenant(opts) as i64;
    let mut rows_seen = 0usize;
    let start = Instant::now();
    for i in 0..queries {
        let t = zipf.sample(&mut rng);
        let q = 1 + i % 7;
        let person = rng.gen_range(0..persons);
        let sql = snb::short_read_sql(q, &format!("persons_{t}"), &format!("edges_{t}"), person);
        rows_seen += ctx
            .sql(&sql)
            .expect("mix query plans")
            .collect()
            .expect("mix query succeeds")
            .len();
    }
    assert!(rows_seen > 0, "SQ mix returned rows");
    queries as f64 / start.elapsed().as_secs_f64()
}

struct PhaseResult {
    ctx: Arc<Context>,
    qps: f64,
    peak: u64,
    evictions: u64,
    spilled_bytes: u64,
    recomputes: u64,
    unspills: u64,
}

/// Fresh cluster → (optional budget) → register all tenants → run the
/// mix → collect the governor's counters.
fn run_phase(opts: &Opts, budget: u64, queries: usize) -> PhaseResult {
    let ctx = memory_ctx(opts.workers_or(4));
    if budget > 0 {
        // Budget set before registration: the index build itself runs
        // governed, exactly like ingest on a memory-constrained worker.
        ctx.cluster().set_memory_budget(budget);
    }
    let frames = register_tenants(&ctx, opts);
    let qps = run_mix(&ctx, opts, queries);
    drop(frames);
    let r = ctx.cluster().registry();
    PhaseResult {
        qps,
        peak: r.gauge_value("memory.resident_peak_bytes"),
        evictions: r.counter_value("memory.evictions"),
        spilled_bytes: r.counter_value("memory.spilled_bytes"),
        recomputes: r.counter_value("memory.recomputes"),
        unspills: r.counter_value("memory.unspills"),
        ctx,
    }
}

pub fn memory(opts: &Opts) {
    banner("memory — governed serving under a byte budget (SQ1–SQ7 mix)");
    println!(
        "({TENANTS} tenants × ({} persons + ~{} edges), {PARTITIONS} partitions/table, \
         zipf theta {TENANT_THETA})",
        persons_per_tenant(opts),
        persons_per_tenant(opts) * 12,
    );
    let queries = 7 * 8 * opts.reps.max(1);
    let mut perf = Perf::start("memory");

    // Phase 1: accounting only — find the full working set's peak.
    let ungoverned = run_phase(opts, 0, queries);
    assert!(ungoverned.peak > 0, "accounting populated the peak gauge");
    assert_eq!(ungoverned.evictions, 0, "no budget, no evictions");
    let budget = ungoverned.peak / 3;
    println!(
        "ungoverned          {:8.1} qps  peak {:6.1} MiB  (budget ← peak/3 = {:.1} MiB)",
        ungoverned.qps,
        ungoverned.peak as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64,
    );

    // Phase 2: governed — cost-based retention + spill under budget.
    let governed = run_phase(opts, budget, queries);
    println!(
        "governed            {:8.1} qps  peak {:6.1} MiB  evictions {}  spilled {:.1} MiB  \
         unspills {}  recomputes {}",
        governed.qps,
        governed.peak as f64 / (1 << 20) as f64,
        governed.evictions,
        governed.spilled_bytes as f64 / (1 << 20) as f64,
        governed.unspills,
        governed.recomputes,
    );
    assert!(governed.evictions > 0, "budget pressure must evict");
    assert!(governed.spilled_bytes > 0, "eviction must spill victims");
    assert!(
        governed.peak <= budget,
        "governed peak {} exceeds budget {budget}",
        governed.peak
    );

    perf.attach("ungoverned", &ungoverned.ctx);
    perf.attach("governed", &governed.ctx);
    perf.extra("budget_bytes", budget as f64);
    perf.extra("ungoverned_peak_bytes", ungoverned.peak as f64);
    perf.extra("ungoverned_qps", ungoverned.qps);
    perf.extra("governed_qps", governed.qps);
    perf.extra("governed_peak_bytes", governed.peak as f64);
    perf.extra("source_fetch_ns", SOURCE_FETCH_NS as f64);

    let csv = vec![
        format!(
            "ungoverned,0,{},{:.3},{},{},{}",
            ungoverned.peak,
            ungoverned.qps,
            ungoverned.evictions,
            ungoverned.spilled_bytes,
            ungoverned.recomputes
        ),
        format!(
            "governed,{budget},{},{:.3},{},{},{}",
            governed.peak,
            governed.qps,
            governed.evictions,
            governed.spilled_bytes,
            governed.recomputes
        ),
    ];
    write_csv(
        opts,
        "memory.csv",
        "mode,budget_bytes,peak_bytes,qps,evictions,spilled_bytes,recomputes",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: governed stays under budget while serving the 3×-oversized");
    println!("working set, restoring evicted partitions from spill images");
}
