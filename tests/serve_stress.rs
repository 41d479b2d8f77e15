//! Multi-tenant serving stress: interleaved SQL sessions on one shared
//! cluster must produce exactly the single-query results — including
//! while a worker dies mid-serve (blame-aware retry, no cross-query
//! poisoning).

use dataframe::{Context, TableProvider};
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{Cluster, ClusterConfig};
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;
use workloads::{register_indexed, snb};

const WORKERS: usize = 4;

fn serve_ctx() -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig {
        workers: WORKERS,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    }))
}

fn snb_tables(ctx: &Arc<Context>) {
    let data = snb::generate(snb::SnbConfig {
        persons: 500,
        avg_degree: 8,
        theta: 0.8,
        seed: 7,
    });
    register_indexed(ctx, "persons", snb::person_schema(), data.persons, "id");
    register_indexed(ctx, "edges", snb::edge_schema(), data.edges, "edge_source");
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// The 8-query interleaved mix: every short read once, plus an extra SQ3.
fn mix() -> Vec<(usize, String)> {
    (0..8)
        .map(|i| {
            let q = 1 + i % 7;
            (
                q,
                snb::short_read_sql(q, "persons", "edges", (3 + 11 * i) as i64),
            )
        })
        .collect()
}

#[test]
fn interleaved_queries_match_single_query_baselines() {
    let ctx = serve_ctx();
    snb_tables(&ctx);
    let mix = mix();

    // Single-query baselines, serially on the same cluster.
    let baselines: Vec<Vec<Row>> = mix
        .iter()
        .map(|(_, sql)| sorted(ctx.sql(sql).unwrap().collect().unwrap()))
        .collect();

    // All eight at once, through the serving path.
    let handles: Vec<_> = mix
        .iter()
        .map(|(_, sql)| ctx.submit_sql(sql).unwrap())
        .collect();
    for (((q, _), handle), baseline) in mix.iter().zip(handles).zip(&baselines) {
        let got = sorted(handle.wait().unwrap());
        if *q == 2 {
            // SQ2's LIMIT keeps an arbitrary-but-sized subset; the row
            // *set* depends on partition arrival order under concurrency.
            assert_eq!(got.len(), baseline.len(), "SQ2 row count");
        } else {
            assert_eq!(&got, baseline, "SQ{q} diverged under interleaving");
        }
    }

    let registry = ctx.cluster().registry();
    assert!(registry.counter_value("session.admitted") >= 8);
    assert_eq!(registry.counter_value("task.terminal_failures"), 0);
}

/// Rows pre-split into partitions; partitions homed on `slow_worker`
/// (partition index ≡ worker index mod cluster size) sleep before
/// returning, guaranteeing in-flight tasks on that worker when the
/// killer strikes.
struct SlowTable {
    schema: Arc<Schema>,
    parts: Vec<Vec<Row>>,
    cluster: Arc<Cluster>,
    slow_worker: usize,
    delay: Duration,
}

impl TableProvider for SlowTable {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }
    fn scan_partition(&self, partition: usize) -> Vec<Row> {
        if self.cluster.worker_for_partition(partition) == self.slow_worker {
            std::thread::sleep(self.delay);
        }
        self.parts[partition].clone()
    }
    fn num_rows(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
    fn estimated_bytes(&self) -> usize {
        self.num_rows() * 16
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Kills `victim` once, from the first scanned partition — a worker
/// failure injected mid-serve, while other queries hold in-flight tasks
/// on the victim.
struct KillerTable {
    schema: Arc<Schema>,
    parts: Vec<Vec<Row>>,
    cluster: Arc<Cluster>,
    victim: usize,
    fired: AtomicBool,
}

impl TableProvider for KillerTable {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }
    fn scan_partition(&self, partition: usize) -> Vec<Row> {
        if !self.fired.swap(true, SeqCst) {
            // Let the slow queries' victim-homed tasks get in flight.
            std::thread::sleep(Duration::from_millis(20));
            self.cluster.kill_worker(self.victim);
        }
        self.parts[partition].clone()
    }
    fn num_rows(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
    fn estimated_bytes(&self) -> usize {
        self.num_rows() * 16
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn split_rows(n: i64, parts: usize) -> (Arc<Schema>, Vec<Vec<Row>>) {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    let mut split = vec![Vec::new(); parts];
    for i in 0..n {
        split[(i as usize) % parts].push(vec![Value::Int64(i % 10), Value::Int64(i)]);
    }
    (schema, split)
}

#[test]
fn worker_kill_mid_serve_poisons_no_query() {
    let ctx = serve_ctx();
    snb_tables(&ctx);
    let cluster = Arc::clone(ctx.cluster());
    let victim = 1;

    let (schema, parts) = split_rows(400, 2 * WORKERS);
    let slow_expected: Vec<Row> = parts.iter().flatten().cloned().collect();
    ctx.register_table(
        "slow",
        Arc::new(SlowTable {
            schema: Arc::clone(&schema),
            parts,
            cluster: Arc::clone(&cluster),
            slow_worker: victim,
            delay: Duration::from_millis(150),
        }),
    );
    let (schema, parts) = split_rows(100, 2 * WORKERS);
    let killer_expected: Vec<Row> = parts.iter().flatten().cloned().collect();
    ctx.register_table(
        "killer",
        Arc::new(KillerTable {
            schema,
            parts,
            cluster: Arc::clone(&cluster),
            victim,
            fired: AtomicBool::new(false),
        }),
    );

    // Baselines for the SNB mix come from the healthy cluster; the custom
    // tables' expectations are the constructed rows themselves (scanning
    // the killer table to get a baseline would fire the kill early).
    let mix: Vec<(usize, String)> = mix().into_iter().take(6).collect();
    let baselines: Vec<Vec<Row>> = mix
        .iter()
        .map(|(_, sql)| sorted(ctx.sql(sql).unwrap().collect().unwrap()))
        .collect();

    // 8 concurrent sessions: the slow scan pins tasks on the victim, the
    // killer takes the victim down 20 ms in, and six SNB short reads run
    // through the failure.
    let slow_handle = ctx.submit_sql("SELECT * FROM slow").unwrap();
    let killer_handle = ctx.submit_sql("SELECT * FROM killer").unwrap();
    let handles: Vec<_> = mix
        .iter()
        .map(|(_, sql)| ctx.submit_sql(sql).unwrap())
        .collect();

    assert_eq!(
        sorted(slow_handle.wait().unwrap()),
        sorted(slow_expected),
        "slow query survived the worker kill with the right rows"
    );
    assert_eq!(
        sorted(killer_handle.wait().unwrap()),
        sorted(killer_expected),
        "killer query itself completed correctly"
    );
    for (((q, _), handle), baseline) in mix.iter().zip(handles).zip(&baselines) {
        let got = sorted(handle.wait().unwrap());
        if *q == 2 {
            assert_eq!(got.len(), baseline.len(), "SQ2 row count");
        } else {
            assert_eq!(&got, baseline, "SQ{q} poisoned by the worker kill");
        }
    }

    let registry = cluster.registry();
    assert!(!cluster.is_alive(victim), "the kill fired");
    assert!(
        registry.counter_value("task.failure_cause.worker_lost") > 0,
        "victim-homed in-flight tasks were blamed on the lost worker"
    );
    assert_eq!(
        registry.counter_value("task.terminal_failures"),
        0,
        "every task recovered within its retry budget"
    );
    assert!(registry.counter_value("session.admitted") >= 8);

    // Broadcast ledger reconciliation (the accounting-drift bugfix): the
    // pre-kill joins handed broadcast copies to all four workers; the
    // victim's copies must be reclaimed on its death instead of counting
    // as live occupancy forever. The cumulative traffic counters are
    // monotone and unaffected.
    assert!(
        registry.counter_value("broadcast.copies") > 0,
        "the SNB mix exercised broadcast joins"
    );
    assert!(
        registry.counter_value("broadcast.reclaimed_copies") > 0,
        "worker loss reconciled the live broadcast ledger"
    );
    assert!(
        registry.gauge_value("broadcast.live_copies")
            + registry.counter_value("broadcast.reclaimed_copies")
            == registry.counter_value("broadcast.copies"),
        "live + reclaimed copies account for every copy ever handed out"
    );
}

/// The budget-constrained chaos variant: the same interleaved mix, but
/// with the memory governor holding the cluster to half the cached
/// working set — queries run against a mix of resident, spilled, and
/// (after the kill) lost blocks, and must still match the healthy
/// ungoverned baselines exactly.
#[test]
fn budget_constrained_serving_survives_eviction_and_worker_loss() {
    let ctx = serve_ctx();
    snb_tables(&ctx);
    let cluster = Arc::clone(ctx.cluster());
    let mix = mix();

    // Healthy, ungoverned baselines first.
    let baselines: Vec<Vec<Row>> = mix
        .iter()
        .map(|(_, sql)| sorted(ctx.sql(sql).unwrap().collect().unwrap()))
        .collect();

    let resident = cluster.memory().resident_bytes();
    assert!(resident > 0, "indexed tables are cached and accounted");
    let budget = resident / 2;
    cluster.set_memory_budget(budget);
    let registry = cluster.registry();
    assert!(
        registry.counter_value("memory.evictions") > 0,
        "halving the budget evicted cold partitions"
    );
    assert!(registry.counter_value("memory.spilled_bytes") > 0);

    let check = |round: &str| {
        let handles: Vec<_> = mix
            .iter()
            .map(|(_, sql)| ctx.submit_sql(sql).unwrap())
            .collect();
        for (((q, _), handle), baseline) in mix.iter().zip(handles).zip(&baselines) {
            let got = sorted(handle.wait().unwrap());
            if *q == 2 {
                assert_eq!(got.len(), baseline.len(), "SQ2 row count ({round})");
            } else {
                assert_eq!(&got, baseline, "SQ{q} diverged ({round})");
            }
        }
    };

    // Round 1: serving out of a part-resident, part-spilled working set.
    check("under budget");
    assert!(
        registry.counter_value("memory.unspills") > 0,
        "evicted partitions were restored from spill images"
    );

    // Round 2: a worker dies on top of the memory pressure; lost blocks
    // restore from spill or lineage on the survivors.
    cluster.kill_worker(1);
    check("under budget after worker loss");

    assert!(
        cluster.memory().resident_bytes() <= budget,
        "governed resident never exceeds the budget"
    );
    assert_eq!(
        registry.counter_value("task.terminal_failures"),
        0,
        "every task recovered within its retry budget"
    );
}
