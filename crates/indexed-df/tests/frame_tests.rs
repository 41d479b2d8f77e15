//! End-to-end tests for the Indexed DataFrame: Listing 1 API, MVCC
//! divergence (Listing 2), Catalyst-rule integration, fault tolerance.

use dataframe::{col, lit, ColumnarTable, Context};
use indexed_df::IndexedDataFrame;
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;

fn edge_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("src", DataType::Int64),
        Field::new("dst", DataType::Int64),
    ])
}

fn edges(n: i64, keys: i64) -> Vec<Row> {
    (0..n)
        .map(|i| vec![Value::Int64(i % keys), Value::Int64(i)])
        .collect()
}

fn ctx() -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig::test_small()))
}

#[test]
fn create_cache_lookup() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(1000, 50), "src").unwrap();
    assert!(!idf.is_cached());
    idf.cache_index().unwrap();
    assert!(idf.is_cached());
    assert_eq!(idf.num_rows(), 1000);
    let rows = idf.get_rows(&Value::Int64(13)).unwrap();
    assert_eq!(rows.len(), 20);
    assert!(rows.iter().all(|r| r[0] == Value::Int64(13)));
    assert!(idf.get_rows(&Value::Int64(999)).unwrap().is_empty());
}

#[test]
fn lazy_materialization_on_first_use() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(100, 10), "src").unwrap();
    // No cache_index: the lookup itself must build the needed partition.
    assert_eq!(idf.get_rows(&Value::Int64(3)).unwrap().len(), 10);
}

#[test]
fn append_creates_new_version() {
    let ctx = ctx();
    let v1 = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(100, 10), "src").unwrap();
    v1.cache_index().unwrap();
    let v2 = v1.append_rows(vec![vec![Value::Int64(3), Value::Int64(9999)]]);
    assert_eq!(v2.version(), v1.version() + 1);
    assert_eq!(v2.num_rows(), 101);
    let v2_rows = v2.get_rows(&Value::Int64(3)).unwrap();
    assert_eq!(v2_rows.len(), 11);
    // Newest append comes first in the chain.
    assert_eq!(v2_rows[0][1], Value::Int64(9999));
    // Parent unchanged.
    assert_eq!(v1.get_rows(&Value::Int64(3)).unwrap().len(), 10);
    assert_eq!(v1.num_rows(), 100);
}

#[test]
fn divergent_appends_coexist() {
    // Listing 2: two children of the same parent, materialized in reverse
    // order — both must succeed.
    let ctx = ctx();
    let parent = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(100, 10), "src").unwrap();
    parent.cache_index().unwrap();
    let a = parent.append_rows(vec![vec![Value::Int64(0), Value::Int64(111)]]);
    let b = parent.append_rows(vec![vec![Value::Int64(0), Value::Int64(222)]]);
    // Materialize in reverse creation order.
    let b_rows = b.get_rows(&Value::Int64(0)).unwrap();
    let a_rows = a.get_rows(&Value::Int64(0)).unwrap();
    assert_eq!(a_rows.len(), 11);
    assert_eq!(b_rows.len(), 11);
    assert!(a_rows.iter().any(|r| r[1] == Value::Int64(111)));
    assert!(!a_rows.iter().any(|r| r[1] == Value::Int64(222)));
    assert!(b_rows.iter().any(|r| r[1] == Value::Int64(222)));
    assert_eq!(parent.get_rows(&Value::Int64(0)).unwrap().len(), 10);
}

#[test]
fn chained_appends() {
    let ctx = ctx();
    let mut idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(50, 5), "src").unwrap();
    for round in 0..5 {
        idf = idf.append_rows(vec![vec![Value::Int64(1), Value::Int64(1000 + round)]]);
    }
    assert_eq!(idf.version(), 6);
    assert_eq!(idf.num_rows(), 55);
    assert_eq!(idf.get_rows(&Value::Int64(1)).unwrap().len(), 15);
}

#[test]
fn collect_returns_everything() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(500, 20), "src").unwrap();
    let rows = idf.collect().unwrap();
    assert_eq!(rows.len(), 500);
}

#[test]
fn sql_point_query_uses_indexed_lookup() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(1000, 100), "src").unwrap();
    idf.cache_index().unwrap();
    let df = idf.register("edges").unwrap();
    let explained = df
        .clone()
        .filter(col("src").eq(lit(5i64)))
        .explain()
        .unwrap();
    assert!(explained.contains("IndexedLookup"), "{explained}");
    let rows = ctx
        .sql("SELECT * FROM edges WHERE src = 5")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 10);
}

#[test]
fn sql_projected_point_query_still_indexed() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(1000, 100), "src").unwrap();
    idf.register("edges").unwrap();
    let df = ctx.sql("SELECT dst FROM edges WHERE src = 5").unwrap();
    let explained = df.explain().unwrap();
    assert!(explained.contains("IndexedLookup"), "{explained}");
    let rows = df.collect().unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[0].len(), 1);
}

#[test]
fn non_indexed_predicates_fall_back() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(1000, 100), "src").unwrap();
    let df = idf.register("edges").unwrap();
    // Range predicate cannot use the hash index.
    let range = df.clone().filter(col("src").lt(lit(5i64)));
    assert!(!range.explain().unwrap().contains("IndexedLookup"));
    assert_eq!(range.count().unwrap(), 50);
    // Equality on a non-index column falls back too.
    let other = df.filter(col("dst").eq(lit(7i64)));
    assert!(!other.explain().unwrap().contains("IndexedLookup"));
    assert_eq!(other.count().unwrap(), 1);
}

#[test]
fn indexed_join_matches_vanilla_join() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(2000, 100), "src").unwrap();
    idf.cache_index().unwrap();
    let edges_df = idf.register("edges").unwrap();

    // Probe table: a small subset of keys.
    let probe_schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ]);
    let probe_rows: Vec<Row> = (0..10)
        .map(|i| vec![Value::Int64(i * 7), Value::Utf8(format!("p{i}"))])
        .collect();
    ctx.register_table(
        "probe",
        Arc::new(ColumnarTable::from_rows(
            Arc::clone(&probe_schema),
            probe_rows.clone(),
            2,
        )),
    );

    let joined = edges_df.join(ctx.table("probe").unwrap(), "src", "id");
    let explained = joined.explain().unwrap();
    assert!(explained.contains("IndexedJoin"), "{explained}");
    let got = joined.collect().unwrap();

    // Reference: vanilla join against a columnar copy of the edges.
    ctx.register_table(
        "edges_plain",
        Arc::new(ColumnarTable::from_rows(edge_schema(), edges(2000, 100), 4)),
    );
    let expected = ctx
        .table("edges_plain")
        .unwrap()
        .join(ctx.table("probe").unwrap(), "src", "id")
        .collect()
        .unwrap();
    assert_eq!(got.len(), expected.len());
    let canon = |mut v: Vec<Row>| {
        v.sort_by_key(|r| format!("{r:?}"));
        v
    };
    assert_eq!(canon(got), canon(expected));
}

#[test]
fn indexed_join_when_indexed_side_is_right() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(500, 50), "src").unwrap();
    idf.register("edges").unwrap();
    let probe_schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
    let probe_rows: Vec<Row> = (0..5).map(|i| vec![Value::Int64(i)]).collect();
    ctx.register_table(
        "probe",
        Arc::new(ColumnarTable::from_rows(probe_schema, probe_rows, 1)),
    );
    // probe JOIN edges: indexed side on the right.
    let df = ctx
        .sql("SELECT * FROM probe JOIN edges ON probe.id = edges.src")
        .unwrap();
    assert!(df.explain().unwrap().contains("IndexedJoin"));
    let rows = df.collect().unwrap();
    assert_eq!(rows.len(), 50); // 5 keys × 10 rows each
                                // Column order: probe (left) then edges (right).
    assert_eq!(rows[0].len(), 3);
}

#[test]
fn indexed_join_shuffle_path_matches_broadcast_path() {
    // Force the shuffle path by setting a zero broadcast threshold.
    let cluster = Cluster::new(ClusterConfig::test_small());
    let cfg = dataframe::ExecConfig {
        broadcast_threshold_bytes: 0,
        ..Default::default()
    };
    let ctx = Context::with_config(cluster, cfg);
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(1000, 50), "src").unwrap();
    let edges_df = idf.register("edges").unwrap();
    let probe_schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
    let probe_rows: Vec<Row> = (0..10).map(|i| vec![Value::Int64(i * 5)]).collect();
    ctx.register_table(
        "probe",
        Arc::new(ColumnarTable::from_rows(probe_schema, probe_rows, 2)),
    );
    let got = edges_df
        .join(ctx.table("probe").unwrap(), "src", "id")
        .collect()
        .unwrap();
    assert_eq!(got.len(), 200); // 10 probe keys × 20 rows per key
    assert!(
        ctx.cluster().registry().counter_value("shuffle.rows") > 0,
        "shuffle path must shuffle"
    );
}

#[test]
fn fault_tolerance_rebuilds_lost_partitions() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 3,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(600, 60), "src").unwrap();
    idf.cache_index().unwrap();
    let before = idf.get_rows(&Value::Int64(42)).unwrap();
    assert_eq!(before.len(), 10);

    // Kill a worker: its cached indexed partitions are gone.
    cluster.kill_worker(1);
    let recompute_ns = || cluster.registry().counter_value("phase.recompute_ns");
    let rec_before = recompute_ns();
    // Every key must still be resolvable (rebuilt from lineage).
    for k in 0..60 {
        assert_eq!(idf.get_rows(&Value::Int64(k)).unwrap().len(), 10, "key {k}");
    }
    assert!(recompute_ns() > rec_before, "recovery must recompute");
}

#[test]
fn mid_stage_worker_kill_recovers_via_retry_and_lineage() {
    // The acceptance scenario for fallible stage execution: a worker is
    // killed while a stage over a cached Indexed DataFrame is running. The
    // attempts in flight on the victim are discarded as lost, rescheduled
    // onto survivors, and the rescheduled attempts find the victim's cached
    // partitions gone — so they rebuild them from lineage. The stage
    // returns correct results; no panic crosses `run_stage`.
    use sparklet::TaskSpec;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let cluster = Cluster::new(ClusterConfig {
        workers: 3,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let idf = IndexedDataFrame::builder(&ctx, edge_schema(), "src")
        .unwrap()
        .rows(edges(600, 60))
        .partitions(6)
        .build()
        .unwrap();
    idf.cache_index().unwrap();
    assert!(idf.is_cached());
    let before = cluster.registry().merged();

    let tasks: Vec<TaskSpec> = (0..idf.num_partitions())
        .map(|p| TaskSpec {
            partition: p,
            preferred_worker: Some(cluster.worker_for_partition(p)),
        })
        .collect();
    // Handshake instead of timing: an attempt on worker 1 announces it is
    // in flight and then holds until it sees the kill; the first attempt
    // elsewhere waits for that announcement before killing worker 1. So
    // the kill always lands while a worker-1 attempt is running. Both
    // waits are bounded, so a scheduling surprise fails the assertions
    // below instead of hanging the test.
    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let victim_started = Arc::new(AtomicBool::new(false));
    let killed = Arc::new(AtomicBool::new(false));
    let killer = Arc::clone(&cluster);
    let scan = idf.clone();
    let counts = cluster
        .run_stage(&tasks, move |tc| {
            if tc.worker == 1 {
                victim_started.store(true, Ordering::SeqCst);
                wait_until(|| !killer.is_alive(1));
            } else if !killed.swap(true, Ordering::SeqCst) {
                wait_until(|| victim_started.load(Ordering::SeqCst));
                killer.kill_worker(1);
            }
            scan.partition(tc.partition).scan().len()
        })
        .expect("stage completes despite mid-stage worker loss");

    assert_eq!(
        counts.iter().sum::<usize>(),
        600,
        "every partition scanned exactly once"
    );
    assert!(!cluster.is_alive(1));
    let after = cluster.registry().merged().since(&before);
    assert!(
        after["task.retries"] > 0,
        "victim's in-flight tasks must be retried"
    );
    assert_eq!(
        after.get("task.terminal_failures").copied().unwrap_or(0),
        0,
        "every failed attempt was retried, so none is terminal"
    );
    assert!(
        after["phase.recompute_ns"] > 0,
        "retried tasks must rebuild the victim's partitions from lineage"
    );
}

#[test]
fn fault_tolerance_replays_appends() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let v1 = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(100, 10), "src").unwrap();
    let v2 = v1.append_rows(vec![vec![Value::Int64(4), Value::Int64(-1)]]);
    v2.cache_index().unwrap();
    assert_eq!(v2.get_rows(&Value::Int64(4)).unwrap().len(), 11);
    cluster.kill_worker(0);
    cluster.kill_worker(1);
    cluster.restart_worker(0);
    cluster.restart_worker(1);
    // All caches lost; lineage (source + append) must replay fully.
    let rows = v2.get_rows(&Value::Int64(4)).unwrap();
    assert_eq!(rows.len(), 11);
    assert!(rows.iter().any(|r| r[1] == Value::Int64(-1)));
}

#[test]
fn mvcc_visibility_survives_kill_and_recompute() {
    // Append + worker-kill + recompute cycle: after the victim's blocks are
    // lost and rebuilt from lineage on survivors, a v1 handle must still see
    // only v1 rows and a v2 handle must see the append — the cache never
    // serves a block newer than the requested snapshot version.
    let cluster = Cluster::new(ClusterConfig {
        workers: 4,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let v1 = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(200, 10), "src").unwrap();
    v1.cache_index().unwrap();
    let v2 = v1.append_rows(vec![vec![Value::Int64(7), Value::Int64(7777)]]);
    v2.cache_index().unwrap();

    cluster.kill_worker(1);
    // Force both versions to rebuild whatever the victim held.
    let v1_all = v1.collect().unwrap();
    let v2_all = v2.collect().unwrap();
    assert_eq!(v1_all.len(), 200);
    assert_eq!(v2_all.len(), 201);

    let v1_rows = v1.get_rows(&Value::Int64(7)).unwrap();
    assert_eq!(v1_rows.len(), 20, "v1 sees exactly the pre-append rows");
    assert!(
        v1_rows.iter().all(|r| r[1] != Value::Int64(7777)),
        "v1 must never observe the v2 append"
    );
    let v2_rows = v2.get_rows(&Value::Int64(7)).unwrap();
    assert_eq!(v2_rows.len(), 21);
    assert_eq!(v2_rows[0][1], Value::Int64(7777), "newest-first chain");

    let registry = cluster.registry();
    assert!(
        registry.counter_value("index.cache.misses") > 0,
        "lost partitions must recompute (cache misses)"
    );
    assert!(
        registry.counter_value("index.cache.hits") > 0,
        "surviving partitions must be served from cache (hits)"
    );
}

#[test]
fn memory_stats_report_small_index_overhead() {
    let ctx = ctx();
    let rows: Vec<Row> = (0..20_000)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 31)])
        .collect();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), rows, "src").unwrap();
    let stats = idf.partition_stats().unwrap();
    assert_eq!(stats.len(), idf.num_partitions());
    let total_index: usize = stats.iter().map(|(i, _)| i).sum();
    let total_data: usize = stats.iter().map(|(_, d)| d).sum();
    assert!(total_data > 0 && total_index > 0);
    // Paper: < 2% at 30 GB scale; allow generous slack at toy scale but the
    // index must not dwarf the data.
    let ratio = total_index as f64 / total_data as f64;
    assert!(ratio < 5.0, "index/data ratio {ratio}");
}

#[test]
fn string_keys_work_end_to_end() {
    let ctx = ctx();
    let schema = Schema::new(vec![
        Field::new("tail", DataType::Utf8),
        Field::new("num", DataType::Int64),
    ]);
    let rows: Vec<Row> = (0..300)
        .map(|i| vec![Value::Utf8(format!("N{}", i % 30)), Value::Int64(i)])
        .collect();
    let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "tail").unwrap();
    idf.cache_index().unwrap();
    assert_eq!(idf.get_rows(&Value::Utf8("N7".into())).unwrap().len(), 10);
    idf.register("flights").unwrap();
    let n = ctx
        .sql("SELECT * FROM flights WHERE tail = 'N7'")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 10);
}

#[test]
fn create_index_from_dataframe() {
    let ctx = ctx();
    ctx.register_table(
        "plain",
        Arc::new(ColumnarTable::from_rows(edge_schema(), edges(200, 20), 2)),
    );
    let df = ctx.table("plain").unwrap();
    let idf = IndexedDataFrame::create_index(&df, "src").unwrap();
    idf.cache_index().unwrap();
    assert_eq!(idf.get_rows(&Value::Int64(5)).unwrap().len(), 10);
}

#[test]
fn builder_options() {
    let ctx = ctx();
    let idf = IndexedDataFrame::builder(&ctx, edge_schema(), "src")
        .unwrap()
        .rows(edges(100, 10))
        .partitions(3)
        .build()
        .unwrap();
    assert_eq!(idf.num_partitions(), 3);
    idf.cache_index().unwrap();
    assert_eq!(idf.collect().unwrap().len(), 100);
}

#[test]
fn unknown_index_column_rejected() {
    let ctx = ctx();
    let err = IndexedDataFrame::from_rows(&ctx, edge_schema(), Vec::new(), "nope");
    assert!(err.is_err());
}

#[test]
fn get_rows_df_is_queryable() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(200, 20), "src").unwrap();
    idf.cache_index().unwrap();
    let df = idf.get_rows_df(&Value::Int64(7)).unwrap();
    assert_eq!(df.count().unwrap(), 10);
    // It is a real DataFrame: further operations compose.
    let filtered = df.filter(col("dst").gt_eq(lit(100i64)));
    assert!(filtered.count().unwrap() <= 10);
    // Missing keys yield an empty (but valid) frame.
    assert_eq!(
        idf.get_rows_df(&Value::Int64(9999))
            .unwrap()
            .count()
            .unwrap(),
        0
    );
}

#[test]
fn analyze_reports_metrics() {
    let ctx = ctx();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), edges(1000, 50), "src").unwrap();
    let df = idf.register("edges_an").unwrap();
    let probe_schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
    let probe: Vec<Row> = (0..5).map(|i| vec![Value::Int64(i)]).collect();
    ctx.register_table(
        "probe_an",
        Arc::new(ColumnarTable::from_rows(probe_schema, probe, 1)),
    );
    let (rows, metrics) = df
        .join(ctx.table("probe_an").unwrap(), "src", "id")
        .analyze()
        .unwrap();
    assert_eq!(rows.len(), 100);
    assert!(
        metrics["phase.probe_ns"] > 0,
        "indexed join must record probe time"
    );
}

#[test]
fn skewed_index_build_splits_hot_bucket_and_stays_correct() {
    // 90% of the rows share one index key: the build shuffle's hot reduce
    // bucket is split into slices (adaptive repartitioning) and the build
    // stage runs heaviest-bucket-first, but the index contents must be
    // exactly what a uniform build would produce.
    let ctx = ctx();
    let n = 2000i64;
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let key = if i % 10 != 0 { 7 } else { i % 100 };
            vec![Value::Int64(key), Value::Int64(i)]
        })
        .collect();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), rows.clone(), "src").unwrap();
    idf.cache_index().unwrap();

    let hot = idf.get_rows(&Value::Int64(7)).unwrap();
    let want_hot = rows.iter().filter(|r| r[0] == Value::Int64(7)).count();
    assert_eq!(hot.len(), want_hot);
    let cold = idf.get_rows(&Value::Int64(30)).unwrap();
    let want_cold = rows.iter().filter(|r| r[0] == Value::Int64(30)).count();
    assert_eq!(cold.len(), want_cold);

    let reg = ctx.cluster().registry();
    assert!(
        reg.counter("adaptive.splits").get() >= 1,
        "hot bucket should have been split during the build shuffle"
    );
    assert!(reg.gauge("shuffle.max_partition_rows").get() >= want_hot as u64);
}
