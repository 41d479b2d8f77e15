//! End-to-end observability: a 4-worker run must populate the metrics
//! registry across every layer — shuffle bytes, per-operator timings,
//! index cache hits *and* misses, multi-bucket histograms — and the
//! `metrics_json()` / `trace_report()` documents must carry all of it.

use dataframe::{Context, ExecConfig};
use indexed_df::IndexedDataFrame;
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{Cluster, ClusterConfig, SpanKind};
use std::sync::Arc;

fn edge_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
}

fn rows(n: i64, keys: i64) -> Vec<Row> {
    (0..n)
        .map(|i| vec![Value::Int64(i % keys), Value::Int64(i)])
        .collect()
}

#[test]
fn four_worker_run_populates_every_metric_layer() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 4,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    // A zero broadcast threshold forces the shuffled join: the planner
    // emits the adaptive join, which finds nothing to demote or salt in
    // these uniform inputs and shuffles both sides (the individual
    // adaptive decisions are covered by adaptive_metrics_populate_in_skewed_run).
    let ctx = Context::with_config(
        Arc::clone(&cluster),
        ExecConfig {
            broadcast_threshold_bytes: 0,
            ..ExecConfig::default()
        },
    );

    workloads::register_columnar(&ctx, "edges", edge_schema(), rows(4000, 50));
    workloads::register_columnar(&ctx, "probe", edge_schema(), rows(400, 50));

    // scan + shuffled join + aggregation through the SQL surface.
    let joined = ctx
        .table("edges")
        .unwrap()
        .join(ctx.table("probe").unwrap(), "k", "k")
        .count()
        .unwrap();
    assert!(joined > 0);
    let grouped = ctx
        .table("edges")
        .unwrap()
        .group_by(&["k"])
        .agg(vec![(dataframe::AggFunc::Count, None, "n")])
        .count()
        .unwrap();
    assert_eq!(grouped, 50);

    // Indexed layer: a lazy lookup pays a cache miss (build from lineage),
    // the repeat is a hit.
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), rows(2000, 50), "k").unwrap();
    assert_eq!(idf.get_rows(&Value::Int64(7)).unwrap().len(), 40);
    assert_eq!(idf.get_rows(&Value::Int64(7)).unwrap().len(), 40);
    // Finish building the remaining partitions from the shared bucket cache.
    idf.cache_index().unwrap();

    let registry = cluster.registry();
    assert!(registry.counter_value("shuffle.bytes") > 0, "shuffle bytes");
    assert!(registry.counter_value("shuffle.rows") > 0);
    assert!(registry.counter_value("index.cache.misses") > 0, "miss");
    assert!(registry.counter_value("index.cache.hits") > 0, "hit");

    // Index-build fast path: the lazy lookup plus the full cache_index
    // drained the base source through exactly one shared replay,
    // bulk-loaded all 2000 rows grouped by key (50 distinct keys, each
    // owned by one partition → 50 single-traversal upserts), and timed it.
    assert_eq!(registry.counter_value("index.replays"), 1, "one replay");
    assert_eq!(registry.counter_value("index.bulk_rows"), 2000);
    assert_eq!(registry.counter_value("index.upserts"), 50);
    assert!(registry.counter_value("index.build_ns") > 0, "build timed");

    // Per-operator timings for at least scan / join / agg.
    for op in ["op.scan.ns", "op.join.adaptive.ns", "op.agg.ns"] {
        let h = registry.histogram_snapshot(op).unwrap_or_else(|| {
            panic!("histogram {op} must exist");
        });
        assert!(h.count > 0, "{op} recorded");
        assert!(h.sum > 0, "{op} nonzero time");
    }
    assert!(registry.counter_value("op.scan.rows_in") > 0);
    assert!(registry.counter_value("op.join.adaptive.rows_out") > 0);
    assert_eq!(registry.counter_value("adaptive.join_demotions"), 0);
    assert_eq!(registry.counter_value("adaptive.salted_joins"), 0);
    assert!(registry.counter_value("op.agg.rows_out") > 0);

    // Execution-path split: the columnar scans and the aggregation above
    // run vectorized; the indexed-row layer stays on the fallback.
    assert!(
        registry.counter_value("operator.vectorized") > 0,
        "vectorized operators ran"
    );

    // At least one histogram spreads over more than one log2 bucket.
    let spread = [
        "task.run_ns",
        "task.queue_wait_ns",
        "shuffle.partition_bytes",
    ]
    .iter()
    .filter_map(|name| registry.histogram_snapshot(name))
    .any(|h| h.buckets.len() > 1);
    assert!(spread, "expected a histogram with >1 occupied bucket");

    // The JSON document carries all of it.
    let json = cluster.metrics_json();
    assert!(json.starts_with("{\"schema\":\"sparklet-metrics-v2\""));
    for needle in [
        "\"shuffle.bytes\"",
        "\"shuffle.ns\"",
        "\"phase.probe_ns\"",
        "\"phase.recompute_ns\"",
        "\"op.scan.ns\"",
        "\"op.join.adaptive.ns\"",
        "\"op.agg.ns\"",
        "\"index.cache.hits\"",
        "\"index.cache.misses\"",
        "\"index.replays\"",
        "\"index.bulk_rows\"",
        "\"index.upserts\"",
        "\"index.build_ns\"",
        "\"operator.vectorized\"",
        "\"trace\"",
    ] {
        assert!(json.contains(needle), "metrics_json missing {needle}");
    }
    assert!(
        !json.contains("\"legacy\""),
        "v2 has no legacy phase-counter object"
    );

    // The span trace nests operator → stage → task.
    let spans = cluster.trace().spans();
    assert!(spans.iter().any(|s| s.kind == SpanKind::Operator));
    assert!(spans.iter().any(|s| s.kind == SpanKind::Stage));
    assert!(spans.iter().any(|s| s.kind == SpanKind::Task));
    let report = cluster.trace_report();
    assert!(report.starts_with("{\"schema\":\"sparklet-trace-v1\""));
    assert!(report.contains("\"kind\":\"operator\""));

    // Reset restores a clean slate for per-figure isolation.
    cluster.reset_observability();
    assert_eq!(cluster.registry().counter_value("shuffle.bytes"), 0);
    assert!(cluster.trace().is_empty());
}

/// Every adaptive-execution decision type fires in one skewed 4-worker
/// run — split, coalesce, runtime join demotion, salted join — and each
/// leaves its counter, its decision span in the trace, and its series in
/// the metrics document.
#[test]
fn adaptive_metrics_populate_in_skewed_run() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 4,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::with_config(
        Arc::clone(&cluster),
        ExecConfig {
            broadcast_threshold_bytes: 1000,
            ..ExecConfig::default()
        },
    );
    let registry = cluster.registry();

    // Runtime demotion: both sides are *estimated* over the broadcast
    // threshold (so the planner emits the adaptive join), but the filter
    // leaves one actual row on the build side — the runtime demotes to
    // broadcast-hash instead of shuffling 4000 probe rows.
    workloads::register_columnar(&ctx, "edges", edge_schema(), rows(4000, 50));
    workloads::register_columnar(&ctx, "probe", edge_schema(), rows(4000, 50));
    let n = ctx
        .table("edges")
        .unwrap()
        .filter(dataframe::col("v").eq(dataframe::lit(7i64)))
        .join(ctx.table("probe").unwrap(), "k", "k")
        .count()
        .unwrap();
    assert_eq!(n, 80, "one build row (k=7) against 80 probe rows");
    assert_eq!(registry.counter_value("adaptive.join_demotions"), 1);

    // Salted join: the build side (200 single-row keys, ~5 KB) is over
    // the threshold so no demotion, but 90% of the probe rows share key 7
    // — only that key's build row is broadcast and only cold rows shuffle.
    workloads::register_columnar(&ctx, "dims", edge_schema(), rows(200, 200));
    let mut facts = rows(3600, 1); // all key 0... remap to hot key 7
    for r in &mut facts {
        r[0] = Value::Int64(7);
    }
    facts.extend(rows(400, 200));
    workloads::register_columnar(&ctx, "facts", edge_schema(), facts);
    let n = ctx
        .table("dims")
        .unwrap()
        .join(ctx.table("facts").unwrap(), "k", "k")
        .count()
        .unwrap();
    assert_eq!(n, 3600 + 400, "every fact row matches exactly one dim");
    assert_eq!(registry.counter_value("adaptive.salted_joins"), 1);

    // Split + coalesce: a 96%-hot index column makes the build shuffle
    // slice its hot reduce bucket and merge the near-empty cold ones.
    let skewed: Vec<Row> = (0..2000)
        .map(|i| {
            let key = if i % 25 != 0 { 42 } else { i % 100 };
            vec![Value::Int64(key), Value::Int64(i)]
        })
        .collect();
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), skewed, "k").unwrap();
    idf.cache_index().unwrap();
    assert!(registry.counter_value("adaptive.splits") >= 1, "splits");
    assert!(
        registry.counter_value("adaptive.coalesces") >= 1,
        "coalesces"
    );
    assert!(registry.gauge_value("shuffle.max_partition_rows") >= 1920);

    // Cardinality feedback observed the bare-scan join inputs.
    let observed = ctx.runtime_stats().observed("facts").unwrap();
    assert_eq!(observed.rows, 4000);
    assert!(observed.bytes > 0);

    // Every decision left a span in the trace...
    let report = cluster.trace_report();
    for needle in [
        "adaptive.demote[",
        "adaptive.salt[",
        "adaptive.split[",
        "adaptive.coalesce[",
    ] {
        assert!(report.contains(needle), "trace missing {needle}");
    }
    // ...and every series travels in the metrics document.
    let json = cluster.metrics_json();
    for needle in [
        "\"adaptive.join_demotions\"",
        "\"adaptive.salted_joins\"",
        "\"adaptive.splits\"",
        "\"adaptive.coalesces\"",
        "\"shuffle.max_partition_rows\"",
        "\"op.join.adaptive.ns\"",
    ] {
        assert!(json.contains(needle), "metrics_json missing {needle}");
    }
}

/// The memory governor records every governance metric in a 4-worker run:
/// resident accounting, budget-driven evictions with spill, spill
/// restores, and lineage recomputes after the spill volume is lost.
#[test]
fn memory_governance_metrics_populate_in_four_worker_run() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 4,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let registry = cluster.registry();

    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), rows(2000, 50), "k").unwrap();
    idf.cache_index().unwrap();
    let resident = cluster.memory().resident_bytes();
    assert!(resident > 0, "cached index accounts resident bytes");
    assert_eq!(registry.gauge_value("memory.resident_bytes"), resident);
    assert!(registry.gauge_value("memory.resident_peak_bytes") >= resident);
    assert_eq!(registry.counter_value("memory.evictions"), 0);

    // Halving the budget forces evictions; CostSpill writes spill images.
    let budget = resident / 2;
    cluster.set_memory_budget(budget);
    assert_eq!(registry.gauge_value("memory.budget_bytes"), budget);
    assert!(registry.counter_value("memory.evictions") > 0, "evictions");
    assert!(registry.counter_value("memory.spilled_bytes") > 0, "spill");
    assert!(cluster.memory().resident_bytes() <= budget, "under budget");

    // Touching every key restores evicted partitions from their images.
    for k in 0..50 {
        assert_eq!(idf.get_rows(&Value::Int64(k)).unwrap().len(), 40);
    }
    assert!(registry.counter_value("memory.unspills") > 0, "unspills");

    // Lose the spill volume: further rebuilds pay lineage recomputes.
    assert!(cluster.memory().discard_spill_images() > 0);
    for k in 0..50 {
        assert_eq!(idf.get_rows(&Value::Int64(k)).unwrap().len(), 40);
    }
    assert!(
        registry.counter_value("memory.recomputes") > 0,
        "recomputes"
    );
    assert!(
        registry.gauge_value("memory.resident_peak_bytes") <= resident,
        "peak never exceeded the ungoverned full working set"
    );

    // The governance series travel in the metrics document.
    let json = cluster.metrics_json();
    for needle in [
        "\"memory.resident_bytes\"",
        "\"memory.resident_peak_bytes\"",
        "\"memory.budget_bytes\"",
        "\"memory.evictions\"",
        "\"memory.spilled_bytes\"",
        "\"memory.unspills\"",
        "\"memory.recomputes\"",
    ] {
        assert!(json.contains(needle), "metrics_json missing {needle}");
    }
}

/// The serving path records every per-session metric: admission outcomes
/// (`session.admitted` / `session.rejected` / `session.cancelled`), the
/// queue/execution latency split (`session.queue_ns` / `session.exec_ns`)
/// and the pooled driver threads started (`session.driver_spawns`).
#[test]
fn session_metrics_cover_every_admission_outcome() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 4,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    workloads::register_columnar(&ctx, "edges", edge_schema(), rows(1000, 20));
    let registry = cluster.registry();

    // Admitted: three concurrent sessions complete.
    let handles: Vec<_> = (0..3)
        .map(|k| {
            ctx.submit_sql(&format!("SELECT * FROM edges WHERE k = {k}"))
                .unwrap()
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait().unwrap().len(), 50);
    }
    assert_eq!(registry.counter_value("session.admitted"), 3);
    let queue = registry.histogram_snapshot("session.queue_ns").unwrap();
    assert_eq!(queue.count, 3, "one queue-latency sample per session");
    let exec = registry.histogram_snapshot("session.exec_ns").unwrap();
    assert_eq!(exec.count, 3, "one exec-latency sample per session");
    assert!(exec.sum > 0, "execution took measurable time");
    assert!(
        registry.counter_value("session.driver_spawns") >= 1,
        "submissions start pooled driver threads"
    );

    // Rejected: a full wait queue turns the submit into a typed error.
    let scheduler = cluster.scheduler();
    scheduler.set_admission_limits(1, 0);
    let blocker = scheduler.new_query(1);
    let slot = scheduler.admit(&blocker).unwrap();
    assert!(ctx.submit_sql("SELECT * FROM edges").is_err());
    assert_eq!(registry.counter_value("session.rejected"), 1);

    // Cancelled: a session cancelled while queued for admission counts
    // as cancelled, not rejected.
    scheduler.set_admission_limits(1, 4);
    let handle = ctx.submit_sql("SELECT * FROM edges").unwrap();
    handle.cancel();
    assert!(handle.wait().is_err());
    drop(slot);
    assert_eq!(registry.counter_value("session.cancelled"), 1);
    assert_eq!(registry.counter_value("session.rejected"), 1, "unchanged");

    // All six series travel in the metrics document.
    let json = cluster.metrics_json();
    for needle in [
        "\"session.admitted\"",
        "\"session.rejected\"",
        "\"session.cancelled\"",
        "\"session.queue_ns\"",
        "\"session.exec_ns\"",
        "\"session.driver_spawns\"",
    ] {
        assert!(json.contains(needle), "metrics_json missing {needle}");
    }
}

/// Standing-view maintenance records its counters and per-refresh trace
/// spans in a 4-worker run: `view.refreshes` / `view.delta_rows` advance
/// for the incremental view, `view.fallbacks` for the recomputed one, and
/// every refresh leaves a `view.refresh[name]` span.
#[test]
fn view_maintenance_metrics_populate_in_four_worker_run() {
    use indexed_df::ContextViewExt;

    let cluster = Cluster::new(ClusterConfig {
        workers: 4,
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let registry = cluster.registry();

    let e = IndexedDataFrame::from_rows(&ctx, edge_schema(), rows(2000, 50), "k").unwrap();
    e.cache_index().unwrap();
    let events = ctx.track_indexed_table("events", &e).unwrap();
    let hot = ctx
        .register_view(
            "hot",
            &events
                .clone()
                .filter(dataframe::col("v").gt(dataframe::lit(1000i64))),
        )
        .unwrap();
    let latest = ctx
        .register_view("latest", &events.sort(&[("v", true)]).limit(3))
        .unwrap();
    assert!(hot.is_incremental(), "filter view takes the delta path");
    assert!(
        !latest.is_incremental(),
        "sort/limit is outside the grammar"
    );

    for b in 0..3i64 {
        let batch: Vec<Row> = (0..20)
            .map(|i| vec![Value::Int64(i % 50), Value::Int64(10_000 + b * 20 + i)])
            .collect();
        ctx.append_table("events", batch).unwrap();
    }
    // Base keeps v in 0..2000 (999 rows above 1000); all 60 appended rows
    // land above the filter.
    assert_eq!(hot.rows().len(), 999 + 60);
    assert_eq!(latest.rows().len(), 3);
    assert_eq!(latest.rows()[0][1], Value::Int64(10_059));

    // 2 views × 3 appends; only `hot` absorbs deltas, `latest` recomputes.
    assert_eq!(registry.counter_value("view.refreshes"), 6);
    assert_eq!(registry.counter_value("view.delta_rows"), 60);
    assert_eq!(registry.counter_value("view.fallbacks"), 3);

    // Each refresh left its span in the trace...
    let spans = cluster.trace().spans();
    assert_eq!(
        spans
            .iter()
            .filter(|s| s.name.starts_with("view.refresh["))
            .count(),
        6
    );
    assert!(spans.iter().any(|s| s.name == "view.refresh[hot]"));
    assert!(spans.iter().any(|s| s.name == "view.refresh[latest]"));
    // ...and the series travel in the metrics document.
    let json = cluster.metrics_json();
    for needle in [
        "\"view.refreshes\"",
        "\"view.delta_rows\"",
        "\"view.fallbacks\"",
    ] {
        assert!(json.contains(needle), "metrics_json missing {needle}");
    }
}
