//! Index-build microbench: the fast-path construction work (not a paper
//! figure — the regression record for the single-replay shuffle build,
//! cTrie upsert, and grouped bulk-load; §III-C's index creation is the
//! workload, Table 3's duplicated-key shape drives the key skew).
//!
//! Two levels, same Table-3-style workload (rows with a string payload,
//! keyed by an Int64 column with heavy duplication):
//!
//! * `partition` — pure index build on one [`IndexedPartition`]: grouped
//!   `bulk_insert` (one single-traversal upsert per distinct key, rows
//!   appended contiguously per group) vs the row-at-a-time `insert_row`
//!   reference (a lookup plus an insert traversal per row);
//! * `frame`     — end-to-end `cache_index` on a simulated cluster:
//!   single-replay shuffle + bulk partition builds.
//!
//! Row generation is excluded from the timed regions.

use crate::perf::Perf;
use crate::{banner, time_reps, write_csv, Opts, Stats};
use dataframe::Context;
use indexed_df::{IndexedDataFrame, IndexedPartition};
use rowstore::{DataType, Field, Row, Schema, StoreConfig, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;

fn index_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("payload", DataType::Utf8),
        Field::new("v", DataType::Int64),
    ])
}

/// Table-3-style rows: `rows` rows over `keys` distinct keys (heavy
/// duplication → long backward-pointer chains, few distinct upserts).
fn make_rows(rows: usize, keys: usize) -> Vec<Row> {
    (0..rows)
        .map(|i| {
            vec![
                Value::Int64((i % keys) as i64),
                Value::Utf8(format!("payload-{i:08}")),
                Value::Int64(i as i64),
            ]
        })
        .collect()
}

fn cluster_ctx(workers: usize) -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig {
        workers,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    }))
}

pub fn index_build(opts: &Opts) {
    banner("index_build — grouped bulk-load + single-replay shuffle vs row-at-a-time");
    let rows_n = (100_000 * opts.scale) as usize;
    let keys = (rows_n / 100).max(1); // ~100 rows per key
    let reps = opts.reps.max(1);
    let workers = opts.workers_or(4);
    let schema = index_schema();
    let rows = make_rows(rows_n, keys);

    let mut perf = Perf::start("index_build");
    let mut csv = Vec::new();
    println!("level      path        rows      mean_ms   std_ms   min_ms  mrows_per_s");
    // Speedups are computed over min_ms (steady state): the mean is noisy
    // with allocator-cold reps, the minimum is the least-noise estimator.
    let mut record = |perf: &mut Perf, level: &str, path: &str, s: Stats| {
        let mrows = rows_n as f64 / 1e6 / (s.min_ms / 1e3);
        println!(
            "{level:<9}  {path:<10}  {rows_n:>8}  {:>8.2}  {:>7.2}  {:>7.2}  {mrows:>11.2}",
            s.mean_ms, s.std_ms, s.min_ms
        );
        csv.push(format!(
            "{level},{path},{rows_n},{:.3},{:.3},{:.3},{mrows:.3}",
            s.mean_ms, s.std_ms, s.min_ms
        ));
        perf.extra(&format!("{level}_{path}_ms"), s.min_ms);
        s.min_ms
    };

    // Partition level: pure index build, no cluster in the loop.
    let part_bulk = Stats::of(&time_reps(reps, || {
        let mut p = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        p.bulk_insert(&rows).unwrap();
        assert_eq!(p.row_count(), rows_n as u64);
    }));
    let bulk_part_ms = record(&mut perf, "partition", "bulk", part_bulk);
    let part_row = Stats::of(&time_reps(reps, || {
        let mut p = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        for r in &rows {
            p.insert_row(r).unwrap();
        }
        assert_eq!(p.row_count(), rows_n as u64);
    }));
    let row_part_ms = record(&mut perf, "partition", "row", part_row);

    // Frame level: replay → shuffle → per-partition build on the cluster.
    // Fresh context per rep so every build pays the full pipeline.
    let mut last_ctx = None;
    let frame_bulk = Stats::of(&time_reps(reps, || {
        let ctx = cluster_ctx(workers);
        let idf = IndexedDataFrame::builder(&ctx, Arc::clone(&schema), "k")
            .unwrap()
            .rows(rows.clone())
            .build()
            .unwrap();
        idf.cache_index().unwrap();
        assert_eq!(idf.num_rows(), rows_n);
        last_ctx = Some(ctx);
    }));
    record(&mut perf, "frame", "bulk", frame_bulk);
    perf.attach("bulk", last_ctx.as_ref().unwrap());

    let partition_speedup = row_part_ms / bulk_part_ms;
    perf.extra("rows", rows_n as f64);
    perf.extra("keys", keys as f64);
    perf.extra("partition_speedup", partition_speedup);
    println!("bulk speedup vs row-at-a-time (partition build): {partition_speedup:.2}x");

    write_csv(
        opts,
        "index_build.csv",
        "level,path,rows,mean_ms,std_ms,min_ms,mrows_per_s",
        &csv,
    );
    perf.finish(opts);
    println!(
        "shape check: bulk ≥ 2x row-at-a-time on the partition build (one upsert per distinct key)"
    );
}
