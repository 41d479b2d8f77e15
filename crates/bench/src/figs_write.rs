//! Write-path and reliability figures: Fig. 9, Fig. 10, Fig. 11, Fig. 12.

use crate::perf::Perf;
use crate::{banner, time_once, write_csv, Opts, Stats};
use dataframe::Context;
use indexed_df::IndexedDataFrame;
use rowstore::{Row, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;
use workloads::{join_scales, register_columnar, snb};

fn cluster_ctx(workers: usize) -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig {
        workers,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    }))
}

/// Rows to append, keyed like the edge table.
fn append_batch(n: usize, seed: u64) -> Vec<Row> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                Value::Int64(rng.gen_range(0..10_000)),
                Value::Int64(rng.gen_range(0..10_000)),
                Value::Int64(1_600_000_000),
                Value::Float64(rng.gen()),
            ]
        })
        .collect()
}

// ----------------------------------------------------------------------
// Fig. 9 — read latency under interleaved appends
// ----------------------------------------------------------------------

pub fn fig9(opts: &Opts) {
    banner("Fig. 9 — S-join latency when appends of varying size are interleaved");
    println!("(sequence: S joins with one append every 5 queries, as in §IV-D)");
    let build = 200_000 * opts.scale;
    let queries = 50 * opts.reps.max(1);
    let w = join_scales::generate(build, 0xf9);
    let probe_rows = w.probes[0].1.clone();

    let mut perf = Perf::start("fig9");
    let mut csv = Vec::new();
    println!("append_rows  mean_read_ms  slowdown_vs_no_append");
    let mut baseline_ms = 0.0;
    for append_size in [0usize, 1_000, 10_000, 100_000] {
        let ctx = cluster_ctx(opts.workers_or(4));
        perf.attach(&format!("append{append_size}"), &ctx);
        let mut idf = IndexedDataFrame::from_rows(
            &ctx,
            snb::edge_schema(),
            w.data.edges.clone(),
            "edge_source",
        )
        .unwrap();
        idf.cache_index().unwrap();
        register_columnar(&ctx, "probe", snb::probe_schema(), probe_rows.clone());
        let probe = ctx.table("probe").unwrap();

        let mut read_times = Vec::new();
        for q in 0..queries {
            if append_size > 0 && q % 5 == 4 {
                idf = idf.append_rows(append_batch(append_size, 0x99 + q as u64));
            }
            let name = format!("edges_q{q}");
            let edges_df = idf.register(&name).unwrap();
            let (d, _) = time_once(|| {
                edges_df
                    .join(probe.clone(), "edge_source", "edge_source")
                    .count()
                    .unwrap()
            });
            read_times.push(d);
            ctx.deregister_table(&name)
                .expect("no query pins this table");
        }
        let s = Stats::of(&read_times);
        if append_size == 0 {
            baseline_ms = s.mean_ms;
        }
        let slowdown = s.mean_ms / baseline_ms;
        println!("{append_size:>11}  {:>12.2}  {slowdown:>8.2}x", s.mean_ms);
        csv.push(format!("{append_size},{:.3},{slowdown:.3}", s.mean_ms));
    }
    write_csv(opts, "fig9.csv", "append_rows,mean_read_ms,slowdown", &csv);
    perf.finish(opts);
    println!("shape check: paper sees ~3x for ≤100K-row appends, ~6x for larger ones");
}

// ----------------------------------------------------------------------
// Fig. 10 — write throughput
// ----------------------------------------------------------------------

pub fn fig10(opts: &Opts) {
    banner("Fig. 10 — append throughput (createIndex and appendRows share this path)");
    let appends = 20 * opts.reps.max(1);
    let mut perf = Perf::start("fig10");
    let mut csv = Vec::new();
    println!("rows/append  appends  total_rows  cum_time_s  rows_per_s  shuffle_share");
    for append_size in [1_000usize, 10_000, 100_000] {
        let ctx = cluster_ctx(opts.workers_or(4));
        perf.attach(&format!("append{append_size}"), &ctx);
        let mut idf = IndexedDataFrame::from_rows(
            &ctx,
            snb::edge_schema(),
            append_batch(1_000, 1),
            "edge_source",
        )
        .unwrap();
        idf.cache_index().unwrap();
        let registry = ctx.cluster().registry();
        let before = registry.merged();
        let (total, _) = time_once(|| {
            for i in 0..appends {
                idf = idf.append_rows(append_batch(append_size, 0x10_00 + i as u64));
                idf.cache_index().unwrap(); // materialize: shuffle + insert
            }
        });
        let shuffle_ns = registry.merged().since(&before)["shuffle.ns"];
        let total_rows = appends * append_size;
        let rate = total_rows as f64 / total.as_secs_f64();
        let shuffle_share = shuffle_ns as f64 / (total.as_nanos() as f64).max(1.0);
        println!(
            "{append_size:>11}  {appends:>7}  {total_rows:>10}  {:>10.2}  {rate:>10.0}  {:>12.1}%",
            total.as_secs_f64(),
            shuffle_share * 100.0
        );
        csv.push(format!(
            "{append_size},{appends},{total_rows},{:.4},{rate:.0},{:.4}",
            total.as_secs_f64(),
            shuffle_share
        ));
    }
    write_csv(
        opts,
        "fig10.csv",
        "rows_per_append,appends,total_rows,cum_time_s,rows_per_s,shuffle_share",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: throughput grows with append size; shuffle dominates write time");
}

// ----------------------------------------------------------------------
// Fig. 11 — per-partition memory overhead of the index
// ----------------------------------------------------------------------

pub fn fig11(opts: &Opts) {
    banner("Fig. 11 — cTrie index memory overhead per partition (JAMM analogue)");
    let build = 500_000 * opts.scale;
    let w = join_scales::generate(build, 0x11);
    let mut perf = Perf::start("fig11");
    let ctx = cluster_ctx(opts.workers_or(4));
    perf.attach("cluster", &ctx);
    // The paper measures 64 partitions of the 30 GB edge table.
    let idf = IndexedDataFrame::builder(&ctx, snb::edge_schema(), "edge_source")
        .unwrap()
        .rows(w.data.edges.clone())
        .partitions(64)
        .build()
        .unwrap();
    let stats = idf.partition_stats().unwrap();

    let mut csv = Vec::new();
    let mut overheads = Vec::new();
    for (p, (index_bytes, data_bytes)) in stats.iter().enumerate() {
        let pct = 100.0 * *index_bytes as f64 / (*data_bytes).max(1) as f64;
        overheads.push(pct);
        csv.push(format!("{p},{index_bytes},{data_bytes},{pct:.3}"));
    }
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    let max = overheads.iter().cloned().fold(0.0, f64::max);
    let total_index: usize = stats.iter().map(|(i, _)| i).sum();
    let total_data: usize = stats.iter().map(|(_, d)| d).sum();
    println!("partitions: {}", stats.len());
    println!("index bytes: {total_index}  data bytes: {total_data}");
    println!("overhead per partition: mean {mean:.2}%  max {max:.2}%");
    write_csv(
        opts,
        "fig11.csv",
        "partition,index_bytes,data_bytes,overhead_pct",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: paper reports consistently < 2% (at 30 GB scale; small partitions");
    println!("carry proportionally more trie overhead, so expect a higher % at toy scale)");
}

// ----------------------------------------------------------------------
// Fig. 12 — fault tolerance: executor kill during a query sequence
// ----------------------------------------------------------------------

pub fn fig12(opts: &Opts) {
    banner("Fig. 12 — per-query latency with an executor killed at query 20");
    let build = 200_000 * opts.scale;
    let queries = 100;
    let w = join_scales::generate(build, 0x12);
    let probe_rows = w.probes[0].1.clone();

    // The paper uses 8 nodes and kills one holding 4 indexed partitions.
    let cluster = Cluster::new(ClusterConfig {
        workers: opts.workers_or(8),
        executors_per_worker: 1,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    });
    let ctx = Context::new(Arc::clone(&cluster));
    let mut perf = Perf::start("fig12");
    perf.attach("cluster", &ctx);
    let idf = IndexedDataFrame::from_rows(
        &ctx,
        snb::edge_schema(),
        w.data.edges.clone(),
        "edge_source",
    )
    .unwrap();
    idf.cache_index().unwrap();
    idf.register("edges").unwrap();
    register_columnar(&ctx, "probe", snb::probe_schema(), probe_rows);
    let edges_df = ctx.table("edges").unwrap();
    let probe = ctx.table("probe").unwrap();

    let mut csv = Vec::new();
    let mut spike_ms = 0.0;
    let mut steady = Vec::new();
    for q in 0..queries {
        if q == 20 {
            cluster.kill_worker(1);
        }
        let before = cluster.registry().merged();
        let (d, _) = time_once(|| {
            edges_df
                .clone()
                .join(probe.clone(), "edge_source", "edge_source")
                .count()
                .unwrap()
        });
        let recovered = cluster
            .registry()
            .merged()
            .since(&before)
            .get("phase.recompute_ns")
            .copied()
            .unwrap_or(0);
        let ms = d.as_secs_f64() * 1e3;
        if q == 20 {
            spike_ms = ms;
        } else if q > 25 {
            steady.push(d);
        }
        csv.push(format!("{q},{ms:.3},{}", recovered / 1_000_000));
    }
    let steady_stats = Stats::of(&steady);
    println!("query 20 (kill + recovery): {spike_ms:.1} ms");
    println!(
        "steady state after recovery: {:.1} ms mean",
        steady_stats.mean_ms
    );
    println!(
        "recovery spike factor: {:.1}x steady state",
        spike_ms / steady_stats.mean_ms
    );
    write_csv(opts, "fig12.csv", "query,latency_ms,recompute_ms", &csv);
    perf.finish(opts);
    println!("shape check: one slow query (index rebuild from lineage), then normal speed");
}
