//! Microbenchmark figures: Fig. 1, Table III, Fig. 4, Fig. 5, Fig. 6,
//! Fig. 7, Fig. 8.

use crate::perf::Perf;
use crate::{banner, time_once, time_reps, write_csv, Opts, Stats};
use dataframe::{col, lit, Context, DataFrame};
use indexed_df::IndexedDataFrame;
use rowstore::StoreConfig;
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;
use workloads::{join_scales, register_columnar, register_indexed, snb};

/// Default edge-table size at scale 1 (the 1 B-row SNB SF-1000 edge table,
/// scaled down; see DESIGN.md).
const BUILD_ROWS: u64 = 1_000_000;

fn cluster_ctx(workers: usize) -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig {
        workers,
        executors_per_worker: 2,
        cores_per_executor: 2,
        max_task_attempts: 4,
        skew_ratio: 2.0,
    }))
}

/// Register the probe side as a small columnar table.
fn register_probe(ctx: &Arc<Context>, name: &str, rows: Vec<rowstore::Row>) -> DataFrame {
    register_columnar(ctx, name, snb::probe_schema(), rows);
    ctx.table(name).unwrap()
}

// ----------------------------------------------------------------------
// Fig. 1 — flame-graph analogue: phase breakdown of 5 consecutive joins
// ----------------------------------------------------------------------

pub fn fig1(opts: &Opts) {
    banner("Fig. 1 — phase breakdown of 5 consecutive joins (flame-graph analogue)");
    let build = 200_000 * opts.scale;
    let w = join_scales::generate(build, 0xf1);
    let probe_rows = w.probes[1].1.clone(); // M-scale probe

    let mut perf = Perf::start("fig1");
    let mut csv = Vec::new();
    for indexed in [false, true] {
        let system = if indexed { "indexed" } else { "vanilla" };
        let ctx = cluster_ctx(opts.workers_or(4));
        perf.attach(system, &ctx);
        let edges_df = if indexed {
            let idf = IndexedDataFrame::from_rows(
                &ctx,
                snb::edge_schema(),
                w.data.edges.clone(),
                "edge_source",
            )
            .unwrap();
            // Not pre-cached: the first join pays the index build, later
            // joins amortize it — the paper's Fig. 1 point.
            idf.register("edges").unwrap()
        } else {
            register_columnar(&ctx, "edges", snb::edge_schema(), w.data.edges.clone());
            ctx.table("edges").unwrap()
        };
        let probe = register_probe(&ctx, "probe", probe_rows.clone());

        println!("{system}: query  total_ms  build_ms  shuffle_ms  probe_ms  scan_ms  bcast_MB");
        for q in 1..=5 {
            let registry = ctx.cluster().registry();
            let before = registry.merged();
            let (dur, n) = time_once(|| {
                edges_df
                    .clone()
                    .join(probe.clone(), "edge_source", "edge_source")
                    .count()
                    .unwrap()
            });
            let d = registry.merged().since(&before);
            // Counter delta in millions: ns → ms, bytes → MB.
            let mega = |name: &str| d.get(name).copied().unwrap_or(0) as f64 / 1e6;
            let (total, build_ms, shuffle_ms, probe_ms, bcast) = (
                dur.as_secs_f64() * 1e3,
                mega("phase.build_ns") + mega("phase.recompute_ns"),
                mega("shuffle.ns"),
                mega("phase.probe_ns"),
                mega("broadcast.bytes"),
            );
            // The remainder is table scanning / row materialization — the
            // part vanilla Spark re-pays on every query.
            let scan_ms = (total - build_ms - shuffle_ms - probe_ms).max(0.0);
            println!(
                "{system}:   Q{q}   {total:8.1}  {build_ms:8.1}  {shuffle_ms:10.1}  {probe_ms:8.1}  {scan_ms:7.1}  {bcast:8.2}  ({n} rows)"
            );
            csv.push(format!(
                "{system},{q},{total:.3},{build_ms:.3},{shuffle_ms:.3},{probe_ms:.3},{scan_ms:.3},{bcast:.3},{n}"
            ));
        }
    }
    write_csv(
        opts,
        "fig1.csv",
        "system,query,total_ms,build_ms,shuffle_ms,probe_ms,scan_ms,bcast_mb,rows",
        &csv,
    );
    perf.finish(opts);
    println!(
        "shape check: vanilla re-pays build+shuffle each query; indexed pays build once (Q1) then probes only"
    );
}

// ----------------------------------------------------------------------
// Table III — join scales actually used
// ----------------------------------------------------------------------

pub fn table3(opts: &Opts) {
    banner("Table III — probe/build/result sizes (scaled from the paper's 1 B build side)");
    let build = BUILD_ROWS * opts.scale;
    let w = join_scales::generate(build, 0x7ab);
    let mut perf = Perf::start("table3");
    let ctx = cluster_ctx(opts.workers_or(4));
    perf.attach("cluster", &ctx);
    register_indexed(
        &ctx,
        "edges",
        snb::edge_schema(),
        w.data.edges.clone(),
        "edge_source",
    );
    let edges_df = ctx.table("edges").unwrap();

    println!("scale  probe_rows  build_rows  result_rows  paper_probe  paper_result");
    let paper_results = ["1.5M", "14M", "110M", "1B"];
    let mut csv = Vec::new();
    for (i, (scale, probe_rows)) in w.probes.iter().enumerate() {
        let probe = register_probe(&ctx, &format!("probe_{}", scale.name()), probe_rows.clone());
        let n = edges_df
            .clone()
            .join(probe, "edge_source", "edge_source")
            .count()
            .unwrap();
        println!(
            "{:>5}  {:>10}  {:>10}  {:>11}  {:>11}  {:>12}",
            scale.name(),
            probe_rows.len(),
            build,
            n,
            scale.paper_probe_rows(),
            paper_results[i]
        );
        csv.push(format!(
            "{},{},{},{}",
            scale.name(),
            probe_rows.len(),
            build,
            n
        ));
    }
    write_csv(
        opts,
        "table3.csv",
        "scale,probe_rows,build_rows,result_rows",
        &csv,
    );
    perf.finish(opts);
}

// ----------------------------------------------------------------------
// Fig. 4 — executor geometry (NUMA experiment analogue)
// ----------------------------------------------------------------------

pub fn fig4(opts: &Opts) {
    banner("Fig. 4 — executors × cores per worker (NUMA-pinning analogue)");
    println!("(substitution: thread-pool geometry on one machine; numactl pinning is not");
    println!(" available in-process — see DESIGN.md. Shape target: finer-grained executors win.)");
    let build = 200_000 * opts.scale;
    let w = join_scales::generate(build, 0xf4);
    let xl_probe = w.probes[3].1.clone();

    let combos = [(1usize, 16usize), (2, 8), (4, 4), (8, 2), (16, 1)];
    let mut perf = Perf::start("fig4");
    let mut csv = Vec::new();
    println!("executors  cores/executor  mean_ms  std_ms  min_ms  max_ms");
    for (execs, cores) in combos {
        let ctx = Context::new(Cluster::new(ClusterConfig {
            workers: 1,
            executors_per_worker: execs,
            cores_per_executor: cores,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        }));
        perf.attach(&format!("e{execs}c{cores}"), &ctx);
        register_indexed(
            &ctx,
            "edges",
            snb::edge_schema(),
            w.data.edges.clone(),
            "edge_source",
        );
        let probe = register_probe(&ctx, "probe", xl_probe.clone());
        let edges_df = ctx.table("edges").unwrap();
        let samples = time_reps(opts.reps, || {
            edges_df
                .clone()
                .join(probe.clone(), "edge_source", "edge_source")
                .count()
                .unwrap();
        });
        let s = Stats::of(&samples);
        println!(
            "{execs:>9}  {cores:>14}  {:7.1}  {:6.1}  {:6.1}  {:6.1}",
            s.mean_ms, s.std_ms, s.min_ms, s.max_ms
        );
        csv.push(format!(
            "{execs},{cores},{:.3},{:.3},{:.3},{:.3}",
            s.mean_ms, s.std_ms, s.min_ms, s.max_ms
        ));
    }
    write_csv(
        opts,
        "fig4.csv",
        "executors,cores,mean_ms,std_ms,min_ms,max_ms",
        &csv,
    );
    perf.finish(opts);
}

// ----------------------------------------------------------------------
// Fig. 5 — row batch size sweep
// ----------------------------------------------------------------------

pub fn fig5(opts: &Opts) {
    banner("Fig. 5 — read/write performance vs row batch size (normalized to 4 KB)");
    let build = 200_000 * opts.scale;
    let w = join_scales::generate(build, 0xf5);
    let xl_probe = w.probes[3].1.clone();
    let sizes: &[(usize, &str)] = &[
        (4 << 10, "4KB"),
        (64 << 10, "64KB"),
        (1 << 20, "1MB"),
        (4 << 20, "4MB"),
        (16 << 20, "16MB"),
        (64 << 20, "64MB"),
        (128 << 20, "128MB"),
    ];

    let mut perf = Perf::start("fig5");
    let mut results = Vec::new();
    for (bs, label) in sizes {
        let ctx = cluster_ctx(opts.workers_or(4));
        perf.attach(label, &ctx);
        // Write: index creation (createIndex and append share the same
        // write path, §IV-D).
        let mut write_samples = Vec::new();
        let mut idf_last = None;
        for _ in 0..opts.reps.max(2) {
            let (d, idf) = time_once(|| {
                let idf = IndexedDataFrame::builder(&ctx, snb::edge_schema(), "edge_source")
                    .unwrap()
                    .rows(w.data.edges.clone())
                    .store_config(StoreConfig::fixed_batch(*bs))
                    .build()
                    .unwrap();
                idf.cache_index().unwrap();
                idf
            });
            write_samples.push(d);
            idf_last = Some(idf);
        }
        let idf = idf_last.unwrap();
        idf.register("edges").unwrap();
        let probe = register_probe(&ctx, "probe", xl_probe.clone());
        let edges_df = ctx.table("edges").unwrap();
        let read_samples = time_reps(opts.reps, || {
            edges_df
                .clone()
                .join(probe.clone(), "edge_source", "edge_source")
                .count()
                .unwrap();
        });
        results.push((
            *label,
            Stats::of(&read_samples).mean_ms,
            Stats::of(&write_samples).mean_ms,
        ));
    }

    let (read_base, write_base) = (results[0].1, results[0].2);
    println!(
        "batch    read_ms  write_ms  read_norm  write_norm   (norm: 4KB = 1.0, lower is better)"
    );
    let mut csv = Vec::new();
    for (label, read, write) in &results {
        println!(
            "{label:>6}  {read:8.1}  {write:8.1}  {:9.3}  {:10.3}",
            read / read_base,
            write / write_base
        );
        csv.push(format!(
            "{label},{read:.3},{write:.3},{:.4},{:.4}",
            read / read_base,
            write / write_base
        ));
    }
    write_csv(
        opts,
        "fig5.csv",
        "batch,read_ms,write_ms,read_norm,write_norm",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: paper finds a sweet spot at 4MB; very large batches hurt writes");
}

// ----------------------------------------------------------------------
// Fig. 6 — horizontal and vertical scalability
// ----------------------------------------------------------------------

pub fn fig6(opts: &Opts) {
    banner("Fig. 6 — scalability of the XL indexed join");
    println!("(host has limited physical cores; the sweep exercises the mechanism — on");
    println!(" multi-core hosts the paper's sub-linear speedup trend appears)");
    let build = 200_000 * opts.scale;
    let w = join_scales::generate(build, 0xf6);
    let xl_probe = w.probes[3].1.clone();

    let mut perf = Perf::start("fig6");
    let mut csv = Vec::new();
    println!("(a) horizontal: workers ∈ {{2,4,8,16,32}}, fixed input");
    println!("workers  mean_ms  std_ms");
    for workers in [2usize, 4, 8, 16, 32] {
        let ctx = Context::new(Cluster::new(ClusterConfig {
            workers,
            executors_per_worker: 1,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        }));
        perf.attach(&format!("w{workers}"), &ctx);
        register_indexed(
            &ctx,
            "edges",
            snb::edge_schema(),
            w.data.edges.clone(),
            "edge_source",
        );
        let probe = register_probe(&ctx, "probe", xl_probe.clone());
        let edges_df = ctx.table("edges").unwrap();
        let s = Stats::of(&time_reps(opts.reps, || {
            edges_df
                .clone()
                .join(probe.clone(), "edge_source", "edge_source")
                .count()
                .unwrap();
        }));
        println!("{workers:>7}  {:7.1}  {:6.1}", s.mean_ms, s.std_ms);
        csv.push(format!(
            "horizontal,{workers},{:.3},{:.3}",
            s.mean_ms, s.std_ms
        ));
    }

    println!("(b) vertical: 4 workers × 1 executor, cores ∈ {{1,2,4,8,16}}");
    println!("cores  mean_ms  std_ms");
    for cores in [1usize, 2, 4, 8, 16] {
        let ctx = Context::new(Cluster::new(ClusterConfig {
            workers: 4,
            executors_per_worker: 1,
            cores_per_executor: cores,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        }));
        perf.attach(&format!("c{cores}"), &ctx);
        register_indexed(
            &ctx,
            "edges",
            snb::edge_schema(),
            w.data.edges.clone(),
            "edge_source",
        );
        let probe = register_probe(&ctx, "probe", xl_probe.clone());
        let edges_df = ctx.table("edges").unwrap();
        let s = Stats::of(&time_reps(opts.reps, || {
            edges_df
                .clone()
                .join(probe.clone(), "edge_source", "edge_source")
                .count()
                .unwrap();
        }));
        println!("{cores:>5}  {:7.1}  {:6.1}", s.mean_ms, s.std_ms);
        csv.push(format!("vertical,{cores},{:.3},{:.3}", s.mean_ms, s.std_ms));
    }
    write_csv(opts, "fig6.csv", "sweep,size,mean_ms,std_ms", &csv);
    perf.finish(opts);
}

// ----------------------------------------------------------------------
// Fig. 7 — indexed vs vanilla across probe scales
// ----------------------------------------------------------------------

pub fn fig7(opts: &Opts) {
    banner("Fig. 7 — Indexed DataFrame vs vanilla Spark joins at S/M/L/XL probe sizes");
    let build = BUILD_ROWS * opts.scale;
    let w = join_scales::generate(build, 0xf7);

    // Two contexts so caches and metrics stay independent.
    let mut perf = Perf::start("fig7");
    let ctx_v = cluster_ctx(opts.workers_or(4));
    register_columnar(&ctx_v, "edges", snb::edge_schema(), w.data.edges.clone());
    let ctx_i = cluster_ctx(opts.workers_or(4));
    register_indexed(
        &ctx_i,
        "edges",
        snb::edge_schema(),
        w.data.edges.clone(),
        "edge_source",
    );
    perf.attach("vanilla", &ctx_v);
    perf.attach("indexed", &ctx_i);

    println!("scale  probe_rows  vanilla_ms  indexed_ms  speedup  result_rows");
    let mut csv = Vec::new();
    for (scale, probe_rows) in &w.probes {
        let name = format!("probe_{}", scale.name());
        let probe_v = register_probe(&ctx_v, &name, probe_rows.clone());
        let probe_i = register_probe(&ctx_i, &name, probe_rows.clone());
        let ev = ctx_v.table("edges").unwrap();
        let ei = ctx_i.table("edges").unwrap();
        let mut result_rows = 0usize;
        let sv = Stats::of(&time_reps(opts.reps, || {
            result_rows = ev
                .clone()
                .join(probe_v.clone(), "edge_source", "edge_source")
                .count()
                .unwrap();
        }));
        let si = Stats::of(&time_reps(opts.reps, || {
            ei.clone()
                .join(probe_i.clone(), "edge_source", "edge_source")
                .count()
                .unwrap();
        }));
        let speedup = sv.mean_ms / si.mean_ms;
        println!(
            "{:>5}  {:>10}  {:>10.1}  {:>10.1}  {speedup:6.2}x  {result_rows:>11}",
            scale.name(),
            probe_rows.len(),
            sv.mean_ms,
            si.mean_ms
        );
        csv.push(format!(
            "{},{},{:.3},{:.3},{:.3},{}",
            scale.name(),
            probe_rows.len(),
            sv.mean_ms,
            si.mean_ms,
            speedup,
            result_rows
        ));
    }
    write_csv(
        opts,
        "fig7.csv",
        "scale,probe_rows,vanilla_ms,indexed_ms,speedup,result_rows",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: paper reports 3–8x speedups across all probe sizes");
}

// ----------------------------------------------------------------------
// Fig. 8 — SQL operator microbenchmarks
// ----------------------------------------------------------------------

pub fn fig8(opts: &Opts) {
    banner("Fig. 8 — SQL operators: Indexed DataFrame vs vanilla columnar cache");
    let build = 200_000 * opts.scale;
    let w = join_scales::generate(build, 0xf8);
    let probe_rows = w.probes[0].1.clone();
    let point_key = probe_rows[0][0].as_i64().unwrap();

    let mut perf = Perf::start("fig8");
    let ctx_v = cluster_ctx(opts.workers_or(4));
    register_columnar(&ctx_v, "edges", snb::edge_schema(), w.data.edges.clone());
    let ctx_i = cluster_ctx(opts.workers_or(4));
    register_indexed(
        &ctx_i,
        "edges",
        snb::edge_schema(),
        w.data.edges.clone(),
        "edge_source",
    );
    perf.attach("vanilla", &ctx_v);
    perf.attach("indexed", &ctx_i);
    register_probe(&ctx_v, "probe", probe_rows.clone());
    register_probe(&ctx_i, "probe", probe_rows.clone());

    type QueryFn = Box<dyn Fn(&Arc<Context>) -> DataFrame>;
    let ops: Vec<(&str, QueryFn)> = vec![
        (
            "join",
            Box::new(|ctx: &Arc<Context>| {
                ctx.table("edges").unwrap().join(
                    ctx.table("probe").unwrap(),
                    "edge_source",
                    "edge_source",
                )
            }),
        ),
        (
            "filter-eq",
            Box::new(move |ctx: &Arc<Context>| {
                ctx.table("edges")
                    .unwrap()
                    .filter(col("edge_source").eq(lit(point_key)))
            }),
        ),
        (
            "filter-range",
            Box::new(|ctx: &Arc<Context>| {
                ctx.table("edges")
                    .unwrap()
                    .filter(col("edge_source").lt(lit(100i64)))
            }),
        ),
        (
            "projection",
            Box::new(|ctx: &Arc<Context>| {
                ctx.table("edges").unwrap().select(&["edge_dest", "weight"])
            }),
        ),
        (
            "aggregation",
            Box::new(|ctx: &Arc<Context>| {
                ctx.table("edges")
                    .unwrap()
                    .group_by(&["edge_dest"])
                    .agg(vec![(dataframe::AggFunc::Count, None, "n")])
            }),
        ),
        (
            "scan",
            Box::new(|ctx: &Arc<Context>| ctx.table("edges").unwrap()),
        ),
    ];

    println!("operator      vanilla_ms  indexed_ms  speedup   (speedup < 1 = indexed slower)");
    let mut csv = Vec::new();
    for (name, build_query) in &ops {
        let sv = Stats::of(&time_reps(opts.reps, || {
            build_query(&ctx_v).count().unwrap();
        }));
        let si = Stats::of(&time_reps(opts.reps, || {
            build_query(&ctx_i).count().unwrap();
        }));
        let speedup = sv.mean_ms / si.mean_ms;
        println!(
            "{name:<12}  {:>10.1}  {:>10.1}  {speedup:6.2}x",
            sv.mean_ms, si.mean_ms
        );
        csv.push(format!(
            "{name},{:.3},{:.3},{:.3}",
            sv.mean_ms, si.mean_ms, speedup
        ));
    }
    write_csv(
        opts,
        "fig8.csv",
        "operator,vanilla_ms,indexed_ms,speedup",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: join/filter-eq win big; projection (and often range filters)");
    println!("lose — the row store must materialize full rows (paper §IV-D)");
}
