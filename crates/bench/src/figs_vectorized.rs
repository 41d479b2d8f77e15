//! Vectorized-execution microbench (not a paper figure — the regression
//! record for the batch-kernel work): the same logical queries through the
//! row-at-a-time operators and through the vectorized paths.
//!
//! Workload 1 — scan → filter → project over a columnar table:
//!
//! * `row`   — materialize every row, per-row predicate tree walk in
//!   `FilterExec`, per-row clones in `ProjectExec` (the pre-vectorization
//!   plan shape);
//! * `fused` — `ColumnarPipelineExec`: predicate → selection vector via
//!   batch kernels, then a gather of only the projected columns.
//!
//! Workload 2 — grouped aggregation over the same table:
//!
//! * `agg_row` — `HashAggExec` over a row scan (rows materialized, per-row
//!   accumulator updates);
//! * `agg_vec` — `HashAggExec` over a pipeline input: the vectorized
//!   partial phase (`execute_columnar` + column-slice accumulators).

use crate::perf::Perf;
use crate::{banner, time_reps, write_csv, Opts, Stats};
use dataframe::physical::agg::{BoundAgg, HashAggExec};
use dataframe::physical::filter::FilterExec;
use dataframe::physical::project::ProjectExec;
use dataframe::physical::scan::ProviderScanExec;
use dataframe::physical::ExecPlan;
use dataframe::{
    col, lit, AggFunc, BoundExpr, ColumnarPipelineExec, ColumnarSource, ColumnarTable, Context,
    Projection,
};
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;

const GROUPS: i64 = 1000;

fn bench_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
        Field::new("x", DataType::Float64),
        Field::new("tag", DataType::Utf8),
    ])
}

/// The untouched `tag` column is the point: the columnar paths never
/// materialize it, the row path pays its clone on every row.
fn make_table(rows: usize, parts: usize) -> Arc<ColumnarTable> {
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            vec![
                Value::Int64(i as i64 % GROUPS),
                Value::Int64(i as i64),
                Value::Float64(i as f64 * 0.25),
                Value::Utf8(format!("tag-{i:08}")),
            ]
        })
        .collect();
    Arc::new(ColumnarTable::from_rows(bench_schema(), data, parts))
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

/// `v < rows/2` — 50% selectivity, so the gather does real work.
fn predicate(rows: usize) -> BoundExpr {
    BoundExpr::bind(&col("v").lt(lit(rows as i64 / 2)), &bench_schema()).unwrap()
}

pub fn vectorized(opts: &Opts) {
    banner("vectorized — batch kernels vs row-at-a-time operators");
    let rows = (200_000 * opts.scale) as usize;
    let parts = 8;
    let reps = opts.reps.max(1);
    let workers = opts.workers_or(4);
    let table = make_table(rows, parts);
    let schema = bench_schema();
    let proj_cols = vec![0usize, 2];
    let proj_schema = schema.project(&proj_cols);

    let mut perf = Perf::start("vectorized");
    let mut csv = Vec::new();
    let mut mean_ms: Vec<(&str, f64)> = Vec::new();
    println!("path       rows      mean_ms   std_ms  mrows_per_s");

    type PlanOf = Box<dyn Fn() -> Arc<dyn ExecPlan>>;
    let paths: Vec<(&str, PlanOf)> = vec![
        (
            "row",
            Box::new({
                let (table, proj_schema) = (Arc::clone(&table), Arc::clone(&proj_schema));
                move || {
                    Arc::new(ProjectExec {
                        input: Arc::new(FilterExec {
                            input: Arc::new(ProviderScanExec::new(table.clone(), "bench")),
                            predicate: predicate(rows),
                        }),
                        exprs: vec![BoundExpr::Col(0), BoundExpr::Col(2)],
                        out_schema: Arc::clone(&proj_schema),
                    }) as Arc<dyn ExecPlan>
                }
            }),
        ),
        (
            "fused",
            Box::new({
                let table = Arc::clone(&table);
                let proj_cols = proj_cols.clone();
                let proj_schema = Arc::clone(&proj_schema);
                move || {
                    let source: Arc<dyn ColumnarSource> = Arc::clone(&table) as _;
                    Arc::new(ColumnarPipelineExec::new(
                        source,
                        "bench",
                        Some(predicate(rows)),
                        Projection::Columns(proj_cols.clone()),
                        Arc::clone(&proj_schema),
                    )) as Arc<dyn ExecPlan>
                }
            }),
        ),
    ];

    for (label, mk_plan) in &paths {
        let ctx = cluster_ctx(workers);
        perf.attach(label, &ctx);
        let plan = mk_plan();
        let samples = time_reps(reps, || {
            let parts = plan.execute(&ctx).unwrap();
            assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), rows / 2);
        });
        let s = Stats::of(&samples);
        let mrows = rows as f64 / 1e6 / (s.mean_ms / 1e3);
        println!(
            "{label:<9}  {rows:>8}  {:>8.2}  {:>7.2}  {mrows:>11.2}",
            s.mean_ms, s.std_ms
        );
        csv.push(format!(
            "{label},{rows},{:.3},{:.3},{mrows:.3}",
            s.mean_ms, s.std_ms
        ));
        perf.extra(&format!("{label}_ms"), s.mean_ms);
        mean_ms.push((label, s.mean_ms));
    }

    // Workload 2: grouped aggregation, row partial phase vs vectorized.
    let agg_out = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("n", DataType::Int64),
        Field::new("sum_v", DataType::Int64),
        Field::new("avg_x", DataType::Float64),
    ]);
    let aggs = vec![
        BoundAgg {
            func: AggFunc::Count,
            input: None,
        },
        BoundAgg {
            func: AggFunc::Sum,
            input: Some(1),
        },
        BoundAgg {
            func: AggFunc::Avg,
            input: Some(2),
        },
    ];
    let agg_paths: Vec<(&str, Arc<dyn ExecPlan>)> = vec![
        (
            "agg_row",
            Arc::new(ProviderScanExec::new(table.clone(), "bench")) as Arc<dyn ExecPlan>,
        ),
        (
            "agg_vec",
            Arc::new(ColumnarPipelineExec::new(
                Arc::clone(&table) as Arc<dyn ColumnarSource>,
                "bench",
                None,
                Projection::All,
                Arc::clone(&schema),
            )) as Arc<dyn ExecPlan>,
        ),
    ];
    for (label, input) in agg_paths {
        let ctx = cluster_ctx(workers);
        perf.attach(label, &ctx);
        let plan = HashAggExec {
            input,
            group_by: vec![0],
            aggs: aggs.clone(),
            out_schema: Arc::clone(&agg_out),
        };
        let samples = time_reps(reps, || {
            let parts = plan.execute(&ctx).unwrap();
            assert_eq!(
                parts.iter().map(Vec::len).sum::<usize>(),
                GROUPS.min(rows as i64) as usize
            );
        });
        let s = Stats::of(&samples);
        let mrows = rows as f64 / 1e6 / (s.mean_ms / 1e3);
        println!(
            "{label:<9}  {rows:>8}  {:>8.2}  {:>7.2}  {mrows:>11.2}",
            s.mean_ms, s.std_ms
        );
        csv.push(format!(
            "{label},{rows},{:.3},{:.3},{mrows:.3}",
            s.mean_ms, s.std_ms
        ));
        perf.extra(&format!("{label}_ms"), s.mean_ms);
        mean_ms.push((label, s.mean_ms));
    }

    let ms_of = |name: &str| mean_ms.iter().find(|(l, _)| *l == name).unwrap().1;
    let fused_speedup = ms_of("row") / ms_of("fused");
    let groupby_speedup = ms_of("agg_row") / ms_of("agg_vec");
    perf.extra("rows", rows as f64);
    perf.extra("fused_speedup_vs_row", fused_speedup);
    perf.extra("groupby_speedup", groupby_speedup);
    println!("fused pipeline speedup vs row plan: {fused_speedup:.2}x");
    println!("vectorized group-by speedup:        {groupby_speedup:.2}x");

    write_csv(
        opts,
        "vectorized.csv",
        "path,rows,mean_ms,std_ms,mrows_per_s",
        &csv,
    );
    perf.finish(opts);
    println!("shape check: fused ≥ 2x row (no Row materialization), agg_vec ≥ 1.5x agg_row");
}
