//! Integration tests for the extension features beyond the paper's minimal
//! scope: the columnar indexed layout (footnote 2), file-backed replayable
//! sources, and ORDER BY through the full stack.

use dataframe::{ColumnarTable, Context, PlanError};
use indexed_df::{ColumnarIndexedTable, FileSource, IndexedDataFrame};
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{Cluster, ClusterConfig};
use std::sync::Arc;

fn ctx() -> Arc<Context> {
    Context::new(Cluster::new(ClusterConfig::test_small()))
}

fn schema() -> Arc<Schema> {
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

/// Both indexed layouts answer every query identically.
#[test]
fn row_and_columnar_layouts_agree() {
    let ctx = ctx();
    let data = rows(2_000, 77);
    let row_idf = IndexedDataFrame::from_rows(&ctx, schema(), data.clone(), "k").unwrap();
    row_idf.register("t_row").unwrap();
    let col_idf = ColumnarIndexedTable::from_rows(&ctx, schema(), data.clone(), "k").unwrap();
    col_idf.register("t_col").unwrap();

    let queries = [
        "SELECT * FROM {} WHERE k = 13",
        "SELECT v FROM {} WHERE k = 13",
        "SELECT * FROM {} WHERE v < 100",
        "SELECT k, count(*) AS n FROM {} GROUP BY k",
        "SELECT * FROM {} WHERE k BETWEEN 5 AND 9",
    ];
    let canon = |mut v: Vec<Row>| {
        let mut s: Vec<String> = v.drain(..).map(|r| format!("{r:?}")).collect();
        s.sort();
        s
    };
    for q in queries {
        let row_res = ctx
            .sql(&q.replace("{}", "t_row"))
            .unwrap()
            .collect()
            .unwrap();
        let col_res = ctx
            .sql(&q.replace("{}", "t_col"))
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(canon(row_res), canon(col_res), "layouts disagree on {q}");
    }

    // Raw lookups agree too (same newest-first chain order).
    for key in 0..77 {
        assert_eq!(
            row_idf.get_rows(&Value::Int64(key)).unwrap(),
            col_idf.get_rows(&Value::Int64(key)),
            "lookup order differs for key {key}"
        );
    }
}

/// Both layouts plan indexed operators for eligible queries.
#[test]
fn both_layouts_plan_indexed_operators() {
    let ctx = ctx();
    let data = rows(500, 20);
    IndexedDataFrame::from_rows(&ctx, schema(), data.clone(), "k")
        .unwrap()
        .register("t_row")
        .unwrap();
    ColumnarIndexedTable::from_rows(&ctx, schema(), data, "k")
        .unwrap()
        .register("t_col")
        .unwrap();
    for t in ["t_row", "t_col"] {
        let plan = ctx
            .sql(&format!("SELECT * FROM {t} WHERE k = 3"))
            .unwrap()
            .explain()
            .unwrap();
        assert!(plan.contains("IndexedLookup"), "{t}: {plan}");
    }
    // Layout shows in explain output.
    let plan = ctx
        .sql("SELECT * FROM t_col WHERE k = 3")
        .unwrap()
        .explain()
        .unwrap();
    assert!(plan.contains("layout = columnar"), "{plan}");
}

/// An Indexed DataFrame built over a FileSource rebuilds from disk after a
/// total cache wipe, including its append chain.
#[test]
fn file_backed_lineage_survives_total_wipe() {
    let cluster = Cluster::new(ClusterConfig::test_small());
    let ctx = Context::new(Arc::clone(&cluster));
    let data = rows(1_000, 50);
    let path = std::env::temp_dir().join(format!("idf-test-{}.bin", std::process::id()));
    let source = FileSource::create(&path, schema(), &data).unwrap();

    let v1 = IndexedDataFrame::builder(&ctx, schema(), "k")
        .unwrap()
        .source(Arc::new(source))
        .build()
        .unwrap();
    v1.cache_index().unwrap();
    let v2 = v1.append_rows(vec![vec![Value::Int64(7), Value::Int64(-7)]]);
    v2.cache_index().unwrap();
    assert_eq!(v2.get_rows(&Value::Int64(7)).unwrap().len(), 21);

    for w in 0..cluster.num_workers() {
        cluster.kill_worker(w);
        cluster.restart_worker(w);
    }
    let recovered = v2.get_rows(&Value::Int64(7)).unwrap();
    assert_eq!(recovered.len(), 21, "base from file + append replayed");
    assert_eq!(recovered[0][1], Value::Int64(-7), "append is newest");
    let _ = std::fs::remove_file(path);
}

/// ORDER BY works end-to-end over indexed tables (sorting the fallback
/// scan output).
#[test]
fn order_by_over_indexed_table() {
    let ctx = ctx();
    IndexedDataFrame::from_rows(&ctx, schema(), rows(100, 10), "k")
        .unwrap()
        .register("t")
        .unwrap();
    let sorted = ctx
        .sql("SELECT v FROM t WHERE k = 3 ORDER BY v DESC LIMIT 3")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(
        sorted,
        vec![
            vec![Value::Int64(93)],
            vec![Value::Int64(83)],
            vec![Value::Int64(73)]
        ]
    );
}

/// The columnar layout's pushdown beats full materialization semantics-
/// wise: projected single column with a filter returns exactly the right
/// shape.
#[test]
fn columnar_pushdown_shapes() {
    let ctx = ctx();
    let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(300, 30), "k").unwrap();
    t.register("t").unwrap();
    let out = ctx
        .sql("SELECT v FROM t WHERE v >= 290")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(out.len(), 10);
    assert!(out
        .iter()
        .all(|r| r.len() == 1 && r[0].as_i64().unwrap() >= 290));
}

/// `NOT` over a non-boolean column is a type error caught while planning:
/// every table layout returns `PlanError::Unsupported` and launches no
/// stage (it used to panic inside the scan tasks and exhaust their
/// retries).
#[test]
fn not_over_non_boolean_fails_at_plan_time() {
    let ctx = ctx();
    ctx.register_table(
        "t_cache",
        Arc::new(ColumnarTable::from_rows(schema(), rows(200, 20), 4)),
    );
    IndexedDataFrame::from_rows(&ctx, schema(), rows(200, 20), "k")
        .unwrap()
        .register("t_row")
        .unwrap();
    ColumnarIndexedTable::from_rows(&ctx, schema(), rows(200, 20), "k")
        .unwrap()
        .register("t_col")
        .unwrap();
    let registry = ctx.cluster().registry();
    for table in ["t_cache", "t_row", "t_col"] {
        let launched = registry.counter_value("stage.launched");
        let res = ctx
            .sql(&format!("SELECT * FROM {table} WHERE NOT k"))
            .and_then(|df| df.collect());
        assert!(
            matches!(res, Err(PlanError::Unsupported(_))),
            "{table}: {res:?}"
        );
        assert_eq!(
            registry.counter_value("stage.launched"),
            launched,
            "{table}: no stage may run"
        );
    }
}
