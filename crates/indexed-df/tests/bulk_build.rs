//! Fast-path index construction tests: the base source must be replayed
//! exactly once per build (single-replay shuffle / bucket cache), and the
//! grouped bulk build must agree with row-by-row `insert_row` calls.

use dataframe::Context;
use indexed_df::{IndexedDataFrame, IndexedPartition, ReplayableSource};
use rowstore::{DataType, Field, Row, Schema, StoreConfig, Value};
use sparklet::{partition_of, Cluster, ClusterConfig};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
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

/// A replayable source that counts how many times it is replayed.
struct CountingSource {
    rows: Vec<Row>,
    replays: Arc<AtomicUsize>,
}

impl CountingSource {
    fn new(rows: Vec<Row>) -> (Arc<CountingSource>, Arc<AtomicUsize>) {
        let replays = Arc::new(AtomicUsize::new(0));
        let src = Arc::new(CountingSource {
            rows,
            replays: Arc::clone(&replays),
        });
        (src, replays)
    }
}

impl ReplayableSource for CountingSource {
    fn replay(&self) -> Vec<Row> {
        self.replays.fetch_add(1, SeqCst);
        self.rows.clone()
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn describe(&self) -> String {
        format!("counting source ({} rows)", self.rows.len())
    }
}

fn counting_idf(ctx: &Arc<Context>, n: i64, keys: i64) -> (IndexedDataFrame, Arc<AtomicUsize>) {
    let (src, replays) = CountingSource::new(edges(n, keys));
    let idf = IndexedDataFrame::builder(ctx, edge_schema(), "src")
        .unwrap()
        .source(src)
        .build()
        .unwrap();
    (idf, replays)
}

#[test]
fn cache_index_replays_source_exactly_once() {
    let ctx = ctx();
    let (idf, replays) = counting_idf(&ctx, 1000, 40);
    idf.cache_index().unwrap();
    assert_eq!(
        replays.load(SeqCst),
        1,
        "full build must replay the base source once, not once per partition"
    );
    assert_eq!(
        ctx.cluster().registry().counter_value("index.replays"),
        1,
        "the index.replays counter must track replay calls"
    );
    // Every partition is usable from that single pass.
    for k in 0..40 {
        assert_eq!(idf.get_rows(&Value::Int64(k)).unwrap().len(), 25);
    }
    assert_eq!(replays.load(SeqCst), 1, "lookups must not replay again");
}

#[test]
fn lazy_builds_share_one_replay_across_partitions() {
    let ctx = ctx();
    let (idf, replays) = counting_idf(&ctx, 600, 30);
    // No cache_index: touch every partition through lazy lookups.
    for k in 0..30 {
        assert_eq!(idf.get_rows(&Value::Int64(k)).unwrap().len(), 20);
    }
    assert_eq!(
        replays.load(SeqCst),
        1,
        "lazy per-partition builds must drain one shared replay, not replay per partition"
    );
}

#[test]
fn recovery_after_worker_failure_does_not_replay_again() {
    let ctx = ctx();
    let (idf, replays) = counting_idf(&ctx, 800, 20);
    idf.cache_index().unwrap();
    assert_eq!(replays.load(SeqCst), 1);

    // Lose a worker: its partitions must be rebuilt from the cached
    // partitioned delta, not by replaying the source again.
    ctx.cluster().kill_worker(1);
    for k in 0..20 {
        assert_eq!(idf.get_rows(&Value::Int64(k)).unwrap().len(), 40);
    }
    assert_eq!(
        replays.load(SeqCst),
        1,
        "post-failure recompute must reuse the version's bucket cache"
    );
}

#[test]
fn frame_build_matches_per_partition_insert_row_oracle() {
    let ctx = ctx();
    let rows = edges(2000, 37);
    let idf = IndexedDataFrame::from_rows(&ctx, edge_schema(), rows.clone(), "src").unwrap();
    idf.cache_index().unwrap();
    // Oracle: route each row to its hash partition and insert it there
    // one row at a time.
    let parts = idf.num_partitions();
    let mut oracle: Vec<IndexedPartition> = (0..parts)
        .map(|_| IndexedPartition::new(edge_schema(), 0, StoreConfig::default()))
        .collect();
    for r in &rows {
        oracle[partition_of(r[0].key_hash(), parts)]
            .insert_row(r)
            .unwrap();
    }
    for (p, want) in oracle.iter().enumerate() {
        let got = idf.partition(p);
        assert_eq!(got.row_count(), want.row_count(), "partition {p} rows");
        assert_eq!(got.key_count(), want.key_count(), "partition {p} keys");
    }
    for k in 0..40 {
        let key = Value::Int64(k);
        let got = idf.get_rows(&key).unwrap();
        assert_eq!(
            got,
            oracle[partition_of(key.key_hash(), parts)].lookup(&key),
            "chains must match (newest-first) for key {k}"
        );
        if let Some(newest) = rows.iter().rev().find(|r| r[0] == key) {
            assert_eq!(&got[0], newest, "newest row leads the chain for key {k}");
        }
    }
    // The build took the bulk path: one upsert per distinct key.
    let reg = ctx.cluster().registry();
    assert_eq!(reg.counter_value("index.bulk_rows"), 2000);
    assert_eq!(reg.counter_value("index.upserts"), 37);
    assert!(reg.counter_value("index.build_ns") > 0);
}

#[test]
fn append_delta_is_drained_once_and_agrees_with_baseline() {
    let ctx = ctx();
    let (v1, replays) = counting_idf(&ctx, 400, 10);
    v1.cache_index().unwrap();

    let delta: Vec<Row> = (0..100)
        .map(|i| vec![Value::Int64(i % 10), Value::Int64(10_000 + i)])
        .collect();
    let v2 = v1.append_rows(delta);
    v2.cache_index().unwrap();
    assert_eq!(
        replays.load(SeqCst),
        1,
        "an append must never replay the base source"
    );
    let rows = v2.get_rows(&Value::Int64(3)).unwrap();
    assert_eq!(rows.len(), 50);
    // Newest-first: the appended rows lead the chain, descending.
    assert_eq!(rows[0][1], Value::Int64(10_093));
    assert!(rows[..10]
        .iter()
        .all(|r| matches!(r[1], Value::Int64(v) if v >= 10_000)));
    // Parent unchanged.
    assert_eq!(v1.get_rows(&Value::Int64(3)).unwrap().len(), 40);
}
