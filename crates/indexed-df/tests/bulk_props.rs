//! Property-based equivalence of the grouped bulk loader and the
//! row-at-a-time baseline: over random schemas, key types, and key skew,
//! `bulk_insert` must produce byte-identical chains (newest-first), the
//! same key/row counts, and the same data bytes as `insert_row`.

use indexed_df::IndexedPartition;
use proptest::prelude::*;
use rowstore::{DataType, Field, Row, Schema, StoreConfig, Value};
use std::sync::Arc;

/// Key column value from a skewed draw: `skew` of 0 makes every key
/// distinct, higher skew folds the space down to few hot keys.
fn key_value(kind: u8, raw: u64, skew: u8) -> Value {
    let folded = match skew % 4 {
        0 => raw,      // all distinct
        1 => raw % 64, // moderate duplication
        2 => raw % 8,  // hot keys
        _ => raw % 2,  // two mega-chains
    };
    match kind % 3 {
        0 => Value::Int64(folded as i64),
        1 => Value::Int32((folded % (i32::MAX as u64)) as i32),
        _ => Value::Utf8(format!("key-{folded}")),
    }
}

fn schema_for(kind: u8) -> Arc<Schema> {
    let key_type = match kind % 3 {
        0 => DataType::Int64,
        1 => DataType::Int32,
        _ => DataType::Utf8,
    };
    Schema::new(vec![
        Field::new("k", key_type),
        Field::new("payload", DataType::Utf8),
        Field::nullable("flag", DataType::Bool),
    ])
}

fn rows_for(kind: u8, skew: u8, raws: &[u64]) -> Vec<Row> {
    raws.iter()
        .enumerate()
        .map(|(i, &raw)| {
            vec![
                key_value(kind, raw, skew),
                Value::Utf8(format!("payload-{i}-{raw}")),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Bool(raw % 2 == 0)
                },
            ]
        })
        .collect()
}

fn distinct_keys(rows: &[Row]) -> Vec<Value> {
    let mut keys = Vec::new();
    for r in rows {
        if !keys.contains(&r[0]) {
            keys.push(r[0].clone());
        }
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// One-shot build: bulk_insert over the whole batch must equal a
    /// row-by-row insert_row build on every observable axis.
    #[test]
    fn bulk_insert_equals_insert_row(
        kind in any::<u8>(),
        skew in any::<u8>(),
        raws in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        let schema = schema_for(kind);
        let rows = rows_for(kind, skew, &raws);

        let mut bulk = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        let stats = bulk.bulk_insert(&rows).unwrap();
        prop_assert_eq!(stats.rows, rows.len() as u64);

        let mut base = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        for r in &rows {
            base.insert_row(r).unwrap();
        }

        prop_assert_eq!(bulk.row_count(), base.row_count());
        prop_assert_eq!(bulk.key_count(), base.key_count());
        prop_assert_eq!(stats.distinct_keys, base.key_count() as u64);
        prop_assert_eq!(bulk.data_bytes(), base.data_bytes());
        for key in distinct_keys(&rows) {
            let b = bulk.lookup(&key);
            let r = base.lookup(&key);
            prop_assert_eq!(&b, &r, "chain mismatch for key {:?}", key);
            // Newest-first: the last inserted row for this key leads.
            let newest = rows.iter().rev().find(|row| row[0] == key).unwrap();
            prop_assert_eq!(&b[0], newest);
        }
    }

    /// Incremental build: several bulk batches chained onto one partition
    /// must equal the same rows inserted one at a time — chains must splice
    /// onto existing heads exactly like insert_row does.
    #[test]
    fn chained_bulk_batches_equal_insert_row(
        kind in any::<u8>(),
        skew in any::<u8>(),
        raws in proptest::collection::vec(any::<u64>(), 2..200),
        cut in any::<u16>(),
    ) {
        let schema = schema_for(kind);
        let rows = rows_for(kind, skew, &raws);
        let cut = 1 + (cut as usize) % (rows.len() - 1);

        let mut bulk = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        bulk.bulk_insert(&rows[..cut]).unwrap();
        bulk.bulk_insert(&rows[cut..]).unwrap();

        let mut base = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        for r in &rows {
            base.insert_row(r).unwrap();
        }

        prop_assert_eq!(bulk.row_count(), base.row_count());
        prop_assert_eq!(bulk.key_count(), base.key_count());
        for key in distinct_keys(&rows) {
            prop_assert_eq!(bulk.lookup(&key), base.lookup(&key));
        }
    }

    /// Snapshot isolation: bulk-inserting into a snapshot must leave the
    /// parent untouched and match a row-at-a-time build of the same fork.
    #[test]
    fn bulk_insert_into_snapshot_matches_baseline_fork(
        kind in any::<u8>(),
        raws in proptest::collection::vec(any::<u64>(), 2..120),
    ) {
        let skew = 2; // hot keys: forks share chains with the parent
        let schema = schema_for(kind);
        let rows = rows_for(kind, skew, &raws);
        let cut = rows.len() / 2;

        let mut parent = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        parent.bulk_insert(&rows[..cut]).unwrap();
        let parent_counts = (parent.row_count(), parent.key_count());

        let mut fork = parent.snapshot();
        fork.bulk_insert(&rows[cut..]).unwrap();

        let mut base = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        for r in &rows {
            base.insert_row(r).unwrap();
        }

        prop_assert_eq!((parent.row_count(), parent.key_count()), parent_counts);
        prop_assert_eq!(fork.row_count(), base.row_count());
        prop_assert_eq!(fork.key_count(), base.key_count());
        for key in distinct_keys(&rows) {
            prop_assert_eq!(fork.lookup(&key), base.lookup(&key));
            // The parent only sees its own prefix.
            let parent_chain: Vec<_> = rows[..cut]
                .iter()
                .rev()
                .filter(|r| r[0] == key)
                .cloned()
                .collect();
            prop_assert_eq!(parent.lookup(&key), parent_chain);
        }
    }
}
