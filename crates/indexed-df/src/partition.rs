//! One partition of the Indexed Batch RDD (Fig. 3 of the paper).
//!
//! Each partition combines the three structures of §III-C:
//!
//! 1. a **cTrie** mapping each index key to the packed pointer of the most
//!    recently appended row with that key;
//! 2. **row batches** storing the rows in binary form;
//! 3. **backward pointers** chaining rows that share a key (stored inline
//!    in the row records; see [`rowstore`]).
//!
//! Partitions are multi-versioned: [`IndexedPartition::snapshot`] is O(1)
//! (ctrie snapshot + batch-directory snapshot) and produces an
//! independently appendable copy — the substrate for the Indexed
//! DataFrame's divergent appends (§III-E).

use dataframe::KeyWrap;
use rowstore::{codec, PackedPtr, PartitionStore, Row, Schema, StoreConfig, StoreError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// What a [`IndexedPartition::bulk_insert`] did, for the caller's counters
/// (`index.bulk_rows` / `index.upserts` in the engine registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkInsertStats {
    /// Rows appended to the row batches.
    pub rows: u64,
    /// Distinct index keys touched — the number of cTrie writes performed:
    /// one upsert per non-NULL key (however many rows share it) plus one
    /// insert per NULL-keyed row (SQL NULL never equals NULL, so each is
    /// its own entry).
    pub distinct_keys: u64,
}

/// A single indexed partition: cTrie index over a binary row store.
pub struct IndexedPartition {
    index: ctrie::Ctrie<KeyWrap, u64>,
    store: PartitionStore,
    index_col: usize,
    /// Version number (§III-D): bumped on every snapshot-for-append so the
    /// scheduler can refuse stale copies.
    version: u64,
}

impl IndexedPartition {
    /// Create an empty partition indexing `index_col`.
    pub fn new(schema: Arc<Schema>, index_col: usize, config: StoreConfig) -> IndexedPartition {
        assert!(index_col < schema.arity(), "index column out of range");
        IndexedPartition {
            index: ctrie::Ctrie::new(),
            store: PartitionStore::new(schema, config),
            index_col,
            version: 1,
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        self.store.schema()
    }

    pub fn index_col(&self) -> usize {
        self.index_col
    }

    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn row_count(&self) -> u64 {
        self.store.row_count()
    }

    /// Number of distinct index keys.
    pub fn key_count(&self) -> usize {
        self.index.len()
    }

    /// Insert one row: append to the row batches and point the cTrie entry
    /// at it, chaining any previous row with the same key through the
    /// backward pointer.
    pub fn insert_row(&mut self, values: &[Value]) -> Result<(), StoreError> {
        let key = KeyWrap(values[self.index_col].clone());
        let prev = match self.index.lookup(&key) {
            Some(bits) => PackedPtr(bits),
            None => PackedPtr::NONE,
        };
        let ptr = self.store.append_row(values, prev)?;
        self.index.insert(key, ptr.0);
        Ok(())
    }

    /// Row-at-a-time insert with a storage size hint (the correctness
    /// baseline; the build fast path is [`IndexedPartition::bulk_insert`]).
    pub fn insert_rows(&mut self, rows: &[Row]) -> Result<(), StoreError> {
        let hint = Self::reserve_bytes(self.store.schema(), rows)?;
        self.store.reserve_hint(hint);
        for r in rows {
            self.insert_row(r)?;
        }
        Ok(())
    }

    /// Storage hint for inserting `rows`: the exact encoded size of the
    /// first row × count, plus record headers. (A fixed bytes-per-cell
    /// guess under-reserves for wide strings, churning through undersized
    /// batches.)
    fn reserve_bytes(schema: &Arc<Schema>, rows: &[Row]) -> Result<usize, StoreError> {
        let Some(first) = rows.first() else {
            return Ok(0);
        };
        let mut buf = Vec::new();
        let encoded = codec::encode_row(schema, first, &mut buf)?;
        Ok(rows.len() * (encoded + rowstore::RECORD_HEADER))
    }

    /// Bulk insert: the index-construction fast path (§III-C creation /
    /// append at batch grain).
    ///
    /// Rows are grouped by index key (pre-sized hash grouping over
    /// *borrowed* keys — no per-row `Value` clone), each group's rows are
    /// appended contiguously into the row batches while the backward
    /// chain is threaded in the same pass, and the cTrie is touched with
    /// **one [`ctrie::Ctrie::upsert`] per distinct key** instead of one
    /// lookup + insert per row.
    ///
    /// Equivalent to calling [`IndexedPartition::insert_row`] for every
    /// row in order: identical chains and newest-first lookup results
    /// (rows sharing a key keep their relative order). Only the physical
    /// row placement differs — groups are contiguous, so a full scan
    /// yields a permutation of the row-at-a-time order.
    ///
    /// Like `insert_rows`, an error mid-bulk (oversized row, batch
    /// exhaustion) leaves already-inserted groups in place; the failing
    /// key's chain is never left half-linked because the trie update for a
    /// group aborts atomically with its append.
    pub fn bulk_insert(&mut self, rows: &[Row]) -> Result<BulkInsertStats, StoreError> {
        if rows.is_empty() {
            return Ok(BulkInsertStats::default());
        }
        let hint = Self::reserve_bytes(self.store.schema(), rows)?;
        self.store.reserve_hint(hint);

        // Group row indices by borrowed key; `order` keeps first-seen key
        // order so the build is deterministic. NULL keys bypass the map:
        // SQL NULL never equals NULL (KeyWrap's Eq), so the entry API could
        // not retrieve them — each NULL row is its own singleton chain.
        let mut groups: HashMap<&KeyWrap, Vec<u32>> = HashMap::with_capacity(rows.len());
        let mut order: Vec<&KeyWrap> = Vec::with_capacity(rows.len());
        let mut nulls: Vec<u32> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            let v = &r[self.index_col];
            if v.is_null() {
                nulls.push(i as u32);
                continue;
            }
            let k = KeyWrap::from_ref(v);
            groups
                .entry(k)
                .or_insert_with(|| {
                    order.push(k);
                    Vec::new()
                })
                .push(i as u32);
        }

        let index = &self.index;
        let store = &mut self.store;
        for k in &order {
            let idxs = &groups[k];
            // The upsert closure may be re-invoked if the trie walk
            // restarts; `done` makes the append side idempotent.
            let mut done: Option<u64> = None;
            index.try_upsert((*k).clone(), |old| -> Result<u64, StoreError> {
                if let Some(head) = done {
                    return Ok(head);
                }
                let mut prev = match old {
                    Some(bits) => PackedPtr(*bits),
                    None => PackedPtr::NONE,
                };
                for &i in idxs {
                    prev = store.append_row(&rows[i as usize], prev)?;
                }
                done = Some(prev.0);
                Ok(prev.0)
            })?;
        }
        // Each NULL-keyed row gets a fresh trie entry with an empty chain,
        // exactly as `insert_row` produces (its lookup never matches NULL).
        for &i in &nulls {
            let ptr = store.append_row(&rows[i as usize], PackedPtr::NONE)?;
            index.insert(KeyWrap(Value::Null), ptr.0);
        }
        Ok(BulkInsertStats {
            rows: rows.len() as u64,
            distinct_keys: (order.len() + nulls.len()) as u64,
        })
    }

    /// Point lookup: all rows whose index key equals `key`, newest first
    /// (a cTrie search followed by a backward-pointer traversal, §III-C).
    pub fn lookup(&self, key: &Value) -> Vec<Row> {
        match self.index.lookup(KeyWrap::from_ref(key)) {
            None => Vec::new(),
            Some(bits) => self.store.get_chain(PackedPtr(bits)),
        }
    }

    /// Probe with a visitor, avoiding row materialization when `f` works on
    /// encoded bytes. Returns the number of matching rows.
    pub fn probe(&self, key: &Value, mut f: impl FnMut(&[u8])) -> usize {
        let mut n = 0;
        if let Some(bits) = self.index.lookup(KeyWrap::from_ref(key)) {
            self.store.for_each_in_chain(PackedPtr(bits), |bytes| {
                f(bytes);
                n += 1;
                true
            });
        }
        n
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &Value) -> bool {
        self.index.contains_key(KeyWrap::from_ref(key))
    }

    /// Full scan of all visible rows.
    pub fn scan(&self) -> Vec<Row> {
        self.store.all_rows()
    }

    /// Scan visiting encoded rows without materialization.
    pub fn for_each_row(&self, f: impl FnMut(PackedPtr, &[u8])) {
        self.store.for_each_row(f)
    }

    /// O(1) snapshot: shares all data with `self`; appends to either side
    /// never affect the other. The snapshot's version is bumped.
    pub fn snapshot(&self) -> IndexedPartition {
        IndexedPartition {
            index: self.index.snapshot(),
            store: self.store.snapshot(),
            index_col: self.index_col,
            version: self.version + 1,
        }
    }

    /// Heap bytes held by the cTrie index structure (Fig. 11 numerator).
    pub fn index_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    /// Bytes of row data visible to this version (Fig. 11 denominator).
    pub fn data_bytes(&self) -> usize {
        self.store.data_bytes()
    }

    /// Number of row batches backing this version (allocation-churn probe
    /// for the reserve-hint tests and benches).
    pub fn store_batch_count(&self) -> u32 {
        self.store.batch_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowstore::{DataType, Field};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("key", DataType::Int64),
            Field::new("payload", DataType::Utf8),
        ])
    }

    fn part() -> IndexedPartition {
        IndexedPartition::new(schema(), 0, StoreConfig::default())
    }

    fn row(k: i64, p: &str) -> Row {
        vec![Value::Int64(k), Value::Utf8(p.into())]
    }

    #[test]
    fn insert_and_lookup_unique_keys() {
        let mut p = part();
        for i in 0..100 {
            p.insert_row(&row(i, &format!("v{i}"))).unwrap();
        }
        assert_eq!(p.row_count(), 100);
        assert_eq!(p.key_count(), 100);
        assert_eq!(p.lookup(&Value::Int64(42)), vec![row(42, "v42")]);
        assert!(p.lookup(&Value::Int64(1000)).is_empty());
        assert!(p.contains_key(&Value::Int64(0)));
        assert!(!p.contains_key(&Value::Int64(-1)));
    }

    #[test]
    fn non_unique_keys_chain_newest_first() {
        let mut p = part();
        for i in 0..5 {
            p.insert_row(&row(7, &format!("v{i}"))).unwrap();
        }
        let rows = p.lookup(&Value::Int64(7));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], row(7, "v4"), "newest first");
        assert_eq!(rows[4], row(7, "v0"));
        assert_eq!(p.key_count(), 1);
    }

    #[test]
    fn probe_counts_without_materializing() {
        let mut p = part();
        for i in 0..10 {
            p.insert_row(&row(i % 3, &format!("v{i}"))).unwrap();
        }
        let mut seen = 0;
        let n = p.probe(&Value::Int64(0), |_| seen += 1);
        assert_eq!(n, 4); // keys 0,3,6,9
        assert_eq!(seen, 4);
        assert_eq!(p.probe(&Value::Int64(99), |_| {}), 0);
    }

    #[test]
    fn snapshot_is_frozen_and_divergent() {
        let mut parent = part();
        for i in 0..10 {
            parent.insert_row(&row(i, "base")).unwrap();
        }
        let mut a = parent.snapshot();
        let mut b = parent.snapshot();
        assert_eq!(a.version(), 2);
        assert_eq!(b.version(), 2);
        a.insert_row(&row(100, "a")).unwrap();
        b.insert_row(&row(5, "b-newer")).unwrap();

        assert_eq!(parent.row_count(), 10);
        assert!(parent.lookup(&Value::Int64(100)).is_empty());
        assert_eq!(a.lookup(&Value::Int64(100)), vec![row(100, "a")]);
        assert!(a.lookup(&Value::Int64(5)).len() == 1);
        // b sees both versions of key 5, newest first, chained across the
        // snapshot boundary.
        let b5 = b.lookup(&Value::Int64(5));
        assert_eq!(b5, vec![row(5, "b-newer"), row(5, "base")]);
    }

    #[test]
    fn string_index_column() {
        let mut p = IndexedPartition::new(schema(), 1, StoreConfig::default());
        p.insert_row(&row(1, "alpha")).unwrap();
        p.insert_row(&row(2, "beta")).unwrap();
        p.insert_row(&row(3, "alpha")).unwrap();
        let rows = p.lookup(&Value::Utf8("alpha".into()));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int64(3));
    }

    #[test]
    fn scan_matches_inserts() {
        let mut p = part();
        for i in 0..50 {
            p.insert_row(&row(i % 10, &format!("v{i}"))).unwrap();
        }
        assert_eq!(p.scan().len(), 50);
    }

    #[test]
    fn memory_accounting() {
        let mut p = part();
        for i in 0..1000 {
            p.insert_row(&row(i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
                .unwrap();
        }
        let overhead = p.index_bytes() as f64 / p.data_bytes() as f64;
        assert!(overhead > 0.0);
        // The paper reports < 2% overhead for its 30 GB table; at this tiny
        // scale the ratio is larger but must stay within the same order.
        assert!(overhead < 2.0, "index overhead ratio {overhead}");
    }

    #[test]
    #[should_panic(expected = "index column out of range")]
    fn bad_index_column_panics() {
        let _ = IndexedPartition::new(schema(), 9, StoreConfig::default());
    }

    #[test]
    fn bulk_insert_matches_insert_rows() {
        let mut by_row = part();
        let mut by_bulk = part();
        let rows: Vec<Row> = (0..200).map(|i| row(i % 7, &format!("v{i}"))).collect();
        by_row.insert_rows(&rows).unwrap();
        let stats = by_bulk.bulk_insert(&rows).unwrap();
        assert_eq!(stats.rows, 200);
        assert_eq!(stats.distinct_keys, 7);
        assert_eq!(by_bulk.row_count(), by_row.row_count());
        assert_eq!(by_bulk.key_count(), by_row.key_count());
        for k in 0..7 {
            assert_eq!(
                by_bulk.lookup(&Value::Int64(k)),
                by_row.lookup(&Value::Int64(k)),
                "chain for key {k} must match, newest first"
            );
        }
        assert_eq!(by_bulk.data_bytes(), by_row.data_bytes());
    }

    #[test]
    fn bulk_insert_chains_onto_existing_keys() {
        let mut p = part();
        p.insert_row(&row(3, "old")).unwrap();
        p.bulk_insert(&[row(3, "mid"), row(3, "new")]).unwrap();
        assert_eq!(
            p.lookup(&Value::Int64(3)),
            vec![row(3, "new"), row(3, "mid"), row(3, "old")]
        );
        assert_eq!(p.key_count(), 1);
    }

    #[test]
    fn bulk_insert_null_keys_match_insert_rows() {
        // SQL NULL never equals NULL: every NULL-keyed row is its own
        // trie entry and a lookup for NULL finds nothing. The bulk path
        // must reproduce insert_row's behavior exactly (regression: the
        // grouping map once panicked on the non-reflexive key).
        let schema = Schema::new(vec![
            Field::nullable("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ]);
        let rows: Vec<Row> = vec![
            vec![Value::Int64(1), "a".into()],
            vec![Value::Null, "b".into()],
            vec![Value::Int64(1), "c".into()],
            vec![Value::Null, "d".into()],
        ];
        let mut by_row = IndexedPartition::new(Arc::clone(&schema), 0, StoreConfig::default());
        by_row.insert_rows(&rows).unwrap();
        let mut by_bulk = IndexedPartition::new(schema, 0, StoreConfig::default());
        let stats = by_bulk.bulk_insert(&rows).unwrap();
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.distinct_keys, 3, "key 1 plus two NULL singletons");
        assert_eq!(by_bulk.row_count(), by_row.row_count());
        assert_eq!(by_bulk.key_count(), by_row.key_count());
        assert_eq!(by_bulk.lookup(&Value::Null), by_row.lookup(&Value::Null));
        assert!(by_bulk.lookup(&Value::Null).is_empty());
        assert_eq!(
            by_bulk.lookup(&Value::Int64(1)),
            by_row.lookup(&Value::Int64(1))
        );
        assert_eq!(by_bulk.data_bytes(), by_row.data_bytes());
    }

    #[test]
    fn bulk_insert_empty_is_noop() {
        let mut p = part();
        assert_eq!(p.bulk_insert(&[]).unwrap(), BulkInsertStats::default());
        assert_eq!(p.row_count(), 0);
    }

    #[test]
    fn bulk_insert_into_snapshot_keeps_parent_frozen() {
        let mut parent = part();
        parent
            .insert_rows(&[row(1, "base"), row(2, "base")])
            .unwrap();
        let mut child = parent.snapshot();
        child
            .bulk_insert(&[row(1, "delta"), row(9, "delta")])
            .unwrap();
        assert_eq!(parent.row_count(), 2);
        assert!(parent.lookup(&Value::Int64(9)).is_empty());
        assert_eq!(
            child.lookup(&Value::Int64(1)),
            vec![row(1, "delta"), row(1, "base")],
            "chain crosses the snapshot boundary"
        );
        assert_eq!(child.lookup(&Value::Int64(9)), vec![row(9, "delta")]);
    }

    /// Satellite: the reserve hint uses the exact encoded size of the first
    /// row, so wide-string rows land in one right-sized batch instead of
    /// churning through geometrically grown undersized ones.
    #[test]
    fn exact_reserve_hint_avoids_batch_churn() {
        let wide = "w".repeat(400);
        let rows: Vec<Row> = (0..500).map(|i| row(i, &wide)).collect();
        // ~500 × ~420 B ≈ 210 KB — well under one 4 MB batch, but far more
        // than the old 16-bytes-per-cell guess (500 × 42 B ≈ 21 KB), which
        // under-reserved and spilled across several grown batches.
        let mut by_row = part();
        by_row.insert_rows(&rows).unwrap();
        assert_eq!(by_row.store_batch_count(), 1, "insert_rows: one batch");
        let mut by_bulk = part();
        by_bulk.bulk_insert(&rows).unwrap();
        assert_eq!(by_bulk.store_batch_count(), 1, "bulk_insert: one batch");
    }
}
