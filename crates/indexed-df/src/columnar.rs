//! A columnar-layout indexed table.
//!
//! The design alternative of §III-C footnote 2: same cTrie index and
//! backward chains as the Indexed DataFrame, but the rows live in typed
//! column vectors instead of binary row batches. Scans, projections and
//! non-indexable filters run at columnar-cache speed; point lookups and
//! indexed joins still hit the index. The trade-off is writes: this layout
//! is build-once (no MVCC appends) because column vectors cannot be shared
//! across versions the way sealed row batches can — exactly the trade the
//! paper describes ("the decision is based on the type of workload the
//! user needs to support").

use crate::table::{IndexedTable, PartitionHandle};
use dataframe::{ColumnarPartition, ColumnarSource, Context, KeyWrap, TableProvider};
use rowstore::{Row, Schema, Value};
use sparklet::partition_of;
use std::any::Any;
use std::sync::Arc;

/// One partition: columns plus a cTrie from key to newest row index, with
/// per-row backward links (row indices; `u32::MAX` terminates). Columns
/// are `Arc`-shared so the vectorized pipeline can borrow them without
/// copying (the index structures stay private to this crate).
pub struct ColumnarIndexedPartition {
    columns: Arc<ColumnarPartition>,
    index: ctrie::Ctrie<KeyWrap, u32>,
    prev: Vec<u32>,
    index_col: usize,
}

const CHAIN_END: u32 = u32::MAX;

impl ColumnarIndexedPartition {
    fn build(schema: &Schema, rows: &[Row], index_col: usize) -> ColumnarIndexedPartition {
        assert!(
            rows.len() < CHAIN_END as usize,
            "partition too large for u32 row ids"
        );
        let columns = Arc::new(ColumnarPartition::from_rows(schema, rows));
        let index = ctrie::Ctrie::new();
        let mut prev = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let key = KeyWrap(row[index_col].clone());
            let head = index.insert(key, i as u32);
            prev.push(head.unwrap_or(CHAIN_END));
        }
        ColumnarIndexedPartition {
            columns,
            index,
            prev,
            index_col,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.columns.num_rows()
    }

    pub fn key_count(&self) -> usize {
        self.index.len()
    }

    /// Heap bytes of the index structures (cTrie + chain array).
    pub fn index_bytes(&self) -> usize {
        self.index.heap_bytes() + self.prev.len() * std::mem::size_of::<u32>()
    }

    pub fn data_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }
}

impl PartitionHandle for ColumnarIndexedPartition {
    fn lookup(&self, key: &Value) -> Vec<Row> {
        let mut out = Vec::new();
        let Some(mut cur) = self.index.lookup(KeyWrap::from_ref(key)) else {
            return out;
        };
        loop {
            out.push(self.columns.row(cur as usize));
            let next = self.prev[cur as usize];
            if next == CHAIN_END {
                break;
            }
            cur = next;
        }
        let _ = self.index_col;
        out
    }
}

/// A build-once, hash-partitioned, columnar indexed table.
///
/// ```
/// # use indexed_df::ColumnarIndexedTable;
/// # use dataframe::Context;
/// # use rowstore::{DataType, Field, Schema, Value};
/// # use sparklet::{Cluster, ClusterConfig};
/// let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
/// let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
/// let rows = (0..100i64).map(|i| vec![Value::Int64(i % 10)]).collect();
/// let table = ColumnarIndexedTable::from_rows(&ctx, schema, rows, "k").unwrap();
/// assert_eq!(table.get_rows(&Value::Int64(3)).len(), 10);
/// table.register("events").unwrap();
/// assert_eq!(ctx.sql("SELECT * FROM events WHERE k = 3").unwrap().count().unwrap(), 10);
/// ```
#[derive(Clone)]
pub struct ColumnarIndexedTable {
    ctx: Arc<Context>,
    schema: Arc<Schema>,
    index_col: usize,
    partitions: Arc<Vec<Arc<ColumnarIndexedPartition>>>,
}

impl ColumnarIndexedTable {
    /// Hash-partition `rows` on `index_col` and build the columnar
    /// partitions with their cTrie indexes (eager; there is no lazy append
    /// path in this layout).
    pub fn from_rows(
        ctx: &Arc<Context>,
        schema: Arc<Schema>,
        rows: Vec<Row>,
        index_col: &str,
    ) -> Result<ColumnarIndexedTable, dataframe::PlanError> {
        let col = schema
            .index_of(index_col)
            .ok_or_else(|| dataframe::PlanError::UnknownColumn(index_col.to_string()))?;
        let p = ctx.cluster().config().default_partitions();
        // Shuffle rows to their hash partitions (counted in metrics) via
        // the serialized wire path — rows are moved into chunks, never
        // cloned.
        let chunk = rows.len().div_ceil(p).max(1);
        let mut inputs: Vec<Vec<(u64, Row)>> = (0..rows.len().div_ceil(chunk))
            .map(|_| Vec::with_capacity(chunk))
            .collect();
        for (i, r) in rows.into_iter().enumerate() {
            inputs[i / chunk].push((r[col].key_hash(), r));
        }
        let shuffled = Arc::new(sparklet::exchange_rows(ctx.cluster(), &schema, inputs, p)?);
        let schema2 = Arc::clone(&schema);
        let shuffled2 = Arc::clone(&shuffled);
        let partitions: Vec<Arc<ColumnarIndexedPartition>> =
            ctx.cluster().run_stage_partitions(p, move |tc| {
                Arc::new(ColumnarIndexedPartition::build(
                    &schema2,
                    &shuffled2[tc.partition],
                    col,
                ))
            })?;
        // Columnar tables are driver-held (the partitions live in this
        // struct, not the governed block cache), so their footprint is
        // *reported* to the memory metrics but sits outside the evictable
        // budget: counters for cumulative construction, a high-water gauge
        // for occupancy.
        let built_bytes: u64 = partitions
            .iter()
            .map(|p| (p.index_bytes() + p.data_bytes()) as u64)
            .sum();
        let registry = ctx.cluster().registry();
        registry
            .counter("memory.columnar_built_bytes")
            .add(built_bytes);
        registry.gauge("memory.columnar_bytes").set_max(built_bytes);
        Ok(ColumnarIndexedTable {
            ctx: Arc::clone(ctx),
            schema,
            index_col: col,
            partitions: Arc::new(partitions),
        })
    }

    /// Point lookup routed to the owning partition.
    pub fn get_rows(&self, key: &Value) -> Vec<Row> {
        let p = partition_of(key.key_hash(), self.partitions.len());
        self.partitions[p].lookup(key)
    }

    /// Register in the catalog (installs the indexed rules).
    pub fn register(&self, name: &str) -> Result<dataframe::DataFrame, dataframe::PlanError> {
        crate::rule::install(&self.ctx);
        self.ctx.register_table(name, Arc::new(self.clone()));
        self.ctx.table(name)
    }

    /// Per-partition `(index_bytes, data_bytes)`.
    pub fn partition_stats(&self) -> Vec<(usize, usize)> {
        self.partitions
            .iter()
            .map(|p| (p.index_bytes(), p.data_bytes()))
            .collect()
    }
}

impl IndexedTable for ColumnarIndexedTable {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn index_col(&self) -> usize {
        self.index_col
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn partition_handle(&self, p: usize) -> Arc<dyn PartitionHandle> {
        Arc::clone(&self.partitions[p]) as Arc<dyn PartitionHandle>
    }

    // Built eagerly on the driver; nothing distributed can fail here.
    fn ensure_cached(&self) -> Result<(), sparklet::StageError> {
        Ok(())
    }

    fn lookup_routed(&self, key: &Value) -> Result<Vec<Row>, sparklet::StageError> {
        Ok(self.get_rows(key))
    }

    fn layout_name(&self) -> &'static str {
        "columnar"
    }
}

impl TableProvider for ColumnarIndexedTable {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn scan_partition(&self, partition: usize) -> Vec<Row> {
        let p = &self.partitions[partition];
        (0..p.num_rows()).map(|i| p.columns.row(i)).collect()
    }

    fn num_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.num_rows()).sum()
    }

    fn estimated_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.data_bytes()).sum()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    /// Hand the column vectors to the vectorized pipeline: indexed rules
    /// still win point lookups and joins (the planner consults them
    /// first), but plain scans/filters/projections over this layout run
    /// the batch kernels on the shared partitions.
    fn columnar_source(&self) -> Option<Arc<dyn ColumnarSource>> {
        Some(Arc::new(self.clone()))
    }
}

impl ColumnarSource for ColumnarIndexedTable {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn partition(&self, i: usize) -> Arc<ColumnarPartition> {
        Arc::clone(&self.partitions[i].columns)
    }

    fn num_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.num_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::{col, lit};
    use rowstore::{DataType, Field};
    use sparklet::{Cluster, ClusterConfig};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ])
    }

    fn rows(n: i64, keys: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int64(i % keys), Value::Utf8(format!("v{i}"))])
            .collect()
    }

    fn ctx() -> Arc<Context> {
        Context::new(Cluster::new(ClusterConfig::test_small()))
    }

    #[test]
    fn lookup_newest_first() {
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(100, 10), "k").unwrap();
        let got = t.get_rows(&Value::Int64(3));
        assert_eq!(got.len(), 10);
        assert_eq!(got[0][1], Value::Utf8("v93".into()), "newest first");
        assert_eq!(got[9][1], Value::Utf8("v3".into()));
        assert!(t.get_rows(&Value::Int64(99)).is_empty());
    }

    #[test]
    fn sql_point_query_uses_index() {
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(500, 50), "k").unwrap();
        let df = t.register("events").unwrap();
        let plan = df.clone().filter(col("k").eq(lit(7i64))).explain().unwrap();
        assert!(plan.contains("IndexedLookup"), "{plan}");
        assert_eq!(
            ctx.sql("SELECT * FROM events WHERE k = 7")
                .unwrap()
                .count()
                .unwrap(),
            10
        );
    }

    #[test]
    fn joins_use_index() {
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(1000, 100), "k").unwrap();
        t.register("events").unwrap();
        let probe_schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        let probe: Vec<Row> = (0..5).map(|i| vec![Value::Int64(i * 3)]).collect();
        ctx.register_table(
            "probe",
            Arc::new(dataframe::ColumnarTable::from_rows(probe_schema, probe, 1)),
        );
        let df = ctx
            .sql("SELECT * FROM events JOIN probe ON events.k = probe.id")
            .unwrap();
        assert!(df.explain().unwrap().contains("IndexedJoin"));
        assert_eq!(df.count().unwrap(), 50);
    }

    #[test]
    fn columnar_pushdown_projection() {
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(200, 20), "k").unwrap();
        t.register("events").unwrap();
        let got = ctx
            .sql("SELECT v FROM events WHERE k < 3")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got.len(), 30);
        assert_eq!(got[0].len(), 1);
    }

    #[test]
    fn range_scan_takes_vectorized_pipeline() {
        // Non-indexable predicate over the columnar layout: the planner
        // must fuse it into a vectorized pipeline over the shared column
        // vectors (no index involved, no row materialization mid-plan) —
        // while indexed point queries keep their IndexedLookup plan.
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(200, 20), "k").unwrap();
        let df = t.register("events").unwrap();
        let plan = df.clone().filter(col("k").lt(lit(3i64))).explain().unwrap();
        assert!(plan.contains("ColumnarPipeline"), "{plan}");
        let before = ctx
            .cluster()
            .registry()
            .counter_value("operator.vectorized");
        let got = ctx
            .sql("SELECT v FROM events WHERE k < 3")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got.len(), 30);
        assert!(
            ctx.cluster()
                .registry()
                .counter_value("operator.vectorized")
                > before
        );
        // Index precedence is untouched.
        let point = df.filter(col("k").eq(lit(7i64))).explain().unwrap();
        assert!(point.contains("IndexedLookup"), "{point}");
    }

    #[test]
    fn stats_accounting() {
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), rows(1000, 100), "k").unwrap();
        let stats = t.partition_stats();
        assert!(!stats.is_empty());
        assert!(stats.iter().all(|(i, d)| *i > 0 && *d > 0));
    }

    #[test]
    fn empty_table() {
        let ctx = ctx();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema(), Vec::new(), "k").unwrap();
        assert!(t.get_rows(&Value::Int64(0)).is_empty());
        t.register("empty").unwrap();
        assert_eq!(ctx.sql("SELECT * FROM empty").unwrap().count().unwrap(), 0);
    }
}
