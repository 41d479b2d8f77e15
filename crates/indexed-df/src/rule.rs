//! Index-aware Catalyst rules and physical operators (§III-B/III-C).
//!
//! [`IndexedRule`] is consulted by the planner before default planning.
//! It recognizes two shapes:
//!
//! * `Filter(key = literal)` directly over an indexed table scan, where
//!   `key` is the index column → [`IndexedLookupExec`] (point lookup routed
//!   to the one partition owning the key);
//! * `Join` where either side is an indexed table scanned on its index
//!   column → [`IndexedJoinExec`] ("if any of the sides of the relation are
//!   indexed ... the indexed relation is always the build side", §III-A).
//!
//! Anything else returns `None`, falling back to vanilla planning — the
//! "regular execution" path of Fig. 2. The operators work against any
//! [`IndexedTable`] layout (row-wise Indexed DataFrame or the columnar
//! variant).

use crate::columnar::ColumnarIndexedTable;
use crate::frame::IndexedDataFrame;
use crate::table::IndexedTable;
use dataframe::physical::{
    count_rows, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use dataframe::{Context, LogicalPlan, PlanError, Planner, PlannerRule};
use rowstore::{Row, Schema, Value};
use sparklet::{partition_of, row_bytes, TaskSpec};
use std::sync::Arc;

/// Install the indexed planning rule into a context (idempotent).
pub fn install(ctx: &Arc<Context>) {
    if ctx.rules().iter().any(|r| r.name() == IndexedRule.name()) {
        return;
    }
    ctx.register_rule(Arc::new(IndexedRule));
}

/// The index-aware planning rule.
pub struct IndexedRule;

/// If `plan` is a bare scan of an indexed table whose index column is
/// `key`, return the table.
fn as_indexed_scan(
    plan: &LogicalPlan,
    key: &str,
    ctx: &Arc<Context>,
) -> Option<Arc<dyn IndexedTable>> {
    let LogicalPlan::Scan { table, .. } = plan else {
        return None;
    };
    let provider = ctx.provider(table).ok()?;
    let indexed: Arc<dyn IndexedTable> =
        if let Some(idf) = provider.as_any().downcast_ref::<IndexedDataFrame>() {
            Arc::new(idf.clone())
        } else if let Some(cit) = provider.as_any().downcast_ref::<ColumnarIndexedTable>() {
            Arc::new(cit.clone())
        } else {
            return None;
        };
    if indexed.schema().index_of(key)? == indexed.index_col() {
        Some(indexed)
    } else {
        None
    }
}

impl PlannerRule for IndexedRule {
    fn name(&self) -> &str {
        "indexed-dataframe"
    }

    fn plan(
        &self,
        plan: &LogicalPlan,
        ctx: &Arc<Context>,
        planner: &Planner,
    ) -> Option<Result<Arc<dyn ExecPlan>, PlanError>> {
        match plan {
            // Point lookup: Filter(index_col = literal) over an indexed scan.
            LogicalPlan::Filter { input, predicate } => {
                let (col_name, value) = predicate.as_eq_literal()?;
                let table = as_indexed_scan(input, col_name, ctx)?;
                Some(Ok(Arc::new(IndexedLookupExec {
                    table,
                    key: value.clone(),
                })))
            }
            // Indexed join: either side is an indexed scan on its index column.
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                if let Some(table) = as_indexed_scan(left, left_key, ctx) {
                    let probe = match planner.plan(right, ctx) {
                        Ok(p) => p,
                        Err(e) => return Some(Err(e)),
                    };
                    let probe_key = match probe.schema().index_of(right_key) {
                        Some(k) => k,
                        None => return Some(Err(PlanError::UnknownColumn(right_key.clone()))),
                    };
                    let out_schema = table.schema().join(&probe.schema());
                    return Some(Ok(Arc::new(IndexedJoinExec {
                        table,
                        probe,
                        probe_key,
                        indexed_is_left: true,
                        out_schema,
                    })));
                }
                if let Some(table) = as_indexed_scan(right, right_key, ctx) {
                    let probe = match planner.plan(left, ctx) {
                        Ok(p) => p,
                        Err(e) => return Some(Err(e)),
                    };
                    let probe_key = match probe.schema().index_of(left_key) {
                        Some(k) => k,
                        None => return Some(Err(PlanError::UnknownColumn(left_key.clone()))),
                    };
                    let out_schema = probe.schema().join(&table.schema());
                    return Some(Ok(Arc::new(IndexedJoinExec {
                        table,
                        probe,
                        probe_key,
                        indexed_is_left: false,
                        out_schema,
                    })));
                }
                None
            }
            _ => None,
        }
    }
}

/// Point lookup: a single task on the partition owning the key's hash; a
/// cTrie search plus backward-pointer traversal (§III-C "Lookup").
pub struct IndexedLookupExec {
    pub table: Arc<dyn IndexedTable>,
    pub key: Value,
}

impl ExecPlan for IndexedLookupExec {
    fn schema(&self) -> Arc<Schema> {
        self.table.schema()
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        // rows_in = 1: one probe key enters the operator.
        observe_operator(ctx, "indexed_lookup", 1, || {
            Ok(vec![self.table.lookup_routed(&self.key)?])
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!(
                "IndexedLookup [key = {}, layout = {}]",
                self.key,
                self.table.layout_name()
            ),
            &[],
        )
    }
}

/// Indexed join (§III-C "Indexed Join"): no build phase — "the build side
/// is already created in the form of the index". The probe side is either
/// shuffled to the indexed partitions (hash co-location) or, when small
/// enough, broadcast to every partition and filtered by key ownership.
pub struct IndexedJoinExec {
    pub table: Arc<dyn IndexedTable>,
    pub probe: Arc<dyn ExecPlan>,
    pub probe_key: usize,
    /// Whether the indexed side is the logical left input (output column
    /// order is always logical-left ++ logical-right).
    pub indexed_is_left: bool,
    pub out_schema: Arc<Schema>,
}

impl ExecPlan for IndexedJoinExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let cluster = ctx.cluster();
        let probe_parts = self.probe.execute(ctx)?;
        observe_operator(ctx, "join.indexed", count_rows(&probe_parts), || {
            // Ensure the index is materialized (first use pays the build; later
            // queries amortize it — the effect of Fig. 1).
            self.table.ensure_cached()?;

            let probe_bytes: usize = probe_parts.iter().flatten().map(row_bytes).sum();
            let p = self.table.num_partitions();
            let probe_key = self.probe_key;
            let indexed_is_left = self.indexed_is_left;
            let table = Arc::clone(&self.table);

            // Choose probe distribution: broadcast when small (§III-C: "if the
            // Dataframe size is small enough to be broadcasted efficiently, we
            // fall back to a broadcast-based join instead of a shuffle").
            // Broadcast shares one copy per worker (modelled as one shared
            // allocation plus per-worker byte accounting); every partition
            // probes all rows but key ownership makes each match unique.
            let broadcast = probe_bytes <= ctx.config().broadcast_threshold_bytes;
            enum ProbeDist {
                Broadcast(Arc<Vec<Row>>),
                Shuffled(Arc<Vec<Vec<Row>>>),
            }
            let probe_dist = if broadcast {
                let all: Vec<Row> = probe_parts.into_iter().flatten().collect();
                sparklet::account_broadcast(
                    cluster,
                    probe_bytes as u64,
                    cluster.alive_workers().len() as u64,
                );
                ProbeDist::Broadcast(Arc::new(all))
            } else {
                let keyed: Vec<Vec<(u64, Row)>> = probe_parts
                    .into_iter()
                    .map(|rows| {
                        rows.into_iter()
                            .filter(|r| !r[probe_key].is_null())
                            .map(|r| (r[probe_key].key_hash(), r))
                            .collect()
                    })
                    .collect();
                ProbeDist::Shuffled(Arc::new(sparklet::exchange_rows(
                    cluster,
                    &self.probe.schema(),
                    keyed,
                    p,
                )?))
            };
            let per_partition_probe = Arc::new(probe_dist);

            let tasks: Vec<TaskSpec> = (0..p)
                .map(|i| TaskSpec {
                    partition: i,
                    preferred_worker: Some(cluster.worker_for_partition(i)),
                })
                .collect();
            let probe_ns = cluster.registry().counter("phase.probe_ns");
            Ok(probe_ns.time(|| {
                let probes = Arc::clone(&per_partition_probe);
                cluster.run_stage(&tasks, move |tc| {
                    let part = table.partition_handle(tc.partition);
                    let probe_rows: &[Row] = match probes.as_ref() {
                        ProbeDist::Broadcast(all) => all,
                        ProbeDist::Shuffled(parts) => &parts[tc.partition],
                    };
                    let mut out = Vec::new();
                    for probe_row in probe_rows {
                        let key = &probe_row[probe_key];
                        if key.is_null() {
                            continue;
                        }
                        if broadcast && partition_of(key.key_hash(), p) != tc.partition {
                            continue; // another partition owns this key
                        }
                        for indexed_row in part.lookup(key) {
                            let mut row = Vec::with_capacity(indexed_row.len() + probe_row.len());
                            if indexed_is_left {
                                row.extend(indexed_row);
                                row.extend_from_slice(probe_row);
                            } else {
                                row.extend_from_slice(probe_row);
                                row.extend(indexed_row);
                            }
                            out.push(row);
                        }
                    }
                    out
                })
            })?)
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!(
                "IndexedJoin [indexed={} side, probe_key={}, layout={}]",
                if self.indexed_is_left {
                    "left"
                } else {
                    "right"
                },
                self.probe_key,
                self.table.layout_name(),
            ),
            &[self.probe.as_ref()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::{col, lit};
    use rowstore::{DataType, Field};
    use sparklet::{Cluster, ClusterConfig};

    /// The rule is consulted before default planning, so equality on the
    /// index column must beat the vectorized pipeline — while any other
    /// predicate over the columnar layout must still fuse into one.
    #[test]
    fn index_rule_beats_pipeline_fusion_only_on_index_column() {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Int64(i % 10), Value::Int64(i)])
            .collect();
        let t = ColumnarIndexedTable::from_rows(&ctx, schema, rows, "k").unwrap();
        let df = t.register("events").unwrap();

        let point = df.clone().filter(col("k").eq(lit(3i64))).explain().unwrap();
        assert!(point.contains("IndexedLookup"), "{point}");
        assert!(!point.contains("ColumnarPipeline"), "{point}");

        // Equality on a non-index column: no index applies, kernels do.
        let scan = df.filter(col("v").eq(lit(42i64))).explain().unwrap();
        assert!(scan.contains("ColumnarPipeline"), "{scan}");
        assert!(!scan.contains("IndexedLookup"), "{scan}");
    }
}
