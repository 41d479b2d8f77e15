//! Vanilla Spark join strategies — the paper's baselines (§II, §IV-C).
//!
//! * [`BroadcastHashJoinExec`]: build a hash table from the small side,
//!   replicate it to every worker, probe locally ("BroadcastHash Join").
//! * Shuffled joins are planned as [`crate::AdaptiveJoinExec`], which
//!   shuffles both sides by key hash and then runs one of two reduce
//!   bodies defined here: `shuffled_probe_core` (build and probe per
//!   co-located partition) or `sort_merge_probe_core` (sort each
//!   partition by key and merge — "the notoriously slow SortMerge Join",
//!   §IV-E).
//!
//! All are inner equi-joins with null-rejecting keys; output columns are
//! the left schema followed by the right schema. Every strategy re-builds
//! its hash table (or re-sorts) on *every* execution — the per-query cost
//! the Indexed DataFrame amortizes away (Fig. 1).

use crate::context::{Context, StatsTarget};
use crate::physical::{
    count_rows, describe_node, observe_operator, ExecError, ExecPlan, KeyWrap, Partitions,
};
use rowstore::{Row, Schema, Value};
use sparklet::row_bytes;
use std::collections::HashMap;
use std::sync::Arc;

/// Build a key → rows multimap, dropping null keys. `capacity` is a row
/// count hint (callers know it exactly from `count_rows`/`len`); the table
/// is pre-sized for it so the build loop never rehashes.
pub(crate) fn build_table(
    rows: impl IntoIterator<Item = Row>,
    key: usize,
    capacity: usize,
) -> HashMap<KeyWrap, Vec<Row>> {
    let mut table: HashMap<KeyWrap, Vec<Row>> = HashMap::with_capacity(capacity);
    for row in rows {
        if row[key].is_null() {
            continue;
        }
        table
            .entry(KeyWrap(row[key].clone()))
            .or_default()
            .push(row);
    }
    table
}

/// Concatenate a left row and a right row.
#[inline]
pub(crate) fn joined(left: &Row, right: &Row) -> Row {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

/// Exact materialized size of a set of partitions (the number the runtime
/// stats catalog records; estimates never enter here).
pub(crate) fn parts_bytes(parts: &Partitions) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.iter().map(|r| row_bytes(r) as u64))
        .sum()
}

/// Materialized size measured from a stride sample of the rows. Small
/// inputs (≤ 4096 rows) are summed exactly; larger ones extrapolate from
/// ~1024 evenly-spaced rows, so the per-query accounting cost stays flat
/// while the number is still derived from the actual rows in memory (the
/// distinction that matters vs planner estimates is measured-vs-guessed,
/// not exact-vs-sampled).
pub(crate) fn parts_bytes_sampled(parts: &Partitions) -> u64 {
    let rows: usize = parts.iter().map(|p| p.len()).sum();
    if rows <= 4096 {
        return parts_bytes(parts);
    }
    let stride = rows.div_ceil(1024);
    let (mut sampled, mut bytes) = (0u64, 0u64);
    for (i, row) in parts.iter().flat_map(|p| p.iter()).enumerate() {
        if i % stride == 0 {
            sampled += 1;
            bytes += row_bytes(row) as u64;
        }
    }
    bytes * rows as u64 / sampled.max(1)
}

/// The broadcast-hash join body over already-materialized inputs: hash the
/// build side once, broadcast-account it, probe per partition. Shared by
/// [`BroadcastHashJoinExec`] and the adaptive join's runtime demotion
/// (which decides on materialized sizes *after* its children ran).
pub(crate) fn broadcast_hash_core(
    ctx: &Arc<Context>,
    build_parts: Partitions,
    probe_parts: Partitions,
    build_key: usize,
    probe_key: usize,
    build_is_left: bool,
) -> Result<Partitions, ExecError> {
    let registry = ctx.cluster().registry();
    let build_rows = count_rows(&build_parts) as usize;
    let probe_parts = Arc::new(probe_parts);

    // Build phase: collect + hash the build side.
    let table = registry.counter("phase.build_ns").time(|| {
        Arc::new(build_table(
            build_parts.into_iter().flatten(),
            build_key,
            build_rows,
        ))
    });

    // Broadcast: the table is materialized once and refcounted to every
    // alive worker (the probe tasks below share `table2`); account wire
    // traffic per worker, memory once.
    let table_bytes: u64 = table
        .values()
        .flat_map(|rows| rows.iter().map(|r| row_bytes(r) as u64))
        .sum();
    let alive = ctx.cluster().alive_workers().len() as u64;
    sparklet::account_broadcast(ctx.cluster(), table_bytes, alive);

    // Probe phase: local hash lookups per probe partition.
    let probe_parts2 = Arc::clone(&probe_parts);
    let table2 = Arc::clone(&table);
    let probed = registry.counter("phase.probe_ns").time(|| {
        ctx.cluster()
            .run_stage_partitions(probe_parts.len(), move |tc| {
                let mut out = Vec::new();
                for probe_row in &probe_parts2[tc.partition] {
                    let k = &probe_row[probe_key];
                    if k.is_null() {
                        continue;
                    }
                    if let Some(matches) = table2.get(KeyWrap::from_ref(k)) {
                        for build_row in matches {
                            out.push(if build_is_left {
                                joined(build_row, probe_row)
                            } else {
                                joined(probe_row, build_row)
                            });
                        }
                    }
                }
                out
            })
    });
    probed.map_err(ExecError::from)
}

/// Broadcast-hash join: the build side is collected, hashed once on the
/// driver, and replicated to all workers; the probe side streams locally.
pub struct BroadcastHashJoinExec {
    pub build: Arc<dyn ExecPlan>,
    pub probe: Arc<dyn ExecPlan>,
    pub build_key: usize,
    pub probe_key: usize,
    /// Whether the build side is the *left* input of the logical join
    /// (controls output column order).
    pub build_is_left: bool,
    /// Runtime-stats key for the build side — the catalog name when it is
    /// a bare table scan, or a plan fingerprint when it is a join/aggregate
    /// output. Its actual materialized size is recorded in the session's
    /// [`crate::context::RuntimeStats`] so later broadcast decisions use
    /// the measured bytes, not the registration-time estimate.
    pub build_stats: Option<StatsTarget>,
    pub out_schema: Arc<Schema>,
}

impl ExecPlan for BroadcastHashJoinExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        // Children first so the operator span covers only the join's own
        // build/broadcast/probe work.
        let build_parts = self.build.execute(ctx)?;
        let probe_parts = self.probe.execute(ctx)?;
        let build_rows_in = count_rows(&build_parts);
        let rows_in = build_rows_in + count_rows(&probe_parts);
        if let Some(target) = &self.build_stats {
            ctx.runtime_stats()
                .record(target, build_rows_in, parts_bytes(&build_parts));
        }
        let (build_key, probe_key, build_is_left) =
            (self.build_key, self.probe_key, self.build_is_left);
        observe_operator(ctx, "join.broadcast", rows_in, || {
            broadcast_hash_core(
                ctx,
                build_parts,
                probe_parts,
                build_key,
                probe_key,
                build_is_left,
            )
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!(
                "BroadcastHashJoin [build={}]",
                if self.build_is_left { "left" } else { "right" }
            ),
            &[self.build.as_ref(), self.probe.as_ref()],
        )
    }
}

/// Key rows by their join-key hash for the exchange; null keys dropped.
pub(crate) fn keyed(parts: Partitions, key: usize) -> Vec<Vec<(u64, Row)>> {
    parts
        .into_iter()
        .map(|rows| {
            rows.into_iter()
                .filter(|r| !r[key].is_null())
                .map(|r| (r[key].key_hash(), r))
                .collect()
        })
        .collect()
}

/// Per-partition build + probe over already-shuffled sides: the
/// shuffled-hash reduce body of the adaptive join, also used for its
/// salted join's cold keys. Output is always left ++ right.
pub(crate) fn shuffled_probe_core(
    ctx: &Arc<Context>,
    left_shuffled: Arc<Partitions>,
    right_shuffled: Arc<Partitions>,
    left_key: usize,
    right_key: usize,
    build_left: bool,
) -> Result<Partitions, ExecError> {
    let p = left_shuffled.len();
    assert_eq!(p, right_shuffled.len());
    let probe_ns = ctx.cluster().registry().counter("phase.probe_ns");
    let probed = probe_ns.time(|| {
        ctx.cluster().run_stage_partitions(p, move |tc| {
            let (build_rows, probe_rows, build_key, probe_key) = if build_left {
                (
                    &left_shuffled[tc.partition],
                    &right_shuffled[tc.partition],
                    left_key,
                    right_key,
                )
            } else {
                (
                    &right_shuffled[tc.partition],
                    &left_shuffled[tc.partition],
                    right_key,
                    left_key,
                )
            };
            let table = build_table(build_rows.iter().cloned(), build_key, build_rows.len());
            let mut out = Vec::new();
            for probe_row in probe_rows {
                if let Some(matches) = table.get(KeyWrap::from_ref(&probe_row[probe_key])) {
                    for build_row in matches {
                        out.push(if build_left {
                            joined(build_row, probe_row)
                        } else {
                            joined(probe_row, build_row)
                        });
                    }
                }
            }
            out
        })
    });
    probed.map_err(ExecError::from)
}

fn cmp_vals(a: &Value, b: &Value) -> std::cmp::Ordering {
    a.sql_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// The sort-merge reduce body over already-shuffled sides: sort each
/// partition by key and merge equal runs. The adaptive join's sort-merge
/// flavor (a `prefer_sort_merge` session) runs it when no demotion or
/// salting applies. Output is always left ++ right.
pub(crate) fn sort_merge_probe_core(
    ctx: &Arc<Context>,
    left_shuffled: Arc<Partitions>,
    right_shuffled: Arc<Partitions>,
    left_key: usize,
    right_key: usize,
) -> Result<Partitions, ExecError> {
    let p = left_shuffled.len();
    assert_eq!(p, right_shuffled.len());
    let probe_ns = ctx.cluster().registry().counter("phase.probe_ns");
    let probed = probe_ns.time(|| {
        let ls = Arc::clone(&left_shuffled);
        let rs = Arc::clone(&right_shuffled);
        ctx.cluster().run_stage_partitions(p, move |tc| {
            // Sort both sides by key (the "build" analogue).
            let mut left: Vec<&Row> = ls[tc.partition].iter().collect();
            let mut right: Vec<&Row> = rs[tc.partition].iter().collect();
            left.sort_by(|a, b| cmp_vals(&a[left_key], &b[left_key]));
            right.sort_by(|a, b| cmp_vals(&a[right_key], &b[right_key]));

            // Merge equal runs.
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < left.len() && j < right.len() {
                match cmp_vals(&left[i][left_key], &right[j][right_key]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        // Find the extent of the equal run on both sides.
                        let key = &left[i][left_key];
                        let i_end = (i..left.len())
                            .find(|&x| !left[x][left_key].sql_eq(key))
                            .unwrap_or(left.len());
                        let j_end = (j..right.len())
                            .find(|&x| !right[x][right_key].sql_eq(key))
                            .unwrap_or(right.len());
                        for l in &left[i..i_end] {
                            for r in &right[j..j_end] {
                                out.push(joined(l, r));
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
            }
            out
        })
    });
    probed.map_err(ExecError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::context::ExecConfig;
    use crate::physical::adaptive::AdaptiveJoinExec;
    use crate::physical::gather;
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field};
    use sparklet::{Cluster, ClusterConfig};

    fn left_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::nullable("k", DataType::Int64),
            Field::new("lval", DataType::Utf8),
        ])
    }

    fn right_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::nullable("k", DataType::Int64),
            Field::new("rval", DataType::Int64),
        ])
    }

    /// Left: keys 0..20 twice (40 rows) plus a null-key row.
    fn left_rows() -> Vec<Row> {
        let mut rows: Vec<Row> = (0..40)
            .map(|i| vec![Value::Int64(i % 20), Value::Utf8(format!("L{i}"))])
            .collect();
        rows.push(vec![Value::Null, Value::Utf8("null-key".into())]);
        rows
    }

    /// Right: keys 10..30 (20 rows) plus a null-key row.
    fn right_rows() -> Vec<Row> {
        let mut rows: Vec<Row> = (10..30)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 100)])
            .collect();
        rows.push(vec![Value::Null, Value::Int64(-1)]);
        rows
    }

    /// Reference nested-loop join (left ++ right column order).
    fn nested_loop(left: &[Row], right: &[Row]) -> Vec<Row> {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                if l[0].sql_eq(&r[0]) {
                    out.push(joined(l, r));
                }
            }
        }
        out
    }

    fn expected() -> Vec<Row> {
        nested_loop(&left_rows(), &right_rows())
    }

    type JoinFixture = (
        Arc<Context>,
        Arc<dyn ExecPlan>,
        Arc<dyn ExecPlan>,
        Arc<Schema>,
    );

    fn setup() -> JoinFixture {
        let lt = Arc::new(ColumnarTable::from_rows(left_schema(), left_rows(), 3));
        let rt = Arc::new(ColumnarTable::from_rows(right_schema(), right_rows(), 2));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let ls: Arc<dyn ExecPlan> = Arc::new(ProviderScanExec::new(lt, "l"));
        let rs: Arc<dyn ExecPlan> = Arc::new(ProviderScanExec::new(rt, "r"));
        let out_schema = left_schema().join(&right_schema());
        (ctx, ls, rs, out_schema)
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    #[test]
    fn broadcast_hash_join_matches_reference() {
        let (ctx, ls, rs, schema) = setup();
        // Build on the right (smaller) side.
        let j = BroadcastHashJoinExec {
            build: rs,
            probe: ls,
            build_key: 0,
            probe_key: 0,
            build_is_left: false,
            build_stats: None,
            out_schema: schema,
        };
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(got.len(), 20, "10..20 twice on the left");
        assert_eq!(sorted(got), sorted(expected()));
        let r = ctx.cluster().registry();
        assert!(r.counter_value("phase.build_ns") > 0 && r.counter_value("phase.probe_ns") > 0);
        assert!(r.counter_value("broadcast.bytes") > 0);
    }

    #[test]
    fn broadcast_join_build_left_order() {
        let (ctx, ls, rs, schema) = setup();
        let j = BroadcastHashJoinExec {
            build: ls,
            probe: rs,
            build_key: 0,
            probe_key: 0,
            build_is_left: true,
            build_stats: None,
            out_schema: schema,
        };
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(
            sorted(got),
            sorted(expected()),
            "column order is left++right"
        );
    }

    /// A shuffled join the way the planner emits it: the adaptive join
    /// under a zero broadcast threshold (nothing demotes or salts a
    /// non-empty build side), with the hash or sort-merge reduce body.
    fn shuffled_join(
        left: Arc<dyn ExecPlan>,
        right: Arc<dyn ExecPlan>,
        sort_merge: bool,
    ) -> (Arc<Context>, AdaptiveJoinExec) {
        let ctx = Context::with_config(
            Cluster::new(ClusterConfig::test_small()),
            ExecConfig {
                broadcast_threshold_bytes: 0,
                ..ExecConfig::default()
            },
        );
        let out_schema = left.schema().join(&right.schema());
        let join = AdaptiveJoinExec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_stats: None,
            right_stats: None,
            sort_merge,
            out_schema,
        };
        (ctx, join)
    }

    #[test]
    fn shuffled_joins_match_reference() {
        for sort_merge in [false, true] {
            let (_, ls, rs, _) = setup();
            let (ctx, j) = shuffled_join(ls, rs, sort_merge);
            let got = gather(j.execute(&ctx).unwrap());
            assert_eq!(sorted(got), sorted(expected()), "sort_merge={sort_merge}");
            let reg = ctx.cluster().registry();
            assert!(
                reg.counter_value("shuffle.rows") > 0,
                "shuffled join must shuffle"
            );
            assert_eq!(reg.counter_value("adaptive.join_demotions"), 0);
            assert_eq!(reg.counter_value("adaptive.salted_joins"), 0);
        }
    }

    #[test]
    fn shuffled_joins_build_on_either_side() {
        // The build side is the one that measures smaller: the right side
        // here, the left side once the inputs are swapped. Column order is
        // left ++ right either way.
        for sort_merge in [false, true] {
            let (_, ls, rs, _) = setup();
            let (ctx, j) = shuffled_join(Arc::clone(&rs), Arc::clone(&ls), sort_merge);
            assert_eq!(
                sorted(gather(j.execute(&ctx).unwrap())),
                sorted(nested_loop(&right_rows(), &left_rows())),
                "build left, sort_merge={sort_merge}"
            );
            let (ctx, j) = shuffled_join(ls, rs, sort_merge);
            assert_eq!(
                sorted(gather(j.execute(&ctx).unwrap())),
                sorted(expected()),
                "build right, sort_merge={sort_merge}"
            );
        }
    }

    #[test]
    fn duplicate_keys_on_both_sides_cross_product() {
        // 3 left × 2 right rows with the same key → 6 output rows.
        let ls_rows: Vec<Row> = (0..3)
            .map(|i| vec![Value::Int64(7), Value::Utf8(format!("l{i}"))])
            .collect();
        let rs_rows: Vec<Row> = (0..2)
            .map(|i| vec![Value::Int64(7), Value::Int64(i)])
            .collect();
        let lt = Arc::new(ColumnarTable::from_rows(left_schema(), ls_rows, 2));
        let rt = Arc::new(ColumnarTable::from_rows(right_schema(), rs_rows, 1));
        for sort_merge in [true, false] {
            let (ctx, j) = shuffled_join(
                Arc::new(ProviderScanExec::new(lt.clone(), "l")),
                Arc::new(ProviderScanExec::new(rt.clone(), "r")),
                sort_merge,
            );
            assert_eq!(gather(j.execute(&ctx).unwrap()).len(), 6);
        }
    }

    #[test]
    fn empty_sides() {
        let lt = Arc::new(ColumnarTable::from_rows(left_schema(), Vec::new(), 2));
        let rt = Arc::new(ColumnarTable::from_rows(right_schema(), right_rows(), 2));
        for sort_merge in [false, true] {
            let (ctx, j) = shuffled_join(
                Arc::new(ProviderScanExec::new(lt.clone(), "l")),
                Arc::new(ProviderScanExec::new(rt.clone(), "r")),
                sort_merge,
            );
            assert!(gather(j.execute(&ctx).unwrap()).is_empty());
        }
    }
}
