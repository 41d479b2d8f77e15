//! Hash aggregation: per-partition partial aggregation on the cluster,
//! followed by a driver-side final merge (Spark's partial/final two-phase
//! aggregate).
//!
//! Phase 1 has two implementations sharing one group table: a vectorized
//! path that consumes columnar partitions directly (group hashes from
//! column slices, typed accumulator updates, no per-row `GroupKey`
//! materialization) and the row fallback. Both probe an open-addressed
//! index keyed by the group hash and clone key values only when a group is
//! first seen, so the common case — a row landing in an existing group —
//! allocates nothing.

use crate::column::{ColumnVec, ColumnarPartition};
use crate::context::Context;
use crate::physical::{
    count_path, count_rows, describe_node, observe_operator, ExecError, ExecPlan, GroupKey,
    Partitions,
};
use crate::plan::AggFunc;
use rowstore::{Row, Schema, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A bound aggregate: function plus input column index (None = COUNT(*)).
#[derive(Debug, Clone, Copy)]
pub struct BoundAgg {
    pub func: AggFunc,
    pub input: Option<usize>,
}

/// Mergeable accumulator state. Public so incremental view maintenance
/// (the indexed-df standing-view layer) can absorb insert-only deltas into
/// the exact accumulators the batch engine uses — COUNT/SUM/MIN/MAX/AVG
/// all accept new rows in place via [`Acc::update`].
#[derive(Debug, Clone)]
pub enum Acc {
    Count(i64),
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        seen: bool,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
}

impl Acc {
    pub fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                float: 0.0,
                any_float: false,
                seen: false,
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
        }
    }

    pub fn update(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) counts non-nulls.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            Acc::Sum {
                int,
                float,
                any_float,
                seen,
            } => {
                if let Some(val) = v {
                    match val {
                        Value::Float64(f) => {
                            *float += f;
                            *any_float = true;
                            *seen = true;
                        }
                        Value::Int32(_) | Value::Int64(_) => {
                            *int += val.as_i64().unwrap();
                            *seen = true;
                        }
                        _ => {}
                    }
                }
            }
            Acc::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| val.sql_cmp(c) == Some(Ordering::Less))
                    {
                        *cur = Some(val.clone());
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| val.sql_cmp(c) == Some(Ordering::Greater))
                    {
                        *cur = Some(val.clone());
                    }
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *sum += f;
                        *count += 1;
                    }
                }
            }
        }
    }

    /// Vectorized update: read slot `i` of a column slice directly, without
    /// materializing a [`Value`] except when a new MIN/MAX extremum must be
    /// retained.
    fn update_from_col(&mut self, col: &ColumnVec, i: usize) {
        match self {
            Acc::Count(n) => {
                if !col.null_at(i) {
                    *n += 1;
                }
            }
            Acc::Sum {
                int,
                float,
                any_float,
                seen,
            } => match col {
                ColumnVec::Float64 { values, nulls } if !nulls[i] => {
                    *float += values[i];
                    *any_float = true;
                    *seen = true;
                }
                ColumnVec::Int64 { values, nulls } if !nulls[i] => {
                    *int += values[i];
                    *seen = true;
                }
                ColumnVec::Int32 { values, nulls } if !nulls[i] => {
                    *int += values[i] as i64;
                    *seen = true;
                }
                _ => {}
            },
            // cmp_value orders col[i] relative to the current extremum, so
            // Less/Greater read exactly as the row path's val.sql_cmp(cur).
            Acc::Min(cur) => {
                if !col.null_at(i)
                    && cur
                        .as_ref()
                        .is_none_or(|c| col.cmp_value(i, c) == Some(Ordering::Less))
                {
                    *cur = Some(col.value(i));
                }
            }
            Acc::Max(cur) => {
                if !col.null_at(i)
                    && cur
                        .as_ref()
                        .is_none_or(|c| col.cmp_value(i, c) == Some(Ordering::Greater))
                {
                    *cur = Some(col.value(i));
                }
            }
            Acc::Avg { sum, count } => {
                if let Some(f) = col.f64_at(i) {
                    *sum += f;
                    *count += 1;
                }
            }
        }
    }

    pub fn merge(&mut self, other: &Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (
                Acc::Sum {
                    int: ai,
                    float: af,
                    any_float: aaf,
                    seen: asn,
                },
                Acc::Sum {
                    int: bi,
                    float: bf,
                    any_float: baf,
                    seen: bsn,
                },
            ) => {
                *ai += bi;
                *af += bf;
                *aaf |= baf;
                *asn |= bsn;
            }
            (Acc::Min(a), Acc::Min(Some(b))) => {
                if a.as_ref()
                    .is_none_or(|c| b.sql_cmp(c) == Some(Ordering::Less))
                {
                    *a = Some(b.clone());
                }
            }
            (Acc::Max(a), Acc::Max(Some(b))) => {
                if a.as_ref()
                    .is_none_or(|c| b.sql_cmp(c) == Some(Ordering::Greater))
                {
                    *a = Some(b.clone());
                }
            }
            (Acc::Min(_), Acc::Min(None)) | (Acc::Max(_), Acc::Max(None)) => {}
            (
                Acc::Avg {
                    sum: asum,
                    count: ac,
                },
                Acc::Avg {
                    sum: bsum,
                    count: bc,
                },
            ) => {
                *asum += bsum;
                *ac += bc;
            }
            _ => unreachable!("merging mismatched accumulators"),
        }
    }

    pub fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int64(*n),
            Acc::Sum {
                int,
                float,
                any_float,
                seen,
            } => {
                if !*seen {
                    Value::Null
                } else if *any_float {
                    Value::Float64(*float + *int as f64)
                } else {
                    Value::Int64(*int)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
        }
    }
}

/// Seed of [`rowstore::rows_key_hash`], replicated so the columnar path can
/// fold per-column [`ColumnVec::key_hash_at`] hashes with the identical
/// combine and land in the same buckets as row-built keys.
const GROUP_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Don't reserve more group slots up front than this, however large the
/// partition — high-cardinality inputs grow organically past it.
const GROUP_PRESIZE_CAP: usize = 1 << 14;

/// Partial-aggregation hash table: groups indexed by key hash, with key
/// values cloned only when a group is first created. Dense `keys`/`accs`
/// vectors keep accumulator updates off the map entirely once a group's
/// slot is known.
struct GroupTable {
    map: HashMap<u64, Vec<u32>>,
    keys: Vec<GroupKey>,
    accs: Vec<Vec<Acc>>,
}

impl GroupTable {
    fn with_capacity(cap: usize) -> GroupTable {
        GroupTable {
            map: HashMap::with_capacity(cap),
            keys: Vec::with_capacity(cap),
            accs: Vec::with_capacity(cap),
        }
    }

    /// Find the slot for the group with hash `h`, or create one. `eq` tests
    /// a candidate stored key against the probing row; `make_key`
    /// materializes the key only if the group is new.
    fn slot(
        &mut self,
        h: u64,
        aggs: &[BoundAgg],
        eq: impl Fn(&GroupKey) -> bool,
        make_key: impl FnOnce() -> GroupKey,
    ) -> usize {
        if let Some(bucket) = self.map.get(&h) {
            for &gi in bucket {
                if eq(&self.keys[gi as usize]) {
                    return gi as usize;
                }
            }
        }
        let gi = self.keys.len() as u32;
        self.map.entry(h).or_default().push(gi);
        self.keys.push(make_key());
        self.accs
            .push(aggs.iter().map(|a| Acc::new(a.func)).collect());
        gi as usize
    }

    fn into_pairs(self) -> Vec<(GroupKey, Vec<Acc>)> {
        self.keys.into_iter().zip(self.accs).collect()
    }
}

/// Row-path phase 1 (fallback when the input is not columnar).
fn partial_from_rows(
    rows: &[Row],
    group_by: &[usize],
    aggs: &[BoundAgg],
) -> Vec<(GroupKey, Vec<Acc>)> {
    let mut table = GroupTable::with_capacity(rows.len().min(GROUP_PRESIZE_CAP));
    for row in rows {
        let mut h = GROUP_HASH_SEED;
        for &gi in group_by {
            h = h.rotate_left(13) ^ row[gi].key_hash();
        }
        let slot = table.slot(
            h,
            aggs,
            |k| {
                k.0.iter().zip(group_by).all(|(kv, &ci)| {
                    // Group-by treats NULL as its own group.
                    (kv.is_null() && row[ci].is_null()) || kv.sql_eq(&row[ci])
                })
            },
            || GroupKey(group_by.iter().map(|&i| row[i].clone()).collect()),
        );
        for (acc, spec) in table.accs[slot].iter_mut().zip(aggs) {
            acc.update(spec.input.map(|i| &row[i]));
        }
    }
    table.into_pairs()
}

/// Vectorized phase 1: hash, probe, and accumulate straight off column
/// slices. No `GroupKey` is built for rows that land in an existing group.
fn partial_from_columns(
    part: &ColumnarPartition,
    group_by: &[usize],
    aggs: &[BoundAgg],
) -> Vec<(GroupKey, Vec<Acc>)> {
    let n = part.num_rows();
    let mut table = GroupTable::with_capacity(n.min(GROUP_PRESIZE_CAP));
    let key_cols: Vec<&ColumnVec> = group_by.iter().map(|&i| part.column(i)).collect();
    let agg_cols: Vec<Option<&ColumnVec>> = aggs
        .iter()
        .map(|a| a.input.map(|i| part.column(i)))
        .collect();
    for i in 0..n {
        let mut h = GROUP_HASH_SEED;
        for c in &key_cols {
            h = h.rotate_left(13) ^ c.key_hash_at(i);
        }
        let slot = table.slot(
            h,
            aggs,
            |k| {
                k.0.iter().zip(&key_cols).all(|(kv, c)| {
                    (c.null_at(i) && kv.is_null()) || c.cmp_value(i, kv) == Some(Ordering::Equal)
                })
            },
            || GroupKey(key_cols.iter().map(|c| c.value(i)).collect()),
        );
        for (acc, col) in table.accs[slot].iter_mut().zip(&agg_cols) {
            match col {
                Some(c) => acc.update_from_col(c, i),
                None => acc.update(None), // COUNT(*)
            }
        }
    }
    table.into_pairs()
}

/// Phase 2: merge the per-partition partials on the driver and emit final
/// rows (group key columns, then one value per aggregate).
fn final_merge(partials: Vec<Vec<(GroupKey, Vec<Acc>)>>) -> Vec<Row> {
    let mut merged: HashMap<GroupKey, Vec<Acc>> = HashMap::new();
    for partial in partials {
        for (key, accs) in partial {
            match merged.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&accs) {
                        a.merge(b);
                    }
                }
            }
        }
    }
    merged
        .into_iter()
        .map(|(key, accs)| {
            let mut row = key.0;
            row.extend(accs.iter().map(|a| a.finish()));
            row
        })
        .collect()
}

pub struct HashAggExec {
    pub input: Arc<dyn ExecPlan>,
    /// Indices of group-by columns in the input schema.
    pub group_by: Vec<usize>,
    pub aggs: Vec<BoundAgg>,
    pub out_schema: Arc<Schema>,
}

impl ExecPlan for HashAggExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let group_by = self.group_by.clone();
        let aggs = self.aggs.clone();

        // Vectorized phase 1 whenever the child can hand over columnar
        // partitions (fused pipelines do); rows otherwise.
        if let Some(res) = self.input.execute_columnar(ctx) {
            let parts = Arc::new(res?);
            let rows_in = parts.iter().map(|p| p.num_rows() as u64).sum();
            let parts2 = Arc::clone(&parts);
            count_path(ctx, true);
            return observe_operator(ctx, "agg", rows_in, move || {
                let partials = ctx.cluster().run_stage_partitions(parts.len(), move |tc| {
                    partial_from_columns(&parts2[tc.partition], &group_by, &aggs)
                })?;
                Ok(vec![final_merge(partials)])
            });
        }

        let inputs = Arc::new(self.input.execute(ctx)?);
        let inputs2 = Arc::clone(&inputs);
        count_path(ctx, false);
        observe_operator(ctx, "agg", count_rows(&inputs), move || {
            let partials = ctx
                .cluster()
                .run_stage_partitions(inputs.len(), move |tc| {
                    partial_from_rows(&inputs2[tc.partition], &group_by, &aggs)
                })?;
            Ok(vec![final_merge(partials)])
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!(
                "HashAggregate [{} groups cols, {} aggs]",
                self.group_by.len(),
                self.aggs.len()
            ),
            &[self.input.as_ref()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::physical::gather;
    use crate::physical::pipeline::{ColumnarPipelineExec, Projection};
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field};
    use sparklet::{Cluster, ClusterConfig};

    fn setup() -> (Arc<Context>, Arc<dyn ExecPlan>, Arc<Schema>) {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::nullable("v", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        // 30 rows: groups 0,1,2; v = i (null when i % 5 == 0); f = i as f64.
        let rows: Vec<Row> = (0..30)
            .map(|i| {
                vec![
                    Value::Int64(i % 3),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i)
                    },
                    Value::Float64(i as f64),
                ]
            })
            .collect();
        let table = Arc::new(ColumnarTable::from_rows(Arc::clone(&schema), rows, 3));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan: Arc<dyn ExecPlan> = Arc::new(ProviderScanExec::new(table, "t"));
        (ctx, scan, schema)
    }

    fn all_aggs() -> Vec<BoundAgg> {
        vec![
            BoundAgg {
                func: AggFunc::Count,
                input: None,
            },
            BoundAgg {
                func: AggFunc::Count,
                input: Some(1),
            },
            BoundAgg {
                func: AggFunc::Sum,
                input: Some(1),
            },
            BoundAgg {
                func: AggFunc::Min,
                input: Some(1),
            },
            BoundAgg {
                func: AggFunc::Max,
                input: Some(1),
            },
            BoundAgg {
                func: AggFunc::Avg,
                input: Some(2),
            },
        ]
    }

    fn agg_out_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("cnt", DataType::Int64),
            Field::new("cnt_v", DataType::Int64),
            Field::nullable("sum_v", DataType::Int64),
            Field::nullable("min_v", DataType::Int64),
            Field::nullable("max_v", DataType::Int64),
            Field::nullable("avg_f", DataType::Float64),
        ])
    }

    #[test]
    fn grouped_aggregation() {
        let (ctx, scan, _) = setup();
        let agg = HashAggExec {
            input: scan,
            group_by: vec![0],
            aggs: all_aggs(),
            out_schema: agg_out_schema(),
        };
        let mut rows = gather(agg.execute(&ctx).unwrap());
        rows.sort_by_key(|r| r[0].as_i64().unwrap());
        assert_eq!(rows.len(), 3);
        // Group 0: i in {0,3,..,27}, 10 rows; nulls at i=0,15 → count_v=8.
        assert_eq!(rows[0][1], Value::Int64(10));
        assert_eq!(rows[0][2], Value::Int64(8));
        let expected_sum: i64 = (0..30).filter(|i| i % 3 == 0 && i % 5 != 0).sum();
        assert_eq!(rows[0][3], Value::Int64(expected_sum));
        assert_eq!(rows[0][4], Value::Int64(3)); // min non-null in group 0
        assert_eq!(rows[0][5], Value::Int64(27));
        let expected_avg = (0..30).filter(|i| i % 3 == 0).sum::<i64>() as f64 / 10.0;
        assert_eq!(rows[0][6], Value::Float64(expected_avg));
    }

    #[test]
    fn global_aggregation_no_groups() {
        let (ctx, scan, _) = setup();
        let out_schema = Schema::new(vec![Field::new("cnt", DataType::Int64)]);
        let agg = HashAggExec {
            input: scan,
            group_by: vec![],
            aggs: vec![BoundAgg {
                func: AggFunc::Count,
                input: None,
            }],
            out_schema,
        };
        let rows = gather(agg.execute(&ctx).unwrap());
        assert_eq!(rows, vec![vec![Value::Int64(30)]]);
    }

    #[test]
    fn empty_input_with_groups_yields_no_rows() {
        let schema = Schema::new(vec![Field::new("g", DataType::Int64)]);
        let table = Arc::new(ColumnarTable::from_rows(Arc::clone(&schema), Vec::new(), 2));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan: Arc<dyn ExecPlan> = Arc::new(ProviderScanExec::new(table, "t"));
        let agg = HashAggExec {
            input: scan,
            group_by: vec![0],
            aggs: vec![BoundAgg {
                func: AggFunc::Count,
                input: None,
            }],
            out_schema: Schema::new(vec![
                Field::new("g", DataType::Int64),
                Field::new("n", DataType::Int64),
            ]),
        };
        assert!(gather(agg.execute(&ctx).unwrap()).is_empty());
    }

    #[test]
    fn vectorized_phase_matches_row_path() {
        // Same aggregation, once over the row-producing scan and once over
        // a fused pipeline that yields columnar partitions; the vectorized
        // phase 1 must agree with the row fallback on every accumulator,
        // including null handling.
        let (ctx, scan, schema) = setup();
        let row_agg = HashAggExec {
            input: scan,
            group_by: vec![0],
            aggs: all_aggs(),
            out_schema: agg_out_schema(),
        };
        let mut row_out = gather(row_agg.execute(&ctx).unwrap());
        row_out.sort_by_key(|r| r[0].as_i64().unwrap());

        let rows: Vec<Row> = (0..30)
            .map(|i| {
                vec![
                    Value::Int64(i % 3),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i)
                    },
                    Value::Float64(i as f64),
                ]
            })
            .collect();
        let table = ColumnarTable::from_rows(Arc::clone(&schema), rows, 3);
        let pipeline = Arc::new(ColumnarPipelineExec::new(
            Arc::new(table),
            "t",
            None,
            Projection::All,
            schema,
        ));
        let vec_before = ctx
            .cluster()
            .registry()
            .counter_value("operator.vectorized");
        let vec_agg = HashAggExec {
            input: pipeline,
            group_by: vec![0],
            aggs: all_aggs(),
            out_schema: agg_out_schema(),
        };
        let mut vec_out = gather(vec_agg.execute(&ctx).unwrap());
        vec_out.sort_by_key(|r| r[0].as_i64().unwrap());
        assert_eq!(row_out, vec_out);
        assert!(
            ctx.cluster()
                .registry()
                .counter_value("operator.vectorized")
                > vec_before,
            "aggregation over a pipeline takes the vectorized path"
        );
    }
}
