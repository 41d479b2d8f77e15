//! ORDER BY: per-partition sort on workers, k-way merge on the driver.
//!
//! Spark performs a range-partitioned distributed sort; at this
//! reproduction's scale the O(n log n) comparison work is what matters, so
//! workers stable-sort their own partitions in parallel and the driver
//! only merges the sorted runs (O(total·k) comparisons for k partitions).
//! The merge breaks ties by partition index and each run is sorted stably,
//! so the total output equals a stable sort of the concatenated input —
//! rows with equal keys keep their partition-then-input order. Nulls sort
//! last regardless of direction, as in Spark's default `NULLS LAST` for
//! ascending order.

use crate::context::Context;
use crate::physical::{
    count_rows, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use rowstore::{Row, Schema, Value};
use std::cmp::Ordering;
use std::sync::Arc;

pub struct SortExec {
    pub input: Arc<dyn ExecPlan>,
    /// Column index and descending flag per sort key.
    pub keys: Vec<(usize, bool)>,
}

fn cmp_nulls_last(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.sql_cmp(b).unwrap_or(Ordering::Equal),
    }
}

fn cmp_rows(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> Ordering {
    for (col, desc) in keys {
        let ord = cmp_nulls_last(&a[*col], &b[*col]);
        // Descending reverses value order but keeps nulls last.
        let ord = if *desc && !a[*col].is_null() && !b[*col].is_null() {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

impl ExecPlan for SortExec {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let parts = self.input.execute(ctx)?;
        let keys = self.keys.clone();
        let inputs = Arc::new(parts);
        let inputs2 = Arc::clone(&inputs);
        let keys2 = keys.clone();
        observe_operator(ctx, "sort", count_rows(&inputs), move || {
            // Phase 1 (workers, parallel): stable-sort each partition as an
            // index permutation over the shared read-only snapshot.
            let perms: Vec<Vec<u32>> =
                ctx.cluster()
                    .run_stage_partitions(inputs.len(), move |tc| {
                        let rows = &inputs2[tc.partition];
                        let mut idx: Vec<u32> = (0..rows.len() as u32).collect();
                        idx.sort_by(|&a, &b| {
                            cmp_rows(&rows[a as usize], &rows[b as usize], &keys2)
                        });
                        idx
                    })?;
            // Phase 2 (driver): reclaim ownership — the stage closure is
            // dropped, so ours is the last reference — apply the
            // permutations (O(1) moves), and k-way merge the sorted runs.
            let mut parts: Partitions = Arc::try_unwrap(inputs).unwrap_or_else(|a| (*a).clone());
            let mut sorted: Vec<Vec<Row>> = parts
                .iter_mut()
                .zip(perms)
                .map(|(p, perm)| {
                    perm.into_iter()
                        .map(|i| std::mem::take(&mut p[i as usize]))
                        .collect()
                })
                .collect();
            let total = sorted.iter().map(Vec::len).sum();
            let mut cursors = vec![0usize; sorted.len()];
            let mut out = Vec::with_capacity(total);
            for _ in 0..total {
                let mut best: Option<usize> = None;
                for p in 0..sorted.len() {
                    if cursors[p] >= sorted[p].len() {
                        continue;
                    }
                    best = Some(match best {
                        None => p,
                        // Strictly-less keeps the earlier partition on
                        // ties — this is what makes the merge stable.
                        Some(b)
                            if cmp_rows(&sorted[p][cursors[p]], &sorted[b][cursors[b]], &keys)
                                == Ordering::Less =>
                        {
                            p
                        }
                        Some(b) => b,
                    });
                }
                let p = best.expect("merge ran out of rows early");
                out.push(std::mem::take(&mut sorted[p][cursors[p]]));
                cursors[p] += 1;
            }
            Ok(vec![out])
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!("Sort [{} keys]", self.keys.len()),
            &[self.input.as_ref()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::physical::gather;
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field, Row};
    use sparklet::{Cluster, ClusterConfig};

    fn run_sort(rows: Vec<Row>, keys: Vec<(usize, bool)>) -> Vec<Row> {
        let schema = Schema::new(vec![
            Field::nullable("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ]);
        let table = Arc::new(ColumnarTable::from_rows(schema, rows, 3));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan = Arc::new(ProviderScanExec::new(table, "t"));
        gather(SortExec { input: scan, keys }.execute(&ctx).unwrap())
    }

    #[test]
    fn ascending_with_nulls_last() {
        let rows = vec![
            vec![Value::Int64(3), Value::Utf8("c".into())],
            vec![Value::Null, Value::Utf8("n".into())],
            vec![Value::Int64(1), Value::Utf8("a".into())],
            vec![Value::Int64(2), Value::Utf8("b".into())],
        ];
        let sorted = run_sort(rows, vec![(0, false)]);
        let got: Vec<Option<i64>> = sorted.iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(got, vec![Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn descending_keeps_nulls_last() {
        let rows = vec![
            vec![Value::Int64(3), Value::Utf8("c".into())],
            vec![Value::Null, Value::Utf8("n".into())],
            vec![Value::Int64(1), Value::Utf8("a".into())],
        ];
        let sorted = run_sort(rows, vec![(0, true)]);
        let got: Vec<Option<i64>> = sorted.iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(got, vec![Some(3), Some(1), None]);
    }

    #[test]
    fn multi_key_tiebreak() {
        let rows = vec![
            vec![Value::Int64(1), Value::Utf8("z".into())],
            vec![Value::Int64(1), Value::Utf8("a".into())],
            vec![Value::Int64(0), Value::Utf8("m".into())],
        ];
        let sorted = run_sort(rows, vec![(0, false), (1, false)]);
        assert_eq!(sorted[0][1], Value::Utf8("m".into()));
        assert_eq!(sorted[1][1], Value::Utf8("a".into()));
        assert_eq!(sorted[2][1], Value::Utf8("z".into()));
    }

    #[test]
    fn merge_is_stable_across_partitions() {
        // Equal sort keys everywhere; payloads record (partition, pos).
        // A stable distributed sort must return them in partition order,
        // then input order — exactly what the old concat-then-stable-sort
        // produced.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
        ]);
        let parts: Vec<Vec<Row>> = (0..3)
            .map(|p| {
                (0..4)
                    .map(|i| {
                        vec![
                            Value::Int64((i % 2) as i64),
                            Value::Utf8(format!("p{p}r{i}")),
                        ]
                    })
                    .collect()
            })
            .collect();
        let table = Arc::new(ColumnarTable::from_partitions(Arc::clone(&schema), parts));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan = Arc::new(ProviderScanExec::new(table, "t"));
        let sorted = gather(
            SortExec {
                input: scan,
                keys: vec![(0, false)],
            }
            .execute(&ctx)
            .unwrap(),
        );
        let tags: Vec<&str> = sorted.iter().map(|r| r[1].as_str().unwrap()).collect();
        assert_eq!(
            tags,
            vec![
                // k=0 rows: partition order, then input order within each.
                "p0r0", "p0r2", "p1r0", "p1r2", "p2r0", "p2r2", // k=1 rows likewise.
                "p0r1", "p0r3", "p1r1", "p1r3", "p2r1", "p2r3",
            ]
        );
    }
}
