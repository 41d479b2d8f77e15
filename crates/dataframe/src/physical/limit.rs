//! LIMIT: take the first `n` rows across partitions (in partition order).

use crate::context::Context;
use crate::physical::{
    count_rows, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use rowstore::Schema;
use std::sync::Arc;

pub struct LimitExec {
    pub input: Arc<dyn ExecPlan>,
    pub n: usize,
}

impl ExecPlan for LimitExec {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let parts = self.input.execute(ctx)?;
        let n = self.n;
        observe_operator(ctx, "limit", count_rows(&parts), move || {
            let mut remaining = n;
            let mut out = Vec::with_capacity(parts.len());
            for mut p in parts {
                // Short-circuit: once the limit is satisfied, stop
                // consuming partitions entirely (downstream sees fewer
                // partitions, not trailing empty ones).
                if remaining == 0 {
                    break;
                }
                if p.len() > remaining {
                    p.truncate(remaining);
                }
                remaining -= p.len();
                out.push(p);
            }
            Ok(out)
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(indent, &format!("Limit {}", self.n), &[self.input.as_ref()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::physical::gather;
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field, Row, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn run_limit(n: usize) -> usize {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let rows: Vec<Row> = (0..30).map(|i| vec![Value::Int64(i)]).collect();
        let table = Arc::new(ColumnarTable::from_rows(schema, rows, 4));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan = Arc::new(ProviderScanExec::new(table, "t"));
        gather(LimitExec { input: scan, n }.execute(&ctx).unwrap()).len()
    }

    #[test]
    fn limits_row_count() {
        assert_eq!(run_limit(0), 0);
        assert_eq!(run_limit(7), 7);
        assert_eq!(run_limit(30), 30);
        assert_eq!(run_limit(100), 30, "limit larger than input returns all");
    }

    #[test]
    fn short_circuits_remaining_partitions() {
        // 30 rows over 4 partitions (8+8+7+7). LIMIT 9 is satisfied inside
        // the second partition: downstream must see exactly two partitions
        // with exactly 9 rows — no trailing empties, nothing consumed past
        // the limit.
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let rows: Vec<Row> = (0..30).map(|i| vec![Value::Int64(i)]).collect();
        let table = Arc::new(ColumnarTable::from_rows(schema, rows, 4));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan = Arc::new(ProviderScanExec::new(table, "t"));
        let parts = LimitExec { input: scan, n: 9 }.execute(&ctx).unwrap();
        assert_eq!(parts.len(), 2, "partitions after the limit are dropped");
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(counts.iter().sum::<usize>(), 9);
        assert_eq!(counts[0], 8, "first partition passes through whole");
        assert_eq!(counts[1], 1, "second partition truncated at the limit");
    }
}
