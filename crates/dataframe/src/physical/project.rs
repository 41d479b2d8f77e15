//! Projection: compute output columns from each input row.

use crate::context::Context;
use crate::expr::BoundExpr;
use crate::physical::{
    count_path, count_rows, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use rowstore::Schema;
use std::sync::Arc;

pub struct ProjectExec {
    pub input: Arc<dyn ExecPlan>,
    pub exprs: Vec<BoundExpr>,
    pub out_schema: Arc<Schema>,
}

impl ExecPlan for ProjectExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let inputs = Arc::new(self.input.execute(ctx)?);
        let exprs = self.exprs.clone();
        let inputs2 = Arc::clone(&inputs);
        count_path(ctx, false);
        observe_operator(ctx, "project", count_rows(&inputs), || {
            Ok(ctx
                .cluster()
                .run_stage_partitions(inputs.len(), move |tc| {
                    inputs2[tc.partition]
                        .iter()
                        .map(|r| exprs.iter().map(|e| e.eval_row(r)).collect())
                        .collect()
                })?)
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!("Project [{} exprs]", self.exprs.len()),
            &[self.input.as_ref()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::expr::{col, lit};
    use crate::physical::gather;
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field, Row, Value};
    use sparklet::{Cluster, ClusterConfig};

    #[test]
    fn computes_expressions() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 2)])
            .collect();
        let table = Arc::new(ColumnarTable::from_rows(Arc::clone(&schema), rows, 2));
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let scan = Arc::new(ProviderScanExec::new(table, "t"));
        let exprs = vec![
            BoundExpr::bind(&col("a").add(col("b")), &schema).unwrap(),
            BoundExpr::bind(&lit(1i64), &schema).unwrap(),
        ];
        let out_schema = Schema::new(vec![
            Field::new("sum", DataType::Int64),
            Field::new("one", DataType::Int64),
        ]);
        let p = ProjectExec {
            input: scan,
            exprs,
            out_schema,
        };
        let rows = gather(p.execute(&ctx).unwrap());
        assert_eq!(rows.len(), 10);
        for r in &rows {
            let a_plus_b = r[0].as_i64().unwrap();
            assert_eq!(a_plus_b % 3, 0, "a + 2a is divisible by 3");
            assert_eq!(r[1], Value::Int64(1));
        }
    }
}
