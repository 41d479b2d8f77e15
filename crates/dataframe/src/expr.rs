//! Expressions: the building blocks of filters, projections and join keys.
//!
//! Unresolved [`Expr`]s reference columns by name (what the SQL parser and
//! the DataFrame API produce); binding against a schema yields a
//! [`BoundExpr`] that evaluates positionally against materialized rows,
//! encoded rows or (through the batch kernels of [`crate::vector`])
//! columnar partitions. Comparison and logical operators follow SQL
//! three-valued logic (nulls propagate; filters keep only `TRUE`).

use crate::column::ColumnarPartition;
use crate::vector::{batch_kind, Kind};
use rowstore::{Schema, Value};
use std::cmp::Ordering;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// An unresolved expression tree (columns by name).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Col(String),
    Lit(Value),
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    IsNotNull(Box<Expr>),
}

/// Reference a column by name.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// A literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

macro_rules! expr_binop {
    ($name:ident, $op:expr) => {
        pub fn $name(self, rhs: Expr) -> Expr {
            Expr::Binary {
                left: Box::new(self),
                op: $op,
                right: Box::new(rhs),
            }
        }
    };
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div build Expr trees, not arithmetic
impl Expr {
    expr_binop!(eq, BinOp::Eq);
    expr_binop!(not_eq, BinOp::NotEq);
    expr_binop!(lt, BinOp::Lt);
    expr_binop!(lt_eq, BinOp::LtEq);
    expr_binop!(gt, BinOp::Gt);
    expr_binop!(gt_eq, BinOp::GtEq);
    expr_binop!(and, BinOp::And);
    expr_binop!(or, BinOp::Or);
    expr_binop!(add, BinOp::Add);
    expr_binop!(sub, BinOp::Sub);
    expr_binop!(mul, BinOp::Mul);
    expr_binop!(div, BinOp::Div);

    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Fold constant subtrees (`1 + 2` → `3`). One of the stock Catalyst
    /// optimizations the paper's rules coexist with.
    pub fn fold(self) -> Expr {
        match self {
            Expr::Binary { left, op, right } => {
                let left = left.fold();
                let right = right.fold();
                if let (Expr::Lit(l), Expr::Lit(r)) = (&left, &right) {
                    return Expr::Lit(eval_binary(l.clone(), op, r.clone()));
                }
                Expr::Binary {
                    left: Box::new(left),
                    op,
                    right: Box::new(right),
                }
            }
            Expr::Not(e) => {
                let e = e.fold();
                // A non-boolean literal stays unfolded, so binding rejects it.
                if let Expr::Lit(v @ (Value::Bool(_) | Value::Null)) = &e {
                    return Expr::Lit(eval_not(v.clone()));
                }
                Expr::Not(Box::new(e))
            }
            Expr::IsNull(e) => {
                let e = e.fold();
                if let Expr::Lit(v) = &e {
                    return Expr::Lit(Value::Bool(v.is_null()));
                }
                Expr::IsNull(Box::new(e))
            }
            Expr::IsNotNull(e) => {
                let e = e.fold();
                if let Expr::Lit(v) = &e {
                    return Expr::Lit(Value::Bool(!v.is_null()));
                }
                Expr::IsNotNull(Box::new(e))
            }
            other => other,
        }
    }

    /// Column names referenced by this expression.
    pub fn referenced(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(n) => {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced(out);
                right.referenced(out);
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => e.referenced(out),
        }
    }

    /// If this is `col = literal` (either order), return (name, value).
    /// The shape the paper's index-lookup rule recognizes.
    pub fn as_eq_literal(&self) -> Option<(&str, &Value)> {
        if let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = self
        {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Col(n), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(n)) => {
                    return Some((n, v));
                }
                _ => {}
            }
        }
        None
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
        }
    }
}

/// Errors from binding, planning, or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    UnknownColumn(String),
    UnknownTable(String),
    Parse(String),
    Unsupported(String),
    /// Physical execution failed (a stage exhausted its task retries).
    Exec(crate::physical::ExecError),
    /// The table cannot be deregistered while a running query pins it.
    TablePinned(String),
    /// The table cannot be untracked while a registered standing view
    /// reads it.
    TableReadByView {
        table: String,
        view: String,
    },
    /// The admission controller rejected the submission (queue full, or
    /// cancelled while waiting for a slot).
    Admission(String),
    /// The session driver itself failed (e.g. a panic escaped query
    /// execution); carries the rendered panic payload. The query's
    /// resources (admission slot, table pins) are still released.
    Internal(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            PlanError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            PlanError::Parse(m) => write!(f, "SQL parse error: {m}"),
            PlanError::Unsupported(m) => write!(f, "unsupported: {m}"),
            PlanError::Exec(e) => write!(f, "{e}"),
            PlanError::TablePinned(t) => {
                write!(f, "table {t} is pinned by a running query")
            }
            PlanError::TableReadByView { table, view } => {
                write!(f, "table {table} is read by standing view {view}")
            }
            PlanError::Admission(m) => write!(f, "admission rejected: {m}"),
            PlanError::Internal(m) => write!(f, "internal driver error: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<crate::physical::ExecError> for PlanError {
    fn from(e: crate::physical::ExecError) -> Self {
        PlanError::Exec(e)
    }
}

impl From<sparklet::StageError> for PlanError {
    fn from(e: sparklet::StageError) -> Self {
        PlanError::Exec(crate::physical::ExecError::Stage(e))
    }
}

/// A schema-resolved expression evaluating by column position.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Binary {
        left: Box<BoundExpr>,
        op: BinOp,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    IsNotNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// Resolve `expr` against `schema`. `NOT` over an operand that is
    /// statically neither boolean nor null is rejected with
    /// [`PlanError::Unsupported`], so every bound expression is covered by
    /// the batch kernels and no evaluator meets a non-boolean `NOT`.
    pub fn bind(expr: &Expr, schema: &Schema) -> Result<BoundExpr, PlanError> {
        Ok(match expr {
            Expr::Col(name) => BoundExpr::Col(
                schema
                    .index_of(name)
                    .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?,
            ),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(BoundExpr::bind(left, schema)?),
                op: *op,
                right: Box::new(BoundExpr::bind(right, schema)?),
            },
            Expr::Not(e) => {
                let operand = BoundExpr::bind(e, schema)?;
                if !matches!(batch_kind(&operand, schema), Kind::Bool | Kind::Null) {
                    return Err(PlanError::Unsupported(format!(
                        "NOT applied to non-boolean operand {e}"
                    )));
                }
                BoundExpr::Not(Box::new(operand))
            }
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(BoundExpr::bind(e, schema)?)),
            Expr::IsNotNull(e) => BoundExpr::IsNotNull(Box::new(BoundExpr::bind(e, schema)?)),
        })
    }

    /// Evaluate against a materialized row.
    pub fn eval_row(&self, row: &[Value]) -> Value {
        match self {
            BoundExpr::Col(i) => row[*i].clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Binary { left, op, right } => {
                eval_binary(left.eval_row(row), *op, right.eval_row(row))
            }
            BoundExpr::Not(e) => eval_not(e.eval_row(row)),
            BoundExpr::IsNull(e) => Value::Bool(e.eval_row(row).is_null()),
            BoundExpr::IsNotNull(e) => Value::Bool(!e.eval_row(row).is_null()),
        }
    }

    /// Evaluate against a codec-encoded row, decoding only the referenced
    /// columns (the row-store filter fast path: no full materialization).
    pub fn eval_encoded(&self, schema: &Schema, bytes: &[u8]) -> Value {
        match self {
            BoundExpr::Col(i) => {
                rowstore::codec::decode_column(schema, bytes, *i).unwrap_or(Value::Null)
            }
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Binary { left, op, right } => eval_binary(
                left.eval_encoded(schema, bytes),
                *op,
                right.eval_encoded(schema, bytes),
            ),
            BoundExpr::Not(e) => eval_not(e.eval_encoded(schema, bytes)),
            BoundExpr::IsNull(e) => Value::Bool(e.eval_encoded(schema, bytes).is_null()),
            BoundExpr::IsNotNull(e) => Value::Bool(!e.eval_encoded(schema, bytes).is_null()),
        }
    }

    /// Whether the value is SQL-true (filters keep only these rows).
    #[inline]
    pub fn is_true(v: &Value) -> bool {
        matches!(v, Value::Bool(true))
    }

    /// Vectorized evaluation: one dense output slot per row selected by
    /// `sel`, computed by typed batch kernels instead of a per-row tree
    /// walk. Semantics match `eval_row` exactly (see [`crate::vector`]).
    pub fn eval_batch(
        &self,
        part: &ColumnarPartition,
        sel: &crate::vector::SelVec,
    ) -> crate::column::ColumnVec {
        crate::vector::eval_batch(self, part, sel)
    }
}

/// SQL `NOT`. Binding and folding never hand it a non-boolean value, so
/// the panic arm marks a bug, not bad input.
fn eval_not(v: Value) -> Value {
    match v {
        Value::Bool(b) => Value::Bool(!b),
        Value::Null => Value::Null,
        other => panic!("NOT applied to non-boolean {other:?}"),
    }
}

/// SQL-semantics binary evaluation (null-propagating, 3VL for AND/OR).
pub fn eval_binary(l: Value, op: BinOp, r: Value) -> Value {
    use BinOp::*;
    match op {
        And => match (l.as_bool(), r.as_bool()) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        Or => match (l.as_bool(), r.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        Eq | NotEq | Lt | LtEq | Gt | GtEq => match l.sql_cmp(&r) {
            None => Value::Null,
            Some(ord) => Value::Bool(match op {
                Eq => ord == Ordering::Equal,
                NotEq => ord != Ordering::Equal,
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            }),
        },
        Add | Sub | Mul | Div => arith(l, op, r),
    }
}

fn arith(l: Value, op: BinOp, r: Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Float if either side is float; otherwise integer.
    let float = matches!(l, Value::Float64(_)) || matches!(r, Value::Float64(_));
    if float {
        let (a, b) = match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Value::Null,
        };
        Value::Float64(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            _ => unreachable!(),
        })
    } else {
        let (a, b) = match (l.as_i64(), r.as_i64()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Value::Null,
        };
        if matches!(op, BinOp::Div) && b == 0 {
            return Value::Null;
        }
        Value::Int64(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a / b,
            _ => unreachable!(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowstore::{DataType, Field};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::nullable("c", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int64(10),
            Value::Int64(3),
            Value::Null,
            Value::Utf8("hi".into()),
        ]
    }

    fn eval(e: Expr) -> Value {
        BoundExpr::bind(&e, &schema()).unwrap().eval_row(&row())
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval(col("a").gt(lit(5i64))), Value::Bool(true));
        assert_eq!(eval(col("a").lt(col("b"))), Value::Bool(false));
        assert_eq!(eval(col("s").eq(lit("hi"))), Value::Bool(true));
        assert_eq!(
            eval(col("c").eq(lit(0.0))),
            Value::Null,
            "null comparison is null"
        );
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
        assert_eq!(
            eval(col("c").is_null().and(col("a").eq(lit(10i64)))),
            Value::Bool(true)
        );
        assert_eq!(
            eval(col("c").eq(lit(1.0)).and(lit(false))),
            Value::Bool(false)
        );
        assert_eq!(eval(col("c").eq(lit(1.0)).and(lit(true))), Value::Null);
        assert_eq!(eval(col("c").eq(lit(1.0)).or(lit(true))), Value::Bool(true));
        assert_eq!(eval(col("c").eq(lit(1.0)).not()), Value::Null);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval(col("a").add(col("b"))), Value::Int64(13));
        assert_eq!(eval(col("a").div(col("b"))), Value::Int64(3));
        assert_eq!(
            eval(col("a").div(lit(0i64))),
            Value::Null,
            "div by zero → null"
        );
        assert_eq!(eval(col("a").mul(lit(2.5))), Value::Float64(25.0));
        assert_eq!(eval(col("c").add(lit(1i64))), Value::Null);
    }

    #[test]
    fn null_checks() {
        assert_eq!(eval(col("c").is_null()), Value::Bool(true));
        assert_eq!(eval(col("a").is_not_null()), Value::Bool(true));
    }

    #[test]
    fn binding_unknown_column_fails() {
        let err = BoundExpr::bind(&col("zzz"), &schema()).unwrap_err();
        assert_eq!(err, PlanError::UnknownColumn("zzz".into()));
    }

    #[test]
    fn constant_folding() {
        let folded = lit(1i64).add(lit(2i64)).mul(lit(3i64)).fold();
        assert_eq!(folded, Expr::Lit(Value::Int64(9)));
        // Non-constant parts survive.
        let folded = col("a").add(lit(1i64).add(lit(1i64))).fold();
        assert_eq!(folded, col("a").add(lit(2i64)));
    }

    #[test]
    fn eq_literal_detection() {
        let e = col("k").eq(lit(5i64));
        let (n, v) = e.as_eq_literal().unwrap();
        assert_eq!(n, "k");
        assert_eq!(v, &Value::Int64(5));
        // Reversed order too.
        let e = lit(5i64).eq(col("k"));
        assert!(e.as_eq_literal().is_some());
        // Non-eq shapes do not match.
        assert!(col("k").gt(lit(5i64)).as_eq_literal().is_none());
    }

    #[test]
    fn not_binds_only_over_boolean_or_null_operands() {
        let s = schema();
        // `NOT 5` survives folding unfolded, so binding rejects it too.
        for e in [col("a").not(), col("s").not(), lit(5i64).not().fold()] {
            let err = BoundExpr::bind(&e, &s).unwrap_err();
            assert!(matches!(err, PlanError::Unsupported(_)), "{e}: {err:?}");
        }
        // A statically null operand binds and yields NULL.
        assert_eq!(eval(col("a").add(col("s")).not()), Value::Null);
        assert_eq!(eval(col("c").is_null().not()), Value::Bool(false));
    }

    #[test]
    fn batch_eval_matches_row_eval() {
        let s = schema();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(i % 5),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64)
                    },
                    Value::Utf8(format!("s{i}")),
                ]
            })
            .collect();
        let part = ColumnarPartition::from_rows(&s, &rows);
        let exprs = vec![
            col("a").gt(lit(7i64)),
            col("b").eq(lit(2i64)).and(col("c").is_not_null()),
            col("a").add(col("b")).mul(lit(2i64)),
            col("s").eq(lit("s4")),
        ];
        for e in exprs {
            let b = BoundExpr::bind(&e, &s).unwrap();
            let out = b.eval_batch(&part, &crate::vector::SelVec::identity(rows.len()));
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(b.eval_row(r), out.value(i), "expr {e} row {i}");
            }
        }
    }

    #[test]
    fn display_renders() {
        let e = col("a").gt(lit(5i64)).and(col("s").eq(lit("x")));
        assert_eq!(e.to_string(), "((a > 5) AND (s = x))");
    }
}
