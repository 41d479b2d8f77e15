//! Vectorized expression kernels: batch-at-a-time evaluation over typed
//! column slices and a selection vector.
//!
//! The row-at-a-time interpreter (`BoundExpr::eval_row`) walks the
//! expression tree once per row, boxing every intermediate into a
//! [`Value`]. The kernels here walk the tree once per *batch*: each
//! operator node runs a tight typed loop over the rows picked out by a
//! [`SelVec`], reading column storage directly and writing dense output
//! vectors. Null handling, three-valued logic, numeric promotion and
//! division-by-zero follow `eval_binary`/`eval_not` exactly — the proptest
//! equivalence suite (`tests/vectorized_equivalence.rs`) pins this.
//!
//! Dispatch is static: `batch_kind` types the tree bottom-up from column
//! dtypes and literal values, choosing one kernel lane (i64 / f64 / str /
//! bool / all-null) per node. The kernels cover every bound expression:
//! the one shape they could not evaluate, `NOT` over a statically
//! non-boolean operand, is rejected by `BoundExpr::bind` with the same
//! typing.

use crate::column::{ColumnVec, ColumnarPartition};
use crate::expr::{BinOp, BoundExpr};
use rowstore::{DataType, Schema, Value};
use std::cmp::Ordering;

/// A reusable selection vector: the row indices of one columnar partition
/// that are still "alive" through a fused scan→filter→project pipeline.
/// Filters narrow it in place; projections gather through it.
#[derive(Debug, Clone, Default)]
pub struct SelVec {
    indices: Vec<u32>,
}

impl SelVec {
    /// Select every row of an `n`-row partition.
    pub fn identity(n: usize) -> SelVec {
        SelVec {
            indices: (0..n as u32).collect(),
        }
    }

    /// Select the half-open row range `start..end` (chunked scans).
    pub fn range(start: usize, end: usize) -> SelVec {
        SelVec {
            indices: (start as u32..end as u32).collect(),
        }
    }

    /// Wrap explicit row indices.
    pub fn from_indices(indices: Vec<u32>) -> SelVec {
        SelVec { indices }
    }

    pub fn len(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Keep only the first `n` selected rows (LIMIT pushdown).
    pub fn truncate(&mut self, n: usize) {
        self.indices.truncate(n);
    }

    /// Narrow to the positions where `mask` (one slot per selected row) is
    /// SQL-TRUE. Compacts in place; no allocation.
    pub fn retain_true(&mut self, mask: &ColumnVec) {
        let ColumnVec::Bool { values, nulls } = mask else {
            panic!(
                "selection mask must be a Bool column, got {:?}",
                mask.dtype()
            )
        };
        assert_eq!(values.len(), self.indices.len(), "mask/selection length");
        let mut keep = 0;
        for j in 0..self.indices.len() {
            if values[j] && !nulls[j] {
                self.indices[keep] = self.indices[j];
                keep += 1;
            }
        }
        self.indices.truncate(keep);
    }
}

/// The static type lane of an expression node. `Int` covers both integer
/// widths (the row path compares and adds them as i64); `Null` marks a
/// node that is null for every row (e.g. arithmetic over a string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Int,
    Float,
    Bool,
    Str,
    Null,
}

impl Kind {
    fn of_dtype(dtype: DataType) -> Kind {
        match dtype {
            DataType::Int32 | DataType::Int64 => Kind::Int,
            DataType::Float64 => Kind::Float,
            DataType::Bool => Kind::Bool,
            DataType::Utf8 => Kind::Str,
        }
    }

    fn of_value(v: &Value) -> Kind {
        match v {
            Value::Null => Kind::Null,
            Value::Int32(_) | Value::Int64(_) => Kind::Int,
            Value::Float64(_) => Kind::Float,
            Value::Bool(_) => Kind::Bool,
            Value::Utf8(_) => Kind::Str,
        }
    }

    fn is_numeric(self) -> bool {
        matches!(self, Kind::Int | Kind::Float)
    }
}

/// Result lane of `l <op> r` for arithmetic ops, mirroring `arith`:
/// float if either side is float, integer if both are, all-null otherwise
/// (the row path's `as_i64`/`as_f64` coercion failure).
fn arith_kind(lk: Kind, rk: Kind) -> Kind {
    if lk == Kind::Int && rk == Kind::Int {
        Kind::Int
    } else if lk.is_numeric() && rk.is_numeric() {
        Kind::Float
    } else {
        Kind::Null
    }
}

/// Statically type `expr` against `schema`. `NOT` takes its operand's
/// lane, which binding has already checked is boolean or null.
pub(crate) fn batch_kind(expr: &BoundExpr, schema: &Schema) -> Kind {
    match expr {
        BoundExpr::Col(i) => Kind::of_dtype(schema.field(*i).dtype),
        BoundExpr::Lit(v) => Kind::of_value(v),
        BoundExpr::Binary { left, op, right } => match op {
            BinOp::And
            | BinOp::Or
            | BinOp::Eq
            | BinOp::NotEq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq => Kind::Bool,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                arith_kind(batch_kind(left, schema), batch_kind(right, schema))
            }
        },
        BoundExpr::Not(e) => batch_kind(e, schema),
        BoundExpr::IsNull(_) | BoundExpr::IsNotNull(_) => Kind::Bool,
    }
}

/// An intermediate batch value: either a borrowed source column (indexed
/// through the selection vector), an owned dense kernel output (one slot
/// per selected row), or a constant.
enum Batch<'a> {
    Col(&'a ColumnVec),
    Owned(ColumnVec),
    Const(&'a Value),
}

impl Batch<'_> {
    /// Storage index for selected position `j`.
    #[inline]
    fn at(&self, sel: &SelVec, j: usize) -> usize {
        match self {
            Batch::Col(_) => sel.indices[j] as usize,
            _ => j,
        }
    }

    #[inline]
    fn is_null(&self, sel: &SelVec, j: usize) -> bool {
        match self {
            Batch::Col(c) => c.null_at(sel.indices[j] as usize),
            Batch::Owned(c) => c.null_at(j),
            Batch::Const(v) => v.is_null(),
        }
    }

    /// Integer slot (caller guarantees `Kind::Int` and non-null).
    #[inline]
    fn i64_at(&self, sel: &SelVec, j: usize) -> i64 {
        match self {
            Batch::Const(v) => v.as_i64().expect("int lane"),
            b => {
                let i = b.at(sel, j);
                match b.col() {
                    ColumnVec::Int32 { values, .. } => values[i] as i64,
                    ColumnVec::Int64 { values, .. } => values[i],
                    other => panic!("int lane over {:?}", other.dtype()),
                }
            }
        }
    }

    /// Numeric slot widened to f64 (caller guarantees numeric, non-null).
    #[inline]
    fn f64_at(&self, sel: &SelVec, j: usize) -> f64 {
        match self {
            Batch::Const(v) => v.as_f64().expect("float lane"),
            b => {
                let i = b.at(sel, j);
                match b.col() {
                    ColumnVec::Int32 { values, .. } => values[i] as f64,
                    ColumnVec::Int64 { values, .. } => values[i] as f64,
                    ColumnVec::Float64 { values, .. } => values[i],
                    other => panic!("float lane over {:?}", other.dtype()),
                }
            }
        }
    }

    #[inline]
    fn bool_at(&self, sel: &SelVec, j: usize) -> bool {
        match self {
            Batch::Const(v) => v.as_bool().expect("bool lane"),
            b => {
                let i = b.at(sel, j);
                match b.col() {
                    ColumnVec::Bool { values, .. } => values[i],
                    other => panic!("bool lane over {:?}", other.dtype()),
                }
            }
        }
    }

    #[inline]
    fn str_at(&self, sel: &SelVec, j: usize) -> &str {
        match self {
            Batch::Const(v) => v.as_str().expect("string lane"),
            b => {
                let i = b.at(sel, j);
                match b.col() {
                    ColumnVec::Utf8 { values, .. } => values[i].as_str(),
                    other => panic!("string lane over {:?}", other.dtype()),
                }
            }
        }
    }

    #[inline]
    fn col(&self) -> &ColumnVec {
        match self {
            Batch::Col(c) => c,
            Batch::Owned(c) => c,
            Batch::Const(_) => panic!("constant batch has no column"),
        }
    }
}

/// An all-null column of `dtype` with `n` slots.
fn all_null(dtype: DataType, n: usize) -> ColumnVec {
    match dtype {
        DataType::Int32 => ColumnVec::Int32 {
            values: vec![0; n],
            nulls: vec![true; n],
        },
        DataType::Int64 => ColumnVec::Int64 {
            values: vec![0; n],
            nulls: vec![true; n],
        },
        DataType::Float64 => ColumnVec::Float64 {
            values: vec![0.0; n],
            nulls: vec![true; n],
        },
        DataType::Bool => ColumnVec::Bool {
            values: vec![false; n],
            nulls: vec![true; n],
        },
        DataType::Utf8 => ColumnVec::Utf8 {
            values: vec![String::new(); n],
            nulls: vec![true; n],
        },
    }
}

#[inline]
fn cmp_keep(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("cmp_keep on non-comparison"),
    }
}

/// Comparison kernel: one typed loop per lane; incomparable or null-typed
/// operand pairs yield all-null (the row path's `sql_cmp → None`).
fn eval_cmp(l: &Batch, lk: Kind, op: BinOp, r: &Batch, rk: Kind, sel: &SelVec) -> ColumnVec {
    let n = sel.len();
    let mut values = vec![false; n];
    let mut nulls = vec![true; n];
    match (lk, rk) {
        (Kind::Int, Kind::Int) => {
            for j in 0..n {
                if l.is_null(sel, j) || r.is_null(sel, j) {
                    continue;
                }
                values[j] = cmp_keep(op, l.i64_at(sel, j).cmp(&r.i64_at(sel, j)));
                nulls[j] = false;
            }
        }
        (lk, rk) if lk.is_numeric() && rk.is_numeric() => {
            for j in 0..n {
                if l.is_null(sel, j) || r.is_null(sel, j) {
                    continue;
                }
                // partial_cmp: NaN comparisons stay NULL, like sql_cmp.
                if let Some(ord) = l.f64_at(sel, j).partial_cmp(&r.f64_at(sel, j)) {
                    values[j] = cmp_keep(op, ord);
                    nulls[j] = false;
                }
            }
        }
        (Kind::Str, Kind::Str) => {
            for j in 0..n {
                if l.is_null(sel, j) || r.is_null(sel, j) {
                    continue;
                }
                values[j] = cmp_keep(op, l.str_at(sel, j).cmp(r.str_at(sel, j)));
                nulls[j] = false;
            }
        }
        (Kind::Bool, Kind::Bool) => {
            for j in 0..n {
                if l.is_null(sel, j) || r.is_null(sel, j) {
                    continue;
                }
                values[j] = cmp_keep(op, l.bool_at(sel, j).cmp(&r.bool_at(sel, j)));
                nulls[j] = false;
            }
        }
        _ => {}
    }
    ColumnVec::Bool { values, nulls }
}

/// Three-valued AND/OR kernel. A non-boolean operand lane behaves as
/// "unknown" for every row, matching `as_bool → None` on the row path.
fn eval_and_or(l: &Batch, lk: Kind, op: BinOp, r: &Batch, rk: Kind, sel: &SelVec) -> ColumnVec {
    let n = sel.len();
    let mut values = vec![false; n];
    let mut nulls = vec![false; n];
    for j in 0..n {
        let a = (lk == Kind::Bool && !l.is_null(sel, j)).then(|| l.bool_at(sel, j));
        let b = (rk == Kind::Bool && !r.is_null(sel, j)).then(|| r.bool_at(sel, j));
        let v = if op == BinOp::And {
            match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        } else {
            match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        };
        match v {
            Some(x) => values[j] = x,
            None => nulls[j] = true,
        }
    }
    ColumnVec::Bool { values, nulls }
}

/// Arithmetic kernel. Integer lane wraps like the row path and nulls
/// division by zero; float lane divides through (inf/NaN), also like the
/// row path.
fn eval_arith(
    l: &Batch,
    lk: Kind,
    op: BinOp,
    r: &Batch,
    rk: Kind,
    sel: &SelVec,
) -> (ColumnVec, Kind) {
    let n = sel.len();
    match arith_kind(lk, rk) {
        Kind::Int => {
            let mut values = vec![0i64; n];
            let mut nulls = vec![true; n];
            for j in 0..n {
                if l.is_null(sel, j) || r.is_null(sel, j) {
                    continue;
                }
                let (a, b) = (l.i64_at(sel, j), r.i64_at(sel, j));
                if op == BinOp::Div && b == 0 {
                    continue;
                }
                values[j] = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => a / b,
                    _ => unreachable!(),
                };
                nulls[j] = false;
            }
            (ColumnVec::Int64 { values, nulls }, Kind::Int)
        }
        Kind::Float => {
            let mut values = vec![0.0f64; n];
            let mut nulls = vec![true; n];
            for j in 0..n {
                if l.is_null(sel, j) || r.is_null(sel, j) {
                    continue;
                }
                let (a, b) = (l.f64_at(sel, j), r.f64_at(sel, j));
                values[j] = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    _ => unreachable!(),
                };
                nulls[j] = false;
            }
            (ColumnVec::Float64 { values, nulls }, Kind::Float)
        }
        _ => {
            // Coercion failure on the row path: null for every row. The
            // storage dtype is unobservable (every slot is null).
            let dtype = if lk == Kind::Float || rk == Kind::Float {
                DataType::Float64
            } else {
                DataType::Int64
            };
            (all_null(dtype, n), Kind::Null)
        }
    }
}

fn eval_rec<'a>(
    expr: &'a BoundExpr,
    part: &'a ColumnarPartition,
    sel: &SelVec,
) -> (Batch<'a>, Kind) {
    match expr {
        BoundExpr::Col(i) => {
            let c = part.column(*i);
            (Batch::Col(c), Kind::of_dtype(c.dtype()))
        }
        BoundExpr::Lit(v) => (Batch::Const(v), Kind::of_value(v)),
        BoundExpr::Binary { left, op, right } => {
            let (lb, lk) = eval_rec(left, part, sel);
            let (rb, rk) = eval_rec(right, part, sel);
            match op {
                BinOp::And | BinOp::Or => (
                    Batch::Owned(eval_and_or(&lb, lk, *op, &rb, rk, sel)),
                    Kind::Bool,
                ),
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => (
                    Batch::Owned(eval_cmp(&lb, lk, *op, &rb, rk, sel)),
                    Kind::Bool,
                ),
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    let (col, kind) = eval_arith(&lb, lk, *op, &rb, rk, sel);
                    (Batch::Owned(col), kind)
                }
            }
        }
        BoundExpr::Not(e) => {
            let (b, k) = eval_rec(e, part, sel);
            let n = sel.len();
            match k {
                Kind::Bool => {
                    let mut values = vec![false; n];
                    let mut nulls = vec![false; n];
                    for j in 0..n {
                        if b.is_null(sel, j) {
                            nulls[j] = true;
                        } else {
                            values[j] = !b.bool_at(sel, j);
                        }
                    }
                    (Batch::Owned(ColumnVec::Bool { values, nulls }), Kind::Bool)
                }
                Kind::Null => (Batch::Owned(all_null(DataType::Bool, n)), Kind::Null),
                other => unreachable!("bind rejects NOT over a {other:?} operand"),
            }
        }
        BoundExpr::IsNull(e) | BoundExpr::IsNotNull(e) => {
            let negate = matches!(expr, BoundExpr::IsNotNull(_));
            let (b, _) = eval_rec(e, part, sel);
            let n = sel.len();
            let mut values = vec![false; n];
            for (j, v) in values.iter_mut().enumerate() {
                *v = b.is_null(sel, j) != negate;
            }
            (
                Batch::Owned(ColumnVec::Bool {
                    values,
                    nulls: vec![false; n],
                }),
                Kind::Bool,
            )
        }
    }
}

/// Evaluate `expr` over the rows of `part` selected by `sel`, returning a
/// dense column with one slot per selected row.
pub fn eval_batch(expr: &BoundExpr, part: &ColumnarPartition, sel: &SelVec) -> ColumnVec {
    let (b, k) = eval_rec(expr, part, sel);
    match b {
        Batch::Owned(c) => c,
        Batch::Col(c) => c.gather(sel.indices()),
        Batch::Const(v) => match v {
            Value::Null => all_null(
                match k {
                    Kind::Float => DataType::Float64,
                    _ => DataType::Int64,
                },
                sel.len(),
            ),
            v => {
                let mut c = ColumnVec::empty(v.dtype().expect("non-null literal"));
                for _ in 0..sel.len() {
                    c.push(v);
                }
                c
            }
        },
    }
}

/// Evaluate `pred` over the selected rows and narrow `sel` to the rows
/// where it is SQL-TRUE — the fused filter step.
pub fn filter_into_sel(pred: &BoundExpr, part: &ColumnarPartition, sel: &mut SelVec) {
    let mask = eval_batch(pred, part, sel);
    sel.retain_true(&mask);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, Expr, PlanError};
    use rowstore::Field;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int32),
            Field::nullable("c", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::nullable("f", DataType::Bool),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        (0..32)
            .map(|i| {
                vec![
                    Value::Int64(i - 8),
                    Value::Int32((i % 7) as i32),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 2.0)
                    },
                    Value::Utf8(format!("s{}", i % 5)),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                ]
            })
            .collect()
    }

    fn check(e: Expr) {
        let s = schema();
        let rows = rows();
        let part = ColumnarPartition::from_rows(&s, &rows);
        let b = BoundExpr::bind(&e, &s).unwrap();
        // Full selection.
        let sel = SelVec::identity(rows.len());
        let out = b.eval_batch(&part, &sel);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(out.value(i), b.eval_row(r), "expr {e} row {i}");
        }
        // Sparse selection: every third row, reversed storage order is not
        // required — SelVec is ascending here but non-contiguous.
        let sparse = SelVec::from_indices((0..rows.len() as u32).step_by(3).collect());
        let out = b.eval_batch(&part, &sparse);
        for (j, &i) in sparse.indices().iter().enumerate() {
            assert_eq!(
                out.value(j),
                b.eval_row(&rows[i as usize]),
                "expr {e} sel {i}"
            );
        }
    }

    #[test]
    fn comparison_kernels_match_row_eval() {
        check(col("a").gt(lit(3i64)));
        check(col("a").lt_eq(col("b")));
        check(col("b").eq(lit(2i32)));
        check(col("c").gt_eq(lit(4.0)));
        check(col("a").not_eq(col("c"))); // int vs float lane
        check(col("s").eq(lit("s2")));
        check(col("s").lt(lit("s3")));
        check(col("f").eq(lit(true)));
        check(col("a").eq(col("s"))); // incomparable → all null
    }

    #[test]
    fn logic_kernels_match_row_eval() {
        check(col("f").and(col("a").gt(lit(0i64))));
        check(col("f").or(col("c").is_null()));
        check(col("f").not());
        check(col("c").is_null().not());
        check(col("a").and(col("f"))); // non-bool operand → unknown
        check(lit(Value::Null).not());
    }

    #[test]
    fn arith_kernels_match_row_eval() {
        check(col("a").add(col("b")));
        check(col("a").mul(lit(3i64)).sub(col("b")));
        check(col("a").div(col("b"))); // hits divide-by-zero → null
        check(col("c").div(lit(0.0))); // float div-by-zero → inf, not null
        check(col("a").add(col("c"))); // promotes to float
        check(col("s").add(lit(1i64))); // coercion failure → all null
        check(col("a").add(col("s")).eq(lit(3i64)));
    }

    #[test]
    fn null_check_kernels_match_row_eval() {
        check(col("c").is_null());
        check(col("c").is_not_null());
        check(col("a").add(col("s")).is_null());
    }

    #[test]
    fn nan_comparisons_stay_null() {
        let s = Schema::new(vec![Field::nullable("x", DataType::Float64)]);
        let rows = vec![
            vec![Value::Float64(f64::NAN)],
            vec![Value::Float64(1.0)],
            vec![Value::Null],
        ];
        let part = ColumnarPartition::from_rows(&s, &rows);
        let b = BoundExpr::bind(&col("x").lt(lit(2.0)), &s).unwrap();
        let out = b.eval_batch(&part, &SelVec::identity(3));
        assert_eq!(out.value(0), Value::Null, "NaN compare is null");
        assert_eq!(out.value(1), Value::Bool(true));
        assert_eq!(out.value(2), Value::Null);
    }

    #[test]
    fn not_over_non_bool_is_rejected_at_bind() {
        let s = schema();
        for e in [col("a").not(), col("s").not(), col("a").add(col("c")).not()] {
            let err = BoundExpr::bind(&e, &s).unwrap_err();
            assert!(matches!(err, PlanError::Unsupported(_)), "{e}: {err:?}");
        }
        // A statically null operand never panics: it binds and the
        // kernels yield NULL for every row.
        check(col("a").add(col("s")).not());
    }

    #[test]
    fn filter_into_sel_keeps_sql_true_rows() {
        let s = schema();
        let rows = rows();
        let part = ColumnarPartition::from_rows(&s, &rows);
        let pred = BoundExpr::bind(&col("f").and(col("a").gt(lit(-2i64))), &s).unwrap();
        let mut sel = SelVec::identity(rows.len());
        filter_into_sel(&pred, &part, &mut sel);
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| BoundExpr::is_true(&pred.eval_row(r)))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel.indices(), &expect[..]);
        assert!(!sel.is_empty());
    }

    #[test]
    fn selvec_range_and_truncate() {
        let mut sel = SelVec::range(4, 9);
        assert_eq!(sel.indices(), &[4, 5, 6, 7, 8]);
        sel.truncate(2);
        assert_eq!(sel.indices(), &[4, 5]);
        assert_eq!(SelVec::identity(0).len(), 0);
    }
}
