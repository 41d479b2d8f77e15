//! Equivalence suite for the vectorized kernels: random nullable schemas,
//! random data (including NULLs across all five dtypes), and random
//! type-correct expression trees must evaluate identically through
//! `eval_row` (materialized rows) and `eval_batch` (typed kernels over a
//! selection vector) — both over the identity selection and over a
//! random subset.
//!
//! Expression generation is type-aware only where binding demands it:
//! `NOT` is applied exclusively to boolean-typed subtrees (anything else
//! is rejected by `BoundExpr::bind` — covered by its own property below).
//! Everything else is
//! generated freely: mismatched comparisons, arithmetic over booleans,
//! and NULL literals are all legal and null-producing on every path.

use dataframe::vector::SelVec;
use dataframe::{BoundExpr, Expr, PlanError};
use proptest::prelude::*;
use rowstore::{DataType, Field, Row, Schema, Value};
use std::sync::Arc;

/// SplitMix64 — one u64 seed from proptest drives the whole case, so
/// failures reproduce from the printed seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const DTYPES: [DataType; 5] = [
    DataType::Int32,
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Utf8,
];

/// Small pools keep collisions (and so interesting comparisons) frequent.
const FLOATS: [f64; 7] = [0.0, -0.0, 1.5, -2.25, 3.0, 1.0e9, -0.5];
const STRINGS: [&str; 5] = ["", "a", "ab", "b", "zz"];

fn gen_schema(rng: &mut Rng) -> Arc<Schema> {
    let ncols = 2 + rng.below(4);
    Schema::new(
        (0..ncols)
            .map(|i| Field::nullable(format!("c{i}"), DTYPES[rng.below(DTYPES.len())]))
            .collect(),
    )
}

fn gen_value(rng: &mut Rng, dtype: DataType) -> Value {
    if rng.chance(25) {
        return Value::Null;
    }
    match dtype {
        DataType::Int32 => Value::Int32(rng.below(7) as i32 - 3),
        DataType::Int64 => Value::Int64(rng.below(9) as i64 - 4),
        DataType::Float64 => Value::Float64(FLOATS[rng.below(FLOATS.len())]),
        DataType::Bool => Value::Bool(rng.chance(50)),
        DataType::Utf8 => Value::Utf8(STRINGS[rng.below(STRINGS.len())].to_string()),
    }
}

fn gen_rows(rng: &mut Rng, schema: &Schema) -> Vec<Row> {
    let nrows = rng.below(65);
    (0..nrows)
        .map(|_| {
            (0..schema.arity())
                .map(|c| gen_value(rng, schema.field(c).dtype))
                .collect()
        })
        .collect()
}

/// Columns of `schema` whose dtype satisfies `keep`.
fn cols_where(schema: &Schema, keep: impl Fn(DataType) -> bool) -> Vec<String> {
    (0..schema.arity())
        .filter(|&c| keep(schema.field(c).dtype))
        .map(|c| schema.field(c).name.clone())
        .collect()
}

fn is_numeric(d: DataType) -> bool {
    matches!(d, DataType::Int32 | DataType::Int64 | DataType::Float64)
}

/// A numeric-typed (or NULL-typed) subtree: numeric columns and literals
/// composed with the four arithmetic operators.
fn gen_num(rng: &mut Rng, schema: &Schema, depth: usize) -> Expr {
    let cols = cols_where(schema, is_numeric);
    if depth > 0 && rng.chance(45) {
        let (l, r) = (
            gen_num(rng, schema, depth - 1),
            gen_num(rng, schema, depth - 1),
        );
        return match rng.below(4) {
            0 => l.add(r),
            1 => l.sub(r),
            2 => l.mul(r),
            _ => l.div(r), // division by zero stays NULL (int) / inf (float)
        };
    }
    match rng.below(4) {
        0 if !cols.is_empty() => dataframe::col(&cols[rng.below(cols.len())]),
        1 => dataframe::lit(rng.below(9) as i64 - 4),
        2 => dataframe::lit(FLOATS[rng.below(FLOATS.len())]),
        _ => Expr::Lit(Value::Null),
    }
}

/// A boolean-typed (or NULL-typed) subtree. This is the only place `NOT`
/// is generated, so the whole tree stays batch-compatible by construction.
fn gen_bool(rng: &mut Rng, schema: &Schema, depth: usize) -> Expr {
    if depth > 0 {
        match rng.below(6) {
            0 | 1 => {
                // Comparison: usually same-family operands, sometimes a
                // deliberate mismatch (NULL result on every path).
                let (l, r) = if rng.chance(80) {
                    match rng.below(3) {
                        0 => (
                            gen_num(rng, schema, depth - 1),
                            gen_num(rng, schema, depth - 1),
                        ),
                        1 => (gen_str(rng, schema), gen_str(rng, schema)),
                        _ => (
                            gen_bool(rng, schema, depth - 1),
                            gen_bool(rng, schema, depth - 1),
                        ),
                    }
                } else {
                    (gen_num(rng, schema, depth - 1), gen_str(rng, schema))
                };
                return match rng.below(6) {
                    0 => l.eq(r),
                    1 => l.not_eq(r),
                    2 => l.lt(r),
                    3 => l.lt_eq(r),
                    4 => l.gt(r),
                    _ => l.gt_eq(r),
                };
            }
            2 => {
                let (l, r) = (
                    gen_bool(rng, schema, depth - 1),
                    gen_bool(rng, schema, depth - 1),
                );
                return if rng.chance(50) { l.and(r) } else { l.or(r) };
            }
            3 => return gen_bool(rng, schema, depth - 1).not(),
            4 => {
                let e = gen_any(rng, schema, depth - 1);
                return if rng.chance(50) {
                    e.is_null()
                } else {
                    e.is_not_null()
                };
            }
            _ => {}
        }
    }
    let cols = cols_where(schema, |d| d == DataType::Bool);
    match rng.below(3) {
        0 if !cols.is_empty() => dataframe::col(&cols[rng.below(cols.len())]),
        1 => dataframe::lit(rng.chance(50)),
        _ => Expr::Lit(Value::Null),
    }
}

/// A string-typed leaf (no string-producing operators exist).
fn gen_str(rng: &mut Rng, schema: &Schema) -> Expr {
    let cols = cols_where(schema, |d| d == DataType::Utf8);
    if !cols.is_empty() && rng.chance(60) {
        dataframe::col(&cols[rng.below(cols.len())])
    } else {
        dataframe::lit(STRINGS[rng.below(STRINGS.len())].to_string())
    }
}

fn gen_any(rng: &mut Rng, schema: &Schema, depth: usize) -> Expr {
    match rng.below(3) {
        0 => gen_num(rng, schema, depth),
        1 => gen_bool(rng, schema, depth),
        _ => gen_str(rng, schema),
    }
}

/// Bit-level value equality: `Value`'s own `PartialEq` is SQL-flavoured
/// about floats (NaN != NaN), but the paths must agree to the bit.
fn val_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// eval_row == eval_batch, over the identity selection and over a
    /// random subset of rows.
    #[test]
    fn batch_kernels_match_row_and_columnar_eval(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = gen_schema(&mut rng);
        let rows = gen_rows(&mut rng, &schema);
        let expr = gen_any(&mut rng, &schema, 3);
        let bound = BoundExpr::bind(&expr, &schema)
            .unwrap_or_else(|e| panic!("generated expression must bind: {expr:?}: {e}"));

        let part = dataframe::ColumnarPartition::from_rows(&schema, &rows);
        let n = rows.len();
        let expected: Vec<Value> = rows.iter().map(|r| bound.eval_row(r)).collect();

        let dense = bound.eval_batch(&part, &SelVec::identity(n));
        prop_assert_eq!(dense.len(), n);
        for (i, want) in expected.iter().enumerate() {
            let got = dense.value(i);
            prop_assert!(
                val_eq(&got, want),
                "eval_batch identity slot {i}: {got:?} != {want:?} for {expr:?}"
            );
        }

        // A random subset selection: one dense output slot per selected
        // row, indexed by position within the selection.
        let picked: Vec<u32> = (0..n as u32).filter(|_| rng.chance(50)).collect();
        let sel = SelVec::from_indices(picked.clone());
        let sparse = bound.eval_batch(&part, &sel);
        prop_assert_eq!(sparse.len(), picked.len());
        for (j, &i) in picked.iter().enumerate() {
            let got = sparse.value(j);
            let want = &expected[i as usize];
            prop_assert!(
                val_eq(&got, want),
                "eval_batch subset slot {j} (row {i}): {got:?} != {want:?} for {expr:?}"
            );
        }
    }

    /// `NOT` over a statically non-boolean, non-null operand must be
    /// rejected by `BoundExpr::bind` with `PlanError::Unsupported`, so no
    /// evaluator ever meets it.
    #[test]
    fn not_over_numeric_is_rejected_at_bind(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = gen_schema(&mut rng);
        let num_cols = cols_where(&schema, is_numeric);
        if num_cols.is_empty() {
            return; // no numeric anchor in this schema; vacuous case
        }
        // Anchor on a numeric column so the operand's static kind is
        // numeric — note `x + NULL` types as NULL, which NOT *does*
        // cover, so the right-hand sides here are strictly numeric.
        let anchor = dataframe::col(&num_cols[rng.below(num_cols.len())]);
        let operand = match rng.below(3) {
            0 => anchor,
            1 => anchor.add(dataframe::lit(rng.below(9) as i64 - 4)),
            _ => anchor.mul(dataframe::lit(FLOATS[rng.below(FLOATS.len())])),
        };
        let expr = operand.not();
        let err = BoundExpr::bind(&expr, &schema).unwrap_err();
        prop_assert!(
            matches!(err, PlanError::Unsupported(_)),
            "NOT over numeric must be rejected at bind: {expr:?}: {err:?}"
        );
    }
}
