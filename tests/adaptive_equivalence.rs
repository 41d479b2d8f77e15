//! Property-based equivalence: adaptive execution must be invisible in the
//! *results*. For any schema, data distribution, partition count, and
//! broadcast threshold, the adaptive paths produce exactly what sequential
//! oracles produce — bit-identical partitions for the exchange (the static
//! one-bucket-per-partition result, computed on the driver), the exact
//! nested-loop join multiset for the adaptive join — including under a
//! mid-stage worker kill while a split reduce plan is in flight (a retried
//! slice must not double-apply the split).

use dataframe::physical::scan::ProviderScanExec;
use dataframe::{AdaptiveJoinExec, ColumnarTable, Context, ExecConfig, ExecPlan, Partitions};
use proptest::prelude::*;
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{exchange_rows, partition_of, Cluster, ClusterConfig};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Generators: random schemas and skew-controlled data
// ----------------------------------------------------------------------

/// An extra (non-key) column: type tag 0 = Int64, 1 = Utf8, 2 = nullable
/// Int32.
fn schema_with(extra: &[u8]) -> Arc<Schema> {
    let mut fields = vec![Field::nullable("k", DataType::Int64)];
    for (i, t) in extra.iter().enumerate() {
        fields.push(match t % 3 {
            0 => Field::new(format!("c{i}"), DataType::Int64),
            1 => Field::new(format!("c{i}"), DataType::Utf8),
            _ => Field::nullable(format!("c{i}"), DataType::Int32),
        });
    }
    Schema::new(fields)
}

/// Rows over `schema_with(extra)`: each row's key is the hot key with
/// probability `hot_pct`% (else uniform over `distinct` keys, with an
/// occasional null).
fn gen_rows(extra: &[u8], picks: &[(u8, u16)], distinct: i64) -> Vec<Row> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &(hot, u))| {
            let key = if hot < 100 {
                Value::Int64(7) // hot key
            } else if hot < 104 {
                Value::Null
            } else {
                Value::Int64((u as i64) % distinct)
            };
            let mut row = vec![key];
            for (j, t) in extra.iter().enumerate() {
                row.push(match t % 3 {
                    0 => Value::Int64((i * 31 + j) as i64),
                    1 => Value::Utf8(format!("s{i}-{j}")),
                    _ => {
                        if (i + j) % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int32((i % 1000) as i32)
                        }
                    }
                });
            }
            row
        })
        .collect()
}

/// `picks` entries drive one row each: `hot < threshold` → hot key. The
/// threshold itself is sampled per case so distributions range from
/// uniform to 95% single-key.
fn picks(len: usize) -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), len..len + 1)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

fn gather(parts: Partitions) -> Vec<Row> {
    parts.into_iter().flatten().collect()
}

/// The static exchange, sequentially: partition `j` holds map partition
/// 0's rows for `j` in input order, then map partition 1's, and so on.
fn reference_exchange(inputs: &[Vec<(u64, Row)>], num_out: usize) -> Vec<Vec<Row>> {
    let mut out: Vec<Vec<Row>> = (0..num_out).map(|_| Vec::new()).collect();
    for part in inputs {
        for (h, row) in part {
            out[partition_of(*h, num_out)].push(row.clone());
        }
    }
    out
}

/// Nested-loop inner join on column 0 (null keys never match), left ++
/// right column order.
fn nested_loop_join(left: &[Row], right: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l[0].sql_eq(&r[0]) {
                let mut row = l.clone();
                row.extend_from_slice(r);
                out.push(row);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The adaptive exchange is bit-identical (same partitions, same row
    /// order) to the static exchange's sequential oracle for any schema,
    /// skew, and fan-out.
    #[test]
    fn adaptive_exchange_matches_static(
        extra in proptest::collection::vec(any::<u8>(), 0..3),
        hot_cut in 0u8..241,
        data in picks(300),
        maps in 1usize..5,
        parts in 1usize..9,
    ) {
        let schema = schema_with(&extra);
        let rows = gen_rows(&extra, &data, 40);
        // Spread rows over `maps` map-side inputs, keyed by hash; apply
        // the per-case skew cut (entries below the cut become hot).
        let mut inputs: Vec<Vec<(u64, Row)>> = vec![Vec::new(); maps];
        for (i, (mut row, &(hot, _))) in rows.into_iter().zip(&data).enumerate() {
            if hot >= 100 && hot < 100 + hot_cut / 4 {
                row[0] = Value::Int64(7);
            }
            if row[0].is_null() {
                continue;
            }
            let h = row[0].key_hash();
            inputs[i % maps].push((h, row));
        }

        let c = Cluster::new(ClusterConfig::test_small());
        let want = reference_exchange(&inputs, parts);
        let got = exchange_rows(&c, &schema, inputs, parts).unwrap();
        prop_assert_eq!(&got, &want, "adaptive exchange must be bit-identical");
        let total = c.registry().counter_value("shuffle.rows");
        prop_assert_eq!(total, want.iter().map(|p| p.len() as u64).sum::<u64>());
    }

    /// The adaptive join returns exactly the nested-loop join's multiset
    /// for any schema, skew, and broadcast threshold — whichever runtime
    /// strategy (demote / salted / plain shuffle) it picks.
    #[test]
    fn adaptive_join_matches_static_join(
        extra in proptest::collection::vec(any::<u8>(), 0..3),
        build_data in picks(80),
        probe_data in picks(400),
        distinct in 5i64..60,
        threshold_exp in 0u32..22,
    ) {
        let schema = schema_with(&extra);
        let build = gen_rows(&extra, &build_data, distinct);
        let probe = gen_rows(&extra, &probe_data, distinct);
        let out_schema = schema.join(&schema);
        let want = nested_loop_join(&build, &probe);

        let ctx = Context::with_config(
            Cluster::new(ClusterConfig::test_small()),
            ExecConfig {
                broadcast_threshold_bytes: 1usize << threshold_exp,
                ..ExecConfig::default()
            },
        );
        let j = AdaptiveJoinExec {
            left: scan(&schema, build),
            right: scan(&schema, probe),
            left_key: 0,
            right_key: 0,
            left_stats: None,
            right_stats: None,
            sort_merge: false,
            out_schema,
        };
        let got = gather(j.execute(&ctx).unwrap());
        prop_assert_eq!(sorted(got), sorted(want));
    }
}

fn scan(schema: &Arc<Schema>, rows: Vec<Row>) -> Arc<dyn ExecPlan> {
    let parts = 1 + rows.len() % 4;
    let t = Arc::new(ColumnarTable::from_rows(Arc::clone(schema), rows, parts));
    Arc::new(ProviderScanExec::new(t, "t"))
}

/// A worker dies while the adaptive exchange's split reduce plan is in
/// flight: the retried tasks re-execute read-only plan entries, so the
/// output stays bit-identical to the static exchange's sequential oracle
/// (a split is never double-applied) across several kill timings and skew
/// shapes.
#[test]
fn killed_worker_mid_split_never_double_applies() {
    for (attempt, hot_per_map) in [(0u64, 400usize), (1, 700), (2, 250), (3, 500)] {
        let c = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 2,
            cores_per_executor: 2,
            max_task_attempts: 6,
            skew_ratio: 2.0,
        });
        let schema = schema_with(&[0]);
        // 4 map inputs, each dominated by one hot key → the reduce plan
        // contains splits and coalesces.
        let inputs: Vec<Vec<(u64, Row)>> = (0..4)
            .map(|m| {
                (0..hot_per_map + 40)
                    .map(|i| {
                        let key = if i < hot_per_map {
                            Value::Int64(7)
                        } else {
                            Value::Int64((m * 40 + i) as i64)
                        };
                        let h = key.key_hash();
                        (h, vec![key, Value::Int64(i as i64)])
                    })
                    .collect()
            })
            .collect();
        let want = reference_exchange(&inputs, 6);

        let killer = c.clone();
        let chaos = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(1 + attempt));
            killer.kill_worker((attempt % 3) as usize);
        });
        let got = exchange_rows(&c, &schema, inputs, 6).unwrap();
        chaos.join().unwrap();
        assert_eq!(got, want, "attempt {attempt}");
        assert!(
            c.registry().counter_value("adaptive.splits") >= 1,
            "the hot bucket must actually have been split (attempt {attempt})"
        );
    }
}
