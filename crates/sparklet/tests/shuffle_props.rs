//! Property-based tests of the shuffle exchange and scheduling invariants.

use proptest::prelude::*;
use rowstore::{DataType, Field, Row, Schema, Value};
use sparklet::{exchange_rows, partition_of, Cluster, ClusterConfig, TaskSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Wire schema for the serialized-exchange properties: a key column, a
/// variable-length string and a nullable column.
fn wire_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("s", DataType::Utf8),
        Field::nullable("opt", DataType::Int64),
    ])
}

/// Strategy for one partition of keyed rows over [`wire_schema`].
fn keyed_rows(max: usize) -> impl Strategy<Value = Vec<(u64, Row)>> {
    proptest::collection::vec(
        (
            any::<i64>(),
            "[a-zA-Z0-9 ]{0,12}",
            proptest::option::of(any::<i64>()),
        ),
        0..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(k, s, opt)| {
                let key = Value::Int64(k);
                let row: Row = vec![
                    key.clone(),
                    Value::Utf8(s),
                    opt.map(Value::Int64).unwrap_or(Value::Null),
                ];
                (key.key_hash(), row)
            })
            .collect()
    })
}

/// Schema of the arbitrary-hash properties: one Int64 payload column.
fn payload_schema() -> Arc<Schema> {
    Schema::new(vec![Field::new("v", DataType::Int64)])
}

/// Rows carrying `v` under an arbitrary hash `h` (not derived from `v`).
fn payload_inputs(parts: &[Vec<(u64, u32)>]) -> Vec<Vec<(u64, Row)>> {
    parts
        .iter()
        .map(|p| {
            p.iter()
                .map(|(h, v)| (*h, vec![Value::Int64(*v as i64)]))
                .collect()
        })
        .collect()
}

/// The exact expected output of `exchange_rows`: partition `j` holds map
/// partition 0's rows for `j` in input order, then map partition 1's, ...
fn reference_exchange(inputs: &[Vec<(u64, Row)>], num_out: usize) -> Vec<Vec<Row>> {
    let mut out: Vec<Vec<Row>> = (0..num_out).map(|_| Vec::new()).collect();
    for part in inputs {
        for (h, row) in part {
            out[partition_of(*h, num_out)].push(row.clone());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Exchange is a permutation: no items lost, none duplicated, and each
    /// lands in exactly the partition its hash owns.
    #[test]
    fn exchange_is_a_keyed_permutation(
        parts in proptest::collection::vec(
            proptest::collection::vec((any::<u64>(), any::<u32>()), 0..60),
            1..6,
        ),
        num_out in 1usize..9,
    ) {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let expected: HashMap<u32, u64> = parts.iter().flatten().map(|(h, v)| (*v, *h)).collect();
        let inputs = payload_inputs(&parts);
        let total_in: usize = inputs.iter().map(Vec::len).sum();
        let out = exchange_rows(&cluster, &payload_schema(), inputs, num_out).unwrap();
        prop_assert_eq!(out.len(), num_out);
        let total_out: usize = out.iter().map(Vec::len).sum();
        prop_assert_eq!(total_out, total_in);
        for (j, bucket) in out.iter().enumerate() {
            for row in bucket {
                let Value::Int64(v) = row[0] else { panic!("payload must be Int64") };
                if let Some(h) = expected.get(&(v as u32)) {
                    prop_assert_eq!(partition_of(*h, num_out), j, "item in wrong partition");
                }
            }
        }
    }

    /// Exchange preserves the input multiset even when a worker is killed
    /// while the exchange runs: lost attempts are retried on survivors.
    #[test]
    fn exchange_preserves_multiset_under_worker_kill(
        parts in proptest::collection::vec(
            proptest::collection::vec((any::<u64>(), any::<u32>()), 0..80),
            1..6,
        ),
        num_out in 1usize..7,
        victim in 0usize..3,
        delay_us in 0u64..400,
    ) {
        let cluster = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        let inputs = payload_inputs(&parts);
        let mut expected: Vec<i64> = parts.iter().flatten().map(|(_, v)| *v as i64).collect();
        let killer = cluster.clone();
        let chaos = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            killer.kill_worker(victim);
        });
        let out = exchange_rows(&cluster, &payload_schema(), inputs, num_out).unwrap();
        chaos.join().unwrap();
        let mut delivered: Vec<i64> = out
            .into_iter()
            .flatten()
            .map(|row| match row[0] {
                Value::Int64(v) => v,
                _ => panic!("payload must be Int64"),
            })
            .collect();
        delivered.sort();
        expected.sort();
        prop_assert_eq!(delivered, expected);
    }

    /// The serialized exchange round-trips arbitrary rows exactly through
    /// the wire format: multiset equality is implied by something stronger —
    /// per-partition sequences match the deterministic reference (stable
    /// intra-partition order), and every row sits in the partition its key
    /// hash owns.
    #[test]
    fn serialized_exchange_roundtrips_rows_exactly(
        inputs in proptest::collection::vec(keyed_rows(40), 1..5),
        num_out in 1usize..9,
    ) {
        let cluster = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let expected = reference_exchange(&inputs, num_out);
        let out = exchange_rows(&cluster, &schema, inputs, num_out).unwrap();
        prop_assert_eq!(out, expected);
    }

    /// Same exact round-trip, with a worker killed while the exchange runs:
    /// retried map attempts re-serialize byte-identical blocks from the
    /// snapshot, so even the per-partition row order is unchanged.
    #[test]
    fn serialized_exchange_exact_under_worker_kill(
        inputs in proptest::collection::vec(keyed_rows(60), 1..5),
        num_out in 1usize..7,
        victim in 0usize..3,
        delay_us in 0u64..400,
    ) {
        let cluster = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        let schema = wire_schema();
        let expected = reference_exchange(&inputs, num_out);
        let killer = cluster.clone();
        let chaos = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            killer.kill_worker(victim);
        });
        let out = exchange_rows(&cluster, &schema, inputs, num_out).unwrap();
        chaos.join().unwrap();
        prop_assert_eq!(out, expected);
    }

    /// partition_of spreads arbitrary u64 hashes into valid range and is a
    /// pure function.
    #[test]
    fn partition_of_pure_and_bounded(h in any::<u64>(), n in 1usize..1000) {
        let p = partition_of(h, n);
        prop_assert!(p < n);
        prop_assert_eq!(p, partition_of(h, n));
    }

    /// Scheduling always lands tasks on alive workers and honors locality
    /// when the preferred worker lives.
    #[test]
    fn scheduler_respects_liveness(
        dead in proptest::collection::hash_set(0usize..4, 0..3),
        prefs in proptest::collection::vec(proptest::option::of(0usize..4), 1..30),
    ) {
        let cluster = Cluster::new(ClusterConfig {
            workers: 4,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        });
        for w in &dead {
            cluster.kill_worker(*w);
        }
        let tasks: Vec<TaskSpec> = prefs
            .iter()
            .enumerate()
            .map(|(i, p)| TaskSpec { partition: i, preferred_worker: *p })
            .collect();
        let dead2 = Arc::new(dead.clone());
        let placements = cluster
            .run_stage(&tasks, move |tc| (tc.worker, tc.non_local))
            .unwrap();
        for (spec, (worker, non_local)) in tasks.iter().zip(&placements) {
            prop_assert!(!dead2.contains(worker), "task ran on dead worker {worker}");
            if let Some(p) = spec.preferred_worker {
                if !dead2.contains(&p) {
                    prop_assert_eq!(*worker, p, "alive preference ignored");
                    prop_assert!(!non_local);
                }
            }
        }
    }
}

/// The exchange accounts rows and exact wire bytes.
#[test]
fn exchange_metrics_account_rows_and_bytes() {
    let cluster = Cluster::new(ClusterConfig::test_small());
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    let inputs: Vec<Vec<(u64, Row)>> = (0..4u64)
        .map(|p| {
            (0..250u64)
                .map(|i| (i * 31 + p, vec![Value::Int64(i as i64), Value::Int64(0)]))
                .collect()
        })
        .collect();
    let out = exchange_rows(&cluster, &schema, inputs, 8).unwrap();
    assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 1000);
    let r = cluster.registry();
    assert_eq!(r.counter_value("shuffle.rows"), 1000);
    // Each row is a 4-byte length prefix plus a 1-byte null bitmap and two
    // 8-byte values; each of the 4 × 8 blocks adds a 4-byte row-count header.
    assert_eq!(
        r.counter_value("shuffle.bytes"),
        1000 * (4 + 1 + 16) + 32 * 4
    );
}
