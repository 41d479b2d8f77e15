//! Shuffle: hash-partitioned data exchange between partitions.
//!
//! The paper's Indexed DataFrame is hash partitioned on the index column;
//! index creation, appends and indexed joins all shuffle rows to the
//! partition responsible for their key (§III-C). Fig. 10 shows append time
//! is dominated by exactly this shuffle. There is one exchange,
//! [`exchange_rows`], and every shuffle in the engine goes through it:
//!
//! * **Map side**: one cluster task per input partition packs its rows into
//!   length-prefixed binary blocks (the `rowstore` codec), one block per
//!   destination. Bytes are accounted *exactly* from block lengths, and
//!   allocation is amortized into one buffer per (map, reduce) pair.
//! * **Reduce side**: the block headers give exact per-partition row counts
//!   for free, and [`plan_reduce_tasks`] turns them into tasks — hot
//!   partitions split into row slices, near-empty ones coalesce, the rest
//!   get one task each. On uniform input the plan is one task per output
//!   partition: the classic static shuffle is the degenerate plan.
//!
//! Broadcasts share one materialized copy across workers; operators
//! account for them with [`account_broadcast`].
//!
//! Retry safety: cluster stages may re-run a task after a panic or a
//! mid-stage worker loss, so no stage task ever consumes its input. Both
//! sides of the exchange snapshot their inputs behind an `Arc` and run only
//! *read-only* work (serializing / deserializing) on the cluster; a retried
//! attempt therefore re-produces byte-identical blocks and row-identical
//! outputs.

use crate::cluster::{Cluster, StageError, TaskSpec};
use crate::metrics::{SpanKind, SpanRecord};
use rowstore::{BlockReader, BlockWriter, Row, Schema, Value};
use std::sync::Arc;
use std::time::Instant;

/// Approximate in-memory size of a row, for broadcast decisions and
/// accounting: 8 bytes per value plus the payload of each string.
pub fn row_bytes(row: &Row) -> usize {
    row.iter()
        .map(|v| match v {
            Value::Utf8(s) => 8 + s.len(),
            _ => 8,
        })
        .sum()
}

/// Deterministically map a key hash to an output partition.
#[inline]
pub fn partition_of(key_hash: u64, num_partitions: usize) -> usize {
    // Multiply-shift avoids the pathologies of `hash % n` for power-of-two n
    // combined with low-entropy hashes.
    ((key_hash as u128 * num_partitions as u128) >> 64) as usize
}

/// Shared metric/skew accounting for every exchange.
///
/// The per-partition byte histogram is what shows a hot key (one bucket far
/// above the rest), and `shuffle.skewed_partitions` counts partitions
/// receiving more than `skew_ratio ×` the mean (configurable via
/// [`crate::ClusterConfig::skew_ratio`], default 2.0 — the historical
/// hard-coded rule). The mean is *rounded* with a one-byte floor:
/// truncating `bytes / num_out` is 0 for exchanges smaller than their
/// fan-out, which silently disabled skew detection. The largest partition's
/// row count is also published as the `shuffle.max_partition_rows` gauge
/// (merged by max across exchanges).
fn record_exchange(
    cluster: &Cluster,
    start: Instant,
    per_partition_rows: &[u64],
    per_partition_bytes: &[u64],
) {
    let num_out = per_partition_bytes.len() as u64;
    let rows: u64 = per_partition_rows.iter().sum();
    let bytes: u64 = per_partition_bytes.iter().sum();
    let reg = cluster.registry();
    reg.counter("shuffle.ns")
        .add(start.elapsed().as_nanos() as u64);
    reg.counter("shuffle.exchanges").inc();
    reg.counter("shuffle.rows").add(rows);
    reg.counter("shuffle.bytes").add(bytes);
    if let Some(&max_rows) = per_partition_rows.iter().max() {
        reg.gauge("shuffle.max_partition_rows").set_max(max_rows);
    }
    let part_hist = reg.histogram("shuffle.partition_bytes");
    let mean = if bytes == 0 {
        0
    } else {
        ((bytes + num_out / 2) / num_out).max(1)
    };
    let threshold = cluster.config().skew_threshold(mean as f64);
    let mut skewed = 0u64;
    for &b in per_partition_bytes {
        part_hist.record(b);
        if mean > 0 && b > threshold {
            skewed += 1;
        }
    }
    reg.counter("shuffle.skewed_partitions").add(skewed);
}

/// The shuffle wire format for `Row` streams: rows are packed into
/// length-prefixed binary blocks (`rowstore`'s row codec inside
/// [`BlockWriter`] framing) keyed by destination partition. One block per
/// (map partition, reduce partition) pair, so a whole bucket costs one
/// amortized buffer instead of a `Vec`/`String` pair per value, and the
/// shuffle's byte accounting is *exact* — block lengths, not estimates.
pub struct ShuffleCodec {
    schema: Arc<Schema>,
}

impl ShuffleCodec {
    pub fn new(schema: Arc<Schema>) -> ShuffleCodec {
        ShuffleCodec { schema }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Serialize one map partition into `num_out` destination blocks.
    /// Panics if a row does not match the wire schema — that is a planner
    /// bug, and the resulting task failure surfaces as a [`StageError`]
    /// after retries rather than silently corrupting the stream.
    pub fn encode_buckets(&self, items: &[(u64, Row)], num_out: usize) -> Vec<Vec<u8>> {
        let mut writers: Vec<BlockWriter> = (0..num_out).map(|_| BlockWriter::new()).collect();
        for (h, row) in items {
            writers[partition_of(*h, num_out)]
                .push(&self.schema, row)
                .unwrap_or_else(|e| panic!("shuffle codec: row does not match wire schema: {e}"));
        }
        writers.into_iter().map(BlockWriter::finish).collect()
    }

    /// Rows recorded in a block's header (for pre-sizing the reduce side).
    pub fn block_rows(&self, block: &[u8]) -> usize {
        BlockReader::new(&self.schema, block)
            .map(|r| r.num_rows())
            .unwrap_or(0)
    }

    /// Decode every row of a block, appending to `out`.
    pub fn decode_into(&self, block: &[u8], out: &mut Vec<Row>) {
        let reader = BlockReader::new(&self.schema, block)
            .unwrap_or_else(|e| panic!("shuffle codec: corrupt block header: {e}"));
        for row in reader {
            out.push(row.unwrap_or_else(|e| panic!("shuffle codec: corrupt block: {e}")));
        }
    }
}

/// One task of a reduce plan.
///
/// `Whole` decodes one or more *entire* output partitions (several when
/// near-empty partitions are coalesced into one task); `Slice` decodes the
/// row range `[skip, skip + take)` of a single oversized partition's
/// concatenated map-order stream. Slices exploit the length-prefixed wire
/// format: skipping a row costs one 4-byte read, not a decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceTask {
    Whole {
        parts: Vec<usize>,
    },
    Slice {
        part: usize,
        skip: usize,
        take: usize,
    },
}

/// Plan the reduce side from the map side's exact per-partition row counts:
/// split partitions above the configured skew threshold into near-mean row
/// ranges, coalesce runs of near-empty partitions (< ¼ of the mean) into
/// single tasks, and leave the rest one-task-per-partition.
///
/// The plan is a pure function of the committed map outputs and the cluster
/// config, computed once on the driver — a retried reduce task re-executes
/// *its* plan entry read-only, so a mid-stage worker loss can never
/// double-apply a split.
pub fn plan_reduce_tasks(config: &crate::ClusterConfig, rows: &[u64]) -> Vec<ReduceTask> {
    let num_out = rows.len();
    let total: u64 = rows.iter().sum();
    let mean = if num_out == 0 || total == 0 {
        0
    } else {
        ((total + num_out as u64 / 2) / num_out as u64).max(1)
    };
    if mean == 0 {
        return vec![ReduceTask::Whole {
            parts: (0..num_out).collect(),
        }];
    }
    let threshold = config.skew_threshold(mean as f64);
    // Cap the fan-out of one hot partition: more slices than task slots
    // only adds scheduling overhead.
    let max_slices = config.total_cores().clamp(2, 16);

    let mut plan: Vec<ReduceTask> = Vec::with_capacity(num_out);
    let mut pending: Vec<usize> = Vec::new(); // coalesce accumulator
    let mut pending_rows = 0u64;
    let flush = |pending: &mut Vec<usize>, pending_rows: &mut u64, plan: &mut Vec<ReduceTask>| {
        if !pending.is_empty() {
            plan.push(ReduceTask::Whole {
                parts: std::mem::take(pending),
            });
            *pending_rows = 0;
        }
    };

    for (j, &r) in rows.iter().enumerate() {
        if r > threshold {
            flush(&mut pending, &mut pending_rows, &mut plan);
            let slices = (r.div_ceil(mean) as usize).clamp(2, max_slices);
            let chunk = (r as usize).div_ceil(slices);
            let mut skip = 0usize;
            while skip < r as usize {
                let take = chunk.min(r as usize - skip);
                plan.push(ReduceTask::Slice {
                    part: j,
                    skip,
                    take,
                });
                skip += take;
            }
        } else if r * 4 < mean {
            pending.push(j);
            pending_rows += r;
            if pending_rows >= mean || pending.len() >= 8 {
                flush(&mut pending, &mut pending_rows, &mut plan);
            }
        } else {
            flush(&mut pending, &mut pending_rows, &mut plan);
            plan.push(ReduceTask::Whole { parts: vec![j] });
        }
    }
    flush(&mut pending, &mut pending_rows, &mut plan);
    plan
}

/// Hash-partition `Row` streams into `num_out` output partitions through
/// the serialized wire format.
///
/// The map side packs each input partition's rows into one block per
/// destination. The committed block headers then give exact per-partition
/// row and byte counts without another stage, and the reduce side runs the
/// split/coalesce plan of [`plan_reduce_tasks`]: no worker serializes
/// behind one hot bucket, and near-empty buckets stop costing a task
/// dispatch each. On uniform input the plan is one task per partition.
///
/// Output partition `j` holds map partition 0's rows for `j` (in input
/// order), then map partition 1's, and so on — whatever the plan. Slices of
/// a split partition are decoded in row order and reassembled by `skip`
/// offset; only the task decomposition depends on the data.
///
/// Plan decisions are observable: `adaptive.splits` /
/// `adaptive.coalesces` counters and one `Operator` trace span per
/// decision. Returns the [`StageError`] of either stage.
pub fn exchange_rows(
    cluster: &Cluster,
    schema: &Arc<Schema>,
    inputs: Vec<Vec<(u64, Row)>>,
    num_out: usize,
) -> Result<Vec<Vec<Row>>, StageError> {
    assert!(num_out > 0);
    let start = Instant::now();
    let codec = Arc::new(ShuffleCodec::new(Arc::clone(schema)));

    // Map side: serialize every input partition. The source rows die with
    // `inputs` once the stage commits; only the packed blocks travel on.
    let num_in = inputs.len();
    let inputs = Arc::new(inputs);
    let map_codec = Arc::clone(&codec);
    let blocks: Arc<Vec<Vec<Vec<u8>>>> = Arc::new(cluster.run_stage_partitions(num_in, {
        let inputs = Arc::clone(&inputs);
        move |ctx| map_codec.encode_buckets(&inputs[ctx.partition], num_out)
    })?);
    drop(inputs);

    // The free statistics pass: exact per-partition rows and bytes from the
    // committed block headers/lengths — no extra cluster stage.
    let mut rows = vec![0u64; num_out];
    let mut bytes = vec![0u64; num_out];
    for map_out in blocks.iter() {
        for (j, block) in map_out.iter().enumerate() {
            rows[j] += codec.block_rows(block) as u64;
            bytes[j] += block.len() as u64;
        }
    }

    let plan = plan_reduce_tasks(cluster.config(), &rows);
    record_reduce_plan_decisions(cluster, &plan, &rows);

    // Reduce side: one task per plan entry. Tasks only read the shared
    // block matrix → retry-safe; the plan itself was fixed above from
    // committed map outputs, so a retried attempt re-runs the same slice.
    // `ctx.partition` carries the plan index (the task body looks its
    // entry up); locality still follows the home partition's worker.
    // Dispatch is weighted — heaviest tasks first — so the hot
    // partition's work starts immediately.
    let specs: Vec<TaskSpec> = plan
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let home = match t {
                ReduceTask::Whole { parts } => parts[0],
                ReduceTask::Slice { part, .. } => *part,
            };
            TaskSpec {
                partition: i,
                preferred_worker: Some(cluster.worker_for_partition(home)),
            }
        })
        .collect();
    let weights: Vec<u64> = plan
        .iter()
        .map(|t| match t {
            ReduceTask::Whole { parts } => parts.iter().map(|&j| rows[j]).sum(),
            ReduceTask::Slice { take, .. } => *take as u64,
        })
        .collect();
    let plan = Arc::new(plan);

    let reduce_codec = Arc::clone(&codec);
    let piece_results: Vec<Vec<(usize, usize, Vec<Row>)>> =
        cluster.run_stage_weighted(&specs, &weights, move |ctx| {
            let mut pieces: Vec<(usize, usize, Vec<Row>)> = Vec::new();
            match &plan[ctx.partition] {
                ReduceTask::Whole { parts } => {
                    for &j in parts {
                        let total: usize =
                            blocks.iter().map(|m| reduce_codec.block_rows(&m[j])).sum();
                        let mut out = Vec::with_capacity(total);
                        for map_out in blocks.iter() {
                            reduce_codec.decode_into(&map_out[j], &mut out);
                        }
                        pieces.push((j, 0, out));
                    }
                }
                ReduceTask::Slice { part, skip, take } => {
                    let mut out = Vec::with_capacity(*take);
                    decode_slice(&reduce_codec, &blocks, *part, *skip, *take, &mut out);
                    pieces.push((*part, *skip, out));
                }
            }
            pieces
        })?;

    // Reassemble: pieces of each partition ordered by row offset, copied
    // into one buffer allocated here on the driver. The copy is kept even
    // for single-piece partitions: outputs often live long (index-build
    // buckets are cached), and allocating them on the driver lets them
    // reuse memory the map side just freed there. Moving the worker-decoded
    // pieces instead raised the peak RSS of a 1M-row index build by 2.5–7%
    // (glibc malloc, 2-vCPU x86-64 Linux host).
    let mut per_part: Vec<Vec<(usize, Vec<Row>)>> = (0..num_out).map(|_| Vec::new()).collect();
    for pieces in piece_results {
        for (j, skip, piece) in pieces {
            per_part[j].push((skip, piece));
        }
    }
    let outputs: Vec<Vec<Row>> = per_part
        .into_iter()
        .enumerate()
        .map(|(j, mut pieces)| {
            pieces.sort_by_key(|(skip, _)| *skip);
            let mut out = Vec::with_capacity(rows[j] as usize);
            for (_, piece) in pieces {
                out.extend(piece);
            }
            out
        })
        .collect();

    cluster
        .registry()
        .counter("shuffle.blocks")
        .add((num_in * num_out) as u64);
    record_exchange(cluster, start, &rows, &bytes);
    Ok(outputs)
}

/// Decode rows `[skip, skip + take)` of partition `part`'s concatenated
/// map-order stream. Whole blocks before the range are skipped by header
/// count; a partial block prefix is skipped row-by-row via the length
/// prefixes ([`BlockReader::skip_rows`]) without decoding.
fn decode_slice(
    codec: &ShuffleCodec,
    blocks: &[Vec<Vec<u8>>],
    part: usize,
    mut skip: usize,
    mut take: usize,
    out: &mut Vec<Row>,
) {
    for map_out in blocks {
        if take == 0 {
            return;
        }
        let block = &map_out[part];
        let n = codec.block_rows(block);
        if skip >= n {
            skip -= n;
            continue;
        }
        let mut reader = BlockReader::new(codec.schema(), block)
            .unwrap_or_else(|e| panic!("shuffle codec: corrupt block header: {e}"));
        reader
            .skip_rows(skip)
            .unwrap_or_else(|e| panic!("shuffle codec: corrupt block: {e}"));
        skip = 0;
        for row in reader {
            out.push(row.unwrap_or_else(|e| panic!("shuffle codec: corrupt block: {e}")));
            take -= 1;
            if take == 0 {
                break;
            }
        }
    }
}

/// Emit the counters and per-decision trace spans for one reduce plan: one `adaptive.split[...]` span per split partition and one
/// `adaptive.coalesce[...]` span per multi-partition task.
fn record_reduce_plan_decisions(cluster: &Cluster, plan: &[ReduceTask], rows: &[u64]) {
    let reg = cluster.registry();
    let trace = cluster.trace();
    let parent = trace.current_parent();
    let mut split_parts: Vec<usize> = Vec::new();
    for task in plan {
        match task {
            ReduceTask::Slice { part, .. } => {
                if split_parts.last() != Some(part) {
                    split_parts.push(*part);
                }
            }
            ReduceTask::Whole { parts } if parts.len() > 1 => {
                reg.counter("adaptive.coalesces").inc();
                trace.record(SpanRecord {
                    id: trace.next_span_id(),
                    parent,
                    kind: SpanKind::Operator,
                    name: format!(
                        "adaptive.coalesce[parts={parts:?} rows={}]",
                        parts.iter().map(|&j| rows[j]).sum::<u64>()
                    ),
                    start_us: trace.now_us(),
                    dur_us: 0,
                    worker: -1,
                    partition: parts[0] as i64,
                });
            }
            ReduceTask::Whole { .. } => {}
        }
    }
    for part in split_parts {
        reg.counter("adaptive.splits").inc();
        let slices = plan
            .iter()
            .filter(|t| matches!(t, ReduceTask::Slice { part: p, .. } if *p == part))
            .count();
        trace.record(SpanRecord {
            id: trace.next_span_id(),
            parent,
            kind: SpanKind::Operator,
            name: format!(
                "adaptive.split[part={part} rows={} slices={slices}]",
                rows[part]
            ),
            start_us: trace.now_us(),
            dur_us: 0,
            worker: -1,
            partition: part as i64,
        });
    }
}

/// Record broadcast traffic for `unique_bytes` materialized once and
/// handed to `copies` workers — one shared, refcounted copy, the memory
/// behaviour of Spark's torrent broadcast. Called by the operators that
/// broadcast their own structures (the broadcast-hash join's build table,
/// the indexed join's small probe side).
///
/// Besides the cumulative traffic counters, the broadcast is registered in
/// the memory governor's *live* ledger, refcounted on the workers that
/// actually hold a copy. The cumulative counters never decrease (they are
/// traffic, not occupancy); the ledger is what [`Cluster::kill_worker`]
/// reconciles so `broadcast.live_{copies,bytes}` drop when the copies die
/// with their worker instead of drifting upward forever.
pub fn account_broadcast(cluster: &Cluster, unique_bytes: u64, copies: u64) {
    let reg = cluster.registry();
    reg.counter("broadcast.bytes").add(unique_bytes * copies);
    reg.counter("broadcast.unique_bytes").add(unique_bytes);
    reg.counter("broadcast.copies").add(copies);
    // Every caller hands one copy to each currently-alive worker (the
    // `copies` count and this list can differ only under a concurrent
    // kill, in which case the kill's reconcile pass fixes the ledger).
    let holders = cluster.alive_workers();
    cluster.memory().register_broadcast(unique_bytes, &holders);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use rowstore::{DataType, Field};

    /// Sequential oracle: partition `j` holds map partition 0's rows for
    /// `j` in input order, then map partition 1's, and so on.
    fn reference_exchange(inputs: &[Vec<(u64, Row)>], num_out: usize) -> Vec<Vec<Row>> {
        let mut out: Vec<Vec<Row>> = (0..num_out).map(|_| Vec::new()).collect();
        for part in inputs {
            for (h, row) in part {
                out[partition_of(*h, num_out)].push(row.clone());
            }
        }
        out
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for n in [1usize, 3, 7, 16, 64] {
            for h in [0u64, 1, u64::MAX, 0xdeadbeef, 42] {
                let p = partition_of(h, n);
                assert!(p < n);
                assert_eq!(p, partition_of(h, n));
            }
        }
    }

    #[test]
    fn partition_of_spreads_hashes() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..10_000u64 {
            let h = rowstore::Value::Int64(i as i64).key_hash();
            counts[partition_of(h, n)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 500, "partition {i} underfilled: {c}");
        }
    }

    fn wire_schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
            Field::nullable("opt", DataType::Int64),
        ])
    }

    fn key_schema() -> Arc<Schema> {
        Schema::new(vec![Field::new("k", DataType::Int64)])
    }

    /// Rows of a single Int64 column `k`, keyed by `hash(k)`.
    fn keyed(keys: impl IntoIterator<Item = i64>) -> Vec<(u64, Row)> {
        keys.into_iter()
            .map(|k| (Value::Int64(k).key_hash(), vec![Value::Int64(k)]))
            .collect()
    }

    #[test]
    fn exchange_groups_by_key() {
        let c = Cluster::new(ClusterConfig::test_small());
        let num_out = 4;
        // Two input partitions with the same keys.
        let inputs = vec![keyed(0..100), keyed(0..100)];
        let out = exchange_rows(&c, &key_schema(), inputs, num_out).unwrap();
        assert_eq!(out.len(), num_out);
        assert_eq!(out.iter().map(|p| p.len()).sum::<usize>(), 200);
        // Same key must land in the same output partition from both inputs.
        for k in 0..100i64 {
            let p = partition_of(Value::Int64(k).key_hash(), num_out);
            let count = out[p].iter().filter(|r| r[0] == Value::Int64(k)).count();
            assert_eq!(count, 2, "key {k} not co-located");
        }
        let r = c.registry();
        let bytes = r.counter_value("shuffle.bytes");
        assert!(bytes >= 200);
        assert!(r.counter_value("shuffle.ns") > 0);
        assert_eq!(r.counter_value("shuffle.exchanges"), 1);
        assert_eq!(r.counter_value("shuffle.rows"), 200);
        let h = r.histogram_snapshot("shuffle.partition_bytes").unwrap();
        assert_eq!(h.count, num_out as u64, "one sample per output partition");
        assert_eq!(h.sum, bytes);
    }

    #[test]
    fn exchange_outputs_are_presized() {
        // Uniform input (one task per partition) and skewed input (split
        // partitions) are both reassembled into buffers sized exactly from
        // the block headers.
        let c = Cluster::new(ClusterConfig::test_small());
        let uniform = vec![keyed(0..1000)];
        let skewed = skewed_row_inputs(3, 400);
        for (schema, inputs) in [(key_schema(), uniform), (wire_schema(), skewed)] {
            for p in exchange_rows(&c, &schema, inputs, 4).unwrap() {
                assert_eq!(
                    p.capacity(),
                    p.len(),
                    "block headers must pre-size each partition exactly"
                );
            }
        }
        assert!(c.registry().counter_value("adaptive.splits") >= 1);
    }

    #[test]
    fn exchange_single_output() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![keyed([1, 2]), keyed([3])];
        let out = exchange_rows(&c, &key_schema(), inputs, 1).unwrap();
        assert_eq!(out[0].len(), 3);
    }

    #[test]
    fn skew_detected_even_on_tiny_exchanges() {
        // Regression: with a truncating mean, a handful of small rows into
        // 8 partitions gave mean 0 and the `mean > 0` guard silently
        // disabled skew detection. The rounded mean (floor 1) catches the
        // deliberately hot key below.
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![keyed([42, 42, 42, 42])];
        exchange_rows(&c, &key_schema(), inputs, 8).unwrap();
        assert_eq!(
            c.registry().counter_value("shuffle.skewed_partitions"),
            1,
            "the hot partition must be flagged"
        );
    }

    #[test]
    fn exchange_rows_roundtrips_and_accounts_exact_bytes() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let inputs: Vec<Vec<(u64, Row)>> = (0..3)
            .map(|p| {
                (0..100i64)
                    .map(|i| {
                        let row: Row = vec![
                            Value::Int64(i),
                            Value::Utf8(format!("p{p}-{i}")),
                            if i % 3 == 0 {
                                Value::Null
                            } else {
                                Value::Int64(p)
                            },
                        ];
                        (Value::Int64(i).key_hash(), row)
                    })
                    .collect()
            })
            .collect();
        let mut expected: Vec<Row> = inputs
            .iter()
            .flat_map(|p| p.iter().map(|(_, r)| r.clone()))
            .collect();
        let out = exchange_rows(&c, &schema, inputs, 4).unwrap();
        // Keys co-located: every key's 3 copies land in one partition.
        for i in 0..100i64 {
            let p = partition_of(Value::Int64(i).key_hash(), 4);
            let n = out[p].iter().filter(|r| r[0] == Value::Int64(i)).count();
            assert_eq!(n, 3, "key {i} not co-located");
        }
        let mut delivered: Vec<Row> = out.into_iter().flatten().collect();
        let fmt = |r: &Row| format!("{r:?}");
        delivered.sort_by_key(fmt);
        expected.sort_by_key(fmt);
        assert_eq!(delivered, expected);

        let r = c.registry();
        assert_eq!(r.counter_value("shuffle.rows"), 300);
        // Exact wire accounting: 12 blocks (3 maps × 4 reducers), each with
        // a 4-byte header, plus a 4-byte length prefix per row.
        assert_eq!(r.counter_value("shuffle.blocks"), 12);
        assert!(
            r.counter_value("shuffle.bytes") > 300 * 4,
            "length prefixes alone exceed this"
        );
    }

    #[test]
    fn exchange_rows_panics_on_schema_mismatch_surface_as_stage_error() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let bad_row: Row = vec![Value::Utf8("not an int".into()), Value::Int64(1)];
        let inputs: Vec<Vec<(u64, Row)>> = vec![vec![(7, bad_row)]];
        let err = exchange_rows(&c, &schema, inputs, 2).unwrap_err();
        assert!(matches!(err, StageError::TaskFailed { .. }));
    }

    fn three_single_core_workers() -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        })
    }

    #[test]
    fn account_broadcast_separates_traffic_from_footprint() {
        let c = three_single_core_workers();
        c.kill_worker(1);
        account_broadcast(&c, 4, c.alive_workers().len() as u64);
        // Copies-vs-bytes distinction: wire traffic per worker, memory once.
        let r = c.registry();
        assert_eq!(r.counter_value("broadcast.copies"), 2);
        assert_eq!(r.counter_value("broadcast.bytes"), 8); // 4 bytes × 2 workers
        assert_eq!(r.counter_value("broadcast.unique_bytes"), 4);
        assert_eq!(
            c.memory().broadcast_live(),
            (2, 8),
            "dead worker holds none"
        );
    }

    #[test]
    fn broadcast_ledger_reconciled_on_worker_death() {
        // Regression: broadcast occupancy accounting was append-only — a
        // worker dying with its refcounted copy left broadcast.unique_bytes
        // and broadcast.copies permanently inflated. The live ledger must
        // shrink on kill while the cumulative traffic counters stay put.
        let c = three_single_core_workers();
        account_broadcast(&c, 100, 3);
        assert_eq!(c.memory().broadcast_live(), (3, 300));
        let r = c.registry();
        assert_eq!(r.gauge_value("broadcast.live_copies"), 3);
        assert_eq!(r.gauge_value("broadcast.live_bytes"), 300);
        c.kill_worker(2);
        assert_eq!(
            c.memory().broadcast_live(),
            (2, 200),
            "the dead worker's copy must leave the live ledger"
        );
        assert_eq!(r.gauge_value("broadcast.live_copies"), 2);
        assert_eq!(r.gauge_value("broadcast.live_bytes"), 200);
        assert_eq!(r.counter_value("broadcast.reclaimed_copies"), 1);
        assert_eq!(r.counter_value("broadcast.reclaimed_bytes"), 100);
        // Cumulative traffic is history, not occupancy: unchanged by death.
        assert_eq!(r.counter_value("broadcast.copies"), 3);
        assert_eq!(r.counter_value("broadcast.unique_bytes"), 100);
        // A second kill of the same worker must not double-reclaim.
        c.kill_worker(2);
        assert_eq!(r.counter_value("broadcast.reclaimed_copies"), 1);
    }

    #[test]
    fn row_bytes_accounts_strings() {
        let row: Row = vec![Value::Int64(1), Value::Utf8("abcde".into())];
        assert_eq!(row_bytes(&row), 8 + 8 + 5);
    }

    #[test]
    fn reduce_plan_splits_hot_and_coalesces_empty() {
        let config = ClusterConfig::test_small(); // skew_ratio 2.0, 4 cores
                                                  // Partition 1 is hot (mean = round(1040/8) = 130, threshold 260);
                                                  // partitions 4..8 are near-empty (< mean/4).
        let rows = vec![100, 800, 100, 20, 5, 5, 5, 5];
        let plan = plan_reduce_tasks(&config, &rows);
        let slices: Vec<_> = plan
            .iter()
            .filter(|t| matches!(t, ReduceTask::Slice { part: 1, .. }))
            .collect();
        assert!(slices.len() >= 2, "hot partition must split: {plan:?}");
        let covered: usize = slices
            .iter()
            .map(|t| match t {
                ReduceTask::Slice { take, .. } => *take,
                _ => 0,
            })
            .sum();
        assert_eq!(covered, 800, "slices must cover every row exactly once");
        assert!(
            plan.iter()
                .any(|t| matches!(t, ReduceTask::Whole { parts } if parts.len() > 1)),
            "near-empty partitions must coalesce: {plan:?}"
        );
        // Every partition appears exactly once across Whole tasks.
        let mut whole_parts: Vec<usize> = plan
            .iter()
            .flat_map(|t| match t {
                ReduceTask::Whole { parts } => parts.clone(),
                _ => vec![],
            })
            .collect();
        whole_parts.sort_unstable();
        assert_eq!(whole_parts, vec![0, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn reduce_plan_uniform_input_is_one_task_per_partition() {
        let config = ClusterConfig::test_small();
        let rows = vec![100u64; 8];
        let plan = plan_reduce_tasks(&config, &rows);
        assert_eq!(plan.len(), 8);
        assert!(plan
            .iter()
            .all(|t| matches!(t, ReduceTask::Whole { parts } if parts.len() == 1)));
    }

    fn skewed_row_inputs(maps: usize, rows_per_map: i64) -> Vec<Vec<(u64, Row)>> {
        // ~70% of rows share one hot key; the rest spread uniformly.
        let hot = Value::Int64(42).key_hash();
        (0..maps)
            .map(|p| {
                (0..rows_per_map)
                    .map(|i| {
                        let (h, k) = if i % 10 < 7 {
                            (hot, 42)
                        } else {
                            let k = i * maps as i64 + p as i64;
                            (Value::Int64(k).key_hash(), k)
                        };
                        let row: Row = vec![
                            Value::Int64(k),
                            Value::Utf8(format!("p{p}-{i}")),
                            if i % 3 == 0 {
                                Value::Null
                            } else {
                                Value::Int64(i)
                            },
                        ];
                        (h, row)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn split_exchange_is_bit_identical_to_oracle() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        let inputs = skewed_row_inputs(3, 400);
        let want = reference_exchange(&inputs, 4);
        let out = exchange_rows(&c, &schema, inputs, 4).unwrap();
        // Ordered equality, not multiset: the reassembled slices must
        // reproduce the exact map-order rows in every partition.
        assert_eq!(out, want);
        assert_eq!(c.registry().counter_value("shuffle.rows"), 1200);
        assert!(
            c.registry().counter_value("adaptive.splits") >= 1,
            "the hot partition must have split"
        );
        let spans = c.trace().spans();
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Operator && s.name.starts_with("adaptive.split[")),
            "split decisions must be traced"
        );
    }

    #[test]
    fn exchange_coalesces_near_empty_partitions() {
        let c = Cluster::new(ClusterConfig::test_small());
        let schema = wire_schema();
        // One dominant key into many output partitions → most buckets hold
        // nearly nothing and must coalesce. 96% of rows share the hot key.
        let hot = Value::Int64(42).key_hash();
        let inputs: Vec<Vec<(u64, Row)>> = (0..2)
            .map(|p: i64| {
                (0..500i64)
                    .map(|i| {
                        let (h, k) = if i % 25 != 0 {
                            (hot, 42)
                        } else {
                            let k = i * 2 + p;
                            (Value::Int64(k).key_hash(), k)
                        };
                        let row: Row = vec![
                            Value::Int64(k),
                            Value::Utf8(format!("p{p}-{i}")),
                            Value::Null,
                        ];
                        (h, row)
                    })
                    .collect()
            })
            .collect();
        let want = reference_exchange(&inputs, 16);
        let out = exchange_rows(&c, &schema, inputs, 16).unwrap();
        assert_eq!(out, want);
        assert!(
            c.registry().counter_value("adaptive.coalesces") >= 1,
            "near-empty buckets must coalesce"
        );
    }

    #[test]
    fn split_exchange_survives_mid_stage_worker_kill() {
        // A worker dies while the split reduce plan runs. Retries re-execute
        // the same plan entries read-only — the output must stay *ordered*
        // identical to the sequential oracle, proving a split is never
        // double-applied.
        for attempt in 0..3 {
            let c = Cluster::new(ClusterConfig {
                workers: 3,
                executors_per_worker: 2,
                cores_per_executor: 2,
                max_task_attempts: 6,
                skew_ratio: 2.0,
            });
            let schema = wire_schema();
            let inputs = skewed_row_inputs(6, 500);
            let reference = reference_exchange(&inputs, 4);
            let killer = c.clone();
            let chaos = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2 + attempt));
                killer.kill_worker(1);
            });
            let out = exchange_rows(&c, &schema, inputs, 4).unwrap();
            chaos.join().unwrap();
            assert_eq!(out, reference, "attempt {attempt}");
        }
    }

    #[test]
    fn skew_ratio_is_configurable() {
        // With a huge ratio nothing is skewed and nothing splits.
        let c = Cluster::new(ClusterConfig {
            skew_ratio: 1000.0,
            ..ClusterConfig::test_small()
        });
        let schema = wire_schema();
        let inputs = skewed_row_inputs(3, 400);
        exchange_rows(&c, &schema, inputs, 4).unwrap();
        assert_eq!(c.registry().counter_value("shuffle.skewed_partitions"), 0);
        assert_eq!(c.registry().counter_value("adaptive.splits"), 0);
    }

    #[test]
    fn max_partition_rows_gauge_tracks_hottest_bucket() {
        let c = Cluster::new(ClusterConfig::test_small());
        let inputs = vec![keyed(std::iter::repeat_n(7, 50))];
        exchange_rows(&c, &key_schema(), inputs, 4).unwrap();
        assert_eq!(
            c.registry().gauge_value("shuffle.max_partition_rows"),
            50,
            "all 50 rows land in one bucket"
        );
    }
}
