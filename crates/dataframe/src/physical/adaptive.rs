//! Runtime-adaptive join — the one shuffled join. The planner emits it for
//! every equi-join no side of which is estimated broadcastable; it
//! re-decides its strategy *after* both inputs are materialized, when
//! actual sizes and key frequencies are known.
//!
//! Decision ladder (first match wins), taken at `execute` time:
//!
//! 1. **Demote to broadcast-hash** — the static planner chose a shuffle
//!    join from size *estimates*, but the materialized build side fits the
//!    broadcast threshold. Broadcasting it skips both exchanges entirely.
//! 2. **Salted / partial-broadcast join** — a key hash on the probe side
//!    exceeds the cluster's skew threshold (it would alone overflow its
//!    reduce partition). The *hot* build rows are broadcast and hot probe
//!    rows are joined in place — they never touch the wire — while cold
//!    keys take the normal shuffled-hash path. Routing is by key hash on
//!    both sides, so every key's rows travel the same path and the output
//!    multiset is exactly the inner join.
//! 3. **Shuffled join** — no runtime opportunity; both sides go through
//!    [`sparklet::exchange_rows`], which splits oversized reduce buckets and
//!    coalesces near-empty ones, and each co-located partition runs the
//!    shuffled-hash reduce body (or the sort-merge body when the session
//!    prefers sort-merge).
//!
//! Observed input cardinalities are recorded in the session's
//! [`crate::context::RuntimeStats`] — keyed by catalog name for bare table
//! scans and by plan fingerprint for join/aggregate inputs — so the *next*
//! query's static plan starts from measured sizes.

use crate::context::{Context, StatsTarget};
use crate::physical::join::{
    broadcast_hash_core, keyed, parts_bytes_sampled, shuffled_probe_core, sort_merge_probe_core,
};
use crate::physical::{
    count_rows, describe_node, observe_operator, ExecError, ExecPlan, Partitions,
};
use rowstore::{Row, Schema};
use sparklet::{row_bytes, SpanKind, SpanRecord};
use std::collections::HashMap;
use std::sync::Arc;

pub struct AdaptiveJoinExec {
    pub left: Arc<dyn ExecPlan>,
    pub right: Arc<dyn ExecPlan>,
    pub left_key: usize,
    pub right_key: usize,
    /// Runtime-stats keys for the inputs — catalog names for bare table
    /// scans, plan fingerprints for join/aggregate subtrees — the
    /// cardinality-feedback hook.
    pub left_stats: Option<StatsTarget>,
    pub right_stats: Option<StatsTarget>,
    /// When no runtime opportunity applies (no demotion, no salting), run
    /// the sort-merge reduce body instead of shuffled-hash — what a
    /// `prefer_sort_merge` session asks for. Demotion and salting still
    /// fire first, so sort-merge joins re-decide at runtime too.
    pub sort_merge: bool,
    pub out_schema: Arc<Schema>,
}

impl AdaptiveJoinExec {
    fn span(&self, ctx: &Arc<Context>, name: String) {
        let trace = ctx.cluster().trace();
        trace.record(SpanRecord {
            id: trace.next_span_id(),
            parent: trace.current_parent(),
            kind: SpanKind::Operator,
            name,
            start_us: trace.now_us(),
            dur_us: 0,
            worker: -1,
            partition: -1,
        });
    }
}

impl ExecPlan for AdaptiveJoinExec {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.out_schema)
    }

    fn execute(&self, ctx: &Arc<Context>) -> Result<Partitions, ExecError> {
        let left_parts = self.left.execute(ctx)?;
        let right_parts = self.right.execute(ctx)?;
        let left_rows = count_rows(&left_parts);
        let right_rows = count_rows(&right_parts);
        let left_bytes = parts_bytes_sampled(&left_parts);
        let right_bytes = parts_bytes_sampled(&right_parts);

        // Cardinality feedback: record what the inputs actually weigh.
        if let Some(target) = &self.left_stats {
            ctx.runtime_stats().record(target, left_rows, left_bytes);
        }
        if let Some(target) = &self.right_stats {
            ctx.runtime_stats().record(target, right_rows, right_bytes);
        }

        // Build on the side that *measured* smaller (the static planner
        // guessed from estimates; we know).
        let build_left = left_bytes <= right_bytes;
        let threshold = ctx.config().broadcast_threshold_bytes as u64;
        let rows_in = left_rows + right_rows;
        let (left_key, right_key) = (self.left_key, self.right_key);
        let p = ctx.shuffle_partitions();
        let (left_schema, right_schema) = (self.left.schema(), self.right.schema());
        let registry = ctx.cluster().registry();

        observe_operator(ctx, "join.adaptive", rows_in, || {
            let (build_parts, probe_parts, build_key, probe_key, build_bytes) = if build_left {
                (left_parts, right_parts, left_key, right_key, left_bytes)
            } else {
                (right_parts, left_parts, right_key, left_key, right_bytes)
            };

            // 1. Demotion: the materialized build side fits the broadcast
            // threshold — skip both exchanges.
            if build_bytes <= threshold {
                registry.counter("adaptive.join_demotions").inc();
                self.span(
                    ctx,
                    format!(
                        "adaptive.demote[build={} bytes={build_bytes} threshold={threshold}]",
                        if build_left { "left" } else { "right" }
                    ),
                );
                return broadcast_hash_core(
                    ctx,
                    build_parts,
                    probe_parts,
                    build_key,
                    probe_key,
                    build_left,
                );
            }

            // 2. Hot-key detection on the probe side, at key-hash
            // granularity (cheap: no value clones; a colliding cold key
            // just rides the hot path and still joins by value).
            let hot = detect_hot_hashes(
                ctx,
                &probe_parts,
                probe_key,
                &build_parts,
                build_key,
                p,
                threshold,
            );
            if let Some(hot) = hot {
                registry.counter("adaptive.salted_joins").inc();
                self.span(
                    ctx,
                    format!(
                        "adaptive.salt[hot_hashes={} probe_rows={}]",
                        hot.len(),
                        count_rows(&probe_parts)
                    ),
                );

                // Split both sides by hash: hot rows leave the shuffle.
                let mut hot_build: Vec<Row> = Vec::new();
                let mut cold_build: Vec<Vec<(u64, Row)>> = Vec::new();
                for part in build_parts {
                    let mut cold = Vec::new();
                    for row in part {
                        if row[build_key].is_null() {
                            continue;
                        }
                        let h = row[build_key].key_hash();
                        if hot.contains(&h) {
                            hot_build.push(row);
                        } else {
                            cold.push((h, row));
                        }
                    }
                    cold_build.push(cold);
                }
                let mut hot_probe: Partitions = Vec::new();
                let mut cold_probe: Vec<Vec<(u64, Row)>> = Vec::new();
                for part in probe_parts {
                    let mut hot_rows = Vec::new();
                    let mut cold = Vec::new();
                    for row in part {
                        if row[probe_key].is_null() {
                            continue;
                        }
                        let h = row[probe_key].key_hash();
                        if hot.contains(&h) {
                            hot_rows.push(row);
                        } else {
                            cold.push((h, row));
                        }
                    }
                    hot_probe.push(hot_rows);
                    cold_probe.push(cold);
                }

                // Cold keys: the normal shuffled-hash path (with adaptive
                // repartitioning of any residual imbalance).
                let (cold_left, cold_right) = if build_left {
                    (cold_build, cold_probe)
                } else {
                    (cold_probe, cold_build)
                };
                let ls = sparklet::exchange_rows(ctx.cluster(), &left_schema, cold_left, p)?;
                let rs = sparklet::exchange_rows(ctx.cluster(), &right_schema, cold_right, p)?;
                let mut out = shuffled_probe_core(
                    ctx,
                    Arc::new(ls),
                    Arc::new(rs),
                    left_key,
                    right_key,
                    build_left,
                )?;

                // Hot keys: broadcast the (tiny) hot build rows and join
                // the hot probe rows where they already are — zero wire
                // cost for the heavy side. When no build row carries a hot
                // key (sentinel/unknown-member skew), the inner join of
                // the hot rows is empty by construction: prune the whole
                // hot side without launching a stage.
                if !hot_build.is_empty() {
                    let hot_out = broadcast_hash_core(
                        ctx,
                        vec![hot_build],
                        hot_probe,
                        build_key,
                        probe_key,
                        build_left,
                    )?;
                    out.extend(hot_out);
                }
                return Ok(out);
            }

            // 3. No runtime opportunity: shuffle both sides (split/coalesce
            // still applies) and run the session's preferred reduce body —
            // sort-merge when it prefers it, shuffled-hash otherwise.
            let (left_parts, right_parts) = if build_left {
                (build_parts, probe_parts)
            } else {
                (probe_parts, build_parts)
            };
            let ls = sparklet::exchange_rows(
                ctx.cluster(),
                &left_schema,
                keyed(left_parts, left_key),
                p,
            )?;
            let rs = sparklet::exchange_rows(
                ctx.cluster(),
                &right_schema,
                keyed(right_parts, right_key),
                p,
            )?;
            if self.sort_merge {
                sort_merge_probe_core(ctx, Arc::new(ls), Arc::new(rs), left_key, right_key)
            } else {
                shuffled_probe_core(
                    ctx,
                    Arc::new(ls),
                    Arc::new(rs),
                    left_key,
                    right_key,
                    build_left,
                )
            }
        })
    }

    fn describe(&self, indent: usize) -> String {
        describe_node(
            indent,
            &format!(
                "AdaptiveJoin [strategy decided at runtime, fallback={}]",
                if self.sort_merge {
                    "sortmerge"
                } else {
                    "shuffled"
                }
            ),
            &[self.left.as_ref(), self.right.as_ref()],
        )
    }
}

/// Scan the probe side's key hashes for values frequent enough to overflow
/// a reduce partition on their own: a hash is *hot* when its row count
/// exceeds the cluster's skew threshold over the mean per-partition row
/// count. Salting only pays if the matching build rows are broadcastable,
/// so the hot set is discarded when their bytes exceed the threshold.
fn detect_hot_hashes(
    ctx: &Arc<Context>,
    probe_parts: &Partitions,
    probe_key: usize,
    build_parts: &Partitions,
    build_key: usize,
    num_partitions: usize,
    broadcast_threshold: u64,
) -> Option<Vec<u64>> {
    let probe_rows: u64 = probe_parts.iter().map(|p| p.len() as u64).sum();
    if probe_rows == 0 || num_partitions == 0 {
        return None;
    }
    let mean = ((probe_rows + num_partitions as u64 / 2) / num_partitions as u64).max(1);
    let hot_threshold = ctx.cluster().config().skew_threshold(mean as f64);

    // Count key hashes over a stride sample (exact when the probe side is
    // small). A hash is only interesting when it alone overflows a reduce
    // partition — by construction a double-digit percentage of all probe
    // rows — so a few thousand evenly-spaced rows see it many times over.
    // Which keys land in the hot set affects only *routing*, never the
    // join result, so sampling here is safe by the same argument that
    // makes hash collisions safe.
    let stride = (probe_rows as usize).div_ceil(4096).max(1);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for part in probe_parts {
        let mut idx = 0;
        while idx < part.len() {
            let row = &part[idx];
            if !row[probe_key].is_null() {
                *counts.entry(row[probe_key].key_hash()).or_insert(0) += 1;
            }
            idx += stride;
        }
    }
    let stride = stride as u64;
    // A handful of hashes at most — a linear scan beats a hash set for
    // the per-row membership tests the caller is about to run.
    let hot: Vec<u64> = counts
        .iter()
        .filter(|(_, &c)| c * stride > hot_threshold)
        .map(|(&h, _)| h)
        .collect();
    if hot.is_empty() {
        return None;
    }

    // Affordability gate: the hot build rows are about to be broadcast.
    let hot_build_bytes: u64 = build_parts
        .iter()
        .flat_map(|part| part.iter())
        .filter(|row| !row[build_key].is_null() && hot.contains(&row[build_key].key_hash()))
        .map(|row| row_bytes(row) as u64)
        .sum();
    if hot_build_bytes > broadcast_threshold {
        return None;
    }
    Some(hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use crate::context::ExecConfig;
    use crate::physical::gather;
    use crate::physical::scan::ProviderScanExec;
    use rowstore::{DataType, Field, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn schema(val: &str) -> Arc<Schema> {
        Schema::new(vec![
            Field::nullable("k", DataType::Int64),
            Field::new(val, DataType::Int64),
        ])
    }

    fn ctx_with_threshold(threshold: usize) -> Arc<Context> {
        Context::with_config(
            Cluster::new(ClusterConfig::test_small()),
            ExecConfig {
                broadcast_threshold_bytes: threshold,
                ..ExecConfig::default()
            },
        )
    }

    fn scan(s: &Arc<Schema>, rows: Vec<Row>, parts: usize) -> Arc<dyn ExecPlan> {
        let t = Arc::new(ColumnarTable::from_rows(Arc::clone(s), rows, parts));
        Arc::new(ProviderScanExec::new(t, "t"))
    }

    /// Reference nested-loop inner join (left ++ right column order).
    fn reference(left: &[Row], right: &[Row]) -> Vec<Row> {
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

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    fn adaptive_join(
        left: Arc<dyn ExecPlan>,
        right: Arc<dyn ExecPlan>,
        names: (Option<&str>, Option<&str>),
    ) -> AdaptiveJoinExec {
        let out_schema = left.schema().join(&right.schema());
        AdaptiveJoinExec {
            left,
            right,
            left_key: 0,
            right_key: 0,
            left_stats: names.0.map(|n| StatsTarget::Table(n.to_string())),
            right_stats: names.1.map(|n| StatsTarget::Table(n.to_string())),
            sort_merge: false,
            out_schema,
        }
    }

    /// 300 rows of hot key 7 plus 100 distinct cold keys on the probe side;
    /// 101 single-row keys on the build side.
    fn skewed_fixture() -> (Vec<Row>, Vec<Row>) {
        let build: Vec<Row> = (0..101)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .collect();
        let mut probe: Vec<Row> = (0..300)
            .map(|i| vec![Value::Int64(7), Value::Int64(i)])
            .collect();
        probe.extend((0..100).map(|k| vec![Value::Int64(k), Value::Int64(1000 + k)]));
        probe.push(vec![Value::Null, Value::Int64(-1)]);
        (build, probe)
    }

    #[test]
    fn runtime_demotion_skips_the_shuffle_entirely() {
        // The static planner would only emit AdaptiveJoinExec when it
        // *estimated* both sides over the threshold; here the materialized
        // build side is tiny, so the runtime demotes to broadcast-hash.
        let ctx = ctx_with_threshold(10 << 20);
        let build: Vec<Row> = (0..10)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .collect();
        let probe: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int64(i % 20), Value::Int64(i)])
            .collect();
        let j = adaptive_join(
            scan(&schema("bv"), build.clone(), 2),
            scan(&schema("pv"), probe.clone(), 4),
            (Some("build_t"), Some("probe_t")),
        );
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(sorted(got), sorted(reference(&build, &probe)));

        let reg = ctx.cluster().registry();
        assert_eq!(reg.counter("adaptive.join_demotions").get(), 1);
        assert_eq!(reg.counter("adaptive.salted_joins").get(), 0);
        assert_eq!(
            reg.counter("shuffle.exchanges").get(),
            0,
            "demotion must skip both exchanges"
        );
        assert!(ctx.cluster().trace_report().contains("adaptive.demote["));

        // Cardinality feedback landed for both scanned tables.
        let bs = ctx.runtime_stats().observed("build_t").unwrap();
        assert_eq!(bs.rows, 10);
        assert!(bs.bytes > 0);
        assert_eq!(ctx.runtime_stats().observed("probe_t").unwrap().rows, 200);
    }

    #[test]
    fn salted_join_shuffles_only_cold_rows() {
        // Build side (~101 rows) is over the 64-byte threshold, so no
        // demotion; key 7 carries 300 of the 401 probe rows → salted.
        let (build, probe) = skewed_fixture();
        let ctx = ctx_with_threshold(64);
        let j = adaptive_join(
            scan(&schema("bv"), build.clone(), 2),
            scan(&schema("pv"), probe.clone(), 4),
            (None, None),
        );
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(sorted(got), sorted(reference(&build, &probe)));

        let reg = ctx.cluster().registry();
        assert_eq!(reg.counter("adaptive.salted_joins").get(), 1);
        assert_eq!(reg.counter("adaptive.join_demotions").get(), 0);
        // Exactly the cold rows cross the wire: 100 cold build rows (101
        // minus hot key 7) + 99 cold probe rows (the 0..100 tail minus its
        // own key-7 row). The 301 hot probe rows and the hot build row
        // never enter an exchange.
        assert_eq!(
            reg.counter("shuffle.rows").get(),
            199,
            "hot-key rows must not be shuffled"
        );
        assert!(ctx.cluster().trace_report().contains("adaptive.salt["));
    }

    #[test]
    fn salted_join_matches_plain_shuffled_join() {
        let (build, probe) = skewed_fixture();
        let adaptive_ctx = ctx_with_threshold(64);
        let j = adaptive_join(
            scan(&schema("bv"), build.clone(), 2),
            scan(&schema("pv"), probe.clone(), 4),
            (None, None),
        );
        let got = gather(j.execute(&adaptive_ctx).unwrap());
        assert_eq!(
            adaptive_ctx
                .cluster()
                .registry()
                .counter("adaptive.salted_joins")
                .get(),
            1
        );

        // A zero threshold rules out salting (the hot build row no longer
        // fits) and demotion: every row takes the plain shuffled path.
        let plain_ctx = ctx_with_threshold(0);
        let s = adaptive_join(
            scan(&schema("bv"), build, 2),
            scan(&schema("pv"), probe, 4),
            (None, None),
        );
        let want = gather(s.execute(&plain_ctx).unwrap());
        let plain = plain_ctx.cluster().registry();
        assert_eq!(plain.counter("adaptive.salted_joins").get(), 0);
        assert_eq!(plain.counter("adaptive.join_demotions").get(), 0);
        assert_eq!(sorted(got), sorted(want));
    }

    #[test]
    fn uniform_input_takes_the_plain_shuffle_path() {
        // No demotion (threshold 1 byte), no hot key (uniform) — the
        // adaptive operator must still produce the join, via the shuffle.
        let ctx = ctx_with_threshold(1);
        let build: Vec<Row> = (0..200)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .collect();
        let probe: Vec<Row> = (0..400)
            .map(|i| vec![Value::Int64(i % 200), Value::Int64(i)])
            .collect();
        let j = adaptive_join(
            scan(&schema("bv"), build.clone(), 2),
            scan(&schema("pv"), probe.clone(), 4),
            (None, None),
        );
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(sorted(got), sorted(reference(&build, &probe)));

        let reg = ctx.cluster().registry();
        assert_eq!(reg.counter("adaptive.join_demotions").get(), 0);
        assert_eq!(reg.counter("adaptive.salted_joins").get(), 0);
        assert!(reg.counter("shuffle.exchanges").get() >= 2);
    }

    #[test]
    fn sort_merge_flavor_falls_back_to_sort_merge_body() {
        // Uniform input, nothing broadcastable: the sort-merge flavor must
        // run the sort-merge reduce body. The body has no span of its own
        // (it runs inside join.adaptive's), so assert on the result plus
        // the absence of demotion/salting.
        let ctx = ctx_with_threshold(1);
        let build: Vec<Row> = (0..200)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .collect();
        let probe: Vec<Row> = (0..400)
            .map(|i| vec![Value::Int64(i % 200), Value::Int64(i)])
            .collect();
        let mut j = adaptive_join(
            scan(&schema("bv"), build.clone(), 2),
            scan(&schema("pv"), probe.clone(), 4),
            (None, None),
        );
        j.sort_merge = true;
        assert!(j.describe(0).contains("fallback=sortmerge"));
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(sorted(got), sorted(reference(&build, &probe)));

        let reg = ctx.cluster().registry();
        assert_eq!(reg.counter("adaptive.join_demotions").get(), 0);
        assert_eq!(reg.counter("adaptive.salted_joins").get(), 0);
        assert!(reg.counter("shuffle.exchanges").get() >= 2);
    }

    #[test]
    fn sort_merge_flavor_still_demotes_tiny_build_sides() {
        // The sort-merge follow-up's point: a prefer_sort_merge session's
        // join re-decides at runtime and skips the exchange when the build
        // side turns out broadcastable.
        let ctx = ctx_with_threshold(10 << 20);
        let build: Vec<Row> = (0..10)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .collect();
        let probe: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int64(i % 20), Value::Int64(i)])
            .collect();
        let mut j = adaptive_join(
            scan(&schema("bv"), build.clone(), 2),
            scan(&schema("pv"), probe.clone(), 4),
            (None, None),
        );
        j.sort_merge = true;
        let got = gather(j.execute(&ctx).unwrap());
        assert_eq!(sorted(got), sorted(reference(&build, &probe)));

        let reg = ctx.cluster().registry();
        assert_eq!(reg.counter("adaptive.join_demotions").get(), 1);
        assert_eq!(
            reg.counter("shuffle.exchanges").get(),
            0,
            "sort-merge demotion must skip both exchanges"
        );
    }

    #[test]
    fn plan_keyed_stats_recorded_for_non_scan_inputs() {
        // A join/aggregate input carries a Plan stats target; executing the
        // adaptive join must record its materialized size under the
        // fingerprint, and forgetting a referenced table must drop it.
        let ctx = ctx_with_threshold(1);
        let build: Vec<Row> = (0..50)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .collect();
        let probe: Vec<Row> = (0..100)
            .map(|i| vec![Value::Int64(i % 50), Value::Int64(i)])
            .collect();
        let mut j = adaptive_join(
            scan(&schema("bv"), build, 2),
            scan(&schema("pv"), probe, 4),
            (None, None),
        );
        j.left_stats = Some(StatsTarget::Plan {
            fingerprint: 0xfeed,
            tables: vec!["base".into()],
        });
        j.execute(&ctx).unwrap();

        let s = ctx.runtime_stats().observed_plan(0xfeed).unwrap();
        assert_eq!(s.rows, 50);
        assert!(s.bytes > 0);
        ctx.runtime_stats().forget("unrelated");
        assert!(ctx.runtime_stats().observed_plan(0xfeed).is_some());
        ctx.runtime_stats().forget("base");
        assert!(
            ctx.runtime_stats().observed_plan(0xfeed).is_none(),
            "re-registering a referenced table must invalidate the plan observation"
        );
    }
}
