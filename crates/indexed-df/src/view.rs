//! Standing queries over the indexed cache: incremental view maintenance.
//!
//! A *view* is a registered filter/project/join/group-by plan over tracked
//! indexed tables whose materialized result is maintained **incrementally**
//! as appends land, instead of being recomputed per version. The delta
//! rules come from [`dataframe::delta`]:
//!
//! * linear views (`Filter* Scan` + projection) map the appended rows
//!   straight through the bound filter/projection pipeline;
//! * join views probe the appended rows against the *other* side's
//!   existing cTrie index — one routed lookup task per touched partition,
//!   no shuffle (§III-C's indexed join, applied to the delta only);
//! * aggregate views absorb the delta into live [`AggState`]
//!   accumulators — the exact accumulators the batch engine uses, so a
//!   snapshot equals a full recompute.
//!
//! Snapshot isolation falls out of MVCC: each view pins the base versions
//! it has applied (the pinned [`IndexedDataFrame`] handles share the
//! version's `DatasetLease`), so memory governance never retires a version
//! a view still probes; when a refresh commits, the pin advances and the
//! superseded version becomes retirable.
//!
//! Any plan outside the supported delta grammar — and any refresh that
//! fails mid-flight (worker death past retry budget, version gap) — falls
//! back to full recomputation. Fallbacks bump `view.fallbacks`; they are
//! never a wrong answer, and a failed refresh leaves the committed state
//! untouched, so a retried or recomputed refresh cannot double-apply a
//! delta.
//!
//! Refreshes run as their own queries through the cluster's fair
//! scheduler ([`sparklet::Cluster::run_as_query`]) and emit
//! `view.refreshes` / `view.delta_rows` counters plus a
//! `view.refresh[name]` trace span per refresh.

use crate::frame::IndexedDataFrame;
use dataframe::delta::{AggState, CoreShape, DeltaPlan};
use dataframe::{BoundExpr, Context, DataFrame, LogicalPlan, PlanError};
use parking_lot::Mutex;
use rowstore::{Row, Schema};
use sparklet::{partition_of, SpanKind, SpanRecord, TaskSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Extension-state key under which the manager lives in a [`Context`].
const EXT_KEY: &str = "indexed_df.views";

/// Standing-query manager for one [`Context`]: tracked base tables, the
/// registered views, and the append path that drives refreshes.
///
/// Obtained through [`ContextViewExt`]; stored as context extension state
/// (deliberately *not* holding an `Arc<Context>` itself — the context owns
/// the extension map, and a back-reference would leak the whole session).
#[derive(Default)]
pub struct ViewManager {
    tables: Mutex<HashMap<String, IndexedDataFrame>>,
    views: Mutex<HashMap<String, Arc<ViewInner>>>,
    /// Serializes appends (and therefore refreshes): each view sees a
    /// linear history of base versions, which is what makes the
    /// `applied + 1 == new` version check sufficient.
    append_lock: Mutex<()>,
}

struct ViewInner {
    name: String,
    plan: LogicalPlan,
    /// Catalog tables the plan reads (refresh trigger set).
    tables: Vec<String>,
    /// Derived delta plan; `None` means every refresh recomputes.
    delta: Option<Arc<DeltaPlan>>,
    /// For aggregate views: the plan *below* the aggregate, used to
    /// rebuild accumulator state on recompute (finished aggregate rows
    /// cannot be re-incremented).
    agg_input: Option<LogicalPlan>,
    out_schema: Arc<Schema>,
    state: Mutex<ViewState>,
}

#[derive(Default)]
struct ViewState {
    /// Materialized result rows (non-aggregate views).
    rows: Vec<Row>,
    /// Live accumulators (aggregate views); `rows` stays empty.
    agg: Option<AggState>,
    /// Base version each table's deltas have been applied through.
    applied: HashMap<String, u64>,
    /// Pinned base handles at the applied versions: join refreshes probe
    /// these, and the shared leases keep the versions resident until the
    /// pin advances.
    pinned: HashMap<String, IndexedDataFrame>,
}

/// Handle to a registered standing view.
#[derive(Clone)]
pub struct ViewHandle {
    inner: Arc<ViewInner>,
}

impl ViewHandle {
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.inner.out_schema
    }

    /// Whether appends maintain this view incrementally (`false`: every
    /// refresh recomputes because the plan is outside the delta grammar).
    pub fn is_incremental(&self) -> bool {
        self.inner.delta.is_some()
    }

    /// Snapshot of the current materialized result. Row order is
    /// unspecified (compare as a multiset, like any unsorted query
    /// result); the contents always equal a full recompute of the plan
    /// against the applied base versions.
    pub fn rows(&self) -> Vec<Row> {
        let state = self.inner.state.lock();
        match &state.agg {
            Some(agg) => agg.snapshot(),
            None => state.rows.clone(),
        }
    }
}

/// Standing-query API on [`Context`] (via extension state): track indexed
/// base tables, register views over them, and push appends through.
pub trait ContextViewExt {
    /// Register `idf` in the catalog under `name` *and* track it as an
    /// appendable base table for standing views. Returns the catalog
    /// DataFrame, like [`IndexedDataFrame::register`].
    fn track_indexed_table(
        &self,
        name: &str,
        idf: &IndexedDataFrame,
    ) -> Result<DataFrame, PlanError>;

    /// Register `df`'s plan as a standing view named `name`. The view is
    /// materialized now and maintained on every subsequent
    /// [`ContextViewExt::append_table`] touching its base tables —
    /// incrementally when the plan fits the delta grammar, by recompute
    /// otherwise. Re-registering a name replaces the old view.
    fn register_view(&self, name: &str, df: &DataFrame) -> Result<ViewHandle, PlanError>;

    /// Append rows to a tracked table: creates and caches the next MVCC
    /// version, re-registers it in the catalog, and refreshes every view
    /// that reads the table.
    fn append_table(&self, table: &str, rows: Vec<Row>) -> Result<(), PlanError>;

    /// Look up a registered view.
    fn view(&self, name: &str) -> Option<ViewHandle>;

    /// Remove a view (stops refreshing it); `true` if it existed.
    fn drop_view(&self, name: &str) -> bool;

    /// Stop tracking `name` as an appendable base table; `Ok(true)` if it
    /// was tracked. Fails with [`PlanError::TableReadByView`] while a
    /// registered view reads the table. A tracked table holds its
    /// context, so a context drops only once its tables are untracked
    /// (and deregistered from its catalog). The catalog entry stays.
    fn untrack_table(&self, name: &str) -> Result<bool, PlanError>;
}

fn manager(ctx: &Arc<Context>) -> Arc<ViewManager> {
    ctx.extension_state(EXT_KEY, || Arc::new(ViewManager::default()))
        .expect("view-manager extension slot holds a ViewManager")
}

impl ContextViewExt for Arc<Context> {
    fn track_indexed_table(
        &self,
        name: &str,
        idf: &IndexedDataFrame,
    ) -> Result<DataFrame, PlanError> {
        let df = idf.register(name)?;
        manager(self)
            .tables
            .lock()
            .insert(name.to_string(), idf.clone());
        Ok(df)
    }

    fn register_view(&self, name: &str, df: &DataFrame) -> Result<ViewHandle, PlanError> {
        manager(self).register_view(self, name, df)
    }

    fn append_table(&self, table: &str, rows: Vec<Row>) -> Result<(), PlanError> {
        manager(self).append_table(self, table, rows)
    }

    fn view(&self, name: &str) -> Option<ViewHandle> {
        manager(self)
            .views
            .lock()
            .get(name)
            .map(|inner| ViewHandle {
                inner: Arc::clone(inner),
            })
    }

    fn drop_view(&self, name: &str) -> bool {
        manager(self).views.lock().remove(name).is_some()
    }

    fn untrack_table(&self, name: &str) -> Result<bool, PlanError> {
        manager(self).untrack_table(name)
    }
}

impl ViewManager {
    /// Whether a derived delta plan is actually maintainable against the
    /// tracked tables: every base must be tracked, and a join must be on
    /// both sides' index columns (the delta probes the other side's
    /// cTrie) between two *distinct* tables (self-join deltas would need
    /// the ΔA⋈ΔA cross term — recompute instead).
    fn delta_supported(&self, d: &DeltaPlan) -> bool {
        let tables = self.tables.lock();
        match &d.core {
            CoreShape::Linear(c) => tables.contains_key(&c.table),
            CoreShape::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                left.table != right.table
                    && tables
                        .get(&left.table)
                        .is_some_and(|t| t.index_col() == *left_key)
                    && tables
                        .get(&right.table)
                        .is_some_and(|t| t.index_col() == *right_key)
            }
        }
    }

    fn untrack_table(&self, name: &str) -> Result<bool, PlanError> {
        let _appends = self.append_lock.lock();
        let views = self.views.lock();
        if let Some(view) = views.values().find(|v| v.tables.iter().any(|t| t == name)) {
            return Err(PlanError::TableReadByView {
                table: name.to_string(),
                view: view.name.clone(),
            });
        }
        Ok(self.tables.lock().remove(name).is_some())
    }

    fn register_view(
        &self,
        ctx: &Arc<Context>,
        name: &str,
        df: &DataFrame,
    ) -> Result<ViewHandle, PlanError> {
        let plan = df.plan().clone();
        let out_schema = plan.schema()?;
        let delta = DeltaPlan::derive(&plan)
            .filter(|d| self.delta_supported(d))
            .map(Arc::new);
        let agg_input = if delta.as_ref().is_some_and(|d| d.agg.is_some()) {
            match &plan {
                LogicalPlan::Aggregate { input, .. } => Some((**input).clone()),
                _ => unreachable!("delta derivation found an aggregate head"),
            }
        } else {
            None
        };
        let inner = Arc::new(ViewInner {
            name: name.to_string(),
            tables: plan.referenced_tables(),
            plan,
            delta,
            agg_input,
            out_schema,
            state: Mutex::new(ViewState::default()),
        });
        // Initial materialization, as its own fair-scheduler query.
        ctx.cluster()
            .run_as_query(1, || self.recompute(ctx, &inner))?;
        self.views
            .lock()
            .insert(name.to_string(), Arc::clone(&inner));
        Ok(ViewHandle { inner })
    }

    fn append_table(
        &self,
        ctx: &Arc<Context>,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<(), PlanError> {
        let _appends = self.append_lock.lock();
        let old = self
            .tables
            .lock()
            .get(table)
            .cloned()
            .ok_or_else(|| PlanError::UnknownTable(table.to_string()))?;
        let new = old.append_rows(rows.clone());
        // Materialize now: the append shuffle runs once, and committing
        // marks the parent version superseded for retirement.
        new.cache_index()?;
        new.register(table)?;
        self.tables.lock().insert(table.to_string(), new.clone());

        let views: Vec<Arc<ViewInner>> = self.views.lock().values().cloned().collect();
        for view in views {
            if view.tables.iter().any(|t| t == table) {
                self.refresh(ctx, &view, table, &rows, new.version())?;
            }
        }
        Ok(())
    }

    /// Refresh one view after `table` advanced to `new_version` by
    /// appending `delta_rows`: incremental when possible, recompute
    /// fallback otherwise. Runs as its own fair-scheduler query and emits
    /// the `view.*` counters plus a `view.refresh[name]` span.
    fn refresh(
        &self,
        ctx: &Arc<Context>,
        view: &Arc<ViewInner>,
        table: &str,
        delta_rows: &[Row],
        new_version: u64,
    ) -> Result<(), PlanError> {
        let cluster = ctx.cluster();
        let registry = cluster.registry();
        let trace = cluster.trace();
        let start_us = trace.now_us();
        registry.counter("view.refreshes").inc();

        let result = cluster.run_as_query(1, || {
            match self.try_incremental(ctx, view, table, delta_rows, new_version) {
                Ok(true) => {
                    registry
                        .counter("view.delta_rows")
                        .add(delta_rows.len() as u64);
                    Ok(())
                }
                // Unsupported shape, version gap, or a refresh that died
                // mid-probe: the committed state is untouched, so a full
                // recompute is always correct (and never double-applies).
                Ok(false) | Err(_) => {
                    registry.counter("view.fallbacks").inc();
                    self.recompute(ctx, view)
                }
            }
        });
        trace.record(SpanRecord {
            id: trace.next_span_id(),
            parent: trace.current_parent(),
            kind: SpanKind::Operator,
            name: format!("view.refresh[{}]", view.name),
            start_us,
            dur_us: trace.now_us().saturating_sub(start_us),
            worker: -1,
            partition: -1,
        });
        result
    }

    /// Push the delta through the view's delta plan. `Ok(false)` means
    /// "not applicable, recompute instead"; `Err` means a distributed
    /// probe failed (state is untouched either way).
    fn try_incremental(
        &self,
        ctx: &Arc<Context>,
        view: &Arc<ViewInner>,
        table: &str,
        delta_rows: &[Row],
        new_version: u64,
    ) -> Result<bool, PlanError> {
        let Some(d) = &view.delta else {
            return Ok(false);
        };
        // Holding the state lock for the whole refresh makes the commit
        // atomic against readers: a `ViewHandle::rows` call sees either
        // the pre- or post-refresh result, never a half-applied delta.
        let mut state = view.state.lock();
        if state.applied.get(table).copied() != Some(new_version - 1) {
            return Ok(false);
        }
        let out = match &d.core {
            CoreShape::Linear(chain) => d.apply_post(chain.apply(delta_rows)),
            CoreShape::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let delta_is_left = table == left.table;
                let (my_chain, my_key) = if delta_is_left {
                    (left, *left_key)
                } else {
                    (right, *right_key)
                };
                let other_name = if delta_is_left {
                    &right.table
                } else {
                    &left.table
                };
                // Probe the *pinned* handle: the other side exactly at its
                // applied version (snapshot isolation for the join delta).
                let other = state
                    .pinned
                    .get(other_name)
                    .cloned()
                    .ok_or_else(|| PlanError::UnknownTable(other_name.clone()))?;
                let filtered = my_chain.apply(delta_rows);
                let joined = probe_join(ctx, d, filtered, &other, delta_is_left, my_key)?;
                d.apply_post(joined)
            }
        };
        match state.agg.as_mut() {
            Some(agg) => agg.absorb(&out),
            None => state.rows.extend(out),
        }
        state.applied.insert(table.to_string(), new_version);
        let current = self
            .tables
            .lock()
            .get(table)
            .cloned()
            .expect("appended table is tracked");
        state.pinned.insert(table.to_string(), current);
        Ok(true)
    }

    /// Full recomputation through the catalog (which already serves the
    /// newest versions), then commit: result rows or rebuilt accumulator
    /// state, and re-synced applied/pinned versions.
    fn recompute(&self, ctx: &Arc<Context>, view: &Arc<ViewInner>) -> Result<(), PlanError> {
        let (rows, agg) = match (&view.delta, &view.agg_input) {
            (Some(d), Some(core_plan)) => {
                let core_rows =
                    DataFrame::from_plan(core_plan.clone(), Arc::clone(ctx)).collect()?;
                let shape = d.agg.as_ref().expect("agg_input implies an agg head");
                let mut agg = AggState::new(shape);
                agg.absorb(&core_rows);
                (Vec::new(), Some(agg))
            }
            _ => (
                DataFrame::from_plan(view.plan.clone(), Arc::clone(ctx)).collect()?,
                None,
            ),
        };
        let mut state = view.state.lock();
        state.rows = rows;
        state.agg = agg;
        if let Some(d) = &view.delta {
            let tables = self.tables.lock();
            for t in d.tables() {
                if let Some(handle) = tables.get(t) {
                    state.applied.insert(t.to_string(), handle.version());
                    state.pinned.insert(t.to_string(), handle.clone());
                }
            }
        }
        Ok(())
    }
}

/// Join the filtered delta rows against the other side's index: route each
/// delta row to the partition owning its key's hash and probe that
/// partition's cTrie on its home worker — the indexed join of §III-C
/// applied to the delta alone, with no shuffle of the (much larger) base.
/// Output rows are core-shaped: logical left ++ logical right.
fn probe_join(
    ctx: &Arc<Context>,
    d: &Arc<DeltaPlan>,
    delta: Vec<Row>,
    other: &IndexedDataFrame,
    delta_is_left: bool,
    my_key: usize,
) -> Result<Vec<Row>, PlanError> {
    other.cache_index()?;
    let p = other.num_partitions();
    let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); p];
    for r in delta {
        // Null join keys never match (inner-join semantics).
        if !r[my_key].is_null() {
            buckets[partition_of(r[my_key].key_hash(), p)].push(r);
        }
    }
    let cluster = ctx.cluster();
    let tasks: Vec<TaskSpec> = (0..p)
        .filter(|&i| !buckets[i].is_empty())
        .map(|i| TaskSpec {
            partition: i,
            preferred_worker: Some(cluster.worker_for_partition(i)),
        })
        .collect();
    if tasks.is_empty() {
        return Ok(Vec::new());
    }
    let buckets = Arc::new(buckets);
    let dd = Arc::clone(d);
    let other = other.clone();
    let out = cluster.run_stage(&tasks, move |tc| {
        let other_chain = match &dd.core {
            CoreShape::Join { left, right, .. } => {
                if delta_is_left {
                    right
                } else {
                    left
                }
            }
            CoreShape::Linear(_) => unreachable!("probe_join is only called for join cores"),
        };
        let part = other.partition(tc.partition);
        let mut rows = Vec::new();
        for drow in &buckets[tc.partition] {
            for orow in part.lookup(&drow[my_key]) {
                if !other_chain
                    .filters
                    .iter()
                    .all(|f| BoundExpr::is_true(&f.eval_row(&orow)))
                {
                    continue;
                }
                let mut row = Vec::with_capacity(drow.len() + orow.len());
                if delta_is_left {
                    row.extend_from_slice(drow);
                    row.extend(orow);
                } else {
                    row.extend(orow);
                    row.extend_from_slice(drow);
                }
                rows.push(row);
            }
        }
        rows
    })?;
    Ok(out.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataframe::{col, lit, AggFunc};
    use rowstore::{DataType, Field, Value};
    use sparklet::{Cluster, ClusterConfig};

    fn fixture() -> (Arc<Context>, DataFrame, DataFrame) {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let events_schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("cat", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let dims_schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("label", DataType::Int64),
        ]);
        let events: Vec<Row> = (0..400i64)
            .map(|i| vec![Value::Int64(i % 40), Value::Int64(i % 5), Value::Int64(i)])
            .collect();
        let dims: Vec<Row> = (0..40i64)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 10)])
            .collect();
        let e = IndexedDataFrame::from_rows(&ctx, events_schema, events, "k").unwrap();
        let d = IndexedDataFrame::from_rows(&ctx, dims_schema, dims, "k").unwrap();
        e.cache_index().unwrap();
        d.cache_index().unwrap();
        let events_df = ctx.track_indexed_table("events", &e).unwrap();
        let dims_df = ctx.track_indexed_table("dims", &d).unwrap();
        (ctx, events_df, dims_df)
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    /// Every supported shape stays equal to a full recompute across a
    /// stream of appends, without recomputation (delta_rows advances,
    /// fallbacks stays at zero for the incremental views).
    #[test]
    fn incremental_views_track_appends_exactly() {
        let (ctx, events_df, dims_df) = fixture();
        let filt = ctx
            .register_view(
                "hot",
                &events_df
                    .clone()
                    .filter(col("v").gt(lit(100i64)))
                    .select(&["k", "v"]),
            )
            .unwrap();
        let join = ctx
            .register_view("enriched", &events_df.clone().join(dims_df, "k", "k"))
            .unwrap();
        let agg = ctx
            .register_view(
                "by_cat",
                &events_df.clone().group_by(&["cat"]).agg(vec![
                    (AggFunc::Count, None, "n"),
                    (AggFunc::Sum, Some("v"), "s"),
                ]),
            )
            .unwrap();
        assert!(filt.is_incremental());
        assert!(join.is_incremental());
        assert!(agg.is_incremental());

        let registry = ctx.cluster().registry();
        for batch in 0..4i64 {
            let rows: Vec<Row> = (0..10)
                .map(|i| {
                    let x = 1000 + batch * 10 + i;
                    vec![Value::Int64(x % 40), Value::Int64(x % 5), Value::Int64(x)]
                })
                .collect();
            ctx.append_table("events", rows).unwrap();
            // Reference: recompute each plan through the catalog.
            let hot_ref = ctx
                .sql("SELECT k, v FROM events WHERE v > 100")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(sorted(filt.rows()), sorted(hot_ref), "batch {batch}");
            let join_ref = ctx
                .sql("SELECT * FROM events JOIN dims ON events.k = dims.k")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(sorted(join.rows()), sorted(join_ref), "batch {batch}");
            let agg_ref = ctx
                .sql("SELECT cat, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY cat")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(sorted(agg.rows()), sorted(agg_ref), "batch {batch}");
        }
        // 3 views × 4 batches, all incremental.
        assert_eq!(registry.counter_value("view.refreshes"), 12);
        assert_eq!(registry.counter_value("view.delta_rows"), 120);
        assert_eq!(registry.counter_value("view.fallbacks"), 0);
    }

    /// Appends to *either* side of a join view maintain it (delta side
    /// probes the other side's index at its applied version).
    #[test]
    fn join_view_absorbs_appends_on_both_sides() {
        let (ctx, events_df, dims_df) = fixture();
        let join = ctx
            .register_view("enriched", &events_df.join(dims_df, "k", "k"))
            .unwrap();
        ctx.append_table(
            "events",
            vec![vec![Value::Int64(3), Value::Int64(0), Value::Int64(9999)]],
        )
        .unwrap();
        ctx.append_table("dims", vec![vec![Value::Int64(3), Value::Int64(777)]])
            .unwrap();
        let want = ctx
            .sql("SELECT * FROM events JOIN dims ON events.k = dims.k")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(sorted(join.rows()), sorted(want));
        assert_eq!(ctx.cluster().registry().counter_value("view.fallbacks"), 0);
    }

    /// A plan outside the delta grammar still gives correct answers — by
    /// recomputing on every refresh, with `view.fallbacks` counting it.
    #[test]
    fn unsupported_shape_falls_back_to_recompute() {
        let (ctx, events_df, _) = fixture();
        let sorted_view = ctx
            .register_view("latest", &events_df.sort(&[("v", true)]).limit(5))
            .unwrap();
        assert!(!sorted_view.is_incremental());
        ctx.append_table(
            "events",
            vec![vec![
                Value::Int64(1),
                Value::Int64(1),
                Value::Int64(100_000),
            ]],
        )
        .unwrap();
        let rows = sorted_view.rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][2], Value::Int64(100_000));
        let registry = ctx.cluster().registry();
        assert_eq!(registry.counter_value("view.fallbacks"), 1);
        assert_eq!(registry.counter_value("view.refreshes"), 1);
        assert_eq!(registry.counter_value("view.delta_rows"), 0);
    }

    /// Dropping a view stops refreshes; unknown tables are rejected.
    #[test]
    fn drop_and_unknown_table() {
        let (ctx, events_df, _) = fixture();
        let v = ctx.register_view("hot", &events_df).unwrap();
        assert!(ctx.view("hot").is_some());
        assert!(ctx.drop_view("hot"));
        assert!(ctx.view("hot").is_none());
        ctx.append_table(
            "events",
            vec![vec![Value::Int64(1), Value::Int64(1), Value::Int64(1)]],
        )
        .unwrap();
        assert_eq!(ctx.cluster().registry().counter_value("view.refreshes"), 0);
        // The dropped handle still answers from its last state.
        assert_eq!(v.rows().len(), 400);
        assert!(matches!(
            ctx.append_table("nope", vec![]),
            Err(PlanError::UnknownTable(_))
        ));
    }

    /// Nothing the view layer, the catalog or the pooled session drivers
    /// keep outlives the context once its views are dropped and its
    /// tables untracked and deregistered.
    #[test]
    fn untracked_context_drops() {
        let (ctx, events_df, dims_df) = fixture();
        let view = ctx
            .register_view(
                "enriched",
                &events_df.clone().join(dims_df.clone(), "k", "k"),
            )
            .unwrap();
        assert_eq!(
            ctx.untrack_table("dims").unwrap_err(),
            PlanError::TableReadByView {
                table: "dims".into(),
                view: "enriched".into(),
            }
        );
        // Queries through the session layer, one waited and one only
        // polled, leave pooled driver threads behind.
        let sql = "SELECT * FROM events WHERE k = 3";
        assert_eq!(ctx.submit_sql(sql).unwrap().wait().unwrap().len(), 10);
        let polled = ctx.submit_sql(sql).unwrap();
        while polled.poll().is_none() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(polled);

        assert!(ctx.drop_view("enriched"));
        drop(view);
        for table in ["events", "dims"] {
            assert_eq!(ctx.untrack_table(table), Ok(true));
            assert_eq!(ctx.untrack_table(table), Ok(false));
            assert!(ctx.deregister_table(table).unwrap().is_some());
        }
        drop((events_df, dims_df));
        let weak = Arc::downgrade(&ctx);
        drop(ctx);
        assert!(
            weak.upgrade().is_none(),
            "something still holds the context"
        );
    }
}
