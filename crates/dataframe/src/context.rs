//! The session context: catalog, execution config, and the rule registry
//! that lets extension libraries (the Indexed DataFrame) inject their own
//! physical planning — the analogue of registering Catalyst optimization
//! rules and strategies from an external jar (§III-B, Fig. 2).

use crate::column::ColumnarTable;
use crate::expr::PlanError;
use crate::physical::ExecPlan;
use crate::plan::LogicalPlan;
use crate::planner::Planner;
use crate::session::DriverPool;
use parking_lot::{Mutex, RwLock};
use rowstore::{Row, Schema};
use sparklet::Cluster;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Execution tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Number of shuffle partitions for distributed joins/aggregations.
    pub shuffle_partitions: usize,
    /// Relations estimated below this size are broadcast instead of
    /// shuffled (Spark's `autoBroadcastJoinThreshold`; the paper quotes
    /// 10 MB, §IV-C).
    pub broadcast_threshold_bytes: usize,
    /// Run the sort-merge reduce body instead of shuffled-hash in large
    /// joins (Spark's default; the paper's production runs use
    /// broadcast-hash, "faster than the notoriously slow SortMerge Join",
    /// §IV-E). Either way the join re-decides at runtime: it demotes to
    /// broadcast-hash when its build side turns out tiny and salts hot keys
    /// past the cluster's `skew_ratio`.
    pub prefer_sort_merge: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shuffle_partitions: 0, // 0 → derive from cluster geometry
            broadcast_threshold_bytes: 10 << 20,
            prefer_sort_merge: false,
        }
    }
}

/// Observed (not estimated) size of a table, recorded by executed scans
/// and consulted by the planner on subsequent queries — sessions
/// re-running similar queries get broadcast decisions based on what the
/// table actually weighed, not on the provider's registration-time
/// estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    pub rows: u64,
    pub bytes: u64,
    /// How many executions contributed (last observation wins; the count
    /// is for diagnostics).
    pub observations: u64,
}

/// What a runtime observation is keyed by. Bare scans record against the
/// catalog name; join/aggregate outputs used as build sides record against
/// a structural fingerprint of their logical subtree, tagged with the
/// tables the subtree reads so re-registering any of them invalidates the
/// observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsTarget {
    /// A bare catalog scan (possibly behind pass-through operators).
    Table(String),
    /// A non-scan subtree (join/aggregate output) identified by the
    /// fingerprint of its logical plan.
    Plan {
        fingerprint: u64,
        /// Catalog tables the subtree scans; re-registering any of them
        /// drops the observation.
        tables: Vec<String>,
    },
}

/// The cardinality-feedback catalog: per-table observed row counts and
/// byte sizes, keyed by catalog name — plus fingerprint-keyed observations
/// for join/aggregate subtrees used as build sides.
#[derive(Default)]
pub struct RuntimeStats {
    tables: Mutex<HashMap<String, TableStats>>,
    plans: Mutex<HashMap<u64, (Vec<String>, TableStats)>>,
}

impl RuntimeStats {
    /// Record one observed materialization of `table`. The latest
    /// observation replaces the previous one (tables mutate between
    /// queries; stale sizes are worse than fresh ones).
    pub fn record_table(&self, table: &str, rows: u64, bytes: u64) {
        let mut tables = self.tables.lock();
        let e = tables.entry(table.to_string()).or_insert(TableStats {
            rows: 0,
            bytes: 0,
            observations: 0,
        });
        e.rows = rows;
        e.bytes = bytes;
        e.observations += 1;
    }

    pub fn observed(&self, table: &str) -> Option<TableStats> {
        self.tables.lock().get(table).copied()
    }

    /// Record an observation against either key kind.
    pub fn record(&self, target: &StatsTarget, rows: u64, bytes: u64) {
        match target {
            StatsTarget::Table(name) => self.record_table(name, rows, bytes),
            StatsTarget::Plan {
                fingerprint,
                tables,
            } => {
                let mut plans = self.plans.lock();
                let e = plans
                    .entry(*fingerprint)
                    .or_insert_with(|| (tables.clone(), TableStats::default()));
                e.0 = tables.clone();
                e.1.rows = rows;
                e.1.bytes = bytes;
                e.1.observations += 1;
            }
        }
    }

    /// Observation for a fingerprinted (join/aggregate) subtree.
    pub fn observed_plan(&self, fingerprint: u64) -> Option<TableStats> {
        self.plans.lock().get(&fingerprint).map(|(_, s)| *s)
    }

    /// Drop the observation for `table` (e.g. after re-registration), plus
    /// every fingerprinted observation whose subtree reads that table.
    pub fn forget(&self, table: &str) {
        self.tables.lock().remove(table);
        self.plans
            .lock()
            .retain(|_, (tables, _)| !tables.iter().any(|t| t == table));
    }
}

/// A table registered in the catalog. Implemented by the built-in columnar
/// cache and by the Indexed DataFrame's Indexed Batch RDD.
pub trait TableProvider: Send + Sync + 'static {
    fn schema(&self) -> Arc<Schema>;
    fn num_partitions(&self) -> usize;
    /// Materialize one partition as rows — the universal fallback path
    /// ("an Indexed Batch RDD can always fall back to a regular Spark Row
    /// RDD", Fig. 2).
    fn scan_partition(&self, partition: usize) -> Vec<Row>;
    /// Total rows (exact).
    fn num_rows(&self) -> usize;
    /// Estimated in-memory size, used for broadcast decisions.
    fn estimated_bytes(&self) -> usize;
    fn as_any(&self) -> &dyn Any;

    /// Expose partitions as shared columnar storage for the vectorized
    /// pipeline. Providers whose native layout is typed column vectors
    /// (the columnar cache, the indexed columnar table) return `Some`;
    /// row-layout providers keep the default `None` and stay on the
    /// row-at-a-time scan.
    fn columnar_source(&self) -> Option<Arc<dyn crate::column::ColumnarSource>> {
        None
    }

    /// Scan one partition with a pushed-down predicate and/or projection.
    /// The default materializes and then filters/projects; providers that
    /// can evaluate on their native representation (the Indexed Batch
    /// RDD's binary rows) override this to skip materializing rejected
    /// rows and unused columns.
    fn scan_partition_pushdown(
        &self,
        partition: usize,
        predicate: Option<&crate::expr::BoundExpr>,
        projection: Option<&[usize]>,
    ) -> Vec<Row> {
        let rows = self.scan_partition(partition);
        rows.into_iter()
            .filter(|r| {
                predicate
                    .map(|p| crate::expr::BoundExpr::is_true(&p.eval_row(r)))
                    .unwrap_or(true)
            })
            .map(|r| match projection {
                Some(cols) => cols.iter().map(|&c| r[c].clone()).collect(),
                None => r,
            })
            .collect()
    }
}

impl TableProvider for ColumnarTable {
    fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    fn num_partitions(&self) -> usize {
        self.num_partitions()
    }

    fn scan_partition(&self, partition: usize) -> Vec<Row> {
        let p = &self.partitions[partition];
        (0..p.num_rows()).map(|i| p.row(i)).collect()
    }

    fn num_rows(&self) -> usize {
        self.num_rows()
    }

    fn estimated_bytes(&self) -> usize {
        self.heap_bytes()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn columnar_source(&self) -> Option<Arc<dyn crate::column::ColumnarSource>> {
        Some(Arc::new(self.clone()))
    }
}

/// An extension hook consulted before default physical planning. The first
/// rule returning `Some` wins. This is how the Indexed DataFrame library
/// triggers indexed lookups/joins without modifying engine code.
pub trait PlannerRule: Send + Sync {
    /// A short name for `explain` output.
    fn name(&self) -> &str;
    /// Try to plan `plan` (including its children) yourself.
    fn plan(
        &self,
        plan: &LogicalPlan,
        ctx: &Arc<Context>,
        planner: &Planner,
    ) -> Option<Result<Arc<dyn ExecPlan>, PlanError>>;
}

/// The session: cluster handle, catalog, config, and extension rules.
pub struct Context {
    cluster: Arc<Cluster>,
    config: ExecConfig,
    catalog: Mutex<HashMap<String, Arc<dyn TableProvider>>>,
    runtime_stats: RuntimeStats,
    rules: RwLock<Vec<Arc<dyn PlannerRule>>>,
    /// Tables pinned by running queries (name → pin count). Physical
    /// plans snapshot their providers at plan time, so execution never
    /// touches the catalog — the pin exists so DDL gets a typed error
    /// instead of silently yanking a table out from under a session.
    pins: Mutex<HashMap<String, usize>>,
    /// Session-scoped extension state, keyed by a static string the
    /// extension owns. This is how out-of-crate subsystems (the Indexed
    /// DataFrame's standing-view manager) hang per-session singletons off
    /// the context without the engine crate knowing their types.
    extensions: Mutex<HashMap<&'static str, Arc<dyn Any + Send + Sync>>>,
    /// Pooled driver threads for `submit_sql` jobs (see `session`).
    drivers: DriverPool,
}

/// RAII pin over the tables a running query scans: created at submit,
/// released when the query finishes (success, failure or cancellation).
pub(crate) struct TablePinGuard {
    ctx: Arc<Context>,
    tables: Vec<String>,
}

impl Drop for TablePinGuard {
    fn drop(&mut self) {
        let mut pins = self.ctx.pins.lock();
        for t in &self.tables {
            if let Some(c) = pins.get_mut(t) {
                *c -= 1;
                if *c == 0 {
                    pins.remove(t);
                }
            }
        }
    }
}

impl Context {
    pub fn new(cluster: Arc<Cluster>) -> Arc<Context> {
        Self::with_config(cluster, ExecConfig::default())
    }

    pub fn with_config(cluster: Arc<Cluster>, config: ExecConfig) -> Arc<Context> {
        Arc::new(Context {
            cluster,
            config,
            catalog: Mutex::new(HashMap::new()),
            runtime_stats: RuntimeStats::default(),
            rules: RwLock::new(Vec::new()),
            pins: Mutex::new(HashMap::new()),
            extensions: Mutex::new(HashMap::new()),
            drivers: DriverPool::default(),
        })
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub(crate) fn drivers(&self) -> &DriverPool {
        &self.drivers
    }

    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Effective shuffle partition count.
    pub fn shuffle_partitions(&self) -> usize {
        if self.config.shuffle_partitions > 0 {
            self.config.shuffle_partitions
        } else {
            self.cluster.config().default_partitions()
        }
    }

    /// The cardinality-feedback catalog (observed table sizes).
    pub fn runtime_stats(&self) -> &RuntimeStats {
        &self.runtime_stats
    }

    /// Register (or replace) a named table. Replacing a table invalidates
    /// its runtime-stats observation — the new contents may have nothing
    /// in common with the measured ones.
    pub fn register_table(&self, name: impl Into<String>, provider: Arc<dyn TableProvider>) {
        let name = name.into();
        self.runtime_stats.forget(&name);
        self.catalog.lock().insert(name, provider);
    }

    /// Remove a table from the catalog. Fails with
    /// [`PlanError::TablePinned`] while a running query pins the table
    /// (submitted via [`Context::submit_sql`] and not yet finished) —
    /// retry after the query completes.
    pub fn deregister_table(
        &self,
        name: &str,
    ) -> Result<Option<Arc<dyn TableProvider>>, PlanError> {
        let pins = self.pins.lock();
        if pins.get(name).copied().unwrap_or(0) > 0 {
            return Err(PlanError::TablePinned(name.to_string()));
        }
        Ok(self.catalog.lock().remove(name))
    }

    /// Pin `tables` for the lifetime of the returned guard.
    pub(crate) fn pin_tables(self: &Arc<Self>, tables: Vec<String>) -> TablePinGuard {
        let mut pins = self.pins.lock();
        for t in &tables {
            *pins.entry(t.clone()).or_insert(0) += 1;
        }
        drop(pins);
        TablePinGuard {
            ctx: Arc::clone(self),
            tables,
        }
    }

    /// How many running queries pin `name` (diagnostics/tests).
    pub fn table_pin_count(&self, name: &str) -> usize {
        self.pins.lock().get(name).copied().unwrap_or(0)
    }

    /// Resolve a table by name.
    pub fn provider(&self, name: &str) -> Result<Arc<dyn TableProvider>, PlanError> {
        self.catalog
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| PlanError::UnknownTable(name.to_string()))
    }

    /// Names of registered tables (sorted, for diagnostics).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Get-or-create session-scoped extension state under `key`. The
    /// closure runs at most once per session per key; later callers get
    /// the cached value. Returns `None` only if the stored value's type
    /// doesn't match `T` (two extensions colliding on a key).
    pub fn extension_state<T: Any + Send + Sync>(
        &self,
        key: &'static str,
        init: impl FnOnce() -> Arc<T>,
    ) -> Option<Arc<T>> {
        let mut ext = self.extensions.lock();
        let v = ext
            .entry(key)
            .or_insert_with(|| init() as Arc<dyn Any + Send + Sync>);
        Arc::clone(v).downcast::<T>().ok()
    }

    /// Install an extension planning rule (consulted in registration order).
    pub fn register_rule(&self, rule: Arc<dyn PlannerRule>) {
        self.rules.write().push(rule);
    }

    pub fn rules(&self) -> Vec<Arc<dyn PlannerRule>> {
        self.rules.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowstore::{DataType, Field, Value};
    use sparklet::ClusterConfig;

    fn table() -> ColumnarTable {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int64(i)]).collect();
        ColumnarTable::from_rows(schema, rows, 2)
    }

    #[test]
    fn catalog_roundtrip() {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        ctx.register_table("t", Arc::new(table()));
        let p = ctx.provider("t").unwrap();
        assert_eq!(p.num_rows(), 10);
        assert_eq!(p.num_partitions(), 2);
        assert_eq!(ctx.table_names(), vec!["t".to_string()]);
        assert!(ctx.provider("missing").is_err());
        assert!(ctx.deregister_table("t").unwrap().is_some());
        assert!(ctx.provider("t").is_err());
    }

    #[test]
    fn provider_scan_matches_rows() {
        let t = table();
        let all: Vec<Row> = (0..2)
            .flat_map(|p| TableProvider::scan_partition(&t, p))
            .collect();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn shuffle_partitions_defaults_from_cluster() {
        let cluster = Cluster::new(ClusterConfig::test_small()); // 2 workers × 2 cores
        let ctx = Context::new(Arc::clone(&cluster));
        assert_eq!(
            ctx.shuffle_partitions(),
            cluster.config().default_partitions()
        );
        let ctx2 = Context::with_config(
            cluster,
            ExecConfig {
                shuffle_partitions: 7,
                ..ExecConfig::default()
            },
        );
        assert_eq!(ctx2.shuffle_partitions(), 7);
    }
}
