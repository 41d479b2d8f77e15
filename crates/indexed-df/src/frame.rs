//! The Indexed DataFrame: a distributed, multi-versioned, indexed
//! in-memory cache (§III of the paper).
//!
//! An [`IndexedDataFrame`] is **hash partitioned on its index column**;
//! every partition is an [`IndexedPartition`] cached in the cluster's block
//! store on its preferred worker. Versions are immutable: `append_rows`
//! returns a *new* Indexed DataFrame (with a bumped version number and its
//! own cache identity) whose partitions are O(1) snapshots of the parent's
//! plus the appended delta — so divergent appends on one parent coexist
//! (Listing 2 / §III-E). The append itself is lazy: it materializes when
//! the new frame is first used, exactly as in the paper.
//!
//! Fault tolerance follows Spark's lineage model (§III-D): a partition
//! lost to a worker failure is rebuilt by replaying the (replayable) base
//! source and re-applying the append chain.

use crate::partition::IndexedPartition;
use crate::source::{InMemorySource, ReplayableSource};
use dataframe::{Context, DataFrame, PlanError};
use rowstore::{BlockReader, BlockWriter, Row, Schema, StoreConfig, Value};
use sparklet::{partition_of, BlockCharge, BlockId, Cluster, StageError, TaskSpec};
use std::sync::Arc;

/// How an Indexed DataFrame version came to be (its lineage).
pub(crate) enum Provenance {
    /// Built directly from a replayable source (HDFS/Kafka stand-in).
    Base { source: Arc<dyn ReplayableSource> },
    /// Parent version plus appended rows.
    Append {
        parent: Arc<IdfInner>,
        rows: Arc<Vec<Row>>,
    },
}

pub(crate) struct IdfInner {
    pub(crate) ctx: Arc<Context>,
    pub(crate) schema: Arc<Schema>,
    pub(crate) index_col: usize,
    pub(crate) num_partitions: usize,
    pub(crate) store_config: StoreConfig,
    /// Unique cache identity of this version.
    pub(crate) dataset_id: u64,
    /// Version number (§III-D), bumped on every append.
    pub(crate) version: u64,
    pub(crate) provenance: Provenance,
    /// This version's delta (base rows or appended rows), drained **once**
    /// into per-partition buckets on first use. Every partition build —
    /// lazy lookup, full materialize, post-failure recompute — draws from
    /// these buckets, so the base source is replayed at most once per
    /// version (one pass instead of one per partition) and the append
    /// delta is never re-filtered per partition.
    ///
    /// Cross-query safety: every fill path holds `build_lock` while
    /// checking and populating the slot, so concurrent lazy builds and
    /// racing [`IdfInner::materialize`] calls share exactly one replay.
    /// Not a `OnceLock`: under an active memory budget the buckets are
    /// *surrendered* after a successful materialize (they are a driver-held
    /// copy of the whole delta — exactly the footprint the budget exists
    /// to bound), so the slot must be clearable and refillable.
    buckets: parking_lot::Mutex<Option<Arc<Vec<Vec<Row>>>>>,
    /// Serializes bucket fills (lazy and materialize-side) across queries.
    build_lock: parking_lot::Mutex<()>,
}

impl IdfInner {
    /// Preferred worker of a partition, falling back deterministically to
    /// an alive worker when the preferred one is down.
    fn home_worker(&self, p: usize) -> usize {
        let cluster = self.ctx.cluster();
        let preferred = cluster.worker_for_partition(p);
        if cluster.is_alive(preferred) {
            preferred
        } else {
            let alive = cluster.alive_workers();
            alive[p % alive.len()]
        }
    }

    /// Fetch (or lazily rebuild) partition `p`.
    ///
    /// MVCC guard: the cache is consulted with [`Cluster::get_block_at_version`]
    /// so a reader of version `v` can never be served a block belonging to a
    /// *newer* append of the same dataset — each version has its own
    /// `dataset_id`, and within that id only an exact version match is a hit.
    pub(crate) fn get_partition(self: &Arc<Self>, p: usize) -> Arc<IndexedPartition> {
        let cluster = self.ctx.cluster();
        let registry = cluster.registry();
        let worker = self.home_worker(p);
        let id = BlockId {
            dataset: self.dataset_id,
            partition: p,
        };
        if let Some(block) = cluster.get_block_at_version(worker, id, self.version) {
            if let Ok(part) = block.data.downcast::<IndexedPartition>() {
                registry.counter("index.cache.hits").inc();
                cluster.touch_block(id);
                return part;
            }
        }
        // Lost, evicted or never built. Cheapest path first: restore from
        // the governor's spill image if one exists; fall back to lineage
        // recompute (Fig. 12's recovery) if there is none or it was lost.
        registry.counter("index.cache.misses").inc();
        let start = std::time::Instant::now();
        let part = Arc::new(
            cluster
                .memory()
                .prepare_rebuild(id)
                .and_then(|raw| self.partition_from_spill(&raw))
                .unwrap_or_else(|| {
                    let part = self.build_partition(p);
                    // Under a budget the rebuild's replay buffer is
                    // surrendered like on_materialized's: retaining every
                    // bucketized source row would hold the whole dataset
                    // resident outside the governor's accounting, quietly
                    // defeating the budget.
                    if cluster.memory().budget() > 0 {
                        *self.buckets.lock() = None;
                    }
                    part
                }),
        );
        let rebuild_ns = start.elapsed().as_nanos() as u64;
        registry.counter("phase.recompute_ns").add(rebuild_ns);
        self.put_partition_charged(worker, id, &part, rebuild_ns);
        part
    }

    /// Deserialize a spill image (the BlockWriter wire format produced by
    /// this version's spill closure) back into an indexed partition. `None`
    /// on any decode error — the caller then recomputes from lineage.
    fn partition_from_spill(&self, raw: &[u8]) -> Option<IndexedPartition> {
        let reader = BlockReader::new(&self.schema, raw).ok()?;
        let rows = reader.collect::<Result<Vec<Row>, _>>().ok()?;
        let mut part =
            IndexedPartition::new(Arc::clone(&self.schema), self.index_col, self.store_config);
        part.bulk_insert(&rows).ok()?;
        Some(part)
    }

    /// Insert a built partition into the governed block cache: bytes from
    /// the partition's own accounting, the measured build cost, and a spill
    /// closure that serializes the partition's rows through the shuffle
    /// wire format. A rejected (too-cold) block simply stays uncached — the
    /// next reader recomputes it.
    fn put_partition_charged(
        &self,
        worker: usize,
        id: BlockId,
        part: &Arc<IndexedPartition>,
        cost_ns: u64,
    ) {
        let cluster = self.ctx.cluster();
        let bytes = (part.index_bytes() + part.data_bytes()) as u64;
        let spill_part = Arc::clone(part);
        let spill_schema = Arc::clone(&self.schema);
        let spill: sparklet::SpillFn = Box::new(move || {
            let mut w = BlockWriter::new();
            for row in spill_part.scan() {
                w.push(&spill_schema, &row).ok()?;
            }
            Some(w.finish())
        });
        cluster.put_block_charged(
            worker,
            id,
            self.version,
            Arc::clone(part) as _,
            BlockCharge {
                bytes,
                cost_ns,
                spill: Some(spill),
            },
        );
    }

    /// This version's delta rows, partitioned. Built at most once per fill
    /// (shared under `build_lock`): a single replay of the base source (or
    /// a single pass over the append delta) drained into per-partition
    /// buckets, then shared by every partition build and post-failure
    /// recompute of this version. Under an active memory budget the
    /// buckets are surrendered after materialize, so a much later rebuild
    /// may legitimately fill (and replay) again.
    fn partition_buckets(self: &Arc<Self>) -> Arc<Vec<Vec<Row>>> {
        let _build = self.build_lock.lock();
        if let Some(b) = self.buckets.lock().as_ref() {
            return Arc::clone(b);
        }
        let rows: Vec<Row> = match &self.provenance {
            Provenance::Base { source } => {
                self.ctx.cluster().registry().counter("index.replays").inc();
                source.replay()
            }
            Provenance::Append { rows, .. } => rows.as_ref().clone(),
        };
        let buckets = Arc::new(self.bucketize(rows));
        *self.buckets.lock() = Some(Arc::clone(&buckets));
        buckets
    }

    /// One pass over `rows`, moving each into its hash partition's bucket.
    fn bucketize(&self, rows: Vec<Row>) -> Vec<Vec<Row>> {
        let p = self.num_partitions;
        let mut buckets: Vec<Vec<Row>> = (0..p)
            .map(|_| Vec::with_capacity(rows.len() / p + 1))
            .collect();
        for r in rows {
            let i = self.partition_of_row(&r);
            buckets[i].push(r);
        }
        buckets
    }

    /// Insert this version's delta rows into a partition through the
    /// grouped bulk path, recording `index.build_ns` / `index.bulk_rows` /
    /// `index.upserts`.
    fn insert_delta(&self, part: &mut IndexedPartition, rows: &[Row]) {
        let registry = self.ctx.cluster().registry();
        let start = std::time::Instant::now();
        let stats = part.bulk_insert(rows).expect("delta rows insert");
        registry.counter("index.bulk_rows").add(stats.rows);
        registry.counter("index.upserts").add(stats.distinct_keys);
        registry
            .counter("index.build_ns")
            .add(start.elapsed().as_nanos() as u64);
    }

    /// The partition a delta lands in before its rows arrive: empty for a
    /// base build, an O(1) snapshot of the parent's partition for an append.
    fn fresh_partition(self: &Arc<Self>, p: usize) -> IndexedPartition {
        match &self.provenance {
            Provenance::Base { .. } => {
                IndexedPartition::new(Arc::clone(&self.schema), self.index_col, self.store_config)
            }
            Provenance::Append { parent, .. } => {
                let parent_part = parent.get_partition(p);
                self.timed_snapshot(&parent_part)
            }
        }
    }

    /// Rebuild one partition from lineage: an empty partition (base) or a
    /// snapshot of the parent partition (append), plus this version's
    /// delta bucket for `p`. The delta is drained once per version, not
    /// once per partition — see [`IdfInner::partition_buckets`].
    fn build_partition(self: &Arc<Self>, p: usize) -> IndexedPartition {
        let buckets = self.partition_buckets();
        let mut part = self.fresh_partition(p);
        self.insert_delta(&mut part, &buckets[p]);
        part
    }

    /// Take an O(1) partition snapshot, recording `index.snapshots`,
    /// `index.snapshot_ns`, and the process-wide ctrie generation gauge.
    fn timed_snapshot(&self, parent_part: &IndexedPartition) -> IndexedPartition {
        let registry = self.ctx.cluster().registry();
        let start = std::time::Instant::now();
        let part = parent_part.snapshot();
        registry.counter("index.snapshots").inc();
        registry
            .histogram("index.snapshot_ns")
            .record(start.elapsed().as_nanos() as u64);
        registry
            .gauge("ctrie.snapshot_generations")
            .set_max(ctrie::snapshot_generations());
        part
    }

    #[inline]
    pub(crate) fn partition_of_row(&self, row: &Row) -> usize {
        partition_of(row[self.index_col].key_hash(), self.num_partitions)
    }

    /// Whether every partition of this version is currently cached.
    fn fully_cached(&self) -> bool {
        let cluster = self.ctx.cluster();
        (0..self.num_partitions).all(|p| {
            let id = BlockId {
                dataset: self.dataset_id,
                partition: p,
            };
            cluster
                .get_block_at_version(self.home_worker(p), id, self.version)
                .is_some()
        })
    }

    /// Exact row count, computable from lineage without materializing.
    pub(crate) fn num_rows(&self) -> usize {
        match &self.provenance {
            Provenance::Base { source } => source.len(),
            Provenance::Append { parent, rows } => parent.num_rows() + rows.len(),
        }
    }

    /// Materialize every partition in parallel on the cluster, shuffling
    /// rows to their hash partitions (index creation / append execution,
    /// §III-C "Index Creation, Append"; the shuffle dominates write time,
    /// Fig. 10). Tasks lost to a mid-stage worker failure are retried on
    /// survivors; the retried attempt recomputes from lineage because the
    /// dead worker's blocks are gone. Only retry exhaustion (or a fully
    /// dead cluster) surfaces as an error.
    pub(crate) fn materialize(self: &Arc<Self>) -> Result<(), StageError> {
        let cluster = self.ctx.cluster();
        let p = self.num_partitions;

        let missing: Vec<usize> = (0..p)
            .filter(|&i| {
                let id = BlockId {
                    dataset: self.dataset_id,
                    partition: i,
                };
                cluster
                    .get_block_at_version(self.home_worker(i), id, self.version)
                    .is_none()
            })
            .collect();
        if missing.is_empty() {
            // Already fully built (possibly partition-by-partition through
            // lazy lookups, which never pass through the build stage below).
            self.on_materialized();
            return Ok(());
        }
        if missing.len() < p {
            // Partial recovery (a worker died, §III-D): rebuild only the
            // lost partitions from lineage, in parallel on their new homes.
            let inner = Arc::clone(self);
            let tasks: Vec<TaskSpec> = missing
                .iter()
                .map(|&i| TaskSpec {
                    partition: i,
                    preferred_worker: Some(self.home_worker(i)),
                })
                .collect();
            cluster.run_stage(&tasks, move |tc| {
                let _ = inner.get_partition(tc.partition);
            })?;
            self.on_materialized();
            return Ok(());
        }

        // The delta that must move, already partitioned if some earlier
        // build drained it; otherwise replay the source exactly once and
        // shuffle. The shuffle output is cached into `buckets`, so a
        // post-failure recompute of any partition never replays again.
        //
        // `build_lock` serializes racing materializations (two queries
        // hitting the same un-built version concurrently): the loser of
        // the race re-checks under the lock and reuses the winner's
        // buckets instead of replaying the source a second time.
        let _build = self.build_lock.lock();
        let existing = self.buckets.lock().clone();
        let shuffled: Arc<Vec<Vec<Row>>> = if let Some(b) = existing {
            b
        } else {
            // Rows that must move: the base source or the appended delta.
            let rows: Vec<Row> = match &self.provenance {
                Provenance::Base { source } => {
                    cluster.registry().counter("index.replays").inc();
                    source.replay()
                }
                Provenance::Append { rows, .. } => rows.as_ref().clone(),
            };

            // Map side: chunk the incoming rows as the "source partitions"
            // and key them by index-column hash. The rows are moved, not
            // cloned — this shuffle dominates append time (Fig. 10), so
            // they travel as packed wire blocks through the serialized
            // exchange.
            let chunk = rows.len().div_ceil(p.max(1)).max(1);
            let index_col = self.index_col;
            let mut inputs: Vec<Vec<(u64, Row)>> = (0..rows.len().div_ceil(chunk))
                .map(|_| Vec::with_capacity(chunk))
                .collect();
            for (i, r) in rows.into_iter().enumerate() {
                inputs[i / chunk].push((r[index_col].key_hash(), r));
            }
            // The exchange splits oversized reduce buckets and coalesces
            // near-empty ones when the index column is skewed; its output
            // does not depend on the plan.
            let out = Arc::new(sparklet::exchange_rows(cluster, &self.schema, inputs, p)?);
            *self.buckets.lock() = Some(Arc::clone(&out));
            out
        };
        // Buckets exist now; racing materializations may run their
        // (idempotent) build stages concurrently.
        drop(_build);

        // Build side: one task per partition, on its home worker. Tasks
        // are dispatched heaviest-bucket-first (longest-processing-time
        // order) so a skewed index column doesn't leave the hot bucket
        // for last and stretch the stage's tail.
        let inner = Arc::clone(self);
        let shuffled2 = Arc::clone(&shuffled);
        let tasks: Vec<TaskSpec> = (0..p)
            .map(|i| TaskSpec {
                partition: i,
                preferred_worker: Some(self.home_worker(i)),
            })
            .collect();
        let weights: Vec<u64> = (0..p).map(|i| shuffled[i].len() as u64).collect();
        let build_ns = cluster.registry().counter("phase.build_ns");
        build_ns.time(|| {
            cluster.run_stage_weighted(&tasks, &weights, move |tc| {
                let pidx = tc.partition;
                let start = std::time::Instant::now();
                let mut part = inner.fresh_partition(pidx);
                inner.insert_delta(&mut part, &shuffled2[pidx]);
                let id = BlockId {
                    dataset: inner.dataset_id,
                    partition: pidx,
                };
                let part = Arc::new(part);
                inner.put_partition_charged(
                    tc.worker,
                    id,
                    &part,
                    start.elapsed().as_nanos() as u64,
                );
            })
        })?;
        self.on_materialized();
        Ok(())
    }

    /// Commit hook after a successful materialize: the parent version is
    /// now superseded (retirable once its last handle drops), and under an
    /// active memory budget the driver-held delta buckets are surrendered —
    /// their whole point was to amortize the build, and keeping a full
    /// copy of the delta on the driver would dodge the budget the governed
    /// cache is being held to. Idempotent.
    fn on_materialized(self: &Arc<Self>) {
        let cluster = self.ctx.cluster();
        if let Provenance::Append { parent, .. } = &self.provenance {
            cluster.dataset_superseded(parent.dataset_id);
        }
        if cluster.memory().budget() > 0 {
            *self.buckets.lock() = None;
        }
    }
}

/// A distributed, indexed, multi-versioned in-memory table (Listing 1 of
/// the paper).
///
/// ```
/// # use indexed_df::IndexedDataFrame;
/// # use dataframe::Context;
/// # use rowstore::{DataType, Field, Schema, Value};
/// # use sparklet::{Cluster, ClusterConfig};
/// let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
/// let schema = Schema::new(vec![
///     Field::new("user", DataType::Int64),
///     Field::new("event", DataType::Utf8),
/// ]);
/// let rows = (0..100i64).map(|i| vec![Value::Int64(i % 10), "seen".into()]).collect();
/// let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "user").unwrap();
/// idf.cache_index().unwrap();
/// assert_eq!(idf.get_rows(&Value::Int64(3)).unwrap().len(), 10);
///
/// // Appends create a new version; the parent is untouched.
/// let v2 = idf.append_rows(vec![vec![Value::Int64(3), "new".into()]]);
/// assert_eq!(v2.get_rows(&Value::Int64(3)).unwrap().len(), 11);
/// assert_eq!(idf.get_rows(&Value::Int64(3)).unwrap().len(), 10);
/// ```
#[derive(Clone)]
pub struct IndexedDataFrame {
    pub(crate) inner: Arc<IdfInner>,
    /// Pins this version in the memory governor while any handle (user
    /// clone, catalog registration, session snapshot) is alive. Clones
    /// share the lease; the last drop releases the version, which the
    /// governor retires once a newer committed version supersedes it.
    /// Deliberately *not* held by child versions' `Provenance::Append`
    /// links: a superseded parent with no user handle is exactly the dead
    /// version retirement exists to reclaim (its partitions remain
    /// rebuildable from lineage if a child ever needs them again).
    #[allow(dead_code)] // held purely for its Drop
    lease: Arc<DatasetLease>,
}

/// RAII registration of a dataset version with the memory governor.
pub(crate) struct DatasetLease {
    cluster: Arc<Cluster>,
    dataset_id: u64,
}

impl DatasetLease {
    fn register(cluster: &Arc<Cluster>, dataset_id: u64) -> Arc<DatasetLease> {
        cluster.register_dataset_version(dataset_id);
        Arc::new(DatasetLease {
            cluster: Arc::clone(cluster),
            dataset_id,
        })
    }
}

impl Drop for DatasetLease {
    fn drop(&mut self) {
        self.cluster.release_dataset(self.dataset_id);
    }
}

impl IndexedDataFrame {
    /// Build an Indexed DataFrame from rows, indexing `index_col` (by
    /// name). Partition count defaults to the cluster's recommendation.
    pub fn from_rows(
        ctx: &Arc<Context>,
        schema: Arc<Schema>,
        rows: Vec<Row>,
        index_col: &str,
    ) -> Result<IndexedDataFrame, PlanError> {
        Self::builder(ctx, schema, index_col)?.rows(rows).build()
    }

    /// Start a builder for finer control (partitions, store config, custom
    /// replayable source).
    pub fn builder(
        ctx: &Arc<Context>,
        schema: Arc<Schema>,
        index_col: &str,
    ) -> Result<IdfBuilder, PlanError> {
        let col = schema
            .index_of(index_col)
            .ok_or_else(|| PlanError::UnknownColumn(index_col.to_string()))?;
        Ok(IdfBuilder {
            ctx: Arc::clone(ctx),
            schema,
            index_col: col,
            num_partitions: None,
            store_config: StoreConfig::default(),
            source: None,
        })
    }

    /// `createIndex` of Listing 1: index an existing DataFrame's rows on
    /// `index_col`. The collected rows become the replayable source.
    pub fn create_index(df: &DataFrame, index_col: &str) -> Result<IndexedDataFrame, PlanError> {
        let schema = df.schema()?;
        let rows = df.collect()?;
        Self::from_rows(df.context(), schema, rows, index_col)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn schema(&self) -> &Arc<Schema> {
        &self.inner.schema
    }

    pub fn index_col(&self) -> usize {
        self.inner.index_col
    }

    pub fn num_partitions(&self) -> usize {
        self.inner.num_partitions
    }

    /// The version number of this frame (bumped on every append, §III-D).
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    pub fn context(&self) -> &Arc<Context> {
        &self.inner.ctx
    }

    /// Exact row count (from lineage; does not force materialization).
    pub fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    // ------------------------------------------------------------------
    // Listing 1 operations
    // ------------------------------------------------------------------

    /// `cacheIndex`: build and pin every partition on its worker now.
    ///
    /// A worker killed while the build stage runs does not fail the call:
    /// lost tasks are rescheduled onto survivors, which recompute the lost
    /// partitions from lineage (§III-D). `Err` means a task exhausted its
    /// retries or no worker is left alive.
    pub fn cache_index(&self) -> Result<(), StageError> {
        self.inner.materialize()
    }

    /// Whether every partition is materialized in the block cache.
    pub fn is_cached(&self) -> bool {
        self.inner.fully_cached()
    }

    /// `getRows`: point lookup. Routed to the single partition owning the
    /// key's hash; returns matching rows newest-appended first.
    pub fn get_rows(&self, key: &Value) -> Result<Vec<Row>, StageError> {
        let p = partition_of(key.key_hash(), self.inner.num_partitions);
        let cluster = self.inner.ctx.cluster();
        let inner = Arc::clone(&self.inner);
        let key = key.clone();
        let task = TaskSpec {
            partition: p,
            preferred_worker: Some(self.inner.home_worker(p)),
        };
        let rows = cluster
            .run_stage(&[task], move |_| inner.get_partition(p).lookup(&key))?
            .pop()
            .unwrap_or_default();
        let registry = cluster.registry();
        registry.counter("index.lookups").inc();
        // Matching rows are chained newest-first through backward pointers
        // (§III-C); the result length is the chain length walked.
        registry
            .histogram("index.chain_len")
            .record(rows.len() as u64);
        Ok(rows)
    }

    /// `getRows` with the paper's exact signature (Listing 1 returns a
    /// *DataFrame*): the matching rows wrapped as a queryable literal
    /// table.
    pub fn get_rows_df(&self, key: &Value) -> Result<DataFrame, PlanError> {
        let rows = self.get_rows(key)?;
        let provider = Arc::new(dataframe::RowsTable::single(
            Arc::clone(&self.inner.schema),
            rows,
        ));
        let name = format!(
            "__idf_lookup_{}_{}",
            self.inner.dataset_id,
            self.inner.ctx.cluster().new_dataset_id()
        );
        self.inner.ctx.register_table(&name, provider);
        self.inner.ctx.table(&name)
    }

    /// `appendRows`: create the next version containing `rows` in addition
    /// to everything in `self`. Lazy: the new version materializes on first
    /// use (or explicit [`IndexedDataFrame::cache_index`]).
    pub fn append_rows(&self, rows: Vec<Row>) -> IndexedDataFrame {
        let ctx = &self.inner.ctx;
        let dataset_id = ctx.cluster().new_dataset_id();
        IndexedDataFrame {
            inner: Arc::new(IdfInner {
                ctx: Arc::clone(ctx),
                schema: Arc::clone(&self.inner.schema),
                index_col: self.inner.index_col,
                num_partitions: self.inner.num_partitions,
                store_config: self.inner.store_config,
                dataset_id,
                version: self.inner.version + 1,
                provenance: Provenance::Append {
                    parent: Arc::clone(&self.inner),
                    rows: Arc::new(rows),
                },
                buckets: parking_lot::Mutex::new(None),
                build_lock: parking_lot::Mutex::new(()),
            }),
            lease: DatasetLease::register(ctx.cluster(), dataset_id),
        }
    }

    /// Append every row of a DataFrame (batch-oriented append mode).
    pub fn append_df(&self, df: &DataFrame) -> Result<IndexedDataFrame, PlanError> {
        Ok(self.append_rows(df.collect()?))
    }

    /// Register this frame in the catalog so SQL and the DataFrame API can
    /// query it; installs the indexed Catalyst rules on first use and
    /// returns a DataFrame scanning this table.
    pub fn register(&self, name: &str) -> Result<DataFrame, PlanError> {
        crate::rule::install(&self.inner.ctx);
        self.inner.ctx.register_table(name, Arc::new(self.clone()));
        self.inner.ctx.table(name)
    }

    /// Materialize all partitions and return every row (test helper; the
    /// production path is query execution through the provider).
    pub fn collect(&self) -> Result<Vec<Row>, StageError> {
        self.cache_index()?;
        let mut out = Vec::new();
        for p in 0..self.inner.num_partitions {
            out.extend(self.inner.get_partition(p).scan());
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Introspection (Fig. 11)
    // ------------------------------------------------------------------

    /// Per-partition `(index_bytes, data_bytes)` (forces materialization).
    /// For a non-forcing read, see
    /// [`IndexedDataFrame::cached_partition_stats`].
    pub fn partition_stats(&self) -> Result<Vec<(usize, usize)>, StageError> {
        self.cache_index()?;
        Ok((0..self.inner.num_partitions)
            .map(|p| {
                let part = self.inner.get_partition(p);
                (part.index_bytes(), part.data_bytes())
            })
            .collect())
    }

    /// Per-partition `(index_bytes, data_bytes)` of the partitions
    /// *currently resident* in the block cache; `None` for partitions that
    /// are not materialized. Never forces a build and never perturbs the
    /// memory governor's reuse accounting — this is the read path the
    /// accountant itself polls, so observing sizes must not heat blocks or
    /// trigger index construction.
    pub fn cached_partition_stats(&self) -> Vec<Option<(usize, usize)>> {
        let inner = &self.inner;
        let cluster = inner.ctx.cluster();
        (0..inner.num_partitions)
            .map(|p| {
                let id = BlockId {
                    dataset: inner.dataset_id,
                    partition: p,
                };
                cluster
                    .get_block_at_version(inner.home_worker(p), id, inner.version)
                    .and_then(|b| b.data.downcast::<IndexedPartition>().ok())
                    .map(|part| (part.index_bytes(), part.data_bytes()))
            })
            .collect()
    }

    /// Total cTrie index bytes across currently cached partitions.
    ///
    /// Non-forcing: an unmaterialized frame reports 0 instead of building
    /// every index just to measure it (the old behaviour, which turned the
    /// memory accountant's polling into a full index construction).
    pub fn index_bytes(&self) -> usize {
        self.cached_partition_stats()
            .iter()
            .flatten()
            .map(|(i, _)| i)
            .sum()
    }

    /// Total row-data bytes across currently cached partitions
    /// (non-forcing; see [`IndexedDataFrame::index_bytes`]).
    pub fn data_bytes(&self) -> usize {
        self.cached_partition_stats()
            .iter()
            .flatten()
            .map(|(_, d)| d)
            .sum()
    }

    /// Direct partition access for benchmarks/tests.
    pub fn partition(&self, p: usize) -> Arc<IndexedPartition> {
        self.inner.get_partition(p)
    }
}

/// Builder for [`IndexedDataFrame`].
pub struct IdfBuilder {
    ctx: Arc<Context>,
    schema: Arc<Schema>,
    index_col: usize,
    num_partitions: Option<usize>,
    store_config: StoreConfig,
    source: Option<Arc<dyn ReplayableSource>>,
}

impl IdfBuilder {
    /// Use these rows (wrapped in an in-memory replayable source).
    pub fn rows(mut self, rows: Vec<Row>) -> IdfBuilder {
        self.source = Some(Arc::new(InMemorySource::new(rows)));
        self
    }

    /// Use a custom replayable source (Kafka/HDFS stand-ins).
    pub fn source(mut self, source: Arc<dyn ReplayableSource>) -> IdfBuilder {
        self.source = Some(source);
        self
    }

    pub fn partitions(mut self, n: usize) -> IdfBuilder {
        assert!(n > 0);
        self.num_partitions = Some(n);
        self
    }

    pub fn store_config(mut self, cfg: StoreConfig) -> IdfBuilder {
        self.store_config = cfg;
        self
    }

    pub fn build(self) -> Result<IndexedDataFrame, PlanError> {
        let source = self
            .source
            .unwrap_or_else(|| Arc::new(InMemorySource::new(Vec::new())));
        let num_partitions = self
            .num_partitions
            .unwrap_or_else(|| self.ctx.cluster().config().default_partitions());
        let dataset_id = self.ctx.cluster().new_dataset_id();
        let lease = DatasetLease::register(self.ctx.cluster(), dataset_id);
        Ok(IndexedDataFrame {
            inner: Arc::new(IdfInner {
                ctx: self.ctx,
                schema: self.schema,
                index_col: self.index_col,
                num_partitions,
                store_config: self.store_config,
                dataset_id,
                version: 1,
                provenance: Provenance::Base { source },
                buckets: parking_lot::Mutex::new(None),
                build_lock: parking_lot::Mutex::new(()),
            }),
            lease,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowstore::{DataType, Field};
    use sparklet::{Cluster, ClusterConfig};

    /// MVCC visibility: a block stamped with a *newer* version than the
    /// reader's snapshot must never be served — the exact-version guard
    /// forces a lineage recompute instead (regression for the floor-match
    /// bug where `get_block_min_version` would have returned it).
    #[test]
    fn newer_version_block_is_never_served() {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..40)
            .map(|i| vec![Value::Int64(i % 4), Value::Int64(i)])
            .collect();
        let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "k").unwrap();
        idf.cache_index().unwrap();
        let baseline = idf.get_rows(&Value::Int64(1)).unwrap();
        assert_eq!(baseline.len(), 10);

        // Poison every cache slot of this version with an *empty* partition
        // stamped one version ahead, as if a buggy writer reused the slots.
        let cluster = ctx.cluster();
        let inner = &idf.inner;
        for p in 0..inner.num_partitions {
            let id = BlockId {
                dataset: inner.dataset_id,
                partition: p,
            };
            let bogus = IndexedPartition::new(
                Arc::clone(&inner.schema),
                inner.index_col,
                inner.store_config,
            );
            cluster.put_block(
                inner.home_worker(p),
                id,
                inner.version + 1,
                Arc::new(bogus) as _,
            );
        }

        let misses_before = cluster.registry().counter_value("index.cache.misses");
        let rows = idf.get_rows(&Value::Int64(1)).unwrap();
        assert_eq!(
            rows,
            baseline,
            "reader at version {} must not see the poisoned v{} block",
            inner.version,
            inner.version + 1
        );
        assert!(
            cluster.registry().counter_value("index.cache.misses") > misses_before,
            "the exact-version guard must have rejected the newer block and recomputed"
        );
    }

    fn race_fixture() -> (Arc<Context>, IndexedDataFrame) {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int64(i % 8), Value::Int64(i)])
            .collect();
        let idf = IndexedDataFrame::from_rows(&ctx, schema, rows, "k").unwrap();
        (ctx, idf)
    }

    /// Cross-query safety: two queries calling `cache_index` on the same
    /// un-built version concurrently must replay the base source exactly
    /// once — the loser of the `build_lock` race reuses the winner's
    /// buckets.
    #[test]
    fn concurrent_cache_index_replays_source_once() {
        let (ctx, idf) = race_fixture();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let idf = idf.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    idf.cache_index()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_eq!(
            ctx.cluster().registry().counter_value("index.replays"),
            1,
            "racing materializations must share one source replay"
        );
        assert_eq!(idf.get_rows(&Value::Int64(3)).unwrap().len(), 25);
    }

    /// The lazy path (point lookups triggering per-partition builds) races
    /// through `OnceLock::get_or_init`, which already serializes the drain:
    /// concurrent first-touch lookups also replay exactly once.
    #[test]
    fn concurrent_lazy_lookups_replay_source_once() {
        let (ctx, idf) = race_fixture();
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let idf = idf.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    idf.get_rows(&Value::Int64(t)).map(|r| r.len())
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), 25);
        }
        assert_eq!(
            ctx.cluster().registry().counter_value("index.replays"),
            1,
            "concurrent lazy partition builds must share one source replay"
        );
    }

    /// Regression (satellite): `index_bytes`/`data_bytes` used to force a
    /// full index build — asking an unmaterialized frame "how big are you"
    /// replayed the source and constructed every partition. The memory
    /// accountant polls these, so they must observe without building.
    #[test]
    fn byte_accounting_does_not_force_materialization() {
        let (ctx, idf) = race_fixture();
        let r = ctx.cluster().registry();
        assert_eq!(idf.index_bytes(), 0, "unmaterialized frame reports 0");
        assert_eq!(idf.data_bytes(), 0);
        assert!(idf.cached_partition_stats().iter().all(Option::is_none));
        assert_eq!(
            r.counter_value("index.replays"),
            0,
            "size observation must not replay the source"
        );
        assert!(!idf.is_cached(), "still lazy after the stats reads");
        // Size reads must not perturb hit/miss accounting either.
        assert_eq!(r.counter_value("index.cache.hits"), 0);
        assert_eq!(r.counter_value("index.cache.misses"), 0);

        idf.cache_index().unwrap();
        assert!(idf.index_bytes() > 0, "cached frame reports real sizes");
        assert!(idf.data_bytes() > 0);
        assert!(idf.cached_partition_stats().iter().all(Option::is_some));
        // The forcing variant still exists and agrees once materialized.
        let forced: usize = idf.partition_stats().unwrap().iter().map(|(i, _)| i).sum();
        assert_eq!(forced, idf.index_bytes());
    }

    /// Governed cache: evicting a partition spills it, and the next read
    /// restores it from the spill image (not a lineage replay); results
    /// are identical either way.
    #[test]
    fn evicted_partition_restores_from_spill_image() {
        let (ctx, idf) = race_fixture();
        idf.cache_index().unwrap();
        let baseline = idf.get_rows(&Value::Int64(5)).unwrap();
        let cluster = ctx.cluster();
        let resident = cluster.memory().resident_bytes();
        assert!(resident > 0, "materialize must account resident bytes");

        // Budget half the resident set: the coldest partitions spill now.
        cluster.set_memory_budget(resident / 2);
        let r = cluster.registry();
        assert!(r.counter_value("memory.evictions") > 0);
        assert!(r.counter_value("memory.spilled_bytes") > 0);
        assert!(cluster.memory().resident_bytes() <= resident / 2);

        // Every key still answers correctly; at least one answer came back
        // through an unspill instead of a source replay.
        let replays_before = r.counter_value("index.replays");
        for k in 0..8 {
            let rows = idf.get_rows(&Value::Int64(k)).unwrap();
            assert_eq!(rows.len(), 25, "key {k}");
        }
        assert_eq!(idf.get_rows(&Value::Int64(5)).unwrap(), baseline);
        assert!(
            r.counter_value("memory.unspills") > 0,
            "rebuilds must drain spill images"
        );
        let _ = replays_before; // replays may or may not occur (buckets freed)
    }

    /// Version retirement: once v2 commits and the last v1 handle drops,
    /// v1's blocks leave the cache; a pinned (still-held) v1 is never
    /// retired, and v1 data remains readable through v2.
    #[test]
    fn superseded_version_retires_only_after_last_handle_drops() {
        let (ctx, idf) = race_fixture();
        idf.cache_index().unwrap();
        let cluster = ctx.cluster();
        let v1_dataset = idf.inner.dataset_id;
        let v1_resident = cluster.memory().resident_bytes();
        assert!(v1_resident > 0);

        let v2 = idf.append_rows(vec![vec![Value::Int64(3), Value::Int64(999)]]);
        v2.cache_index().unwrap();
        // v1 is superseded but still pinned by `idf`: not retired.
        assert!(cluster.memory().dataset_registered(v1_dataset));
        assert_eq!(
            cluster.registry().counter_value("memory.retired_versions"),
            0
        );
        assert_eq!(idf.get_rows(&Value::Int64(3)).unwrap().len(), 25);

        drop(idf);
        // Last v1 handle gone + committed successor → retired.
        assert!(!cluster.memory().dataset_registered(v1_dataset));
        let r = cluster.registry();
        assert_eq!(r.counter_value("memory.retired_versions"), 1);
        assert!(r.counter_value("memory.retired_bytes") > 0);
        for p in 0..v2.inner.num_partitions {
            let id = BlockId {
                dataset: v1_dataset,
                partition: p,
            };
            assert!(
                cluster.block_locations(id).is_empty(),
                "retired v1 partition {p} must leave the cache"
            );
        }
        // v2 still serves v1's rows (plus its append) from its own blocks.
        assert_eq!(v2.get_rows(&Value::Int64(3)).unwrap().len(), 26);
    }

    /// A version that is released but never superseded (no committed
    /// successor) must stay resident: there is no newer copy of its data.
    #[test]
    fn unsuperseded_version_is_not_retired_on_drop() {
        let (ctx, idf) = race_fixture();
        idf.cache_index().unwrap();
        let cluster = ctx.cluster();
        let dataset = idf.inner.dataset_id;
        drop(idf);
        assert!(
            cluster.memory().dataset_registered(dataset),
            "latest version must stay registered (awaiting a successor)"
        );
        assert_eq!(
            cluster.registry().counter_value("memory.retired_versions"),
            0
        );
        assert!(cluster.memory().resident_bytes() > 0);
    }
}
