//! The simulated cluster: workers, executors, scheduling, block cache,
//! failure injection.
//!
//! A `Cluster` stands in for a Spark deployment. Each worker is a
//! "machine" holding one or more *executors* (independent thread pools) and
//! a block cache of materialized partitions. Tasks carry a preferred worker
//! (data locality, §III-D); the scheduler honors it while the worker is
//! alive and falls back to another worker otherwise — the situation that
//! motivates the paper's partition *version numbers*, which the block cache
//! implements.
//!
//! Substitution note (see DESIGN.md): workers are thread pools in one
//! process, not machines. Failure injection drops a worker's cache and
//! marks it unschedulable, which exercises exactly the recovery path the
//! paper measures in Fig. 12 (lineage recomputation of lost indexed
//! partitions).

use crate::config::ClusterConfig;
use crate::memory::{BlockCharge, MemoryGovernor};
use crate::metrics::{Registry, SpanKind, SpanRecord, Trace};
use crate::scheduler::{self, QueryId, QueryRef, Scheduler};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::Arc;

/// Identifies a cached partition of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId {
    pub dataset: u64,
    pub partition: usize,
}

/// A cached, versioned partition payload.
#[derive(Clone)]
pub struct Block {
    /// Version number, bumped on every append (§III-D): the scheduler must
    /// not use blocks older than the dataset's current version.
    pub version: u64,
    pub data: Arc<dyn Any + Send + Sync>,
}

struct WorkerState {
    executors: Vec<rayon::ThreadPool>,
    /// Shared with in-flight tasks so a completed attempt can detect that
    /// its worker was killed while it ran (the result is then discarded
    /// and the task retried elsewhere, as Spark does on executor loss).
    alive: Arc<AtomicBool>,
    cache: Mutex<HashMap<BlockId, Block>>,
    /// Round-robin cursor over executors.
    next_executor: AtomicUsize,
}

/// A task to schedule: its index in the stage and its locality preference.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpec {
    pub partition: usize,
    pub preferred_worker: Option<usize>,
}

/// Where and how a task actually ran.
#[derive(Debug, Clone, Copy)]
pub struct TaskContext {
    pub partition: usize,
    pub worker: usize,
    pub executor: usize,
    /// Whether the task missed its locality preference.
    pub non_local: bool,
}

/// Why one attempt of a task did not produce a usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The task body panicked; carries the rendered panic payload.
    Panicked(String),
    /// The worker was killed while the task ran, so its result (and any
    /// blocks it cached) cannot be trusted.
    WorkerLost,
    /// The owning query was cancelled before the attempt ran; the queued
    /// task was dropped without executing.
    Cancelled,
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Panicked(msg) => write!(f, "task panicked: {msg}"),
            FailureReason::WorkerLost => write!(f, "worker lost mid-task"),
            FailureReason::Cancelled => write!(f, "query cancelled"),
        }
    }
}

/// One failed attempt of one task, as recorded by [`Cluster::run_stage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    pub partition: usize,
    pub worker: usize,
    /// 1-based attempt number.
    pub attempt: usize,
    pub reason: FailureReason,
}

/// A stage that could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// A task exhausted [`ClusterConfig::max_task_attempts`].
    TaskFailed {
        partition: usize,
        /// Attempts consumed (equals `max_task_attempts`).
        attempts: usize,
        /// Workers that failed this task, in failure order.
        workers_tried: Vec<usize>,
        /// Why the final attempt failed.
        last_error: FailureReason,
    },
    /// No alive workers remain to schedule the task on.
    NoAliveWorkers { partition: usize },
    /// The owning query was cancelled; the stage was abandoned.
    Cancelled { query: QueryId },
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::TaskFailed {
                partition,
                attempts,
                workers_tried,
                last_error,
            } => write!(
                f,
                "task for partition {partition} failed after {attempts} attempts \
                 (workers tried: {workers_tried:?}): {last_error}"
            ),
            StageError::NoAliveWorkers { partition } => {
                write!(f, "no alive workers to run task for partition {partition}")
            }
            StageError::Cancelled { query } => {
                write!(f, "query {query} cancelled")
            }
        }
    }
}

impl std::error::Error for StageError {}

/// Render a `catch_unwind` payload the way the default panic hook would.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of one task attempt, as reported back to the stage driver.
pub enum TaskResult<R> {
    Ok(R),
    Failed(FailureReason),
}

/// The simulated cluster: a shared resource substrate (workers, block
/// store, metrics) plus the multi-query [`Scheduler`].
pub struct Cluster {
    config: ClusterConfig,
    workers: Vec<WorkerState>,
    /// Named counters/gauges/histograms, sharded per worker.
    registry: Arc<Registry>,
    /// Bounded operator → stage → task span buffer.
    trace: Arc<Trace>,
    /// Fair per-worker task queues + admission control.
    scheduler: Scheduler,
    /// Per-cluster memory accountant and governance (byte budget,
    /// cost-based eviction, spill, version retirement).
    memory: MemoryGovernor,
    next_dataset: AtomicU64,
    /// Round-robin fallback cursor for non-local scheduling.
    fallback: AtomicUsize,
    /// Serializes observability snapshots against resets (see
    /// [`Cluster::metrics_json`] / [`Cluster::reset_observability`]).
    obs: std::sync::Mutex<()>,
}

impl Cluster {
    /// Spin up a cluster with the given geometry.
    pub fn new(config: ClusterConfig) -> Arc<Cluster> {
        assert!(
            config.workers > 0 && config.executors_per_worker > 0 && config.cores_per_executor > 0
        );
        assert!(
            config.max_task_attempts > 0,
            "max_task_attempts must be at least 1"
        );
        let workers = (0..config.workers)
            .map(|_| WorkerState {
                executors: (0..config.executors_per_worker)
                    .map(|_| {
                        rayon::ThreadPoolBuilder::new()
                            .num_threads(config.cores_per_executor)
                            .build()
                            .expect("failed to build executor pool")
                    })
                    .collect(),
                alive: Arc::new(AtomicBool::new(true)),
                cache: Mutex::new(HashMap::new()),
                next_executor: AtomicUsize::new(0),
            })
            .collect();
        let num_workers = config.workers;
        let registry = Arc::new(Registry::new(num_workers));
        let scheduler = Scheduler::new(num_workers, &registry);
        let memory = MemoryGovernor::new(&registry);
        let cluster = Arc::new(Cluster {
            config,
            workers,
            registry,
            trace: Arc::new(Trace::default()),
            scheduler,
            memory,
            next_dataset: AtomicU64::new(1),
            fallback: AtomicUsize::new(0),
            obs: std::sync::Mutex::new(()),
        });
        // Sweep retirable dataset versions whenever a query releases its
        // admission slot: the last reader of a superseded version is gone
        // by then, so its blocks can be reclaimed eagerly. Weak: the hook
        // must not keep the cluster alive.
        let weak = Arc::downgrade(&cluster);
        cluster.scheduler.set_release_hook(Arc::new(move || {
            if let Some(c) = weak.upgrade() {
                let victims = c.memory.sweep_retired();
                c.apply_victims(victims);
            }
        }));
        cluster
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Named-metric registry (counters, gauges, log₂ histograms).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span trace buffer.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The multi-query scheduler (fair queues, admission control).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Run `f` with `query` installed as the current thread's ambient
    /// query: every [`Cluster::run_stage`] issued inside (including from
    /// operators deep in a plan) is attributed to it for fair scheduling
    /// and cancellation. Session drivers wrap query execution in this.
    pub fn with_query<R>(&self, query: &QueryRef, f: impl FnOnce() -> R) -> R {
        scheduler::with_ambient_query(query, f)
    }

    /// Register a fresh query with the fair scheduler and run `f` under
    /// it: a one-shot [`Cluster::scheduler`]`.new_query` +
    /// [`Cluster::with_query`] for work that isn't session-driven, such
    /// as standing-view refreshes riding the same fair queues as
    /// interactive queries.
    pub fn run_as_query<R>(&self, weight: u32, f: impl FnOnce() -> R) -> R {
        let query = self.scheduler.new_query(weight);
        self.with_query(&query, f)
    }

    /// Serialize every metric — the named registry and a trace summary —
    /// as one JSON object (`sparklet-metrics-v2`; schema documented in
    /// DESIGN.md).
    ///
    /// Concurrency contract: safe to call while queries are in flight.
    /// The snapshot is *monotonic*, not atomic — counters incremented
    /// concurrently may or may not be included — but it is serialized
    /// against [`Cluster::reset_observability`], so it never observes a
    /// half-reset registry (some shards zeroed, others not).
    pub fn metrics_json(&self) -> String {
        let _obs = self.obs.lock().unwrap();
        format!(
            "{{\"schema\":\"sparklet-metrics-v2\",\"workers\":{},{},\
             \"trace\":{{\"spans\":{},\"dropped\":{}}}}}",
            self.workers.len(),
            self.registry.merged().to_json_fields(),
            self.trace.len(),
            self.trace.dropped()
        )
    }

    /// Serialize the recorded spans as JSON (`sparklet-trace-v1`).
    /// Same concurrency contract as [`Cluster::metrics_json`].
    pub fn trace_report(&self) -> String {
        let _obs = self.obs.lock().unwrap();
        let spans = self.trace.spans();
        let mut s = String::from("{\"schema\":\"sparklet-trace-v1\",\"spans\":[");
        for (i, rec) in spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&rec.to_json());
        }
        s.push_str(&format!("],\"dropped\":{}}}", self.trace.dropped()));
        s
    }

    /// Zero all metrics and clear the trace (per-figure isolation in
    /// benchmarks).
    ///
    /// Concurrency contract: serialized against [`Cluster::metrics_json`]
    /// / [`Cluster::trace_report`], so a concurrent snapshot sees either
    /// the pre-reset or the post-reset registry, never a torn mix.
    /// Queries in flight keep running — their subsequent increments land
    /// in the freshly zeroed registry.
    pub fn reset_observability(&self) {
        let _obs = self.obs.lock().unwrap();
        self.registry.reset();
        self.trace.reset();
    }

    /// Allocate a fresh dataset id for block-cache keys.
    pub fn new_dataset_id(&self) -> u64 {
        self.next_dataset.fetch_add(1, Relaxed)
    }

    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn is_alive(&self, worker: usize) -> bool {
        self.workers[worker].alive.load(Relaxed)
    }

    pub fn alive_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.is_alive(w))
            .collect()
    }

    /// Default placement: partitions round-robin over workers (Spark's hash
    /// placement of shuffle outputs).
    pub fn worker_for_partition(&self, partition: usize) -> usize {
        partition % self.workers.len()
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// Kill a worker: drop its cached blocks and stop scheduling onto it.
    /// Models the executor kill of Fig. 12. The memory accountant is
    /// reconciled in the same step: the worker's resident blocks and its
    /// refcounted broadcast copies died with it, so their bytes must not
    /// linger in `memory.resident_bytes` / `broadcast.unique_bytes`.
    pub fn kill_worker(&self, worker: usize) {
        self.workers[worker].alive.store(false, Relaxed);
        self.workers[worker].cache.lock().clear();
        self.memory.on_worker_killed(worker);
    }

    /// Bring a worker back (empty-cached, as a restarted executor).
    pub fn restart_worker(&self, worker: usize) {
        self.workers[worker].alive.store(true, Relaxed);
    }

    // ------------------------------------------------------------------
    // Block cache
    // ------------------------------------------------------------------

    /// Cache `data` for `id` on `worker` at `version`. Overwrites stale
    /// entries; refuses to go backwards in version.
    pub fn put_block(
        &self,
        worker: usize,
        id: BlockId,
        version: u64,
        data: Arc<dyn Any + Send + Sync>,
    ) {
        let mut cache = self.workers[worker].cache.lock();
        match cache.get(&id) {
            Some(existing) if existing.version > version => {}
            _ => {
                cache.insert(id, Block { version, data });
            }
        }
    }

    /// Fetch a block from a worker's cache regardless of version.
    pub fn get_block(&self, worker: usize, id: BlockId) -> Option<Block> {
        self.workers[worker].cache.lock().get(&id).cloned()
    }

    /// Fetch a block only if it is at least `min_version` — the staleness
    /// guard of §III-D: after an append bumps the version, older copies on
    /// other workers must not serve tasks.
    ///
    /// This is a *floor* guard only: it will happily return a block newer
    /// than `min_version`. Snapshot readers that must not see past their
    /// own version (MVCC visibility) need [`Cluster::get_block_at_version`]
    /// instead.
    pub fn get_block_min_version(
        &self,
        worker: usize,
        id: BlockId,
        min_version: u64,
    ) -> Option<Block> {
        self.get_block(worker, id)
            .filter(|b| b.version >= min_version)
    }

    /// Fetch a block only if it is *exactly* `version`: the MVCC
    /// visibility bound. A snapshot pinned at version `v` must never be
    /// served a block from a later append, or it would observe rows that
    /// did not exist when the snapshot was taken.
    pub fn get_block_at_version(&self, worker: usize, id: BlockId, version: u64) -> Option<Block> {
        self.get_block(worker, id).filter(|b| b.version == version)
    }

    /// Drop one block (tests / manual eviction).
    pub fn evict_block(&self, worker: usize, id: BlockId) {
        self.workers[worker].cache.lock().remove(&id);
    }

    /// Which workers currently cache `id` (any version).
    pub fn block_locations(&self, id: BlockId) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].cache.lock().contains_key(&id))
            .collect()
    }

    /// Total cached blocks on a worker.
    pub fn cached_block_count(&self, worker: usize) -> usize {
        self.workers[worker].cache.lock().len()
    }

    // ------------------------------------------------------------------
    // Memory governance
    // ------------------------------------------------------------------

    /// The memory accountant/governor.
    pub fn memory(&self) -> &MemoryGovernor {
        &self.memory
    }

    /// Set the cluster-wide cache byte budget (0 = ungoverned). If the
    /// resident set already exceeds the new budget, victims are evicted
    /// (and spilled) immediately.
    pub fn set_memory_budget(&self, bytes: u64) {
        let victims = self.memory.set_budget(bytes);
        self.apply_victims(victims);
    }

    /// Governed block insert: the accountant admits (possibly evicting
    /// colder blocks first) or rejects the block; only admitted blocks
    /// enter the worker cache. Returns whether the block was cached —
    /// rejection is not an error, the caller just stays uncached.
    pub fn put_block_charged(
        &self,
        worker: usize,
        id: BlockId,
        version: u64,
        data: Arc<dyn Any + Send + Sync>,
        charge: BlockCharge,
    ) -> bool {
        let (admitted, victims) = self.memory.admit(worker, id, charge);
        self.apply_victims(victims);
        if admitted {
            self.put_block(worker, id, version, data);
        }
        admitted
    }

    /// Record a cache hit on a governed block (reuse-count feedback for
    /// the cost-based eviction score).
    pub fn touch_block(&self, id: BlockId) {
        self.memory.touch(id);
    }

    /// Register a dataset version with a live handle lease (see
    /// [`MemoryGovernor::register_dataset`]).
    pub fn register_dataset_version(&self, dataset: u64) {
        self.memory.register_dataset(dataset);
    }

    /// The last handle to `dataset` dropped; retire it if superseded.
    pub fn release_dataset(&self, dataset: u64) {
        let victims = self.memory.release_dataset(dataset);
        self.apply_victims(victims);
    }

    /// A newer committed version replaced `dataset`; retire it if no live
    /// handle pins it.
    pub fn dataset_superseded(&self, dataset: u64) {
        let victims = self.memory.mark_superseded(dataset);
        self.apply_victims(victims);
    }

    /// Safety-net retirement sweep (also run automatically at query
    /// admission-slot release).
    pub fn sweep_retired(&self) {
        let victims = self.memory.sweep_retired();
        self.apply_victims(victims);
    }

    /// Drop governor-selected victims from the worker caches.
    fn apply_victims(&self, victims: Vec<(usize, BlockId)>) {
        for (worker, id) in victims {
            self.evict_block(worker, id);
        }
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    /// Pick the worker a task attempt should run on, skipping workers in
    /// `exclude` (those already observed failing this task). If every alive
    /// worker has failed the task, retry anywhere alive rather than give up
    /// — a panic may be transient even on a blamed worker.
    fn schedule_excluding(
        &self,
        spec: &TaskSpec,
        exclude: &[usize],
    ) -> Result<(usize, bool), StageError> {
        if let Some(w) = spec.preferred_worker {
            if self.is_alive(w) && !exclude.contains(&w) {
                return Ok((w, false));
            }
        }
        // Fall back to an alive, un-blamed worker, round-robin.
        let alive = self.alive_workers();
        let mut candidates: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|w| !exclude.contains(w))
            .collect();
        if candidates.is_empty() {
            candidates = alive;
        }
        if candidates.is_empty() {
            return Err(StageError::NoAliveWorkers {
                partition: spec.partition,
            });
        }
        let w = candidates[self.fallback.fetch_add(1, Relaxed) % candidates.len()];
        Ok((w, spec.preferred_worker.is_some()))
    }

    /// Run one stage fallibly: every task executes on its scheduled
    /// worker's next executor pool inside `catch_unwind`, and results are
    /// returned in task order. A failed attempt (panic, or worker killed
    /// while the task ran) is rescheduled onto another alive worker —
    /// excluding workers already observed failing that task — up to
    /// [`ClusterConfig::max_task_attempts`] total attempts. No task panic
    /// crosses this function; exhaustion surfaces as
    /// [`StageError::TaskFailed`] naming the partition, attempt count and
    /// worker history.
    ///
    /// Compatibility wrapper over [`Cluster::run_stage_for`]: the stage is
    /// attributed to the ambient query installed by [`Cluster::with_query`]
    /// if any, otherwise to a fresh single-stage query (which bypasses
    /// admission — bare stages are internal work, not tenant submissions).
    ///
    /// `f` must be cheap to share (it is called concurrently from many
    /// executor threads) and safe to re-run for the same partition: a
    /// retried attempt sees the same `TaskContext::partition` but possibly
    /// a different worker.
    pub fn run_stage<R, F>(&self, tasks: &[TaskSpec], f: F) -> Result<Vec<R>, StageError>
    where
        R: Send + 'static,
        F: Fn(TaskContext) -> R + Send + Sync + 'static,
    {
        let query = scheduler::ambient_query().unwrap_or_else(|| self.scheduler.new_query(1));
        self.run_stage_for(&query, tasks, f)
    }

    /// Run one stage on behalf of `query`: tasks are pushed into the
    /// per-worker fair queues and interleave with other queries' tasks on
    /// the shared executor pools. Fails fast with
    /// [`StageError::Cancelled`] if the query is cancelled at stage entry,
    /// at a dispatch, or while any of its attempts are still queued.
    pub fn run_stage_for<R, F>(
        &self,
        query: &QueryRef,
        tasks: &[TaskSpec],
        f: F,
    ) -> Result<Vec<R>, StageError>
    where
        R: Send + 'static,
        F: Fn(TaskContext) -> R + Send + Sync + 'static,
    {
        self.registry.counter("stage.launched").inc();
        let span_id = self.trace.next_span_id();
        let parent = self.trace.current_parent();
        let start_us = self.trace.now_us();
        let start = std::time::Instant::now();
        let result = self.run_stage_inner(query, span_id, tasks, f);
        if result.is_err() {
            self.registry.counter("stage.failed").inc();
        }
        self.trace.record(SpanRecord {
            id: span_id,
            parent,
            kind: SpanKind::Stage,
            name: format!("stage[{} tasks]", tasks.len()),
            start_us,
            dur_us: start.elapsed().as_micros() as u64,
            worker: -1,
            partition: -1,
        });
        result
    }

    fn run_stage_inner<R, F>(
        &self,
        query: &QueryRef,
        stage_span: u64,
        tasks: &[TaskSpec],
        f: F,
    ) -> Result<Vec<R>, StageError>
    where
        R: Send + 'static,
        F: Fn(TaskContext) -> R + Send + Sync + 'static,
    {
        if query.is_cancelled() {
            return Err(StageError::Cancelled { query: query.id() });
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, usize, TaskResult<R>)>();
        let n = tasks.len();
        let rtt_ns = self.scheduler.dispatch_rtt_ns();

        let dispatch = |idx: usize,
                        spec: &TaskSpec,
                        exclude: &[usize],
                        attempt: usize|
         -> Result<(), StageError> {
            if query.is_cancelled() {
                return Err(StageError::Cancelled { query: query.id() });
            }
            let (worker, non_local) = self.schedule_excluding(spec, exclude)?;
            let ws = &self.workers[worker];
            let executor = ws.next_executor.fetch_add(1, Relaxed) % ws.executors.len();
            let ctx = TaskContext {
                partition: spec.partition,
                worker,
                executor,
                non_local,
            };
            if non_local {
                self.registry.counter("task.non_local").inc();
            }
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let alive = Arc::clone(&ws.alive);
            let queue_wait_hist = self
                .registry
                .histogram_on(Some(worker), "task.queue_wait_ns");
            let run_hist = self.registry.histogram_on(Some(worker), "task.run_ns");
            let trace = Arc::clone(&self.trace);
            let task_span = trace.next_span_id();
            // Simulated driver→worker dispatch round-trip (serving
            // benchmarks; 0 = off). The *driver* pays it, like a Spark
            // driver pushing a task over the wire — worker cores stay free
            // and concurrent queries' drivers overlap their RTTs.
            if rtt_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(rtt_ns));
            }
            let dispatched = std::time::Instant::now();
            // The task goes into the worker's fair queue; the drainer job
            // spawned into the executor pool pops the *fairest* pending
            // task at run time (not necessarily this one), so tasks from
            // different queries interleave on the shared pool.
            let task: Box<dyn FnOnce(bool) + Send> = Box::new(move |cancelled: bool| {
                if cancelled {
                    // Popped after the owning query was cancelled: report
                    // without executing.
                    let _ = tx.send((
                        idx,
                        ctx.worker,
                        TaskResult::Failed(FailureReason::Cancelled),
                    ));
                    return;
                }
                queue_wait_hist.record(dispatched.elapsed().as_nanos() as u64);
                let start_us = trace.now_us();
                let run_start = std::time::Instant::now();
                let outcome = match catch_unwind(AssertUnwindSafe(|| f(ctx))) {
                    Err(payload) => {
                        TaskResult::Failed(FailureReason::Panicked(panic_message(payload)))
                    }
                    // The worker died while we ran: the result may depend on
                    // cache state that was just wiped — discard and retry.
                    Ok(_) if !alive.load(Relaxed) => TaskResult::Failed(FailureReason::WorkerLost),
                    Ok(r) => TaskResult::Ok(r),
                };
                run_hist.record(run_start.elapsed().as_nanos() as u64);
                trace.record(SpanRecord {
                    id: task_span,
                    parent: stage_span,
                    kind: SpanKind::Task,
                    name: if attempt > 1 {
                        format!("task(attempt {attempt})")
                    } else {
                        "task".to_string()
                    },
                    start_us,
                    dur_us: run_start.elapsed().as_micros() as u64,
                    worker: ctx.worker as i64,
                    partition: ctx.partition as i64,
                });
                // Receiver hung up only if the stage already failed.
                let _ = tx.send((idx, ctx.worker, outcome));
            });
            self.scheduler.enqueue(worker, query, task);
            let queue = Arc::clone(self.scheduler.queue(worker));
            ws.executors[executor].spawn(move || queue.drain_one());
            Ok(())
        };

        // 1-based attempt counts and per-task worker blame lists.
        let mut attempts = vec![1usize; n];
        let mut failed_workers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (idx, spec) in tasks.iter().enumerate() {
            dispatch(idx, spec, &[], 1)?;
        }

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut remaining = n;
        while remaining > 0 {
            let (idx, worker, outcome) = rx.recv().expect("all executors hung up mid-stage");
            if slots[idx].is_some() {
                continue; // stale duplicate from a superseded attempt
            }
            match outcome {
                TaskResult::Ok(r) => {
                    slots[idx] = Some(r);
                    remaining -= 1;
                }
                TaskResult::Failed(FailureReason::Cancelled) => {
                    // A queued attempt was dropped because the query was
                    // cancelled: abandon the stage. Attempts still running
                    // send into a closed channel harmlessly; no retry
                    // accounting — cancellation is not a failure.
                    return Err(StageError::Cancelled { query: query.id() });
                }
                TaskResult::Failed(reason) => {
                    // Attempt-level accounting: every failed attempt counts
                    // here, with its cause; `task.terminal_failures` is
                    // reserved for retry exhaustion, so a task that fails on
                    // worker A and succeeds on worker B leaves the stage
                    // with one retry and zero terminal failures.
                    self.registry.counter("task.attempt_failures").inc();
                    match &reason {
                        FailureReason::Panicked(_) => {
                            self.registry.counter("task.failure_cause.panicked").inc()
                        }
                        FailureReason::WorkerLost => self
                            .registry
                            .counter("task.failure_cause.worker_lost")
                            .inc(),
                        FailureReason::Cancelled => unreachable!("handled above"),
                    }
                    if !failed_workers[idx].contains(&worker) {
                        failed_workers[idx].push(worker);
                    }
                    if attempts[idx] >= self.config.max_task_attempts {
                        self.registry.counter("task.terminal_failures").inc();
                        return Err(StageError::TaskFailed {
                            partition: tasks[idx].partition,
                            attempts: attempts[idx],
                            workers_tried: failed_workers[idx].clone(),
                            last_error: reason,
                        });
                    }
                    attempts[idx] += 1;
                    self.registry.counter("task.retries").inc();
                    dispatch(idx, &tasks[idx], &failed_workers[idx], attempts[idx])?;
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("missing task result"))
            .collect())
    }

    /// Fallible convenience: one task per partition `0..n`, placed by
    /// [`Cluster::worker_for_partition`].
    pub fn run_stage_partitions<R, F>(&self, n: usize, f: F) -> Result<Vec<R>, StageError>
    where
        R: Send + 'static,
        F: Fn(TaskContext) -> R + Send + Sync + 'static,
    {
        let tasks: Vec<TaskSpec> = (0..n)
            .map(|p| TaskSpec {
                partition: p,
                preferred_worker: Some(self.worker_for_partition(p)),
            })
            .collect();
        self.run_stage(&tasks, f)
    }

    /// [`Cluster::run_stage`] with longest-processing-time dispatch: tasks
    /// are enqueued heaviest-first (`weights[i]` estimates task `i`'s
    /// cost), so a hot partition starts as early as possible instead of
    /// landing last behind a queue of cheap tasks. Results come back in
    /// the *original* task order — only the dispatch order changes, so
    /// callers and retries are unaffected.
    pub fn run_stage_weighted<R, F>(
        &self,
        tasks: &[TaskSpec],
        weights: &[u64],
        f: F,
    ) -> Result<Vec<R>, StageError>
    where
        R: Send + 'static,
        F: Fn(TaskContext) -> R + Send + Sync + 'static,
    {
        assert_eq!(tasks.len(), weights.len());
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        // Stable sort: equal weights keep partition order (determinism).
        order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
        let permuted: Vec<TaskSpec> = order.iter().map(|&i| tasks[i]).collect();
        let results = self.run_stage(&permuted, f)?;
        let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
        for (&i, r) in order.iter().zip(results) {
            slots[i] = Some(r);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("missing weighted task result"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Arc<Cluster> {
        Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 2,
            cores_per_executor: 2,
            max_task_attempts: 4,
            skew_ratio: 2.0,
        })
    }

    #[test]
    fn runs_tasks_in_order() {
        let c = cluster();
        let out = c
            .run_stage_partitions(16, |ctx| ctx.partition * 10)
            .unwrap();
        assert_eq!(out, (0..16).map(|p| p * 10).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_respect_locality() {
        let c = cluster();
        let out = c
            .run_stage_partitions(12, |ctx| (ctx.partition, ctx.worker, ctx.non_local))
            .unwrap();
        for (p, w, non_local) in out {
            assert_eq!(w, p % 3);
            assert!(!non_local);
        }
        assert_eq!(c.registry().counter_value("task.non_local"), 0);
        let run = c.registry().histogram_snapshot("task.run_ns").unwrap();
        assert_eq!(run.count, 12, "one run per task");
    }

    #[test]
    fn dead_worker_falls_back() {
        let c = cluster();
        c.kill_worker(1);
        let out = c
            .run_stage_partitions(12, |ctx| (ctx.partition, ctx.worker, ctx.non_local))
            .unwrap();
        for (p, w, non_local) in out {
            assert_ne!(w, 1, "dead worker must not run tasks");
            if p % 3 == 1 {
                assert!(non_local);
            }
        }
        assert!(c.registry().counter_value("task.non_local") >= 4);
    }

    #[test]
    fn restart_worker_schedulable_again() {
        let c = cluster();
        c.kill_worker(0);
        c.restart_worker(0);
        let out = c.run_stage_partitions(3, |ctx| ctx.worker).unwrap();
        assert!(out.contains(&0));
    }

    #[test]
    fn block_cache_roundtrip() {
        let c = cluster();
        let id = BlockId {
            dataset: c.new_dataset_id(),
            partition: 0,
        };
        c.put_block(0, id, 1, Arc::new(vec![1u64, 2, 3]));
        let b = c.get_block(0, id).unwrap();
        assert_eq!(b.version, 1);
        let data = b.data.downcast_ref::<Vec<u64>>().unwrap();
        assert_eq!(data, &vec![1, 2, 3]);
        assert_eq!(c.get_block(1, id).map(|_| ()), None);
        assert_eq!(c.block_locations(id), vec![0]);
    }

    #[test]
    fn version_guard_rejects_stale_blocks() {
        // §III-D: a stale copy left on another worker must not serve tasks
        // after an append bumped the dataset version.
        let c = cluster();
        let id = BlockId {
            dataset: 9,
            partition: 0,
        };
        c.put_block(0, id, 1, Arc::new(1u32));
        c.put_block(1, id, 2, Arc::new(2u32)); // replayed copy after append
        assert!(
            c.get_block_min_version(0, id, 2).is_none(),
            "stale block served"
        );
        assert_eq!(
            c.get_block_min_version(1, id, 2)
                .unwrap()
                .data
                .downcast_ref::<u32>(),
            Some(&2)
        );
    }

    #[test]
    fn put_block_never_downgrades() {
        let c = cluster();
        let id = BlockId {
            dataset: 5,
            partition: 3,
        };
        c.put_block(0, id, 4, Arc::new(4u32));
        c.put_block(0, id, 2, Arc::new(2u32));
        assert_eq!(c.get_block(0, id).unwrap().version, 4);
    }

    #[test]
    fn kill_worker_clears_cache() {
        let c = cluster();
        let id = BlockId {
            dataset: 1,
            partition: 0,
        };
        c.put_block(2, id, 1, Arc::new(0u8));
        c.kill_worker(2);
        assert_eq!(c.cached_block_count(2), 0);
        c.restart_worker(2);
        assert!(c.get_block(2, id).is_none(), "restarted worker starts cold");
    }

    #[test]
    fn parallelism_actually_happens() {
        // With 3 workers × 2 executors × 2 cores there are 12 slots; 12
        // sleeping tasks should take ~1 sleep, not 12.
        let c = cluster();
        let start = std::time::Instant::now();
        c.run_stage_partitions(12, |_| {
            std::thread::sleep(std::time::Duration::from_millis(50))
        })
        .unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(400),
            "tasks serialized: {elapsed:?}"
        );
    }

    #[test]
    fn run_stage_all_dead_returns_error() {
        let c = cluster();
        for w in 0..3 {
            c.kill_worker(w);
        }
        let err = c.run_stage_partitions(2, |ctx| ctx.partition).unwrap_err();
        assert_eq!(err, StageError::NoAliveWorkers { partition: 0 });
    }

    #[test]
    fn panicking_task_is_retried_elsewhere() {
        // Partition 1 panics whenever it lands on its preferred worker 1;
        // the retry excludes worker 1 and succeeds.
        let c = cluster();
        let out = c
            .run_stage_partitions(6, |ctx| {
                if ctx.partition == 1 && ctx.worker == 1 {
                    panic!("injected failure on worker 1");
                }
                ctx.partition * 10
            })
            .expect("stage must recover via retry");
        assert_eq!(out, (0..6).map(|p| p * 10).collect::<Vec<_>>());
        let r = c.registry();
        assert_eq!(
            r.counter_value("task.terminal_failures"),
            0,
            "recovered task is not a terminal failure"
        );
        assert_eq!(r.counter_value("task.retries"), 1);
        assert_eq!(r.counter_value("stage.launched"), 1);
        let run = r.histogram_snapshot("task.run_ns").unwrap();
        assert_eq!(run.count, 7, "6 first attempts + 1 retry");
        assert_eq!(r.counter_value("task.attempt_failures"), 1);
        assert_eq!(r.counter_value("task.failure_cause.panicked"), 1);
        assert_eq!(r.counter_value("task.terminal_failures"), 0);
    }

    #[test]
    fn fail_on_a_succeed_on_b_is_one_retry_zero_failures() {
        // The exact accounting contract: a task that fails on worker A and
        // succeeds on worker B is one retry, zero terminal failures —
        // regardless of whether the failure was a panic or a worker loss.
        let c = cluster();
        let out = c
            .run_stage_partitions(3, |ctx| {
                if ctx.partition == 1 && ctx.worker == 1 {
                    panic!("first attempt dies on preferred worker");
                }
                ctx.partition
            })
            .unwrap();
        assert_eq!(out, vec![0, 1, 2]);
        let r = c.registry();
        assert_eq!(r.counter_value("task.retries"), 1, "exactly one retry");
        assert_eq!(
            r.counter_value("task.terminal_failures"),
            0,
            "zero terminal failures"
        );
        assert_eq!(c.registry().counter_value("task.attempt_failures"), 1);
        assert_eq!(c.registry().counter_value("stage.launched"), 1);
        assert_eq!(c.registry().counter_value("stage.failed"), 0);
    }

    #[test]
    fn mid_stage_worker_kill_recovers_via_retry() {
        // Chaos test: a task body kills its own worker while the stage is
        // in flight. Tasks preferring worker 1 sleep past the kill, so
        // their completed results are discarded as WorkerLost and re-run on
        // a surviving worker — the stage still returns correct results.
        use std::sync::atomic::AtomicBool;
        let c = cluster();
        let killer = c.clone();
        let kill_once = AtomicBool::new(false);
        let out = c
            .run_stage_partitions(9, move |ctx| {
                if ctx.partition % 3 == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                } else if !kill_once.swap(true, Relaxed) {
                    killer.kill_worker(1);
                }
                ctx.partition + 100
            })
            .expect("stage must survive a mid-stage worker kill");
        assert_eq!(out, (0..9).map(|p| p + 100).collect::<Vec<_>>());
        let retries = c.registry().counter_value("task.retries");
        assert!(retries > 0, "kill must have forced at least one retry");
        assert_eq!(
            c.registry().counter_value("task.terminal_failures"),
            0,
            "every attempt recovered, so no terminal failures"
        );
        assert_eq!(
            c.registry().counter_value("task.attempt_failures"),
            retries,
            "each retry corresponds to exactly one failed attempt"
        );
        assert!(c.registry().counter_value("task.failure_cause.worker_lost") > 0);
        assert!(!c.is_alive(1));
    }

    #[test]
    fn retry_exhaustion_names_partition_and_attempts() {
        let c = Cluster::new(ClusterConfig {
            workers: 3,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 3,
            skew_ratio: 2.0,
        });
        let err = c
            .run_stage_partitions(4, |ctx| {
                if ctx.partition == 2 {
                    panic!("partition 2 always fails");
                }
                ctx.partition
            })
            .unwrap_err();
        let StageError::TaskFailed {
            partition,
            attempts,
            workers_tried,
            last_error,
        } = err
        else {
            panic!("expected TaskFailed, got {err:?}");
        };
        assert_eq!(partition, 2);
        assert_eq!(attempts, 3);
        assert!(!workers_tried.is_empty());
        assert!(matches!(last_error, FailureReason::Panicked(ref m) if m.contains("always fails")));
        let r = c.registry();
        assert_eq!(
            r.counter_value("task.terminal_failures"),
            1,
            "one task exhausted its attempts"
        );
        assert_eq!(
            r.counter_value("task.retries"),
            2,
            "retries exclude the first attempt"
        );
        assert_eq!(r.counter_value("task.attempt_failures"), 3);
        assert_eq!(c.registry().counter_value("stage.failed"), 1);
    }

    #[test]
    fn cancelled_query_fails_stage_entry() {
        let c = cluster();
        let q = c.scheduler().new_query(1);
        q.cancel();
        let err = c
            .run_stage_for(
                &q,
                &[TaskSpec {
                    partition: 0,
                    preferred_worker: None,
                }],
                |_| (),
            )
            .unwrap_err();
        assert_eq!(err, StageError::Cancelled { query: q.id() });
        assert_eq!(c.registry().counter_value("stage.failed"), 1);
    }

    #[test]
    fn cancel_mid_stage_drops_queued_tasks() {
        // One worker × one executor × one core: task 0 runs while tasks
        // 1–3 sit in the fair queue. Cancelling mid-run must drop the
        // queued tasks unexecuted and surface StageError::Cancelled; the
        // running task finishes (task-boundary granularity).
        use std::sync::atomic::AtomicUsize;
        let c = Cluster::new(ClusterConfig {
            workers: 1,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 2,
            skew_ratio: 2.0,
        });
        let q = c.scheduler().new_query(1);
        let q2 = q.clone();
        let executed = Arc::new(AtomicUsize::new(0));
        let executed2 = Arc::clone(&executed);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(15));
            q2.cancel();
        });
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|p| TaskSpec {
                partition: p,
                preferred_worker: Some(0),
            })
            .collect();
        let err = c
            .run_stage_for(&q, &tasks, move |_| {
                executed2.fetch_add(1, Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(60));
            })
            .unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err, StageError::Cancelled { query: q.id() });
        assert!(
            executed.load(Relaxed) < 4,
            "queued tasks of a cancelled query must not execute"
        );
        assert_eq!(
            c.registry().counter_value("task.attempt_failures"),
            0,
            "cancellation is not a failure"
        );
    }

    #[test]
    fn concurrent_queries_interleave_on_shared_pool() {
        // Two queries submitted from two threads share one single-slot
        // worker; the fair queue must alternate their tasks rather than
        // running one query's backlog to completion first.
        let c = Cluster::new(ClusterConfig {
            workers: 1,
            executors_per_worker: 1,
            cores_per_executor: 1,
            max_task_attempts: 2,
            skew_ratio: 2.0,
        });
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let q = c.scheduler().new_query(1);
                    barrier.wait();
                    let tasks: Vec<TaskSpec> = (0..6)
                        .map(|p| TaskSpec {
                            partition: p,
                            preferred_worker: Some(0),
                        })
                        .collect();
                    c.run_stage_for(&q, &tasks, |_| {
                        std::thread::sleep(std::time::Duration::from_millis(5))
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            c.registry().counter_value("scheduler.interleaves") > 0,
            "tasks from distinct queries must interleave"
        );
    }

    #[test]
    fn exact_version_guard_rejects_newer_blocks() {
        // MVCC visibility bound: a reader pinned at version 2 must not be
        // served a version-3 block, even though the min-version guard
        // would accept it.
        let c = cluster();
        let id = BlockId {
            dataset: 11,
            partition: 0,
        };
        c.put_block(0, id, 3, Arc::new(3u32));
        assert!(
            c.get_block_min_version(0, id, 2).is_some(),
            "floor guard accepts newer blocks (by design)"
        );
        assert!(
            c.get_block_at_version(0, id, 2).is_none(),
            "exact guard must reject a block newer than the snapshot"
        );
        assert_eq!(
            c.get_block_at_version(0, id, 3)
                .unwrap()
                .data
                .downcast_ref::<u32>(),
            Some(&3)
        );
    }

    #[test]
    fn run_stage_records_spans_and_task_histograms() {
        let c = cluster();
        c.run_stage_partitions(6, |_| {
            std::thread::sleep(std::time::Duration::from_micros(50))
        })
        .unwrap();
        let spans = c.trace().spans();
        let stage_spans: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Stage).collect();
        let task_spans: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Task).collect();
        assert_eq!(stage_spans.len(), 1);
        assert_eq!(task_spans.len(), 6);
        for t in &task_spans {
            assert_eq!(t.parent, stage_spans[0].id, "tasks nest under the stage");
            assert!(t.worker >= 0 && t.partition >= 0);
        }
        let run = c.registry().histogram_snapshot("task.run_ns").unwrap();
        assert_eq!(run.count, 6);
        assert!(run.min >= 50_000, "each task slept ≥50µs");
        let wait = c
            .registry()
            .histogram_snapshot("task.queue_wait_ns")
            .unwrap();
        assert_eq!(wait.count, 6);
        let json = c.metrics_json();
        assert!(json.contains("\"schema\":\"sparklet-metrics-v2\""));
        assert!(!json.contains("\"legacy\""));
        assert!(json.contains("\"task.run_ns\""));
        let report = c.trace_report();
        assert!(report.contains("\"schema\":\"sparklet-trace-v1\""));
        assert!(report.contains("\"kind\":\"task\""));
    }
}
