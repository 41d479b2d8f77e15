//! SQL sessions: asynchronous query submission over the shared cluster.
//!
//! [`Context::submit_sql`] turns the one-shot `ctx.sql(..).collect()` path
//! into a *serving* interface: the statement is parsed, optimized and
//! physically planned synchronously (snapshotting the provider set — DDL
//! after submission cannot tear the running query), admission control is
//! consulted (typed rejection when the wait queue is full), and the rest
//! — admission wait and execution, attributed to a scheduler
//! [`QueryRef`] so its tasks interleave fairly with other queries' —
//! becomes a one-shot *job* on the returned [`QueryHandle`].
//!
//! The job runs exactly once, on whichever side claims it first:
//!
//! * **claim-on-wait** — [`QueryHandle::wait`] runs an unclaimed job on
//!   the caller's thread, so a closed-loop client never hops threads;
//! * **pooled drivers** — `submit_sql` also hands the job to an idle
//!   driver thread of the context's pool (spawning one only when none is
//!   idle), so a handle that is only polled still completes. Idle drivers
//!   park and exit after a second without work.
//!
//! `wait` consumes the handle and moves the rows out; `poll` clones them.
//!
//! Per-session observability (all in the cluster registry, asserted in
//! `tests/metrics_e2e.rs`):
//!
//! * `session.queue_ns` — histogram of submit → admission latency;
//! * `session.exec_ns` — histogram of admission → completion latency;
//! * `session.admitted` / `session.rejected` / `session.cancelled` —
//!   admission outcomes;
//! * `session.driver_spawns` — driver threads the pool started.

use crate::expr::PlanError;
use crate::physical::{gather, ExecError};
use rowstore::Row;
use sparklet::{Admission, AdmitError, QueryRef, Registry, StageError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::context::{Context, TablePinGuard};

/// How long an idle pooled driver parks before its thread exits.
const DRIVER_IDLE_TIMEOUT: Duration = Duration::from_secs(1);

/// A query's admission wait and execution, run once by whoever claims it.
type Job = Box<dyn FnOnce() -> Result<Vec<Row>, PlanError> + Send>;

/// Shared state between a [`QueryHandle`] and the driver that runs it.
///
/// Also owns the query's [`TablePinGuard`]: the pins live here (not in
/// the job) so that *every* way a query can end — normal completion,
/// admission rejection, cancellation, or a panic escaping execution —
/// releases them through the same `finish` path.
#[derive(Default)]
struct HandleShared {
    /// `Some` until a driver or `wait` claims it.
    job: Mutex<Option<Job>>,
    result: Mutex<Option<Result<Vec<Row>, PlanError>>>,
    done: Condvar,
    /// Set by `finish`. `Drop` reads this rather than the result slot,
    /// which `wait` empties when it moves the rows out.
    finished: AtomicBool,
    pins: Mutex<Option<TablePinGuard>>,
}

impl HandleShared {
    fn claim(&self) -> Option<Job> {
        self.job.lock().expect("job slot poisoned").take()
    }

    fn is_claimed(&self) -> bool {
        self.job.lock().expect("job slot poisoned").is_none()
    }

    fn finish(&self, result: Result<Vec<Row>, PlanError>) {
        // Release table pins before publishing the result: a waiter that
        // observes completion may immediately deregister the table.
        drop(self.pins.lock().expect("pin slot poisoned").take());
        let mut slot = self.result.lock().expect("result slot poisoned");
        *slot = Some(result);
        // Set under the slot lock, so whoever sees the result also sees
        // the flag.
        self.finished.store(true, SeqCst);
        drop(slot);
        self.done.notify_all();
    }
}

/// Render a panic payload the way `std` would print it.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "query driver panicked".to_string())
}

/// The context's pool of query driver threads.
///
/// Threads hold only the pool state, never the [`Context`], so an idle
/// pool does not keep its session alive. Dropping the pool (with its
/// context) wakes every idle driver to exit; it does not join them, since
/// the last context reference may itself be dropped on a driver thread.
#[derive(Default)]
pub(crate) struct DriverPool {
    shared: Arc<PoolShared>,
}

#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Drivers parked in (or on their way into) `next_job`.
    available: usize,
    /// Handed-over jobs not yet taken by a driver. Each is backed by one
    /// available driver, so a queued job never waits behind a busy one.
    queue: VecDeque<Arc<HandleShared>>,
    shutdown: bool,
}

impl DriverPool {
    /// Hand `job` to an idle driver, or start a driver for it when none
    /// is idle.
    fn dispatch(&self, job: &Arc<HandleShared>, registry: &Registry) {
        let mut st = self.shared.state.lock().expect("driver pool poisoned");
        // Jobs that `wait` already claimed inline no longer need a driver.
        st.queue.retain(|queued| !queued.is_claimed());
        if st.available > st.queue.len() {
            st.queue.push_back(Arc::clone(job));
            drop(st);
            self.shared.wake.notify_one();
            return;
        }
        drop(st);
        registry.counter("session.driver_spawns").inc();
        let pool = Arc::clone(&self.shared);
        let first = Arc::clone(job);
        std::thread::spawn(move || pool.drive(first));
    }
}

impl Drop for DriverPool {
    fn drop(&mut self) {
        // Setting a flag leaves the state valid even after a panic
        // poisoned the lock, and `drop` must not panic itself.
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.shared.wake.notify_all();
    }
}

impl PoolShared {
    /// A driver thread's body: run `first` unless `wait` claimed it, then
    /// serve handed-over jobs until idle for [`DRIVER_IDLE_TIMEOUT`].
    fn drive(&self, first: Arc<HandleShared>) {
        let mut next = first.claim().map(|job| (first, job));
        loop {
            let done = next.map(|(handle, job)| (handle, job()));
            // Count this driver idle before publishing: a closed-loop
            // client that sees the result and submits again then finds it
            // free instead of spawning another.
            self.state.lock().expect("driver pool poisoned").available += 1;
            if let Some((handle, result)) = done {
                handle.finish(result);
            }
            next = self.next_job();
            if next.is_none() {
                return;
            }
        }
    }

    /// Park until a handed-over job can be claimed. `None` (after leaving
    /// the available count) on idle timeout or pool shutdown.
    fn next_job(&self) -> Option<(Arc<HandleShared>, Job)> {
        let mut st = self.state.lock().expect("driver pool poisoned");
        loop {
            // Claiming under the pool lock keeps `available` exact: a
            // driver is never both counted idle and holding a job.
            while let Some(handle) = st.queue.pop_front() {
                if let Some(job) = handle.claim() {
                    st.available -= 1;
                    return Some((handle, job));
                }
            }
            if st.shutdown {
                st.available -= 1;
                return None;
            }
            let (guard, wait) = self
                .wake
                .wait_timeout(st, DRIVER_IDLE_TIMEOUT)
                .expect("driver pool poisoned");
            st = guard;
            if wait.timed_out() && st.queue.is_empty() {
                st.available -= 1;
                return None;
            }
            if !st.queue.is_empty() {
                // Woken for a job: yield once before claiming it. The
                // wake may have preempted the submitter on this CPU just
                // before it claims the job in `wait`; running it here
                // would then cost the submitter a wake-up of its own.
                drop(st);
                std::thread::yield_now();
                st = self.state.lock().expect("driver pool poisoned");
            }
        }
    }
}

/// Handle to a query submitted with [`Context::submit_sql`].
pub struct QueryHandle {
    shared: Arc<HandleShared>,
    query: QueryRef,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("query", &self.query.id())
            .field("finished", &self.shared.finished.load(SeqCst))
            .finish()
    }
}

impl QueryHandle {
    /// The scheduler-wide query id.
    pub fn id(&self) -> u64 {
        self.query.id()
    }

    /// Non-blocking: `Some(result)` once the query finished (the result
    /// stays available for repeated polls), `None` while it runs. Polling
    /// never runs the query itself; a pooled driver does.
    pub fn poll(&self) -> Option<Result<Vec<Row>, PlanError>> {
        self.shared
            .result
            .lock()
            .expect("result slot poisoned")
            .clone()
    }

    /// Block until the query finishes and return its result, moved out
    /// of the handle. If no driver has started the query yet, it runs on
    /// the calling thread.
    pub fn wait(self) -> Result<Vec<Row>, PlanError> {
        if let Some(job) = self.shared.claim() {
            self.shared.finish(job());
        }
        let mut slot = self.shared.result.lock().expect("result slot poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.shared.done.wait(slot).expect("result slot poisoned");
        }
    }

    /// Request cooperative cancellation: a query waiting for admission
    /// aborts immediately; a running query fails at its next task
    /// dispatch / queued-task pop (tasks already running finish). A
    /// query that already completed keeps its result.
    pub fn cancel(&self) {
        self.query.cancel();
    }

    pub fn is_cancelled(&self) -> bool {
        self.query.is_cancelled()
    }
}

impl Drop for QueryHandle {
    /// Dropping the last observer of an unfinished query cancels it:
    /// nobody can consume the result, so holding its admission slot and
    /// table pins any longer only starves other queries. A query still
    /// queued for admission aborts immediately (releasing its pins); a
    /// running query fails at its next task dispatch. Finished queries
    /// — including one whose rows `wait` moved out — are unaffected.
    fn drop(&mut self) {
        if !self.shared.finished.load(SeqCst) {
            self.query.cancel();
        }
    }
}

fn is_cancellation(err: &PlanError) -> bool {
    matches!(
        err,
        PlanError::Exec(ExecError::Stage(StageError::Cancelled { .. }))
    )
}

impl Context {
    /// Submit a SQL statement for asynchronous execution. Planning —
    /// including snapshotting every scanned table's provider into the
    /// physical plan — happens synchronously, so the returned handle's
    /// result is immune to concurrent `register_table` /
    /// `deregister_table` calls. Admission is also decided synchronously
    /// when the queue is full: the typed [`PlanError::Admission`] is
    /// returned instead of a handle. `submit_sql` never blocks on
    /// admission: waiting for a slot is part of the query's job.
    pub fn submit_sql(self: &Arc<Self>, sql: &str) -> Result<QueryHandle, PlanError> {
        self.submit_sql_weighted(sql, 1)
    }

    /// [`Context::submit_sql`] with an explicit fairness weight: the
    /// scheduler serves `weight` consecutive tasks of this query per
    /// round-robin turn (≥1; higher = larger share of the pool).
    pub fn submit_sql_weighted(
        self: &Arc<Self>,
        sql: &str,
        weight: u32,
    ) -> Result<QueryHandle, PlanError> {
        let handle = self.prepare_query(sql, weight)?;
        self.drivers()
            .dispatch(&handle.shared, self.cluster().registry());
        Ok(handle)
    }

    /// Plan, pin and admit `sql`, returning a handle whose job no driver
    /// has been handed yet.
    fn prepare_query(self: &Arc<Self>, sql: &str, weight: u32) -> Result<QueryHandle, PlanError> {
        let df = self.sql(sql)?;
        // Provider snapshot: ScanExec nodes hold their `Arc<dyn
        // TableProvider>` from this point on.
        let phys = df.physical_plan()?;
        let pins = self.pin_tables(df.plan().referenced_tables());

        let scheduler = self.cluster().scheduler();
        let registry = self.cluster().registry();
        let query = scheduler.new_query(weight);
        let admission = match scheduler.try_admit(&query) {
            Ok(a) => a,
            Err(e) => {
                registry.counter("session.rejected").inc();
                return Err(PlanError::Admission(e.to_string()));
            }
        };

        let ctx = Arc::clone(self);
        let driven = query.clone();
        let submitted = Instant::now();
        #[cfg(test)]
        let sql_probe = sql.to_string();
        // The admission wait (so `submit_sql` never blocks) and the
        // execution itself. The table pins live in the handle's shared
        // state and are released by `finish` on every exit path,
        // including a panic escaping execution.
        let job: Job = Box::new(move || {
            let registry = ctx.cluster().registry();
            let admitted = match admission {
                Admission::Ready(guard) => Ok(guard),
                Admission::Queued(ticket) => ticket.wait(),
            };
            registry
                .histogram("session.queue_ns")
                .record(submitted.elapsed().as_nanos() as u64);
            match admitted {
                Err(e) => {
                    if matches!(e, AdmitError::Cancelled { .. }) {
                        registry.counter("session.cancelled").inc();
                    } else {
                        registry.counter("session.rejected").inc();
                    }
                    Err(PlanError::Admission(e.to_string()))
                }
                Ok(_slot) => {
                    registry.counter("session.admitted").inc();
                    let exec_start = Instant::now();
                    // Worker-task panics are already converted to typed
                    // `StageError`s by the cluster; this guards the driver
                    // side (planning glue, gather, provider code running on
                    // this thread). Without it a panic here would leave
                    // `finish` uncalled: waiters would block forever and the
                    // table pins would leak until process exit.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(test)]
                        tests::inject_test_panic(&sql_probe);
                        ctx.cluster().with_query(&driven, || {
                            phys.execute(&ctx).map(gather).map_err(PlanError::from)
                        })
                    }));
                    registry
                        .histogram("session.exec_ns")
                        .record(exec_start.elapsed().as_nanos() as u64);
                    let result = match outcome {
                        Ok(r) => r,
                        Err(payload) => {
                            registry.counter("session.driver_panics").inc();
                            Err(PlanError::Internal(panic_text(payload.as_ref())))
                        }
                    };
                    if result.as_ref().is_err_and(is_cancellation) {
                        registry.counter("session.cancelled").inc();
                    }
                    result
                    // `_slot` drops here: the admission slot frees and a
                    // queued query wakes up.
                }
            }
        });

        let shared = Arc::new(HandleShared {
            job: Mutex::new(Some(job)),
            pins: Mutex::new(Some(pins)),
            ..HandleShared::default()
        });
        Ok(QueryHandle { shared, query })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnarTable;
    use rowstore::{DataType, Field, Schema, Value};
    use sparklet::{Cluster, ClusterConfig};

    /// Marker-based panic injection: a submitted statement containing
    /// this identifier panics inside the query's job right after
    /// admission. Keyed on the SQL text (not a global flag) so parallel
    /// tests in this module cannot trip each other's injection.
    pub(super) const PANIC_MARKER: &str = "panic_in_driver";

    pub(super) fn inject_test_panic(sql: &str) {
        if sql.contains(PANIC_MARKER) {
            panic!("injected driver panic");
        }
    }

    fn ctx_with_table(rows: i64) -> Arc<Context> {
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let data: Vec<Row> = (0..rows)
            .map(|i| vec![Value::Int64(i % 10), Value::Int64(i)])
            .collect();
        ctx.register_table("t", Arc::new(ColumnarTable::from_rows(schema, data, 4)));
        ctx
    }

    /// Poll `handle` until it finishes (pooled drivers only; polling
    /// never runs the job), failing after a generous deadline.
    fn poll_until_done(handle: &QueryHandle) -> Result<Vec<Row>, PlanError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(result) = handle.poll() {
                return result;
            }
            assert!(Instant::now() < deadline, "polled handle never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn submit_poll_wait_roundtrip() {
        let ctx = ctx_with_table(100);
        let handle = ctx.submit_sql("SELECT * FROM t WHERE k = 3").unwrap();
        let polled = poll_until_done(&handle).unwrap();
        assert_eq!(polled.len(), 10);
        // Result is sticky: a second poll sees it again, and `wait` moves
        // out the same rows.
        assert_eq!(handle.poll().unwrap().unwrap(), polled);
        let rows = handle.wait().unwrap();
        assert_eq!(rows, polled);
        // Matches the synchronous path bit for bit.
        let mut expect = ctx
            .sql("SELECT * FROM t WHERE k = 3")
            .unwrap()
            .collect()
            .unwrap();
        let mut got = rows;
        expect.sort_by_key(|r| format!("{r:?}"));
        got.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(got, expect);
    }

    #[test]
    fn submit_errors_on_unknown_table() {
        let ctx = ctx_with_table(10);
        let err = ctx.submit_sql("SELECT * FROM nope").unwrap_err();
        assert_eq!(err, PlanError::UnknownTable("nope".into()));
    }

    #[test]
    fn ddl_after_submit_cannot_tear_the_query() {
        let ctx = ctx_with_table(5000);
        let handle = ctx
            .submit_sql("SELECT k, count(*) AS n FROM t GROUP BY k")
            .unwrap();
        // Replace the provider mid-flight: the running query planned
        // against the old snapshot and must not notice.
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        ctx.register_table(
            "t",
            Arc::new(ColumnarTable::from_rows(
                schema,
                vec![vec![Value::Int64(0)]],
                1,
            )),
        );
        let rows = handle.wait().unwrap();
        assert_eq!(rows.len(), 10, "snapshot saw the original 10 groups");
    }

    #[test]
    fn deregister_fails_while_pinned_then_succeeds() {
        let ctx = ctx_with_table(2000);
        let handle = ctx
            .submit_sql("SELECT k, count(*) AS n FROM t GROUP BY k")
            .unwrap();
        // The pin is taken synchronously in submit_sql; if the query is
        // still running the deregister must fail typed, and once it
        // finishes the pin releases and deregistration succeeds.
        match ctx.deregister_table("t") {
            Err(PlanError::TablePinned(t)) => {
                assert_eq!(t, "t");
                handle.wait().unwrap();
                // `finish` drops the pins before it publishes the result,
                // so they are gone as soon as `wait` returns.
                assert_eq!(ctx.table_pin_count("t"), 0);
                assert!(ctx.deregister_table("t").unwrap().is_some());
            }
            // The query already finished and released its pin before we
            // got here — the deregister legitimately removed the table.
            Ok(Some(_)) => {
                handle.wait().unwrap();
            }
            other => panic!(
                "unexpected deregister outcome: {:?}",
                other.map(|o| o.is_some())
            ),
        }
    }

    #[test]
    fn admission_queue_full_rejects_synchronously() {
        let ctx = ctx_with_table(100);
        ctx.cluster().scheduler().set_admission_limits(1, 0);
        // Occupy the only slot out-of-band so the next submit must reject.
        let blocker = ctx.cluster().scheduler().new_query(1);
        let _slot = ctx.cluster().scheduler().admit(&blocker).unwrap();
        let err = ctx.submit_sql("SELECT * FROM t").unwrap_err();
        assert!(matches!(err, PlanError::Admission(_)), "got {err:?}");
        assert_eq!(
            ctx.cluster().registry().counter_value("session.rejected"),
            1
        );
        assert_eq!(ctx.table_pin_count("t"), 0, "rejected submit leaves no pin");
    }

    #[test]
    fn driver_panic_releases_pins_and_reports_internal() {
        let ctx = ctx_with_table(100);
        let sql = format!("SELECT k AS {PANIC_MARKER} FROM t");
        let panics = || {
            ctx.cluster()
                .registry()
                .counter_value("session.driver_panics")
        };
        // A handle no driver was handed: `wait` must claim the job and
        // run it, panic included, on this thread.
        let handle = ctx.prepare_query(&sql, 1).unwrap();
        assert_eq!(ctx.table_pin_count("t"), 1);
        // The panic is caught and surfaced as a typed internal error —
        // `wait` must not hang or unwind.
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, PlanError::Internal(_)), "got {err:?}");
        assert_eq!(panics(), 1);
        // `finish` releases pins before publishing the result, so the
        // table is deregistrable as soon as `wait` returns.
        assert_eq!(ctx.table_pin_count("t"), 0, "panic path must release pins");

        // The same panic on a pooled driver: the handle is only polled.
        let handle = ctx.submit_sql(&sql).unwrap();
        let err = poll_until_done(&handle).unwrap_err();
        assert!(matches!(err, PlanError::Internal(_)), "got {err:?}");
        assert_eq!(panics(), 2);
        assert_eq!(ctx.table_pin_count("t"), 0, "panic path must release pins");

        // And through the public path, whichever side claims the job.
        let err = ctx.submit_sql(&sql).unwrap().wait().unwrap_err();
        assert!(matches!(err, PlanError::Internal(_)), "got {err:?}");
        assert_eq!(panics(), 3);
        assert_eq!(ctx.table_pin_count("t"), 0, "panic path must release pins");
        assert!(ctx.deregister_table("t").unwrap().is_some());
    }

    #[test]
    fn dropping_queued_handle_cancels_and_releases_pins() {
        let ctx = ctx_with_table(100);
        ctx.cluster().scheduler().set_admission_limits(1, 4);
        // Occupy the only slot so the submitted query queues for
        // admission — the window where pins used to be unreclaimable.
        let blocker = ctx.cluster().scheduler().new_query(1);
        let slot = ctx.cluster().scheduler().admit(&blocker).unwrap();
        let handle = ctx.submit_sql("SELECT * FROM t").unwrap();
        assert_eq!(ctx.table_pin_count("t"), 1);
        drop(handle);
        // Dropping the unfinished handle cancels the query; the driver
        // thread aborts its admission wait and finishes, releasing the
        // pin without the blocker ever yielding its slot.
        for _ in 0..500 {
            if ctx.table_pin_count("t") == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(ctx.table_pin_count("t"), 0);
        assert!(ctx.deregister_table("t").unwrap().is_some());
        drop(slot);
    }

    #[test]
    fn cancel_while_queued_for_admission() {
        let ctx = ctx_with_table(100);
        ctx.cluster().scheduler().set_admission_limits(1, 4);
        let blocker = ctx.cluster().scheduler().new_query(1);
        let slot = ctx.cluster().scheduler().admit(&blocker).unwrap();
        let handle = ctx.submit_sql("SELECT * FROM t").unwrap();
        handle.cancel();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, PlanError::Admission(_)), "got {err:?}");
        drop(slot);
        assert!(ctx.cluster().registry().counter_value("session.cancelled") >= 1);
    }

    #[test]
    fn polled_only_handles_complete_on_the_pool() {
        let ctx = ctx_with_table(100);
        let handles: Vec<QueryHandle> = (0..32)
            .map(|i| {
                ctx.submit_sql(&format!("SELECT * FROM t WHERE k = {}", i % 10))
                    .unwrap()
            })
            .collect();
        for handle in &handles {
            assert_eq!(poll_until_done(handle).unwrap().len(), 10);
        }
        let registry = ctx.cluster().registry();
        assert_eq!(registry.counter_value("session.admitted"), 32);
        assert!(registry.counter_value("session.driver_spawns") >= 1);
        assert_eq!(ctx.table_pin_count("t"), 0);
    }

    #[test]
    fn sequential_waits_reuse_drivers() {
        let ctx = ctx_with_table(100);
        for i in 0..1000 {
            let sql = format!("SELECT * FROM t WHERE k = {}", i % 10);
            assert_eq!(ctx.submit_sql(&sql).unwrap().wait().unwrap().len(), 10);
        }
        let registry = ctx.cluster().registry();
        assert_eq!(registry.counter_value("session.admitted"), 1000);
        let spawns = registry.counter_value("session.driver_spawns");
        assert!(
            (1..=2).contains(&spawns),
            "1,000 sequential queries started {spawns} driver threads"
        );
    }

    #[test]
    fn dropping_a_waited_handle_does_not_cancel() {
        let ctx = ctx_with_table(100);
        let handle = ctx.submit_sql("SELECT * FROM t WHERE k = 3").unwrap();
        let query = handle.query.clone();
        // `wait` empties the result slot and drops the handle on return.
        assert_eq!(handle.wait().unwrap().len(), 10);
        assert!(
            !query.is_cancelled(),
            "a consumed handle cancelled its query"
        );
        assert_eq!(
            ctx.cluster().registry().counter_value("session.cancelled"),
            0
        );
    }
}
