//! Multi-query scheduling: fair per-worker task queues, admission
//! control, and per-query cancellation.
//!
//! The original execution core ran one barrier-synchronized stage at a
//! time — the whole "cluster" served exactly one query. This module turns
//! [`crate::Cluster`] into a shared substrate for *concurrent tenants*:
//!
//! * every stage is submitted on behalf of a [`QueryRef`]; tasks are
//!   pushed into a per-worker [`FairQueue`] instead of straight into the
//!   executor pools, and a *drainer* job spawned into the pool pops the
//!   fairest pending task at run time — so tasks from different queries
//!   interleave on the shared executor threads;
//! * fairness is deficit weighted round-robin across queries: each query
//!   gets `weight` consecutive pops before the queue rotates to the next
//!   query with pending tasks;
//! * an admission controller bounds concurrent queries
//!   (`max_concurrent`) and the wait queue behind them (`max_waiting`);
//!   excess submissions wait on a condvar or are rejected synchronously
//!   with the typed [`AdmitError::QueueFull`];
//! * cancellation is cooperative: [`QueryRef::cancel`] flips a flag that
//!   is observed at stage entry, at task dispatch, and by drainers (a
//!   queued task of a cancelled query is *not* executed — it reports
//!   [`crate::FailureReason::Cancelled`] and the stage driver surfaces
//!   [`crate::StageError::Cancelled`]). Tasks already running are allowed
//!   to finish; cancellation granularity is the task boundary.
//!
//! Plain [`crate::Cluster::run_stage`] remains the compatibility surface:
//! it attributes the stage to the ambient query installed by
//! [`crate::Cluster::with_query`] (a thread-local), or to a fresh
//! single-use query that bypasses admission — so every pre-existing call
//! site keeps working unchanged while participating in fair scheduling.
//!
//! ## Simulated dispatch RTT
//!
//! Real Spark pays a control-plane round-trip per task launch (driver →
//! worker over the wire); on this in-process simulation that latency is
//! zero, which would make single-query serving look artificially cheap.
//! [`Scheduler::set_dispatch_rtt_ns`] injects a configurable per-task
//! driver-side delay so serving benchmarks can model the latency that
//! concurrent tenants overlap (it is the driver that sleeps, not a worker
//! core — exactly like a driver waiting on the wire). Default is 0: no
//! existing path is affected.

use crate::metrics::{Counter, Registry};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};

/// Monotonically increasing query identifier.
pub type QueryId = u64;

/// Shared state of one query known to the scheduler.
#[derive(Debug)]
pub(crate) struct QueryState {
    pub(crate) id: QueryId,
    /// Fairness weight: consecutive tasks served per round-robin turn.
    pub(crate) weight: u32,
    pub(crate) cancelled: AtomicBool,
    /// Back-reference so `cancel()` can wake an admission waiter.
    admission: Arc<AdmissionShared>,
}

/// Cheap, cloneable handle naming one query. Everything the scheduler
/// does — fair queueing, admission, cancellation — keys off this.
#[derive(Clone, Debug)]
pub struct QueryRef {
    state: Arc<QueryState>,
}

impl QueryRef {
    pub fn id(&self) -> QueryId {
        self.state.id
    }

    pub fn weight(&self) -> u32 {
        self.state.weight
    }

    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Relaxed)
    }

    /// Request cooperative cancellation: future stages and queued tasks of
    /// this query fail with [`crate::StageError::Cancelled`]; tasks already
    /// running finish and their results are kept (cancellation granularity
    /// is the task boundary). Wakes the query if it is parked in the
    /// admission queue.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Relaxed);
        // Wake a potential admission waiter so it can observe the flag.
        let _unused = self.state.admission.state.lock().unwrap();
        self.state.admission.cv.notify_all();
    }

    pub(crate) fn state(&self) -> &Arc<QueryState> {
        &self.state
    }
}

// ----------------------------------------------------------------------
// Ambient query (thread-local attribution for `Cluster::run_stage` calls
// that carry no explicit query, e.g. operators deep in a plan)
// ----------------------------------------------------------------------

thread_local! {
    static AMBIENT_QUERY: RefCell<Option<QueryRef>> = const { RefCell::new(None) };
}

/// The query the current thread is executing on behalf of, if any.
pub fn ambient_query() -> Option<QueryRef> {
    AMBIENT_QUERY.with(|q| q.borrow().clone())
}

/// Install `query` as the ambient query for the duration of `f`
/// (restores the previous value on exit, including on unwind).
pub fn with_ambient_query<R>(query: &QueryRef, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<QueryRef>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            AMBIENT_QUERY.with(|q| *q.borrow_mut() = prev);
        }
    }
    let prev = AMBIENT_QUERY.with(|q| q.borrow_mut().replace(query.clone()));
    let _restore = Restore(prev);
    f()
}

// ----------------------------------------------------------------------
// Admission control
// ----------------------------------------------------------------------

/// Why a query was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// Both the running set and the wait queue are full; the submission is
    /// rejected synchronously rather than parked.
    QueueFull {
        running: usize,
        waiting: usize,
        max_waiting: usize,
    },
    /// The query was cancelled while waiting for admission.
    Cancelled { query: QueryId },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QueueFull {
                running,
                waiting,
                max_waiting,
            } => write!(
                f,
                "admission queue full: {running} running, {waiting}/{max_waiting} waiting"
            ),
            AdmitError::Cancelled { query } => {
                write!(f, "query {query} cancelled while awaiting admission")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

#[derive(Debug, Default)]
struct AdmissionCounts {
    running: usize,
    waiting: usize,
}

struct AdmissionShared {
    state: Mutex<AdmissionCounts>,
    cv: Condvar,
    max_concurrent: AtomicUsize,
    max_waiting: AtomicUsize,
    /// Invoked after every admission-slot release (query completion). The
    /// cluster hooks memory-governance sweeps here: a query releasing its
    /// slot is the natural boundary at which superseded dataset versions
    /// stop being referenced and can be retired.
    release_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl fmt::Debug for AdmissionShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionShared")
            .field("state", &self.state)
            .field("max_concurrent", &self.max_concurrent)
            .field("max_waiting", &self.max_waiting)
            .finish_non_exhaustive()
    }
}

/// RAII admission slot: dropping it releases the slot and wakes waiters.
#[derive(Debug)]
pub struct AdmissionGuard {
    shared: Arc<AdmissionShared>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.running -= 1;
        drop(st);
        self.shared.cv.notify_all();
        // Run the release hook outside every admission lock: it may take
        // unrelated locks (memory-governor sweeps).
        let hook = self.shared.release_hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// Outcome of a synchronous admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// A slot was free; the query may execute immediately.
    Ready(AdmissionGuard),
    /// The query is parked in the wait queue; call
    /// [`AdmissionTicket::wait`] (possibly from another thread) to block
    /// until a slot frees up or the query is cancelled.
    Queued(AdmissionTicket),
}

/// A position in the admission wait queue (`waiting` already counted).
#[derive(Debug)]
pub struct AdmissionTicket {
    inner: Option<(Arc<AdmissionShared>, QueryRef)>,
}

impl AdmissionTicket {
    /// Block until admitted or cancelled.
    pub fn wait(mut self) -> Result<AdmissionGuard, AdmitError> {
        let (shared, query) = self.inner.take().expect("ticket already consumed");
        let mut st = shared.state.lock().unwrap();
        loop {
            if query.is_cancelled() {
                st.waiting -= 1;
                return Err(AdmitError::Cancelled { query: query.id() });
            }
            if st.running < shared.max_concurrent.load(Relaxed) {
                st.waiting -= 1;
                st.running += 1;
                return Ok(AdmissionGuard {
                    shared: Arc::clone(&shared),
                });
            }
            st = shared.cv.wait(st).unwrap();
        }
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        if let Some((shared, _)) = self.inner.take() {
            let mut st = shared.state.lock().unwrap();
            st.waiting -= 1;
            drop(st);
            shared.cv.notify_all();
        }
    }
}

// ----------------------------------------------------------------------
// Fair per-worker task queues
// ----------------------------------------------------------------------

/// A queued task attempt: the body receives `true` when its query was
/// cancelled before it ran (it must then report the cancellation instead
/// of executing).
type QueuedTask = Box<dyn FnOnce(bool) + Send>;

struct PerQuery {
    query: Arc<QueryState>,
    /// Remaining consecutive pops before the round-robin rotates.
    credit: u32,
    tasks: VecDeque<QueuedTask>,
}

#[derive(Default)]
struct FairState {
    /// Round-robin ring of queries with pending tasks; front is current.
    ring: VecDeque<PerQuery>,
    /// Query served by the previous pop (interleaving accounting).
    last_popped: Option<QueryId>,
}

/// Deficit-weighted-round-robin task queue for one worker. Tasks are
/// FIFO *within* a query; *across* queries the front query is served
/// `weight` consecutive tasks, then the ring rotates.
pub(crate) struct FairQueue {
    state: Mutex<FairState>,
    /// Pops where the served query differs from the previous pop — direct
    /// evidence of cross-query interleaving on the shared pool.
    interleaves: Arc<Counter>,
}

impl FairQueue {
    fn new(interleaves: Arc<Counter>) -> FairQueue {
        FairQueue {
            state: Mutex::new(FairState::default()),
            interleaves,
        }
    }

    fn push(&self, query: &Arc<QueryState>, task: QueuedTask) {
        let mut st = self.state.lock().unwrap();
        if let Some(pq) = st.ring.iter_mut().find(|pq| pq.query.id == query.id) {
            pq.tasks.push_back(task);
        } else {
            let mut tasks = VecDeque::new();
            tasks.push_back(task);
            st.ring.push_back(PerQuery {
                query: Arc::clone(query),
                credit: query.weight.max(1),
                tasks,
            });
        }
    }

    /// Pop the fairest pending task, if any, with its query's
    /// cancellation state sampled at pop time.
    fn pop(&self) -> Option<(QueuedTask, bool)> {
        let mut st = self.state.lock().unwrap();
        loop {
            let front = st.ring.front_mut()?;
            let Some(task) = front.tasks.pop_front() else {
                st.ring.pop_front();
                continue;
            };
            let id = front.query.id;
            let cancelled = front.query.cancelled.load(Relaxed);
            front.credit -= 1;
            if front.credit == 0 {
                // Turn exhausted: reset credit and rotate to the next query.
                front.credit = front.query.weight.max(1);
                let pq = st.ring.pop_front().expect("front exists");
                if !pq.tasks.is_empty() {
                    st.ring.push_back(pq);
                }
            } else if front.tasks.is_empty() {
                st.ring.pop_front();
            }
            if st.last_popped.is_some_and(|prev| prev != id) {
                self.interleaves.inc();
            }
            st.last_popped = Some(id);
            return Some((task, cancelled));
        }
    }

    /// Run one queued task, if any. Spawned into executor pools as the
    /// "drainer": one drainer per pushed task guarantees every task runs.
    pub(crate) fn drain_one(&self) {
        if let Some((task, cancelled)) = self.pop() {
            task(cancelled);
        }
    }
}

// ----------------------------------------------------------------------
// Scheduler
// ----------------------------------------------------------------------

/// Default cap on concurrently executing admitted queries.
pub const DEFAULT_MAX_CONCURRENT_QUERIES: usize = 16;
/// Default cap on queries parked behind the running set.
pub const DEFAULT_MAX_WAITING_QUERIES: usize = 64;

/// The multi-query scheduler owned by a [`crate::Cluster`]: per-worker
/// fair queues plus the admission controller.
pub struct Scheduler {
    admission: Arc<AdmissionShared>,
    queues: Vec<Arc<FairQueue>>,
    next_query: AtomicU64,
    /// Simulated driver→worker control-plane latency per task dispatch
    /// (nanoseconds; 0 = off). See the module docs.
    dispatch_rtt_ns: AtomicU64,
}

impl Scheduler {
    pub(crate) fn new(num_workers: usize, registry: &Registry) -> Scheduler {
        let interleaves = registry.counter("scheduler.interleaves");
        Scheduler {
            admission: Arc::new(AdmissionShared {
                state: Mutex::new(AdmissionCounts::default()),
                cv: Condvar::new(),
                max_concurrent: AtomicUsize::new(DEFAULT_MAX_CONCURRENT_QUERIES),
                max_waiting: AtomicUsize::new(DEFAULT_MAX_WAITING_QUERIES),
                release_hook: Mutex::new(None),
            }),
            queues: (0..num_workers)
                .map(|_| Arc::new(FairQueue::new(interleaves.clone())))
                .collect(),
            next_query: AtomicU64::new(1),
            dispatch_rtt_ns: AtomicU64::new(0),
        }
    }

    /// Mint a new query with the given fairness weight (≥1).
    pub fn new_query(&self, weight: u32) -> QueryRef {
        QueryRef {
            state: Arc::new(QueryState {
                id: self.next_query.fetch_add(1, Relaxed),
                weight: weight.max(1),
                cancelled: AtomicBool::new(false),
                admission: Arc::clone(&self.admission),
            }),
        }
    }

    /// Adjust admission limits at runtime (takes effect for subsequent
    /// admissions and wake-ups).
    pub fn set_admission_limits(&self, max_concurrent: usize, max_waiting: usize) {
        self.admission
            .max_concurrent
            .store(max_concurrent.max(1), Relaxed);
        self.admission.max_waiting.store(max_waiting, Relaxed);
        let _unused = self.admission.state.lock().unwrap();
        self.admission.cv.notify_all();
    }

    /// `(running, waiting)` snapshot of the admission controller.
    pub fn admission_counts(&self) -> (usize, usize) {
        let st = self.admission.state.lock().unwrap();
        (st.running, st.waiting)
    }

    /// Synchronous admission attempt: immediately admitted, parked with a
    /// ticket, or rejected with the typed [`AdmitError::QueueFull`].
    pub fn try_admit(&self, query: &QueryRef) -> Result<Admission, AdmitError> {
        if query.is_cancelled() {
            return Err(AdmitError::Cancelled { query: query.id() });
        }
        let mut st = self.admission.state.lock().unwrap();
        if st.running < self.admission.max_concurrent.load(Relaxed) {
            st.running += 1;
            return Ok(Admission::Ready(AdmissionGuard {
                shared: Arc::clone(&self.admission),
            }));
        }
        let max_waiting = self.admission.max_waiting.load(Relaxed);
        if st.waiting >= max_waiting {
            return Err(AdmitError::QueueFull {
                running: st.running,
                waiting: st.waiting,
                max_waiting,
            });
        }
        st.waiting += 1;
        Ok(Admission::Queued(AdmissionTicket {
            inner: Some((Arc::clone(&self.admission), query.clone())),
        }))
    }

    /// Blocking admission: [`Scheduler::try_admit`] + wait on the ticket.
    pub fn admit(&self, query: &QueryRef) -> Result<AdmissionGuard, AdmitError> {
        match self.try_admit(query)? {
            Admission::Ready(guard) => Ok(guard),
            Admission::Queued(ticket) => ticket.wait(),
        }
    }

    /// Install the hook invoked after each admission-slot release. Used by
    /// [`crate::Cluster`] to sweep retirable dataset versions at query
    /// boundaries.
    pub fn set_release_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.admission.release_hook.lock().unwrap() = Some(hook);
    }

    /// Model a per-task driver→worker dispatch round-trip (see module
    /// docs). 0 disables.
    pub fn set_dispatch_rtt_ns(&self, ns: u64) {
        self.dispatch_rtt_ns.store(ns, Relaxed);
    }

    pub fn dispatch_rtt_ns(&self) -> u64 {
        self.dispatch_rtt_ns.load(Relaxed)
    }

    /// Queue a task attempt for `worker` on behalf of `query`.
    pub(crate) fn enqueue(&self, worker: usize, query: &QueryRef, task: QueuedTask) {
        self.queues[worker].push(query.state(), task);
    }

    pub(crate) fn queue(&self, worker: usize) -> &Arc<FairQueue> {
        &self.queues[worker]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(workers: usize) -> (Scheduler, Arc<Registry>) {
        let registry = Arc::new(Registry::new(workers));
        (Scheduler::new(workers, &registry), registry)
    }

    #[test]
    fn admission_fast_path_and_release() {
        let (s, _r) = scheduler(2);
        s.set_admission_limits(2, 4);
        let q1 = s.new_query(1);
        let q2 = s.new_query(1);
        let g1 = s.admit(&q1).unwrap();
        let _g2 = s.admit(&q2).unwrap();
        assert_eq!(s.admission_counts(), (2, 0));
        drop(g1);
        assert_eq!(s.admission_counts(), (1, 0));
    }

    #[test]
    fn admission_rejects_when_queue_full() {
        let (s, _r) = scheduler(1);
        s.set_admission_limits(1, 0);
        let _g = s.admit(&s.new_query(1)).unwrap();
        let err = s.try_admit(&s.new_query(1)).unwrap_err();
        assert!(matches!(err, AdmitError::QueueFull { max_waiting: 0, .. }));
    }

    #[test]
    fn queued_admission_proceeds_when_slot_frees() {
        let (s, _r) = scheduler(1);
        s.set_admission_limits(1, 4);
        let s = Arc::new(s);
        let guard = s.admit(&s.new_query(1)).unwrap();
        let q2 = s.new_query(1);
        let ticket = match s.try_admit(&q2).unwrap() {
            Admission::Queued(t) => t,
            Admission::Ready(_) => panic!("slot should be taken"),
        };
        assert_eq!(s.admission_counts(), (1, 1));
        let waiter = std::thread::spawn(move || ticket.wait().map(drop));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        waiter.join().unwrap().expect("queued query admitted");
        assert_eq!(s.admission_counts(), (0, 0));
    }

    #[test]
    fn cancel_wakes_admission_waiter() {
        let (s, _r) = scheduler(1);
        s.set_admission_limits(1, 4);
        let _guard = s.admit(&s.new_query(1)).unwrap();
        let q2 = s.new_query(1);
        let ticket = match s.try_admit(&q2).unwrap() {
            Admission::Queued(t) => t,
            Admission::Ready(_) => panic!("slot should be taken"),
        };
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q2.cancel();
        let err = waiter.join().unwrap().unwrap_err();
        assert_eq!(err, AdmitError::Cancelled { query: q2.id() });
        assert_eq!(s.admission_counts(), (1, 0), "waiting count released");
    }

    #[test]
    fn dropped_ticket_releases_wait_slot() {
        let (s, _r) = scheduler(1);
        s.set_admission_limits(1, 1);
        let _g = s.admit(&s.new_query(1)).unwrap();
        let ticket = match s.try_admit(&s.new_query(1)).unwrap() {
            Admission::Queued(t) => t,
            Admission::Ready(_) => panic!(),
        };
        assert_eq!(s.admission_counts(), (1, 1));
        drop(ticket);
        assert_eq!(s.admission_counts(), (1, 0));
    }

    #[test]
    fn fair_queue_weighted_round_robin() {
        // Query A (weight 2) and B (weight 1) each queue 4 tasks on one
        // worker; A is served 2 tasks per turn to B's 1 until A drains.
        let (s, _r) = scheduler(1);
        let a = s.new_query(2);
        let b = s.new_query(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..4 {
            for (q, tag) in [(&a, 'A'), (&b, 'B')] {
                let order = Arc::clone(&order);
                s.enqueue(0, q, Box::new(move |_| order.lock().unwrap().push(tag)));
            }
        }
        for _ in 0..8 {
            s.queue(0).drain_one();
        }
        let got: String = order.lock().unwrap().iter().collect();
        assert_eq!(got, "AABAABBB");
    }

    #[test]
    fn cancelled_query_tasks_are_not_executed() {
        let (s, _r) = scheduler(1);
        let q = s.new_query(1);
        let ran = Arc::new(AtomicBool::new(false));
        let saw_cancel = Arc::new(AtomicBool::new(false));
        let (ran2, saw2) = (Arc::clone(&ran), Arc::clone(&saw_cancel));
        s.enqueue(
            0,
            &q,
            Box::new(move |cancelled| {
                if cancelled {
                    saw2.store(true, Relaxed);
                } else {
                    ran2.store(true, Relaxed);
                }
            }),
        );
        q.cancel();
        s.queue(0).drain_one();
        assert!(!ran.load(Relaxed), "cancelled task must not execute");
        assert!(saw_cancel.load(Relaxed));
    }

    #[test]
    fn ambient_query_scoped_and_restored() {
        let (s, _r) = scheduler(1);
        let q = s.new_query(1);
        assert!(ambient_query().is_none());
        with_ambient_query(&q, || {
            assert_eq!(ambient_query().unwrap().id(), q.id());
            let inner = s.new_query(1);
            with_ambient_query(&inner, || {
                assert_eq!(ambient_query().unwrap().id(), inner.id());
            });
            assert_eq!(ambient_query().unwrap().id(), q.id());
        });
        assert!(ambient_query().is_none());
    }
}
