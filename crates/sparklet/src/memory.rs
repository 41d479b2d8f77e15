//! Per-worker memory accounting and governance for the block cache.
//!
//! Today's substrate caches every materialized partition, every version
//! and every broadcast copy forever — fine for a benchmark, an unbounded
//! leak for a serving deployment. The [`MemoryGovernor`] closes the loop
//! (following the lifetime/cost-aware recipes of arXiv:1602.01959 and
//! arXiv:1804.10563):
//!
//! * **Byte budget.** Every governed block insert carries a
//!   [`BlockCharge`] — bytes (from the producer's `index_bytes` /
//!   `data_bytes` accounting), a measured recompute cost, and an optional
//!   spill closure. When the budget (0 = ungoverned, accounting only) would
//!   be exceeded, victims are evicted *before* the insert so resident
//!   bytes never exceed the budget.
//! * **Cost-based admission & eviction.** Retention score =
//!   `recompute_cost × (reuse_count + 1) / bytes`. The coldest entries are
//!   evicted first; a candidate colder than every block it would displace
//!   is rejected outright (`memory.admit_rejects`). Reuse history survives
//!   eviction, so a hot block that was evicted re-enters with its earned
//!   score.
//! * **Spill.** A victim with a spill closure is serialized (BlockWriter
//!   wire format), compressed ([`rowstore::spill`]) and persisted; a
//!   later rebuild drains the image back
//!   ([`MemoryGovernor::prepare_rebuild`]) instead of recomputing from
//!   lineage. A lost/corrupt image is detected by checksum and falls
//!   back to lineage recompute — the PR-1 retry machinery already covers
//!   re-execution.
//! * **Version retirement.** Dataset versions register a lease; when the
//!   last handle drops *and* a newer committed successor exists, the dead
//!   version's blocks and spill images are reclaimed
//!   (`memory.retired_versions`). A version pinned by any live handle
//!   (session provider snapshot, standing reader) is never retired.
//! * **Broadcast ledger.** Live broadcast registrations are tracked per
//!   worker so worker loss *reconciles* the accounting
//!   (`broadcast.reclaimed_{copies,bytes}`, `broadcast.live_*` gauges)
//!   instead of double-counting copies that died with the worker.
//!
//! All bookkeeping lives behind one mutex; the hot-path cost is a hash
//! map update. Cluster-facing mutations (actually dropping cached blocks)
//! are returned as victim lists and applied by [`crate::Cluster`], which
//! owns both the governor and the worker caches.

use crate::cluster::BlockId;
use crate::metrics::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use std::collections::hash_map::Entry::Vacant;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Serialize a block's rows into the BlockWriter wire format for spilling.
/// Returns `None` if the block cannot be spilled (encode failure); the
/// eviction then degrades to drop + lineage recompute.
pub type SpillFn = Box<dyn Fn() -> Option<Vec<u8>> + Send>;

/// Cost/size metadata accompanying a governed block insert.
pub struct BlockCharge {
    /// Resident bytes this block accounts for (index + data bytes).
    pub bytes: u64,
    /// Measured cost of (re)computing this block, in nanoseconds.
    pub cost_ns: u64,
    /// How to serialize the block for spilling (None = not spillable).
    pub spill: Option<SpillFn>,
}

struct Entry {
    worker: usize,
    bytes: u64,
    cost_ns: u64,
    /// Cache hits observed across this block's whole lifetime (survives
    /// eviction via `History`).
    uses: u64,
    last_use: u64,
    spill: Option<SpillFn>,
}

impl Entry {
    /// Retention score: recompute-cost × reuse-count per byte. Higher =
    /// more worth keeping resident.
    fn score(&self) -> f64 {
        self.cost_ns.max(1) as f64 * (self.uses + 1) as f64 / self.bytes.max(1) as f64
    }
}

/// Reuse/cost memory of an evicted block: lets a re-admitted hot block
/// keep its earned score, and marks rebuilds as recomputes.
struct History {
    uses: u64,
}

struct SpillSlot {
    path: PathBuf,
    raw_bytes: u64,
}

#[derive(Default)]
struct GovState {
    entries: HashMap<BlockId, Entry>,
    spilled: HashMap<BlockId, SpillSlot>,
    history: HashMap<BlockId, History>,
    resident: u64,
    clock: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VersionState {
    pinned: bool,
    superseded: bool,
}

struct BroadcastReg {
    unique_bytes: u64,
    workers: Vec<usize>,
}

#[derive(Default)]
struct BroadcastLedger {
    regs: VecDeque<BroadcastReg>,
    live_copies: u64,
    live_bytes: u64,
}

/// Bound on tracked live broadcasts; the oldest registration ages out
/// (treated as end-of-life) when the ledger is full.
const BROADCAST_LEDGER_CAP: usize = 1024;

/// Pre-resolved metric handles (the registry lookup is name-keyed).
struct GovMetrics {
    resident: Arc<Gauge>,
    resident_peak: Arc<Gauge>,
    budget: Arc<Gauge>,
    evictions: Arc<Counter>,
    spills: Arc<Counter>,
    spilled_bytes: Arc<Counter>,
    spill_disk_bytes: Arc<Counter>,
    unspills: Arc<Counter>,
    unspilled_bytes: Arc<Counter>,
    spill_lost: Arc<Counter>,
    recomputes: Arc<Counter>,
    admit_rejects: Arc<Counter>,
    retired_versions: Arc<Counter>,
    retired_bytes: Arc<Counter>,
    bc_live_copies: Arc<Gauge>,
    bc_live_bytes: Arc<Gauge>,
    bc_reclaimed_copies: Arc<Counter>,
    bc_reclaimed_bytes: Arc<Counter>,
}

impl GovMetrics {
    fn new(registry: &Registry) -> GovMetrics {
        GovMetrics {
            resident: registry.gauge("memory.resident_bytes"),
            resident_peak: registry.gauge("memory.resident_peak_bytes"),
            budget: registry.gauge("memory.budget_bytes"),
            evictions: registry.counter("memory.evictions"),
            spills: registry.counter("memory.spills"),
            spilled_bytes: registry.counter("memory.spilled_bytes"),
            spill_disk_bytes: registry.counter("memory.spill_disk_bytes"),
            unspills: registry.counter("memory.unspills"),
            unspilled_bytes: registry.counter("memory.unspilled_bytes"),
            spill_lost: registry.counter("memory.spill_lost"),
            recomputes: registry.counter("memory.recomputes"),
            admit_rejects: registry.counter("memory.admit_rejects"),
            retired_versions: registry.counter("memory.retired_versions"),
            retired_bytes: registry.counter("memory.retired_bytes"),
            bc_live_copies: registry.gauge("broadcast.live_copies"),
            bc_live_bytes: registry.gauge("broadcast.live_bytes"),
            bc_reclaimed_copies: registry.counter("broadcast.reclaimed_copies"),
            bc_reclaimed_bytes: registry.counter("broadcast.reclaimed_bytes"),
        }
    }
}

/// A block evicted by the governor: the cluster must drop it from this
/// worker's cache.
pub(crate) type Victim = (usize, BlockId);

static NEXT_GOVERNOR_ID: AtomicU64 = AtomicU64::new(1);

/// The per-cluster memory accountant. Owned by [`crate::Cluster`]; all
/// methods that evict return [`Victim`] lists the cluster applies to its
/// worker caches.
pub struct MemoryGovernor {
    /// 0 = ungoverned: accounting runs, enforcement is off.
    budget: AtomicU64,
    state: Mutex<GovState>,
    versions: Mutex<HashMap<u64, VersionState>>,
    broadcasts: Mutex<BroadcastLedger>,
    spill_dir: Mutex<Option<PathBuf>>,
    instance: u64,
    metrics: GovMetrics,
}

impl MemoryGovernor {
    pub(crate) fn new(registry: &Registry) -> MemoryGovernor {
        MemoryGovernor {
            budget: AtomicU64::new(0),
            state: Mutex::new(GovState::default()),
            versions: Mutex::new(HashMap::new()),
            broadcasts: Mutex::new(BroadcastLedger::default()),
            spill_dir: Mutex::new(None),
            instance: NEXT_GOVERNOR_ID.fetch_add(1, Relaxed),
            metrics: GovMetrics::new(registry),
        }
    }

    // ------------------------------------------------------------------
    // Configuration & introspection
    // ------------------------------------------------------------------

    /// Current byte budget (0 = ungoverned).
    pub fn budget(&self) -> u64 {
        self.budget.load(Relaxed)
    }

    /// Currently accounted resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().resident
    }

    /// Number of blocks currently spilled to disk.
    pub fn spilled_block_count(&self) -> usize {
        self.state.lock().spilled.len()
    }

    /// Set the budget; returns victims to evict immediately if the new
    /// budget is already exceeded.
    pub(crate) fn set_budget(&self, bytes: u64) -> Vec<Victim> {
        self.budget.store(bytes, Relaxed);
        self.metrics.budget.set(bytes);
        if bytes == 0 {
            return Vec::new();
        }
        let mut st = self.state.lock();
        let victims = self.evict_down_to(&mut st, bytes, None);
        self.publish_resident(&st);
        victims
    }

    // ------------------------------------------------------------------
    // Block admission / touch / rebuild
    // ------------------------------------------------------------------

    /// Record a cache hit: bumps the block's reuse count and recency.
    /// Deliberately *not* called by stats polling — the accountant reading
    /// sizes must not perturb the recency it governs.
    pub(crate) fn touch(&self, id: BlockId) {
        let mut st = self.state.lock();
        st.clock += 1;
        let clock = st.clock;
        if let Some(e) = st.entries.get_mut(&id) {
            e.uses += 1;
            e.last_use = clock;
        }
    }

    /// Admit a block into the accounted cache. Returns `(admitted,
    /// victims)`: the cluster inserts the block only when admitted, and
    /// always drops the victims. With budget 0 this is pure accounting.
    pub(crate) fn admit(
        &self,
        worker: usize,
        id: BlockId,
        charge: BlockCharge,
    ) -> (bool, Vec<Victim>) {
        let budget = self.budget();
        let mut st = self.state.lock();
        // Re-put of a resident block (e.g. rebuilt on a new home after a
        // kill): release the old accounting first.
        if let Some(old) = st.entries.remove(&id) {
            st.resident -= old.bytes;
            st.history.insert(id, History { uses: old.uses });
        }
        let prior_uses = st.history.get(&id).map(|h| h.uses).unwrap_or(0);

        let mut victims = Vec::new();
        if budget > 0 {
            if charge.bytes > budget {
                self.metrics.admit_rejects.inc();
                self.publish_resident(&st);
                return (false, victims);
            }
            if st.resident + charge.bytes > budget {
                // Cost-based admission: never displace hotter blocks.
                let candidate_score = charge.cost_ns.max(1) as f64 * (prior_uses + 1) as f64
                    / charge.bytes.max(1) as f64;
                victims = self.evict_down_to(&mut st, budget - charge.bytes, Some(candidate_score));
                if st.resident + charge.bytes > budget {
                    // Could not free enough without displacing hotter
                    // entries: the candidate is not worth caching.
                    self.metrics.admit_rejects.inc();
                    self.publish_resident(&st);
                    return (false, victims);
                }
            }
        }
        st.history.remove(&id);
        st.clock += 1;
        let clock = st.clock;
        st.entries.insert(
            id,
            Entry {
                worker,
                bytes: charge.bytes,
                cost_ns: charge.cost_ns,
                uses: prior_uses,
                last_use: clock,
                spill: charge.spill,
            },
        );
        st.resident += charge.bytes;
        self.publish_resident(&st);
        (true, victims)
    }

    /// Called before rebuilding a missing block. Returns the raw
    /// BlockWriter-format bytes if a spill image exists and validates;
    /// otherwise counts a recompute when this block was previously
    /// resident (i.e. governance, not first touch, made it missing).
    ///
    /// The image stays on disk after a successful restore: the restored
    /// block's *re-admission* can be rejected by cost-based admission,
    /// and the next miss should pay another cheap restore, not a full
    /// lineage recompute. A re-admitted block's next eviction overwrites
    /// the image in place; retirement deletes it.
    pub fn prepare_rebuild(&self, id: BlockId) -> Option<Vec<u8>> {
        let mut st = self.state.lock();
        if let Some(slot) = st.spilled.get(&id) {
            let raw_bytes = slot.raw_bytes;
            let path = slot.path.clone();
            match std::fs::read(&path)
                .ok()
                .and_then(|image| rowstore::spill::decode(&image).ok())
            {
                Some(raw) => {
                    self.metrics.unspills.inc();
                    self.metrics.unspilled_bytes.add(raw_bytes);
                    return Some(raw);
                }
                None => {
                    // Lost or corrupt image: lineage recompute fallback.
                    st.spilled.remove(&id);
                    let _ = std::fs::remove_file(&path);
                    self.metrics.spill_lost.inc();
                    self.metrics.recomputes.inc();
                    return None;
                }
            }
        }
        if st.history.contains_key(&id) {
            self.metrics.recomputes.inc();
        }
        None
    }

    /// Failure injection: delete every spill image (as if the spill volume
    /// was lost). Subsequent rebuilds fall back to lineage recompute.
    pub fn discard_spill_images(&self) -> usize {
        let mut st = self.state.lock();
        let n = st.spilled.len();
        let drained: Vec<(BlockId, SpillSlot)> = st.spilled.drain().collect();
        for (id, slot) in drained {
            let _ = std::fs::remove_file(&slot.path);
            // Keep the block's history so the rebuild counts as recompute.
            st.history.entry(id).or_insert(History { uses: 0 });
        }
        n
    }

    // ------------------------------------------------------------------
    // Version retirement
    // ------------------------------------------------------------------

    /// Register a new dataset version with a live handle lease.
    pub(crate) fn register_dataset(&self, dataset: u64) {
        self.versions.lock().insert(
            dataset,
            VersionState {
                pinned: true,
                superseded: false,
            },
        );
    }

    /// The last handle to `dataset` dropped. Retires it if a committed
    /// successor exists.
    pub(crate) fn release_dataset(&self, dataset: u64) -> Vec<Victim> {
        let mut versions = self.versions.lock();
        if let Some(v) = versions.get_mut(&dataset) {
            v.pinned = false;
            if v.superseded {
                versions.remove(&dataset);
                drop(versions);
                return self.retire(dataset);
            }
        }
        Vec::new()
    }

    /// A newer version of `dataset` committed (fully materialized).
    /// Retires the parent if nothing pins it.
    pub(crate) fn mark_superseded(&self, dataset: u64) -> Vec<Victim> {
        let mut versions = self.versions.lock();
        if let Some(v) = versions.get_mut(&dataset) {
            v.superseded = true;
            if !v.pinned {
                versions.remove(&dataset);
                drop(versions);
                return self.retire(dataset);
            }
        }
        Vec::new()
    }

    /// Whether `dataset` is still registered (pinned or awaiting a
    /// successor). Test/diagnostic helper.
    pub fn dataset_registered(&self, dataset: u64) -> bool {
        self.versions.lock().contains_key(&dataset)
    }

    /// Reclaim every block and spill image of a dead version.
    fn retire(&self, dataset: u64) -> Vec<Victim> {
        let mut st = self.state.lock();
        let ids: Vec<BlockId> = st
            .entries
            .keys()
            .filter(|id| id.dataset == dataset)
            .copied()
            .collect();
        let mut victims = Vec::with_capacity(ids.len());
        let mut freed = 0u64;
        for id in ids {
            let e = st.entries.remove(&id).expect("listed above");
            st.resident -= e.bytes;
            freed += e.bytes;
            victims.push((e.worker, id));
        }
        let spill_ids: Vec<BlockId> = st
            .spilled
            .keys()
            .filter(|id| id.dataset == dataset)
            .copied()
            .collect();
        for id in spill_ids {
            let slot = st.spilled.remove(&id).expect("listed above");
            let _ = std::fs::remove_file(&slot.path);
        }
        st.history.retain(|id, _| id.dataset != dataset);
        // A version counts as retired even when budget pressure already
        // evicted every block it owned (freed == 0): its history and spill
        // slots are dismantled here either way, and callers only reach
        // `retire` once per dataset. Gating the counter on freed bytes made
        // retirement observability depend on eviction timing.
        self.metrics.retired_versions.inc();
        self.metrics.retired_bytes.add(freed);
        self.publish_resident(&st);
        victims
    }

    /// Idempotent safety-net sweep (run at query-release boundaries):
    /// retires any version that became reclaimable without an eager
    /// trigger firing.
    pub(crate) fn sweep_retired(&self) -> Vec<Victim> {
        let reclaimable: Vec<u64> = {
            let mut versions = self.versions.lock();
            let dead: Vec<u64> = versions
                .iter()
                .filter(|(_, v)| !v.pinned && v.superseded)
                .map(|(d, _)| *d)
                .collect();
            for d in &dead {
                versions.remove(d);
            }
            dead
        };
        let mut victims = Vec::new();
        for d in reclaimable {
            victims.extend(self.retire(d));
        }
        victims
    }

    // ------------------------------------------------------------------
    // Worker loss & broadcast reconciliation
    // ------------------------------------------------------------------

    /// A worker died: its cached blocks are gone, so drop their accounting
    /// (rebuilds on a new home are charged as fresh inserts), and
    /// reconcile the broadcast ledger — the Arc copies refcounted on that
    /// worker died with it.
    pub(crate) fn on_worker_killed(&self, worker: usize) {
        let mut st = self.state.lock();
        let ids: Vec<BlockId> = st
            .entries
            .iter()
            .filter(|(_, e)| e.worker == worker)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let e = st.entries.remove(&id).expect("listed above");
            st.resident -= e.bytes;
        }
        self.publish_resident(&st);
        drop(st);

        let mut ledger = self.broadcasts.lock();
        let mut reclaimed_copies = 0u64;
        let mut reclaimed_bytes = 0u64;
        for reg in ledger.regs.iter_mut() {
            if let Some(pos) = reg.workers.iter().position(|&w| w == worker) {
                reg.workers.swap_remove(pos);
                reclaimed_copies += 1;
                reclaimed_bytes += reg.unique_bytes;
            }
        }
        ledger.live_copies -= reclaimed_copies;
        ledger.live_bytes -= reclaimed_bytes;
        self.metrics.bc_reclaimed_copies.add(reclaimed_copies);
        self.metrics.bc_reclaimed_bytes.add(reclaimed_bytes);
        self.metrics.bc_live_copies.set(ledger.live_copies);
        self.metrics.bc_live_bytes.set(ledger.live_bytes);
    }

    /// Track a live broadcast: one shared copy refcounted on each of
    /// `workers`.
    pub(crate) fn register_broadcast(&self, unique_bytes: u64, workers: &[usize]) {
        let mut ledger = self.broadcasts.lock();
        ledger.live_copies += workers.len() as u64;
        ledger.live_bytes += unique_bytes * workers.len() as u64;
        ledger.regs.push_back(BroadcastReg {
            unique_bytes,
            workers: workers.to_vec(),
        });
        while ledger.regs.len() > BROADCAST_LEDGER_CAP {
            let old = ledger.regs.pop_front().expect("len checked");
            ledger.live_copies -= old.workers.len() as u64;
            ledger.live_bytes -= old.unique_bytes * old.workers.len() as u64;
        }
        self.metrics.bc_live_copies.set(ledger.live_copies);
        self.metrics.bc_live_bytes.set(ledger.live_bytes);
    }

    /// `(live_copies, live_bytes)` of the broadcast ledger.
    pub fn broadcast_live(&self) -> (u64, u64) {
        let ledger = self.broadcasts.lock();
        (ledger.live_copies, ledger.live_bytes)
    }

    // ------------------------------------------------------------------
    // Eviction internals
    // ------------------------------------------------------------------

    /// Evict entries coldest first (score, then recency) until
    /// `resident ≤ target`, spilling each victim that has a spill closure.
    /// With `score_floor`, stop before evicting any entry scoring above
    /// the floor (cost-based admission).
    fn evict_down_to(
        &self,
        st: &mut GovState,
        target: u64,
        score_floor: Option<f64>,
    ) -> Vec<Victim> {
        if st.resident <= target {
            return Vec::new();
        }
        let mut order: Vec<(BlockId, f64, u64)> = st
            .entries
            .iter()
            .map(|(id, e)| (*id, e.score(), e.last_use))
            .collect();
        order.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
        });
        let mut victims = Vec::new();
        for (id, score, _) in order {
            if st.resident <= target {
                break;
            }
            if let Some(floor) = score_floor {
                if score > floor {
                    break;
                }
            }
            let entry = st.entries.remove(&id).expect("listed above");
            st.resident -= entry.bytes;
            self.metrics.evictions.inc();
            // An occupied slot means a valid image from an earlier
            // eviction is still on disk (block content is immutable per
            // BlockId — a new version gets a new dataset id), so that
            // eviction needs no re-encode.
            if let Vacant(slot) = st.spilled.entry(id) {
                if let Some(raw) = entry.spill.as_ref().and_then(|spill| spill()) {
                    if let Some(image) = self.write_spill(id, &raw) {
                        self.metrics.spills.inc();
                        self.metrics.spilled_bytes.add(raw.len() as u64);
                        slot.insert(image);
                    }
                }
            }
            st.history.insert(id, History { uses: entry.uses });
            victims.push((entry.worker, id));
        }
        victims
    }

    /// Compress and persist a spill image; `None` on I/O failure (the
    /// eviction then degrades to drop + recompute).
    fn write_spill(&self, id: BlockId, raw: &[u8]) -> Option<SpillSlot> {
        let dir = {
            let mut guard = self.spill_dir.lock();
            if guard.is_none() {
                let dir = std::env::temp_dir().join(format!(
                    "sparklet-spill-{}-{}",
                    std::process::id(),
                    self.instance
                ));
                std::fs::create_dir_all(&dir).ok()?;
                *guard = Some(dir);
            }
            guard.clone().expect("set above")
        };
        let image = rowstore::spill::encode(raw);
        self.metrics.spill_disk_bytes.add(image.len() as u64);
        let path = dir.join(format!("d{}_p{}.spill", id.dataset, id.partition));
        std::fs::write(&path, &image).ok()?;
        Some(SpillSlot {
            path,
            raw_bytes: raw.len() as u64,
        })
    }

    fn publish_resident(&self, st: &GovState) {
        self.metrics.resident.set(st.resident);
        self.metrics.resident_peak.set_max(st.resident);
    }
}

impl Drop for MemoryGovernor {
    fn drop(&mut self) {
        if let Some(dir) = self.spill_dir.lock().take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor() -> (MemoryGovernor, Arc<Registry>) {
        let registry = Arc::new(Registry::new(2));
        (MemoryGovernor::new(&registry), registry)
    }

    fn id(dataset: u64, partition: usize) -> BlockId {
        BlockId { dataset, partition }
    }

    fn charge(bytes: u64, cost_ns: u64) -> BlockCharge {
        BlockCharge {
            bytes,
            cost_ns,
            spill: None,
        }
    }

    #[test]
    fn accounting_without_budget_never_evicts() {
        let (g, r) = governor();
        for p in 0..10 {
            let (ok, victims) = g.admit(0, id(1, p), charge(1000, 50));
            assert!(ok);
            assert!(victims.is_empty());
        }
        assert_eq!(g.resident_bytes(), 10_000);
        assert_eq!(r.gauge_value("memory.resident_bytes"), 10_000);
        assert_eq!(r.counter_value("memory.evictions"), 0);
    }

    #[test]
    fn budget_enforced_with_cold_first_eviction() {
        let (g, r) = governor();
        assert!(g.set_budget(3000).is_empty());
        // Three blocks fill the budget; touch two to heat them.
        for p in 0..3 {
            g.admit(0, id(1, p), charge(1000, 50));
        }
        g.touch(id(1, 1));
        g.touch(id(1, 2));
        g.touch(id(1, 2));
        // A hot newcomer (higher cost) displaces the untouched block 0.
        let (ok, victims) = g.admit(0, id(1, 3), charge(1000, 500));
        assert!(ok);
        assert_eq!(victims, vec![(0, id(1, 0))]);
        assert!(g.resident_bytes() <= 3000);
        assert!(r.gauge_value("memory.resident_peak_bytes") <= 3000);
        assert_eq!(r.counter_value("memory.evictions"), 1);
        // The re-admitted block 0 carries no uses; a *colder* candidate
        // than everything resident is rejected.
        let (ok, _) = g.admit(0, id(1, 4), charge(1000, 1));
        assert!(!ok, "cold candidate must not displace hotter blocks");
        assert!(r.counter_value("memory.admit_rejects") >= 1);
    }

    #[test]
    fn rejects_blocks_larger_than_the_whole_budget() {
        let (g, _r) = governor();
        g.set_budget(100);
        let (ok, _) = g.admit(0, id(1, 0), charge(1000, 1));
        assert!(!ok);
        assert_eq!(g.resident_bytes(), 0);
    }

    #[test]
    fn spill_round_trip_and_loss_fallback() {
        let (g, r) = governor();
        g.set_budget(2000);
        let payload: Vec<u8> = (0..600u32).flat_map(|i| i.to_le_bytes()).collect();
        let p2 = payload.clone();
        let spill: SpillFn = Box::new(move || Some(p2.clone()));
        let (ok, _) = g.admit(
            0,
            id(7, 0),
            BlockCharge {
                bytes: 1500,
                cost_ns: 10,
                spill: Some(spill),
            },
        );
        assert!(ok);
        // Force eviction with a hot newcomer.
        g.touch(id(7, 0));
        let (ok, victims) = g.admit(1, id(7, 1), charge(1500, 1_000_000));
        assert!(ok);
        assert_eq!(victims.len(), 1);
        assert_eq!(g.spilled_block_count(), 1);
        assert!(r.counter_value("memory.spilled_bytes") > 0);
        // Unspill returns the exact payload. The image *persists* on
        // disk: if the restored block's re-admission is rejected, the
        // next miss restores again instead of paying a full recompute.
        assert_eq!(g.prepare_rebuild(id(7, 0)).as_deref(), Some(&payload[..]));
        assert_eq!(r.counter_value("memory.unspills"), 1);
        assert_eq!(g.spilled_block_count(), 1);
        assert_eq!(g.prepare_rebuild(id(7, 0)).as_deref(), Some(&payload[..]));
        assert_eq!(r.counter_value("memory.unspills"), 2);
        assert_eq!(r.counter_value("memory.recomputes"), 0);
        // Re-build after the spill volume is lost → recompute fallback.
        let (_, _) = g.admit(
            0,
            id(7, 0),
            BlockCharge {
                bytes: 1500,
                cost_ns: 2_000_000,
                spill: Some(Box::new(|| Some(vec![1, 2, 3]))),
            },
        );
        let (_, _) = g.admit(1, id(7, 2), charge(1500, u64::MAX / 2));
        assert_eq!(g.discard_spill_images(), 1);
        assert!(g.prepare_rebuild(id(7, 0)).is_none());
        assert_eq!(r.counter_value("memory.recomputes"), 1);
    }

    #[test]
    fn version_retirement_requires_release_and_successor() {
        let (g, r) = governor();
        g.register_dataset(10);
        g.admit(0, id(10, 0), charge(500, 1));
        g.admit(1, id(10, 1), charge(500, 1));
        // Successor committed but still pinned: no retirement.
        assert!(g.mark_superseded(10).is_empty());
        assert_eq!(g.resident_bytes(), 1000);
        // Last handle drops: now reclaimable.
        let victims = g.release_dataset(10);
        assert_eq!(victims.len(), 2);
        assert_eq!(g.resident_bytes(), 0);
        assert_eq!(r.counter_value("memory.retired_versions"), 1);
        assert_eq!(r.counter_value("memory.retired_bytes"), 1000);
        assert!(!g.dataset_registered(10));
        // Release without a successor parks the version un-retired.
        g.register_dataset(11);
        g.admit(0, id(11, 0), charge(500, 1));
        assert!(g.release_dataset(11).is_empty());
        assert_eq!(g.resident_bytes(), 500);
        // Sweep picks it up once superseded.
        assert!(g.mark_superseded(11).len() == 1 || g.sweep_retired().len() == 1);
        assert_eq!(g.resident_bytes(), 0);
    }

    #[test]
    fn worker_loss_reconciles_blocks_and_broadcasts() {
        let (g, r) = governor();
        g.admit(0, id(1, 0), charge(700, 1));
        g.admit(1, id(1, 1), charge(300, 1));
        g.register_broadcast(100, &[0, 1, 2]);
        g.register_broadcast(50, &[1]);
        assert_eq!(g.broadcast_live(), (4, 350));
        g.on_worker_killed(1);
        assert_eq!(g.resident_bytes(), 700, "worker 1's block dropped");
        assert_eq!(g.broadcast_live(), (2, 200));
        assert_eq!(r.counter_value("broadcast.reclaimed_copies"), 2);
        assert_eq!(r.counter_value("broadcast.reclaimed_bytes"), 150);
        assert_eq!(r.gauge_value("broadcast.live_copies"), 2);
    }
}
