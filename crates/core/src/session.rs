//! Queue-first submission and the generation-stamped cross-batch result
//! cache: the device's async session layer.
//!
//! The batch API (PR 2) amortizes work *within* one submission; a
//! production front end has several batches in flight and repeats
//! predicates across them. This module adds both halves:
//!
//! * **Async ticketed submission** —
//!   [`FlashCosmosDevice::submit_async`] compiles a batch into per-die
//!   program queues *without executing anything* and returns a
//!   [`Ticket`]. [`FlashCosmosDevice::drain`] retires everything queued
//!   in one pass; [`Ticket::wait`] drains (if needed) and hands back that
//!   batch's [`BatchResults`]. Dies execute their queues independently,
//!   so two in-flight batches interleave on idle dies: the combined
//!   modeled critical path ([`DrainStats::combined_critical_path_us`],
//!   busiest die of the summed [`DieQueues`] occupancy) sits at or below
//!   the sum of the batches' standalone critical paths
//!   ([`DrainStats::serial_critical_path_us`]) — strictly below whenever
//!   the batches' busy dies differ.
//! * **Cross-batch result cache** — every plan unit is keyed by
//!   `(epoch, canonical NNF, [(operand, generation)])` and its result
//!   vector memoized at execution. A later submit (sync or async) whose
//!   unit key matches replays the memoized pages: zero senses, zero chip
//!   time, bit-identical output.
//!
//! ## One serving path
//!
//! Every device read ends in the same two steps. The **serve** step
//! executes one compiled batch and books its per-die occupancy into the
//! device-lifetime die load. The **background tail** then fills queued
//! maintenance and scrub jobs into that pass's idle-die slack and runs
//! the debug-build device audit. A drain runs serve once per claimed
//! batch (after its staleness recompile and cache refresh) and the tail
//! once per drain. `submit`, `submit_into`, `fc_read`, `fc_read_into`
//! and `parabit_read` compile under the read guard, serve, drop the
//! guard and run the tail — the same sequence, without the queue, so a
//! sync caller never runs other clients' batches or meets `Overloaded`.
//! The tail takes the write lock only when jobs or scrubs are due, or, in
//! debug builds, for the audit after a pass that sensed (a pure cache
//! replay changes nothing the audit checks).
//!
//! ## Why stale results are structurally impossible
//!
//! The cache key never compares data — it compares *generations*. Every
//! mutation that could change what a compiled program senses bumps a
//! stamp the key includes:
//!
//! | hazard | stamp bumped |
//! |---|---|
//! | [`FlashCosmosDevice::fc_overwrite`] (name overwrite) | that operand's generation |
//! | [`FlashCosmosDevice::migrate_operand`] (placement move) | that operand's generation |
//! | raw [`FlashCosmosDevice::ssd_mut`] access (reliability-mode changes, wear/fault injection, erases) | the device epoch |
//!
//! A generation is drawn from a monotonic counter and never reused, so a
//! key identifies one immutable snapshot of its operands; an old entry
//! simply can never match again (PR 3's poisoned-placement-cache bug was
//! this same hazard class — here the invalidation is designed in, not
//! patched on). Queued async batches carry the same snapshot: at drain
//! time a batch whose snapshot no longer matches is **recompiled**
//! against current placement, so async queries always observe drain-time
//! data — identical to what a synchronous submit at drain time would
//! return.
//!
//! ```
//! use flash_cosmos::device::{FlashCosmosDevice, StoreHints};
//! use flash_cosmos::batch::QueryBatch;
//! use fc_ssd::SsdConfig;
//! use fc_bits::BitVec;
//!
//! let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
//! let a = dev.fc_write("a", &BitVec::ones(64), StoreHints::and_group("g")).unwrap();
//! let b = dev.fc_write("b", &BitVec::zeros(64), StoreHints::and_group("g")).unwrap();
//! let mut batch = QueryBatch::new();
//! batch.push(a & b);
//!
//! // Queue two batches, then retire them in one overlapped pass.
//! let t1 = dev.submit_async(&batch).unwrap();
//! let t2 = dev.submit_async(&batch).unwrap();
//! let drained = dev.drain().unwrap();
//! assert_eq!(drained.batches, 2);
//! let r1 = t1.wait(&dev).unwrap();
//! let r2 = t2.wait(&dev).unwrap();
//! assert_eq!(r1.results, r2.results);
//! // The second batch re-used the first one's cached unit: no senses.
//! assert_eq!(r2.stats.senses, 0);
//! assert_eq!(r2.stats.cached_units, 1);
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use fc_bits::BitVec;
use fc_ssd::pipeline::{overlap_report, DieQueues};

use crate::batch::{
    merge_share, BatchResults, BatchStats, Bottleneck, CompiledBatch, QueryBatch, QueryFailure,
};
use crate::device::{DeviceCore, FcError, FlashCosmosDevice};
use crate::expr::{Nnf, OperandId};
use crate::maintenance::{
    AffinityTracker, CacheAdmission, CacheEntryInfo, CostAwareAdmission, MaintenanceStats,
    RegroupJob, RetiredJob,
};
use crate::recovery::DeviceHealth;

/// Result-cache key: device epoch, canonical normal form, and the
/// placement generation of every referenced operand (ascending by id).
/// Key equality implies the memoized result is bit-identical to what a
/// fresh execution would produce.
pub(crate) type CacheKey = (u64, Nnf, Vec<(OperandId, u64)>);

/// One memoized unit result.
pub(crate) struct CacheEntry {
    /// The unit's full output vector (`pages × page_bits` bits).
    pub(crate) result: BitVec,
    /// Senses a cold execution of the unit runs (serial-cost accounting
    /// for hits).
    pub(crate) senses: u64,
    /// Lookups this entry has served (feeds the cost-aware admission
    /// score and the affinity tracker).
    hits: u64,
    /// Insertion sequence (monotonic; ties in admission scores degrade to
    /// FIFO on it).
    seq: u64,
}

impl CacheEntry {
    fn info(&self) -> CacheEntryInfo {
        CacheEntryInfo {
            hits: self.hits,
            senses: self.senses,
            seq: self.seq,
            bits: self.result.len(),
        }
    }
}

/// Observable cache counters (see [`Session::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries (0 = caching disabled).
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and usually led to an insert).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Inserts the admission policy refused (the fresh entry scored below
    /// every resident entry — only a non-FIFO policy ever refuses).
    pub rejections: u64,
}

/// The generation-stamped result cache. Bounded; when full, the
/// installed [`CacheAdmission`] policy picks the eviction victim (lowest
/// score, oldest on ties) and may refuse the insert outright (cost-aware
/// admission). Invalidation is purely structural — stale keys can never
/// match — so eviction is only a memory bound, never a correctness
/// mechanism.
pub(crate) struct ResultCache {
    entries: HashMap<CacheKey, CacheEntry>,
    capacity: usize,
    policy: Box<dyn CacheAdmission>,
    next_seq: u64,
    /// New-key insert attempts since creation; every
    /// [`ResultCache::decay_window`] of them halves all hit counts so
    /// frequency scores age (an LFU score without decay would let a
    /// once-hot entry squat forever after the working set shifts).
    attempts: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejections: u64,
}

/// Default bound on memoized unit results.
const DEFAULT_CACHE_CAPACITY: usize = 256;

impl Default for ResultCache {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
            policy: Box::new(CostAwareAdmission),
            next_seq: 0,
            attempts: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            rejections: 0,
        }
    }
}

impl ResultCache {
    /// Whether inserts can possibly be served later — callers skip the
    /// result/key clones feeding [`ResultCache::insert`] when disabled.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn lookup(&mut self, key: &CacheKey) -> Option<&CacheEntry> {
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.hits += 1;
                self.hits += 1;
                Some(entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// New-key insert attempts between hit-count halvings: two cache
    /// turnovers' worth, so scores reflect roughly the last few
    /// working-set generations.
    fn decay_window(&self) -> u64 {
        (self.capacity as u64 * 2).max(8)
    }

    /// The resident entry with the lowest `(score, seq)` — the next
    /// eviction victim under the installed policy.
    fn victim(&self) -> Option<(&CacheKey, CacheEntryInfo)> {
        self.entries.iter().map(|(k, e)| (k, e.info())).min_by(|(_, a), (_, b)| {
            self.policy.score(a).total_cmp(&self.policy.score(b)).then_with(|| a.seq.cmp(&b.seq))
        })
    }

    /// Evicts down to `bound` entries via the policy's victim choice.
    fn evict_to(&mut self, bound: usize) {
        while self.entries.len() > bound {
            let key = self.victim().map(|(k, _)| k.clone()).expect("non-empty while over bound");
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }

    pub(crate) fn insert(&mut self, key: CacheKey, result: BitVec, senses: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(existing) = self.entries.get_mut(&key) {
            // Same key re-inserted (e.g. capacity was toggled): refresh
            // the payload, keep the entry's history.
            existing.result = result;
            existing.senses = senses;
            return;
        }
        // Frequency aging: halve every resident's hit count once per
        // decay window of new-key insert attempts, so hit-frequency
        // scores measure the *recent* past — a once-hot entry decays to
        // evictable after the working set shifts, while genuinely hot
        // entries re-earn their hits between halvings.
        self.attempts += 1;
        if self.attempts.is_multiple_of(self.decay_window()) {
            for entry in self.entries.values_mut() {
                entry.hits /= 2;
            }
        }
        let fresh = CacheEntryInfo { hits: 0, senses, seq: self.next_seq, bits: result.len() };
        if self.entries.len() >= self.capacity {
            let Some((victim_key, victim)) = self.victim().map(|(k, i)| (k.clone(), i)) else {
                return; // capacity 0 handled above; len >= capacity >= 1
            };
            if !self.policy.admit(&fresh, &victim) {
                self.rejections += 1;
                return;
            }
            self.entries.remove(&victim_key);
            self.evictions += 1;
        }
        self.entries.insert(key, CacheEntry { result, senses, hits: 0, seq: self.next_seq });
        self.next_seq += 1;
    }

    /// Like [`ResultCache::lookup`] but for re-checking a unit that
    /// already missed (and was counted) at compile time: a hit is
    /// counted, a still-miss is not double-counted.
    pub(crate) fn peek_hit(&mut self, key: &CacheKey) -> Option<&CacheEntry> {
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.hits += 1;
                self.hits += 1;
                Some(entry)
            }
            None => None,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Resident keys, in no particular order (the device audit
    /// cross-checks every cached generation against the operand table —
    /// see `crate::audit`).
    pub(crate) fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.entries.keys()
    }

    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_to(capacity);
    }

    pub(crate) fn set_policy(&mut self, policy: Box<dyn CacheAdmission>) {
        self.policy = policy;
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            rejections: self.rejections,
        }
    }
}

/// Recovers a poisoned guard: the protected state stays consistent at
/// mutation granularity (a panicked holder can leave partial *session*
/// progress, but every invariant the audit checks lives in the device
/// core under its own lock), so propagating the poison would only turn
/// one panic into many.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A batch queued by [`FlashCosmosDevice::submit_async`], waiting for a
/// drain.
pub(crate) struct PendingBatch {
    seq: u64,
    /// The source queries, kept so a stale compilation can be redone
    /// against drain-time placement.
    source: QueryBatch,
    compiled: CompiledBatch,
}

/// Handle to one async-submitted batch. Obtained from
/// [`FlashCosmosDevice::submit_async`]; redeem it with [`Ticket::wait`]
/// (or [`FlashCosmosDevice::wait`]) exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    seq: u64,
}

impl Ticket {
    /// The ticket's sequence number (diagnostics / logging).
    pub fn id(&self) -> u64 {
        self.seq
    }

    /// Retires this batch and returns its results, draining the device's
    /// queues first if it is still in flight. If another thread is
    /// already draining the batch, this parks on the session's retire
    /// condvar (without holding the device lock) until it lands.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownTicket`] when waited on twice, plus anything
    /// [`FlashCosmosDevice::drain`] can return.
    pub fn wait(self, dev: &FlashCosmosDevice) -> Result<BatchResults, FcError> {
        dev.wait(self)
    }
}

/// Statistics of one [`FlashCosmosDevice::drain`] pass over every queued
/// batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainStats {
    /// Batches retired by this drain.
    pub batches: usize,
    /// Sensing operations executed across all retired batches.
    pub senses: u64,
    /// Modeled critical path of the combined per-die queues, µs: dies run
    /// their queues concurrently, so this is the busiest die's total
    /// across *all* drained batches.
    pub combined_critical_path_us: f64,
    /// Sum of the batches' standalone critical paths, µs — what
    /// back-to-back synchronous submits would report.
    pub serial_critical_path_us: f64,
    /// Distinct dies that executed sensing work during the drain.
    pub dies_used: usize,
    /// The busiest die's combined sense/program occupancy, µs — the
    /// die-parallel component of the combined critical path.
    pub busiest_die_us: f64,
    /// The busiest channel bus's combined output-transfer occupancy, µs.
    /// When this exceeds `busiest_die_us` the drain was transfer-bound.
    pub busiest_channel_us: f64,
    /// Total controller merge wall time across the drained batches, µs —
    /// the serial stage. Its share of the critical path is the
    /// channel-scaling saturation signal: scaling is near-linear while
    /// flash (die or channel) dominates and flattens once the merge does.
    pub merge_us: f64,
    /// Background-maintenance work this drain filled into the idle-die
    /// slack (see [`crate::maintenance`]): migrations executed within the
    /// critical-path budget, deferred jobs, retirements — plus retention
    /// scrubbing (see [`crate::recovery`]), which shares the same budget.
    pub maintenance: MaintenanceStats,
    /// Device-wide reliability counters snapshotted at the end of this
    /// drain (cumulative since device creation, not per-drain deltas).
    /// An empty drain returns [`DrainStats::default`] without snapshotting.
    pub health: DeviceHealth,
}

impl DrainStats {
    /// Critical-path time the die-overlap saved versus serial submission,
    /// µs (≥ 0).
    pub fn overlap_saved_us(&self) -> f64 {
        (self.serial_critical_path_us - self.combined_critical_path_us).max(0.0)
    }

    /// Which resource bounded this drain — the busiest die, the busiest
    /// channel bus, or the controller merge (see
    /// [`crate::batch::Bottleneck`]).
    pub fn bottleneck(&self) -> Bottleneck {
        Bottleneck::of(self.busiest_die_us, self.busiest_channel_us, self.merge_us)
    }

    /// The controller merge's share of the combined critical path plus
    /// merge time, in `[0, 1]` — 0 when the drain was pure flash work.
    pub fn merge_share(&self) -> f64 {
        merge_share(self.combined_critical_path_us, self.merge_us)
    }
}

/// One parked ticket's wake channel: a condvar shared by every thread
/// waiting on the same seq, refcounted so the slot is reclaimed when the
/// last waiter leaves.
struct WaiterSlot {
    cv: Arc<Condvar>,
    waiters: usize,
}

/// One shard of the retired-results table (`seq % RETIRED_SHARDS`):
/// parked results plus the per-seq waiter registry, under one mutex.
#[derive(Default)]
struct RetiredState {
    results: HashMap<u64, BatchResults>,
    /// Seq → wake channel for threads parked in
    /// [`Session::wait_retired`]. Retire and abandon notify exactly the
    /// affected seq's condvar — **under this mutex**, so a notification
    /// can never slip between a waiter's last state check and its park.
    waiters: HashMap<u64, WaiterSlot>,
}

/// One shard of the retired-results table: a slice of the ticket space
/// with its own mutex, so waiters of different tickets park and wake
/// independently — and, within a shard, each ticket parks on its own
/// condvar (no thundering herd, no periodic recheck).
#[derive(Default)]
struct RetiredShard {
    state: Mutex<RetiredState>,
}

/// Mutex shards of the retired-results table. Eight is plenty: the
/// shard only arbitrates the brief insert/remove/park window, not
/// execution.
const RETIRED_SHARDS: usize = 8;

/// Default bound on batches queued by `submit_async` and not yet
/// claimed by a drain. See [`FlashCosmosDevice::submit_async`]'s
/// backpressure contract.
const DEFAULT_ADMISSION_CAPACITY: usize = 1024;

/// The device's session state: in-flight async batches, retired results
/// awaiting their [`Ticket::wait`], the cross-batch result cache, and
/// the maintenance layer's observations and work queue. Accessible
/// through [`FlashCosmosDevice::session`].
///
/// Every field is its own lock domain, so N threads serving traffic
/// contend only where they genuinely share state:
///
/// | shard | guards | locked by |
/// |---|---|---|
/// | `pending` | admission queue | `submit_async`, drain claim, `wait` |
/// | `executing` | claimed-but-not-retired seqs | drain claim/retire, `wait` |
/// | `shards[k]` | retired results + per-seq waiters, `seq % 8 == k` | retire, `wait` |
/// | `cache` | memoized unit results | batch compile/execute |
/// | `affinity` | co-query observations | batch compile, planner |
/// | `jobs` / `retired_jobs` | maintenance queue / log | background tail, planner |
///
/// Lock order within the session: `pending` → `executing`, and
/// `shards[k].state` → `executing`. Nothing holds two of {cache,
/// affinity, jobs} at once.
pub struct Session {
    cache: Mutex<ResultCache>,
    /// Which operand sets get fused together, and what they cost — the
    /// regrouping planner's input (fed by every batch compile).
    affinity: Mutex<AffinityTracker>,
    pending: Mutex<Vec<PendingBatch>>,
    /// Bound on `pending` — admission above it fails with
    /// [`FcError::Overloaded`].
    admission_capacity: AtomicUsize,
    /// Seqs a drain has claimed but not yet retired (or abandoned):
    /// `wait` parks on these instead of re-draining.
    executing: Mutex<HashSet<u64>>,
    shards: Vec<RetiredShard>,
    next_seq: AtomicU64,
    /// Planned-but-not-executed migration jobs, FIFO.
    jobs: Mutex<VecDeque<RegroupJob>>,
    /// Bounded log of jobs dropped on generation mismatch.
    retired_jobs: Mutex<VecDeque<RetiredJob>>,
    /// Total jobs ever retired (the log itself is bounded).
    jobs_retired_total: AtomicU64,
}

impl Default for Session {
    fn default() -> Self {
        Self {
            cache: Mutex::new(ResultCache::default()),
            affinity: Mutex::new(AffinityTracker::default()),
            pending: Mutex::new(Vec::new()),
            admission_capacity: AtomicUsize::new(DEFAULT_ADMISSION_CAPACITY),
            executing: Mutex::new(HashSet::new()),
            shards: (0..RETIRED_SHARDS).map(|_| RetiredShard::default()).collect(),
            next_seq: AtomicU64::new(0),
            jobs: Mutex::new(VecDeque::new()),
            retired_jobs: Mutex::new(VecDeque::new()),
            jobs_retired_total: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("in_flight", &self.in_flight())
            .field("retired", &self.retired())
            .field("cache", &self.cache_stats())
            .field("tracked_sets", &lock(&self.affinity).len())
            .field("pending_jobs", &self.pending_maintenance())
            .finish()
    }
}

impl Session {
    /// Batches queued by `submit_async` and not yet claimed by a drain.
    pub fn in_flight(&self) -> usize {
        lock(&self.pending).len()
    }

    /// Drained batches whose ticket has not been waited on yet.
    pub fn retired(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.state).results.len()).sum()
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock(&self.cache).stats()
    }

    /// The affinity tracker's view of co-fused operand sets. Returns a
    /// lock guard: drop it promptly — batch compilation records into the
    /// tracker on the serving path.
    pub fn affinity(&self) -> MutexGuard<'_, AffinityTracker> {
        lock(&self.affinity)
    }

    /// Planned migration jobs not yet executed.
    pub fn pending_maintenance(&self) -> usize {
        lock(&self.jobs).len()
    }

    /// The bounded log of retired (generation-mismatched) migration jobs,
    /// oldest first (a snapshot — the log can grow concurrently).
    /// Retirements beyond
    /// [`MaintenanceConfig::retired_log_capacity`] drop the oldest log
    /// entry; [`Session::jobs_retired_total`] still counts them.
    ///
    /// [`MaintenanceConfig::retired_log_capacity`]: crate::maintenance::MaintenanceConfig::retired_log_capacity
    pub fn retired_jobs(&self) -> impl Iterator<Item = RetiredJob> {
        lock(&self.retired_jobs).iter().cloned().collect::<Vec<_>>().into_iter()
    }

    /// Total migration jobs ever retired on generation mismatch.
    pub fn jobs_retired_total(&self) -> u64 {
        self.jobs_retired_total.load(Ordering::Relaxed)
    }

    /// The result cache, locked.
    pub(crate) fn cache(&self) -> MutexGuard<'_, ResultCache> {
        lock(&self.cache)
    }

    /// The maintenance job queue, locked.
    pub(crate) fn jobs(&self) -> MutexGuard<'_, VecDeque<RegroupJob>> {
        lock(&self.jobs)
    }

    /// The retired-jobs log, locked.
    pub(crate) fn retired_log(&self) -> MutexGuard<'_, VecDeque<RetiredJob>> {
        lock(&self.retired_jobs)
    }

    /// Counts one generation-mismatched job retirement.
    pub(crate) fn bump_jobs_retired(&self) {
        self.jobs_retired_total.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn admission_capacity(&self) -> usize {
        self.admission_capacity.load(Ordering::Relaxed)
    }

    pub(crate) fn set_admission_capacity(&self, capacity: usize) {
        self.admission_capacity.store(capacity, Ordering::Relaxed);
    }

    fn shard(&self, seq: u64) -> &RetiredShard {
        &self.shards[(seq % RETIRED_SHARDS as u64) as usize]
    }

    /// Admits a compiled batch into the pending queue, or refuses with
    /// [`FcError::Overloaded`] when the queue is at capacity.
    pub(crate) fn enqueue(
        &self,
        source: QueryBatch,
        compiled: CompiledBatch,
    ) -> Result<Ticket, FcError> {
        let mut pending = lock(&self.pending);
        if pending.len() >= self.admission_capacity() {
            return Err(FcError::Overloaded { queued: pending.len() });
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        pending.push(PendingBatch { seq, source, compiled });
        Ok(Ticket { seq })
    }

    /// Atomically moves the oldest pending batch into the executing set
    /// and hands it to the calling drain. Waiters observing a seq in
    /// `executing` park instead of re-draining.
    ///
    /// One batch at a time — not the whole queue — so drains racing
    /// from several threads *partition* the backlog and execute it in
    /// parallel instead of the first drain claiming everything while
    /// the rest park. Each drain loops until this returns `None`, which
    /// preserves the single-threaded contract (a drain retires every
    /// queued batch, including ones submitted while it runs).
    pub(crate) fn claim_next(&self) -> Option<PendingBatch> {
        let mut pending = lock(&self.pending);
        if pending.is_empty() {
            return None;
        }
        let pb = pending.remove(0);
        lock(&self.executing).insert(pb.seq); // order: pending → executing
        Some(pb)
    }

    pub(crate) fn is_pending(&self, seq: u64) -> bool {
        lock(&self.pending).iter().any(|p| p.seq == seq)
    }

    pub(crate) fn is_executing(&self, seq: u64) -> bool {
        lock(&self.executing).contains(&seq)
    }

    /// Parks a claimed batch's results into its retired shard and wakes
    /// exactly the waiters parked on that seq, then releases the
    /// executing claim.
    pub(crate) fn retire(&self, seq: u64, results: BatchResults) {
        let shard = self.shard(seq);
        {
            let mut state = lock(&shard.state);
            state.results.insert(seq, results);
            if let Some(slot) = state.waiters.get(&seq) {
                slot.cv.notify_all();
            }
        }
        lock(&self.executing).remove(&seq); // order: shard → executing
    }

    /// Releases executing claims whose batches will never retire (a
    /// drain hit an error mid-pass): their waiters wake and report
    /// [`FcError::UnknownTicket`], mirroring the single-threaded
    /// dropped-batch semantics. The per-seq notify happens under the
    /// shard's state lock — a waiter holds that lock from its executing
    /// check until it parks, so the wakeup cannot race past it.
    pub(crate) fn abandon(&self, seqs: &[u64]) {
        {
            let mut executing = lock(&self.executing);
            for seq in seqs {
                executing.remove(seq);
            }
        }
        for &seq in seqs {
            let state = lock(&self.shard(seq).state);
            if let Some(slot) = state.waiters.get(&seq) {
                slot.cv.notify_all();
            }
        }
    }

    /// Removes and returns a retired batch's results, if present.
    pub(crate) fn take_retired(&self, seq: u64) -> Option<BatchResults> {
        lock(&self.shard(seq).state).results.remove(&seq)
    }

    /// Blocks until a currently-executing batch retires (returning its
    /// results) or its claim is abandoned (returning `None`). The waiter
    /// registers a per-seq condvar in the shard's waiter map and parks on
    /// it — retire/abandon notify that seq alone, so unrelated tickets in
    /// the same shard neither wake this thread nor get woken by it, and
    /// no periodic recheck is needed. Missed wakeups are impossible: the
    /// executing check and the park happen under the shard state lock,
    /// the same lock retire inserts and notifies under — either the
    /// insert (or the abandon's executing removal) happened before our
    /// check, or its notify comes after we atomically release the lock
    /// into the condvar wait.
    pub(crate) fn wait_retired(&self, seq: u64) -> Option<BatchResults> {
        let shard = self.shard(seq);
        let mut state = lock(&shard.state);
        let mut registered = false;
        let outcome = loop {
            if let Some(results) = state.results.remove(&seq) {
                break Some(results);
            }
            if !lock(&self.executing).contains(&seq) {
                break None;
            }
            let slot = state
                .waiters
                .entry(seq)
                .or_insert_with(|| WaiterSlot { cv: Arc::new(Condvar::new()), waiters: 0 });
            if !registered {
                slot.waiters += 1;
                registered = true;
            }
            let cv = Arc::clone(&slot.cv);
            state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        };
        if registered {
            let slot = state.waiters.get_mut(&seq).expect("registered waiters hold a slot");
            slot.waiters -= 1;
            if slot.waiters == 0 {
                state.waiters.remove(&seq);
            }
        }
        outcome
    }

    /// Drops every retired-but-unwaited result across all shards.
    pub(crate) fn discard_all_retired(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let mut state = lock(&s.state);
                let n = state.results.len();
                state.results.clear();
                n
            })
            .sum()
    }
}

impl DeviceCore {
    /// The per-batch serve step every read path shares: executes a
    /// compiled batch, then books its per-die occupancy into the
    /// device-lifetime die load ([`FlashCosmosDevice::die_occupancy`]).
    /// Returns the batch's stats, its per-query failures and its own
    /// occupancy — the slack the background tail fills.
    pub(crate) fn serve(
        &self,
        compiled: &CompiledBatch,
        outs: &mut [BitVec],
    ) -> Result<(BatchStats, Vec<QueryFailure>, DieQueues), FcError> {
        let served = self.execute_compiled(compiled, outs)?;
        self.die_load.merge(&served.2);
        Ok(served)
    }

    /// Whether retention scrubbing needs the background tail: pages are
    /// still queued, or a scheduling pass would queue some now. Read-only
    /// — a serving pass asks this under the read guard to learn whether
    /// the write-locked tail is worth taking (under the functional error
    /// model nothing ever qualifies, and a device without mapped ECC
    /// pages skips the scan outright).
    pub(crate) fn scrub_due(&self) -> bool {
        self.pending_scrub() > 0 || self.scrub_would_schedule()
    }
}

impl FlashCosmosDevice {
    /// Queues a batch for execution without blocking: the batch is
    /// compiled (joint dedup/sharing, cache consultation, per-die program
    /// queues) but **no chip executes anything** until
    /// [`FlashCosmosDevice::drain`] or [`Ticket::wait`]. Batches queued
    /// together retire in one pass, interleaving on idle dies — see
    /// [`crate::session`] for the overlap model and the staleness rules.
    /// Runs under the shared device lock: N threads submit concurrently.
    ///
    /// ## Backpressure contract
    ///
    /// The admission queue is **bounded** (default 1024 batches; tune
    /// with [`Self::set_admission_capacity`]). When submitters outrun
    /// the drain side, admission fails fast with
    /// [`FcError::Overloaded`] instead of queueing without limit — the
    /// caller backs off, drains, or retries; memory never grows
    /// unboundedly with offered load. `Overloaded` is a load signal,
    /// not a failure: nothing about the device or the batch is wrong.
    ///
    /// # Errors
    ///
    /// [`FcError::Overloaded`] when the admission queue is full, plus
    /// compile-time failures (unknown operands, size mismatches,
    /// planner rejections) — the same set [`FlashCosmosDevice::submit`]
    /// reports before executing.
    pub fn submit_async(&self, batch: &QueryBatch) -> Result<Ticket, FcError> {
        let compiled = self.core().compile_batch(batch)?;
        self.session.enqueue(batch.clone(), compiled)
    }

    /// Bounds the async admission queue ([`Self::submit_async`]'s
    /// backpressure threshold). Already-queued batches are never
    /// dropped; a bound below the current depth just refuses new
    /// admissions until the queue drains below it.
    pub fn set_admission_capacity(&self, capacity: usize) {
        self.session.set_admission_capacity(capacity);
    }

    /// Retires every queued batch in one pass and reports the die-overlap
    /// win. Results park in the session until their ticket is waited on —
    /// clients that drain without waiting should periodically call
    /// [`FlashCosmosDevice::discard_retired`], or the parked results
    /// accumulate.
    ///
    /// A queued batch whose operand generations (or the device epoch)
    /// changed since submission is recompiled against current placement
    /// first, so drained queries always observe drain-time data — a
    /// queued program can never sense through a stale wordline map.
    ///
    /// Concurrency: the claim-and-serve phase runs under the shared
    /// (read) device lock, so drains from several threads proceed in
    /// parallel — each claims whatever is pending at that instant, and
    /// per-die chip mutexes arbitrate the sensing. Only the background
    /// tail (maintenance jobs, scrubbing, the debug-build device audit)
    /// takes the write lock, and only when there is such work — the same
    /// tail every sync read ends in.
    ///
    /// # Errors
    ///
    /// Compile or chip failures of any queued batch; the failing batch
    /// is dropped (its ticket reports [`FcError::UnknownTicket`]) while
    /// batches still queued behind it stay pending for the next drain.
    pub fn drain(&self) -> Result<DrainStats, FcError> {
        let mut stats = DrainStats::default();
        let mut combined;
        let scrub_due;
        {
            let core = self.core();
            scrub_due = core.scrub_due();
            if self.session.in_flight() == 0 && self.session.jobs().is_empty() && !scrub_due {
                return Ok(stats);
            }
            let mut per_batch: Vec<DieQueues> = Vec::new();
            combined = DieQueues::for_config(core.ssd.config());
            // Claim-serve-retire one batch at a time: concurrent drains
            // each grab the next queued batch, so a backlog is served by
            // every draining thread in parallel (per-die chip mutexes
            // arbitrate the sensing) rather than by whichever drain got
            // there first.
            while let Some(mut pb) = self.session.claim_next() {
                let step = (|| {
                    let stale = pb.compiled.epoch != core.epoch
                        || pb
                            .compiled
                            .snapshot
                            .iter()
                            .any(|&(id, gen)| core.operand_generation(id) != gen);
                    if stale {
                        // Recompile against drain-time placement —
                        // without re-feeding the affinity tracker (one
                        // submission is one observation, however often
                        // it recompiles).
                        pb.compiled = core.recompile_batch(&pb.source)?;
                    } else {
                        // Earlier batches in this drain may have
                        // populated the cache since this batch compiled
                        // — replay their results instead of re-sensing.
                        core.refresh_cache_hits(&mut pb.compiled);
                    }
                    let mut outs: Vec<BitVec> =
                        (0..pb.compiled.queries()).map(|_| BitVec::zeros(0)).collect();
                    let (batch_stats, failures, own) = core.serve(&pb.compiled, &mut outs)?;
                    Ok((outs, batch_stats, failures, own))
                })();
                match step {
                    Ok((outs, batch_stats, failures, own)) => {
                        stats.batches += 1;
                        stats.senses += batch_stats.senses;
                        stats.merge_us += batch_stats.merge_us;
                        combined.merge(&own);
                        per_batch.push(own);
                        // Per-query failure isolation carries through
                        // the async path: the ticket's results report
                        // which queries were unanswerable while the
                        // rest of the batch retired normally.
                        self.session.retire(
                            pb.seq,
                            BatchResults { results: outs, stats: batch_stats, failures },
                        );
                    }
                    Err(e) => {
                        // The failed batch never retires; release its
                        // claim so waiters wake and report UnknownTicket
                        // instead of parking. Batches still pending stay
                        // queued for the next drain.
                        self.session.abandon(&[pb.seq]);
                        return Err(e);
                    }
                }
            }
            let overlap = overlap_report(&per_batch);
            stats.combined_critical_path_us = overlap.combined_critical_us;
            stats.serial_critical_path_us = overlap.serial_critical_us;
            stats.dies_used = combined.dies_busy();
            stats.busiest_die_us = combined.busiest_us();
            stats.busiest_channel_us = combined.busiest_channel_us();
            stats.health = core.health();
        }
        if let Some((maintenance, health)) =
            self.background_tail(&mut combined, scrub_due, stats.senses > 0)?
        {
            stats.maintenance = maintenance;
            stats.health = health;
        }
        Ok(stats)
    }

    /// The sync serving path — what a drain runs for one claimed batch,
    /// without the queue: `compile` and [`DeviceCore::serve`] run under
    /// the read guard, the guard drops, and then the
    /// [`Self::background_tail`] runs when it is due. The caller's batch
    /// never waits behind other clients' queued batches, and never meets
    /// the admission bound.
    pub(crate) fn serve_now(
        &self,
        outs: &mut [BitVec],
        compile: impl FnOnce(&DeviceCore) -> Result<CompiledBatch, FcError>,
    ) -> Result<(BatchStats, Vec<QueryFailure>), FcError> {
        let (stats, failures, mut own, scrub_due) = {
            let core = self.core();
            let scrub_due = core.scrub_due();
            let compiled = compile(&core)?;
            let (stats, failures, own) = core.serve(&compiled, outs)?;
            (stats, failures, own, scrub_due)
        };
        self.background_tail(&mut own, scrub_due, stats.senses > 0)?;
        Ok((stats, failures))
    }

    /// The write-locked tail every serving pass ends in: queued
    /// maintenance and scrubbing fill the per-die idle slack of `queues`
    /// (the pass's served occupancy) up to a budget of
    /// `max(critical path × slack_factor, slack_floor_us)` — what doesn't
    /// fit stays queued for the next pass — and the debug-build device
    /// audit (pass 2 of the static analyzer) checks the result under the
    /// same exclusive guard, a consistent snapshot no concurrent reader
    /// can shear. Due when jobs are queued, when `scrub_due`, or — in
    /// debug builds, for the audit — when the pass `sensed` anything:
    /// fresh results entered the result cache the audit checks, whereas a
    /// pass that only replayed cached results changed nothing it covers.
    /// Otherwise the write lock is never taken. Returns the maintenance
    /// stats and a fresh health snapshot when jobs or scrubs ran.
    fn background_tail(
        &self,
        queues: &mut DieQueues,
        scrub_due: bool,
        sensed: bool,
    ) -> Result<Option<(MaintenanceStats, DeviceHealth)>, FcError> {
        let due =
            !self.session.jobs().is_empty() || scrub_due || (cfg!(debug_assertions) && sensed);
        if !due {
            return Ok(None);
        }
        let mut core = self.core_write();
        core.schedule_scrub();
        let mut ran = None;
        if !self.session.jobs().is_empty() || core.pending_scrub() > 0 {
            let budget = (queues.critical_path_us() * core.maintenance_cfg.slack_factor)
                .max(core.maintenance_cfg.slack_floor_us);
            let mut maintenance = MaintenanceStats::default();
            if !self.session.jobs().is_empty() {
                maintenance = core.execute_maintenance(queues, budget)?;
            }
            if core.pending_scrub() > 0 {
                let (scrubbed, deferred) = core.execute_scrub(queues, budget)?;
                maintenance.pages_scrubbed = scrubbed;
                maintenance.scrubs_deferred = deferred;
            }
            ran = Some((maintenance, core.health()));
        }
        #[cfg(debug_assertions)]
        crate::audit::enforce_device(&core);
        Ok(ran)
    }

    /// Drops every drained-but-unwaited result, releasing their memory.
    /// Their tickets subsequently report [`FcError::UnknownTicket`].
    ///
    /// Retired results are held until their ticket is waited on
    /// ([`Session::retired`] counts them), so a fire-and-forget client
    /// that drains without waiting must call this periodically — there is
    /// no implicit bound, because silently dropping results a ticket
    /// still references would turn a memory policy into a correctness
    /// surprise.
    pub fn discard_retired(&self) -> usize {
        self.session.discard_all_retired()
    }

    /// Retires one async batch: drains the queues if the ticket is still
    /// in flight, then hands back its [`BatchResults`]. Each ticket can
    /// be waited on once.
    ///
    /// If another thread has already claimed the ticket's batch, this
    /// parks on the session's retire condvar — **without** holding the
    /// device lock — until the batch lands (or its drain fails, in
    /// which case the ticket reports [`FcError::UnknownTicket`]).
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownTicket`] for an already-waited (or foreign)
    /// ticket, plus anything [`FlashCosmosDevice::drain`] can return.
    pub fn wait(&self, ticket: Ticket) -> Result<BatchResults, FcError> {
        loop {
            if let Some(results) = self.session.take_retired(ticket.seq) {
                return Ok(results);
            }
            if self.session.is_pending(ticket.seq) {
                self.drain()?;
                continue;
            }
            if let Some(results) = self.session.wait_retired(ticket.seq) {
                return Ok(results);
            }
            // Not retired, not pending, not executing. It may have
            // hopped pending → executing → retired between our checks:
            // one final sweep before declaring the ticket unknown.
            if let Some(results) = self.session.take_retired(ticket.seq) {
                return Ok(results);
            }
            if self.session.is_pending(ticket.seq) || self.session.is_executing(ticket.seq) {
                continue;
            }
            return Err(FcError::UnknownTicket(ticket.seq));
        }
    }

    /// Read-only view of the session state (in-flight batches, cache
    /// counters). Does not take the device lock — the session carries
    /// its own mutex shards.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Bounds the result cache to `capacity` memoized unit results
    /// (evicting the admission policy's victims down to the bound). `0`
    /// disables caching — the cold-cache reference configuration the
    /// soundness tests compare against.
    pub fn set_result_cache_capacity(&self, capacity: usize) {
        self.session.cache().set_capacity(capacity);
    }

    /// Drops every memoized result (counters survive).
    pub fn clear_result_cache(&self) {
        self.session.cache().clear();
    }

    /// Installs a result-cache admission/eviction policy (see
    /// [`crate::maintenance`]): [`CostAwareAdmission`] (the default)
    /// retains by hit frequency × senses saved,
    /// [`crate::maintenance::FifoAdmission`] restores the oldest-first
    /// bound. Resident entries keep their history; only future victim
    /// choices change.
    pub fn set_cache_admission(&self, policy: Box<dyn CacheAdmission>) {
        self.session.cache().set_policy(policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StoreHints;
    use crate::expr::Expr;
    use fc_ssd::SsdConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device() -> FlashCosmosDevice {
        FlashCosmosDevice::new(SsdConfig::tiny_test())
    }

    fn write_group(dev: &mut FlashCosmosDevice, group: &str, n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let v = BitVec::random(dev.config().page_bits(), &mut rng);
                dev.fc_write(&format!("{group}-{i}"), &v, StoreHints::and_group(group)).unwrap().id
            })
            .collect()
    }

    #[test]
    fn submit_async_defers_execution_until_drain() {
        let mut dev = device();
        let ids = write_group(&mut dev, "g", 3, 1);
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(ids.iter().copied()));
        let (expect, _) = dev.fc_read(&Expr::and_vars(ids.iter().copied())).unwrap();
        dev.clear_result_cache();

        let ticket = dev.submit_async(&batch).unwrap();
        assert_eq!(dev.session().in_flight(), 1, "queued, not executed");
        let drained = dev.drain().unwrap();
        assert_eq!(drained.batches, 1);
        assert!(drained.senses > 0);
        assert_eq!(dev.session().in_flight(), 0);
        let results = ticket.wait(&dev).unwrap();
        assert_eq!(results.results[0], expect);
        // Double-wait is a proper error, not a panic or a stale result.
        assert!(matches!(dev.wait(ticket).unwrap_err(), FcError::UnknownTicket(_)));
    }

    #[test]
    fn wait_drains_implicitly_and_empty_drain_is_cheap() {
        let mut dev = device();
        let ids = write_group(&mut dev, "g", 2, 2);
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(ids.iter().copied()));
        let ticket = dev.submit_async(&batch).unwrap();
        let results = dev.wait(ticket).unwrap();
        assert_eq!(results.results.len(), 1);
        let drained = dev.drain().unwrap();
        assert_eq!(drained, DrainStats::default(), "nothing left to drain");
    }

    #[test]
    fn discard_retired_frees_unwaited_results() {
        let mut dev = device();
        let ids = write_group(&mut dev, "g", 2, 9);
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(ids.iter().copied()));
        // Fire-and-forget: drain without waiting parks the results...
        let t1 = dev.submit_async(&batch).unwrap();
        dev.drain().unwrap();
        let t2 = dev.submit_async(&batch).unwrap();
        dev.drain().unwrap();
        assert_eq!(dev.session().retired(), 2);
        // ...until the client discards them; their tickets then error.
        assert_eq!(dev.discard_retired(), 2);
        assert_eq!(dev.session().retired(), 0);
        assert!(matches!(dev.wait(t1).unwrap_err(), FcError::UnknownTicket(_)));
        assert!(matches!(t2.wait(&dev).unwrap_err(), FcError::UnknownTicket(_)));
    }

    #[test]
    fn cache_entries_evict_oldest_first_and_capacity_zero_disables() {
        let mut dev = device();
        let ids = write_group(&mut dev, "g", 4, 3);
        dev.set_result_cache_capacity(2);
        for &id in &ids {
            dev.fc_read(&Expr::var(id)).unwrap();
        }
        let stats = dev.session().cache_stats();
        assert_eq!(stats.entries, 2, "capacity bound holds");
        assert_eq!(stats.evictions, 2);
        // The two youngest entries survived.
        let (_, s) = dev.fc_read(&Expr::var(ids[3])).unwrap();
        assert_eq!(s.senses, 0, "young entry still cached");
        let (_, s) = dev.fc_read(&Expr::var(ids[0])).unwrap();
        assert!(s.senses > 0, "oldest entry was evicted");
        dev.set_result_cache_capacity(0);
        assert_eq!(dev.session().cache_stats().entries, 0);
        let (_, s) = dev.fc_read(&Expr::var(ids[3])).unwrap();
        assert!(s.senses > 0, "capacity 0 disables caching");
        let (_, s) = dev.fc_read(&Expr::var(ids[3])).unwrap();
        assert!(s.senses > 0, "still disabled on the re-read");
    }

    #[test]
    fn ssd_mut_access_bumps_the_epoch_and_clears_the_cache() {
        let mut dev = device();
        let ids = write_group(&mut dev, "g", 2, 4);
        let expr = Expr::and_vars(ids.iter().copied());
        let (first, s1) = dev.fc_read(&expr).unwrap();
        assert!(s1.senses > 0);
        let (second, s2) = dev.fc_read(&expr).unwrap();
        assert_eq!(first, second);
        assert_eq!(s2.senses, 0, "warm cache");
        // A raw-SSD mutation (here: retention aging) cannot be itemized,
        // so it must invalidate everything.
        dev.ssd_mut().set_retention_months(6.0);
        assert_eq!(dev.session().cache_stats().entries, 0);
        let (third, s3) = dev.fc_read(&expr).unwrap();
        assert_eq!(first, third, "ESP keeps results exact under aging");
        assert!(s3.senses > 0, "epoch bump forced a fresh execution");
    }
}
