//! Queue-first submission and the generation-stamped cross-batch result
//! cache: the device's async session layer.
//!
//! The batch API (PR 2) amortizes work *within* one submission; a
//! production front end has several batches in flight and repeats
//! predicates across them. This module adds both halves:
//!
//! * **Async ticketed submission** —
//!   [`FlashCosmosDevice::submit_async`] checks a batch's operands and
//!   queues it *without compiling or executing anything*, returning a
//!   [`Ticket`]. [`FlashCosmosDevice::drain`] compiles each queued batch
//!   into per-die program queues and retires everything in one pass;
//!   [`Ticket::wait`] drains (if needed) and hands back that batch's
//!   [`BatchResults`]. Dies execute their queues independently,
//!   so two in-flight batches interleave on idle dies: the combined
//!   modeled critical path ([`DrainStats::combined_critical_path_us`],
//!   busiest die of the summed [`DieQueues`] occupancy) sits at or below
//!   the sum of the batches' standalone critical paths
//!   ([`DrainStats::serial_critical_path_us`]) — strictly below whenever
//!   the batches' busy dies differ. Drain stats are per drain; the
//!   cumulative reliability counters stay with
//!   [`FlashCosmosDevice::health`].
//! * **Cross-batch result cache** — every plan unit's result vector is
//!   memoized at execution, keyed by the query (the unit's canonical NNF)
//!   and stamped with the data it was computed from (the device epoch and
//!   `[(operand, data generation)]`). A later submit (sync or async) whose
//!   unit finds its query resident under the unit's current stamp replays
//!   the memoized pages: zero senses, zero chip time, bit-identical output,
//!   also after a migration regrouped its operands. An entry whose stamp
//!   went stale is a miss, and the unit's fresh execution refreshes that
//!   same entry in place, so each query holds at most one entry and
//!   overwrites never consume cache capacity.
//!
//! ## One serving path
//!
//! Every device read ends in the same two steps. The **serve** step
//! executes one compiled batch and merges its per-die and per-channel
//! occupancy into the device-lifetime die load — one `Mutex<DieQueues>`,
//! taken once per served batch. The **background tail** then fills the
//! device's queued background jobs (regroup migrations and scrub refreshes,
//! see [`crate::maintenance`]) into that pass's idle-die slack and runs the
//! debug-build device audit; a failing job is counted, not returned, so it
//! never costs the pass its results. A drain compiles and serves each
//! batch it claims under its read guard, and runs the tail once per drain.
//! `submit`, `submit_into`, `fc_read`, `fc_read_into` and `parabit_read`
//! compile under the read guard, serve, drop the guard and run the tail —
//! the same sequence, without the queue, so a sync caller never runs
//! other clients' batches or meets `Overloaded`. Every batch therefore
//! compiles once, against the placement it is sensed on. The tail takes
//! the write lock only when background jobs are due, or, in debug builds,
//! for the audit after a pass that sensed (a pure cache replay changes
//! nothing the audit checks).
//!
//! ## One ticket table
//!
//! Queued batches, claimed seqs and retired results share one mutex and
//! one condvar. A waiter whose batch another thread is executing parks on
//! the condvar; `retire` and `abandon` wake every parked waiter, and each
//! rechecks its own seq. Serving traffic holds the mutex only to push,
//! pop or move one entry, never while a batch executes.
//!
//! ## Why stale results are structurally impossible
//!
//! The cache key names the query; the entry's stamp names the data. An
//! entry answers only while its stamp equals the unit's current one, and
//! stamps never compare data — they compare *generations*. Each operand
//! carries two, drawn from one monotonic counter: a **data** generation,
//! which unit stamps and cache entries hold, and a **placement**
//! generation, which a queued regroup job holds (it moves pages planned
//! against the operand's old wordlines, see [`crate::maintenance`]).
//! Every mutation that could change what a query answers bumps a value
//! the stamp includes; every mutation that could move an operand's pages
//! bumps a value the job includes:
//!
//! | hazard | data generation (cache stamps) | placement generation (regroup jobs) |
//! |---|---|---|
//! | [`FlashCosmosDevice::fc_overwrite`] (name overwrite) | bumped | bumped |
//! | [`FlashCosmosDevice::migrate_operand`] (placement move, same bits) | kept | bumped |
//! | parity rebuilds and [`FlashCosmosDevice::inject_faults`] (itemized faults) | bumped | bumped |
//! | raw [`FlashCosmosDevice::ssd_mut`] access (reliability-mode changes, wear/fault injection, erases) | the device epoch (which also clears the cache) | kept |
//!
//! A generation is drawn from a monotonic counter and never reused, so a
//! stamp identifies one immutable snapshot of its operands' data; an
//! entry whose stamp went stale can never answer again (the placement
//! cache's earlier poisoning bug was this same hazard class — here the
//! invalidation is designed in, not patched on). It stays resident until
//! its query next executes, and that execution overwrites its result and
//! stamp in place. Every insert carries the live stamp — it runs under the
//! read guard its unit was compiled under, and generations move only
//! under the write guard — so a refresh never moves an entry back to
//! older data.
//!
//! A queued async batch holds no compiled state at all, only its source
//! queries: the drain that claims it compiles it under the same read
//! guard it serves it under. So async queries observe drain-time data by
//! construction — identical to what a synchronous submit at drain time
//! would return — and their units consult the cache like any compile: a
//! unit that an earlier batch of the same drain computed, or that was
//! cached before a migration regrouped its operands, replays its entry.
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

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use fc_bits::BitVec;
use fc_ssd::pipeline::DieQueues;

use crate::batch::{
    merge_share, BatchResults, BatchStats, Bottleneck, CompiledBatch, QueryBatch, QueryFailure,
};
use crate::device::{DeviceCore, FcError, FlashCosmosDevice};
use crate::expr::{Nnf, OperandId};
use crate::maintenance::{slack_budget_us, AffinityTracker, MaintenanceStats};

/// Result-cache key: a plan unit's canonical normal form — the query,
/// whatever data it last ran on. The compiled unit, the cache's map and
/// its eviction index share this one `Arc`, so an insert clones no tree.
pub(crate) type CacheKey = Arc<Nnf>;

/// The data a unit's result is computed from: the device epoch and the
/// data generation of every operand the unit's key names (ascending by
/// id). A cache entry whose stamp equals a unit's current stamp holds
/// exactly what a fresh execution of the unit would produce, wherever
/// its operands' pages have migrated since.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) epoch: u64,
    pub(crate) gens: Vec<(OperandId, u64)>,
}

/// One memoized unit result.
pub(crate) struct CacheEntry {
    /// The unit's full output vector (`pages × page_bits` bits).
    pub(crate) result: BitVec,
    /// The data `result` was computed from.
    stamp: Stamp,
    /// Senses the execution that computed `result` ran (serial-cost
    /// accounting for hits). A later migration of an operand keeps the
    /// entry valid but may change what a cold execution costs.
    pub(crate) senses: u64,
    /// Lookups this entry has served (feeds the retention score and the
    /// affinity tracker).
    hits: u64,
    /// Insertion sequence (monotonic; ties in retention scores evict the
    /// oldest entry first).
    seq: u64,
}

/// The retention score of a cache entry: what its future hits save,
/// estimated as hit frequency × senses per cold execution. A fresh entry
/// has no hits and scores its sense cost alone.
fn retention(hits: u64, senses: u64) -> f64 {
    (hits + 1) as f64 * senses.max(1) as f64
}

/// An entry's place in the eviction order: its retention score's bits,
/// then its insertion seq. Scores are positive and finite, so their bits
/// order like the values; seqs are unique, so no two entries share a
/// slot.
type Slot = (u64, u64);

impl CacheEntry {
    fn slot(&self) -> Slot {
        (retention(self.hits, self.senses).to_bits(), self.seq)
    }
}

/// Applies `change` to a resident entry's hits or senses and moves the
/// entry to its new slot in `order`.
fn rescore(
    order: &mut BTreeMap<Slot, CacheKey>,
    entry: &mut CacheEntry,
    change: impl FnOnce(&mut CacheEntry),
) {
    let key = order.remove(&entry.slot()).expect("every resident entry holds its slot");
    change(entry);
    order.insert(entry.slot(), key);
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
    /// Inserts the cache refused: the fresh entry's retention score was
    /// below every resident entry's.
    pub rejections: u64,
}

/// The generation-stamped result cache, one entry per query (its
/// [`CacheKey`]) stamped with the data its result was computed from (its
/// [`Stamp`]). Bounded, with cost-aware
/// retention: an entry is worth what its future hits save, hit frequency
/// × senses per cold execution. When the cache is full, the entry with
/// the lowest score (oldest on ties) is the eviction victim, and a fresh
/// insert that scores below it is refused, so a full cache sheds cold
/// one-off results before proven-hot ones and never evicts a proven-hot
/// entry for a one-off insert. Hit counts age: every resident's count
/// halves once per decay window of insert attempts (two turnovers'
/// worth), so the score measures *recent* frequency — after a
/// working-set shift the stale-hot entries decay to evictable while
/// genuinely hot ones re-earn their hits between halvings.
///
/// The eviction order is an index, not a scan: `order` holds every
/// resident entry under its `(score, seq)` slot, so the victim is its
/// first element and a hit, a re-insert or an eviction costs O(log n).
/// A decay halving can reorder entries, so it rebuilds the index from
/// the entries once per window, without re-hashing any key.
///
/// Invalidation is purely structural — a stale stamp can never match —
/// so eviction is only a memory bound, never a correctness mechanism. A
/// stale entry keeps its slot until its query executes again and
/// refreshes it in place, so an overwrite costs no capacity.
pub(crate) struct ResultCache {
    entries: HashMap<CacheKey, CacheEntry>,
    /// Every resident entry's key under its [`Slot`]; the first element
    /// is the eviction victim. The key is shared with `entries`.
    order: BTreeMap<Slot, CacheKey>,
    capacity: usize,
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
            order: BTreeMap::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
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
    /// The entry for query `key` if it was computed from the data `stamp`
    /// names, counting a hit; a miss — no entry, or one whose stamp went
    /// stale — is counted and earns the stale entry nothing.
    pub(crate) fn lookup(&mut self, key: &Nnf, stamp: &Stamp) -> Option<&CacheEntry> {
        match self.entries.get_mut(key) {
            Some(entry) if entry.stamp == *stamp => {
                rescore(&mut self.order, entry, |e| e.hits += 1);
                self.hits += 1;
                Some(entry)
            }
            _ => {
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

    /// The retention score of the next eviction victim, the resident
    /// entry with the lowest `(retention, seq)`.
    fn victim(&self) -> Option<f64> {
        self.order.first_key_value().map(|(&(score, _), _)| f64::from_bits(score))
    }

    fn evict_victim(&mut self) {
        let (_, key) = self.order.pop_first().expect("a non-empty cache has a victim");
        self.entries.remove(&*key);
        self.evictions += 1;
    }

    /// Evicts victims down to `bound` entries.
    fn evict_to(&mut self, bound: usize) {
        while self.entries.len() > bound {
            self.evict_victim();
        }
    }

    /// Offers a freshly executed unit's result for query `key`, computed
    /// from the data `stamp` names. A resident entry for the same query —
    /// stale after an overwrite or a migration, or current after a
    /// capacity toggle — is refreshed in place: its result, stamp and
    /// senses are replaced, its hit history and seq kept, and no insert
    /// attempt, eviction or admission test is counted, so a query holds
    /// at most one entry. Otherwise the result and stamp are cloned, and
    /// the key shared, only when the cache admits the entry, not when it
    /// refuses one. Callers pass the live stamp (inserts run under the
    /// read guard their unit was compiled and stamped under), so a
    /// refresh never moves an entry back to older data.
    pub(crate) fn insert(&mut self, key: &CacheKey, stamp: &Stamp, result: &BitVec, senses: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(existing) = self.entries.get_mut(&**key) {
            existing.result.clone_from(result);
            existing.stamp.clone_from(stamp);
            rescore(&mut self.order, existing, |e| e.senses = senses);
            return;
        }
        // Frequency aging: halve every resident's hit count once per
        // decay window of new-key insert attempts, so hit-frequency
        // scores measure the *recent* past — a once-hot entry decays to
        // evictable after the working set shifts, while genuinely hot
        // entries re-earn their hits between halvings.
        self.attempts += 1;
        if self.attempts.is_multiple_of(self.decay_window()) {
            // Halving can reorder entries: rebuild the order from them,
            // sharing each key again rather than hashing it.
            self.order = self
                .entries
                .iter_mut()
                .map(|(key, entry)| {
                    entry.hits /= 2;
                    (entry.slot(), Arc::clone(key))
                })
                .collect();
        }
        if self.entries.len() >= self.capacity {
            let victim = self.victim().expect("len >= capacity >= 1");
            // A fresh entry scoring below the victim is refused; an equal
            // score displaces it.
            if retention(0, senses) < victim {
                self.rejections += 1;
                return;
            }
            self.evict_victim();
        }
        let entry = CacheEntry {
            result: result.clone(),
            stamp: stamp.clone(),
            senses,
            hits: 0,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.order.insert(entry.slot(), Arc::clone(key));
        self.entries.insert(Arc::clone(key), entry);
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Every resident entry's key and stamp, in eviction order (the
    /// device audit checks each stamp against its key and the operand
    /// table — see `crate::audit`).
    pub(crate) fn stamps(&self) -> impl Iterator<Item = (&CacheKey, &Stamp)> {
        self.order.values().map(|key| (key, &self.entries[key].stamp))
    }

    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.evict_to(capacity);
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

/// A batch queued by [`FlashCosmosDevice::submit_async`], waiting for the
/// drain that compiles and serves it.
pub(crate) struct PendingBatch {
    seq: u64,
    source: QueryBatch,
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
    /// [`FcError::UnknownTicket`] when waited on twice, plus what
    /// [`FlashCosmosDevice::wait`] returns.
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
    /// The background jobs this drain ran in its idle-die slack (see
    /// [`crate::maintenance`]): regroup migrations and retention-scrub
    /// refreshes (see [`crate::recovery`]) within the critical-path
    /// budget, plus the jobs it deferred or retired.
    pub maintenance: MaintenanceStats,
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

/// The ticket table: every async batch from admission to its
/// [`Ticket::wait`], under the session's one ticket mutex.
#[derive(Default)]
struct Tickets {
    /// Admitted batches no drain has claimed yet, oldest first.
    pending: VecDeque<PendingBatch>,
    /// Seqs a drain has claimed but not yet retired (or abandoned):
    /// `wait` parks on these instead of re-draining.
    executing: HashSet<u64>,
    /// Drained results awaiting their ticket's `wait`.
    retired: HashMap<u64, BatchResults>,
    next_seq: u64,
}

/// Default bound on batches queued by `submit_async` and not yet
/// claimed by a drain. See [`FlashCosmosDevice::submit_async`]'s
/// backpressure contract.
const DEFAULT_ADMISSION_CAPACITY: usize = 1024;

/// The device's session state: in-flight async batches, retired results
/// awaiting their [`Ticket::wait`], the cross-batch result cache, and the
/// affinity tracker the regrouping planner reads. Accessible through
/// [`FlashCosmosDevice::session`].
///
/// Three mutexes, each its own lock domain:
///
/// | mutex | guards | locked by |
/// |---|---|---|
/// | `tickets` | pending queue, executing claims, retired results | `submit_async`, drain claim/retire, `wait` |
/// | `cache` | memoized unit results | batch compile/execute |
/// | `affinity` | co-query observations | batch compile, planner |
///
/// No thread holds two of them at once. `wait` parks on `retired_cv`
/// with the ticket mutex released and without the device lock.
pub struct Session {
    cache: Mutex<ResultCache>,
    /// Which operand sets get fused together, and what they cost — the
    /// regrouping planner's input (fed by every batch compile).
    affinity: Mutex<AffinityTracker>,
    tickets: Mutex<Tickets>,
    /// Notified by `retire` and `abandon`: a parked waiter rechecks its
    /// own seq.
    retired_cv: Condvar,
    /// Bound on `pending` — admission above it fails with
    /// [`FcError::Overloaded`].
    admission_capacity: AtomicUsize,
}

impl Default for Session {
    fn default() -> Self {
        Self {
            cache: Mutex::new(ResultCache::default()),
            affinity: Mutex::new(AffinityTracker::default()),
            tickets: Mutex::new(Tickets::default()),
            retired_cv: Condvar::new(),
            admission_capacity: AtomicUsize::new(DEFAULT_ADMISSION_CAPACITY),
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
            .finish()
    }
}

impl Session {
    /// Batches queued by `submit_async` and not yet claimed by a drain.
    pub fn in_flight(&self) -> usize {
        lock(&self.tickets).pending.len()
    }

    /// Drained batches whose ticket has not been waited on yet.
    pub fn retired(&self) -> usize {
        lock(&self.tickets).retired.len()
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

    /// The result cache, locked.
    pub(crate) fn cache(&self) -> MutexGuard<'_, ResultCache> {
        lock(&self.cache)
    }

    pub(crate) fn admission_capacity(&self) -> usize {
        self.admission_capacity.load(Ordering::Relaxed)
    }

    pub(crate) fn set_admission_capacity(&self, capacity: usize) {
        self.admission_capacity.store(capacity, Ordering::Relaxed);
    }

    /// Admits a checked batch into the pending queue, or refuses with
    /// [`FcError::Overloaded`] when the queue is at capacity.
    pub(crate) fn enqueue(&self, source: QueryBatch) -> Result<Ticket, FcError> {
        let mut tickets = lock(&self.tickets);
        if tickets.pending.len() >= self.admission_capacity() {
            return Err(FcError::Overloaded { queued: tickets.pending.len() });
        }
        let seq = tickets.next_seq;
        tickets.next_seq += 1;
        tickets.pending.push_back(PendingBatch { seq, source });
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
        let mut tickets = lock(&self.tickets);
        let pb = tickets.pending.pop_front()?;
        tickets.executing.insert(pb.seq);
        Some(pb)
    }

    /// Parks a claimed batch's results for its ticket, releases the
    /// executing claim, and wakes the parked waiters.
    pub(crate) fn retire(&self, seq: u64, results: BatchResults) {
        let mut tickets = lock(&self.tickets);
        tickets.retired.insert(seq, results);
        tickets.executing.remove(&seq);
        self.retired_cv.notify_all();
    }

    /// Releases the executing claim of a batch that will never retire (a
    /// drain hit an error on it): its waiters wake and report
    /// [`FcError::UnknownTicket`], mirroring the single-threaded
    /// dropped-batch semantics.
    pub(crate) fn abandon(&self, seq: u64) {
        lock(&self.tickets).executing.remove(&seq);
        self.retired_cv.notify_all();
    }

    /// Drops every retired-but-unwaited result.
    pub(crate) fn discard_all_retired(&self) -> usize {
        let mut tickets = lock(&self.tickets);
        let n = tickets.retired.len();
        tickets.retired.clear();
        n
    }
}

impl DeviceCore {
    /// The per-batch serve step every read path shares: executes a
    /// compiled batch, then merges its die and channel occupancy into the
    /// device-lifetime die load ([`FlashCosmosDevice::die_occupancy`]).
    /// Returns the batch's stats, its per-query failures and its own
    /// occupancy — the slack the background tail fills.
    pub(crate) fn serve(
        &self,
        compiled: &CompiledBatch,
        outs: &mut [BitVec],
    ) -> Result<(BatchStats, Vec<QueryFailure>, DieQueues), FcError> {
        let served = self.execute_compiled(compiled, outs)?;
        lock(&self.die_load).merge(&served.2);
        Ok(served)
    }

    /// Whether the background tail has work: jobs are queued, or a scrub
    /// pass would queue some now. Read-only — a serving pass asks this
    /// under the read guard to learn whether the write-locked tail is
    /// worth taking (under the functional error model no page ever
    /// qualifies for a scrub, and a device without mapped ECC pages skips
    /// the scan outright).
    pub(crate) fn background_due(&self) -> bool {
        !self.jobs.is_empty() || self.scrub_would_schedule()
    }
}

impl FlashCosmosDevice {
    /// Queues a batch for execution without blocking: every query is
    /// checked — it names operands that exist and share one geometry —
    /// and the batch is queued, but **nothing is compiled or executed**
    /// until [`FlashCosmosDevice::drain`] or [`Ticket::wait`] claims it.
    /// Batches queued together retire in one pass, interleaving on idle
    /// dies — see [`crate::session`] for the overlap model and the
    /// staleness rules. Runs under the shared device lock: N threads
    /// submit concurrently.
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
    /// [`FcError::Overloaded`] when the admission queue is full, plus the
    /// operand checks every compile starts with (unknown operands,
    /// queries naming no operand, size mismatches within a query). A
    /// planner rejection surfaces from the drain that compiles the batch.
    pub fn submit_async(&self, batch: &QueryBatch) -> Result<Ticket, FcError> {
        {
            let core = self.core();
            for expr in batch.queries() {
                core.query_geometry(expr)?;
            }
        }
        self.session.enqueue(batch.clone())
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
    /// Each claimed batch compiles here, under the read guard it is
    /// served under — the same two calls a sync submit makes — so
    /// drained queries observe drain-time data and placement, and a unit
    /// that an earlier batch of this drain computed replays from the
    /// result cache instead of sensing again.
    ///
    /// Concurrency: the claim-compile-serve phase runs under the shared
    /// (read) device lock, so drains from several threads proceed in
    /// parallel — each claims whatever is pending at that instant, and
    /// per-die chip mutexes arbitrate the sensing. Only the background
    /// tail (background jobs, the debug-build device audit) takes the
    /// write lock, and only when there is such work — the same tail every
    /// sync read ends in.
    ///
    /// # Errors
    ///
    /// Compile failures (planner rejections included) or chip failures
    /// of any queued batch; the failing batch is dropped (its ticket
    /// reports [`FcError::UnknownTicket`]) while batches still queued
    /// behind it stay pending for the next drain.
    pub fn drain(&self) -> Result<DrainStats, FcError> {
        self.drain_pass().map_err(|(_, e)| e)
    }

    /// [`Self::drain`], with a failure tagged by the seq of the batch it
    /// dropped, so [`Self::wait`] tells its own batch's failure from
    /// another's.
    fn drain_pass(&self) -> Result<DrainStats, (u64, FcError)> {
        let mut stats = DrainStats::default();
        let mut combined;
        let due;
        {
            let core = self.core();
            due = core.background_due();
            if self.session.in_flight() == 0 && !due {
                return Ok(stats);
            }
            combined = DieQueues::for_config(core.ssd.config());
            // Claim-serve-retire one batch at a time: concurrent drains
            // each grab the next queued batch, so a backlog is served by
            // every draining thread in parallel (per-die chip mutexes
            // arbitrate the sensing) rather than by whichever drain got
            // there first.
            while let Some(pb) = self.session.claim_next() {
                let mut outs: Vec<BitVec> =
                    (0..pb.source.len()).map(|_| BitVec::zeros(0)).collect();
                let served = core
                    .compile_batch(&pb.source)
                    .and_then(|compiled| core.serve(&compiled, &mut outs));
                match served {
                    Ok((batch_stats, failures, own)) => {
                        stats.batches += 1;
                        stats.senses += batch_stats.senses;
                        stats.merge_us += batch_stats.merge_us;
                        stats.serial_critical_path_us += own.critical_path_us();
                        combined.merge(&own);
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
                        self.session.abandon(pb.seq);
                        return Err((pb.seq, e));
                    }
                }
            }
            stats.combined_critical_path_us = combined.critical_path_us();
            stats.dies_used = combined.dies_busy();
            stats.busiest_die_us = combined.busiest_us();
            stats.busiest_channel_us = combined.busiest_channel_us();
        }
        stats.maintenance = self.background_tail(&mut combined, due, stats.senses > 0);
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
        let (stats, failures, mut own, due) = {
            let core = self.core();
            let due = core.background_due();
            let compiled = compile(&core)?;
            let (stats, failures, own) = core.serve(&compiled, outs)?;
            (stats, failures, own, due)
        };
        self.background_tail(&mut own, due, stats.senses > 0);
        Ok((stats, failures))
    }

    /// The write-locked tail every serving pass ends in: it queues due
    /// scrubs, then runs the queued background jobs into the per-die idle
    /// slack of `queues` (the pass's served occupancy) up to the pass's
    /// slack budget, `max(critical path × 1.25, 5 ms)` — what doesn't fit
    /// stays queued for the next pass — and the debug-build device audit
    /// (pass 2 of the static analyzer) checks the result under the same
    /// exclusive guard, a consistent snapshot no concurrent reader can
    /// shear. Runs when `due` (see [`DeviceCore::background_due`], asked
    /// under the pass's read guard) or — in debug builds, for the audit —
    /// when the pass `sensed` anything: fresh results entered the result
    /// cache the audit checks, whereas a pass that only replayed cached
    /// results changed nothing it covers. Otherwise the write lock is
    /// never taken. Returns what the jobs did (all zero when none ran); a
    /// failing job is counted there ([`MaintenanceStats::jobs_failed`]).
    fn background_tail(&self, queues: &mut DieQueues, due: bool, sensed: bool) -> MaintenanceStats {
        let mut maintenance = MaintenanceStats::default();
        if !(due || cfg!(debug_assertions) && sensed) {
            return maintenance;
        }
        let mut core = self.core_write();
        core.schedule_scrub();
        if !core.jobs.is_empty() {
            (maintenance, _) =
                core.execute_jobs(queues, slack_budget_us(queues.critical_path_us()));
        }
        #[cfg(debug_assertions)]
        crate::audit::enforce_device(&core);
        maintenance
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
    /// A drain this wait runs may fail on an older batch queued ahead of
    /// this one. That error belongs to the older batch's ticket: the
    /// wait rechecks its own batch, which stayed queued, and drains
    /// again.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownTicket`] for an already-waited (or foreign)
    /// ticket, plus the compile or chip error of the drain that failed
    /// on this ticket's own batch.
    pub fn wait(&self, ticket: Ticket) -> Result<BatchResults, FcError> {
        let seq = ticket.seq;
        let mut tickets = lock(&self.session.tickets);
        loop {
            if let Some(results) = tickets.retired.remove(&seq) {
                return Ok(results);
            }
            if tickets.executing.contains(&seq) {
                tickets =
                    self.session.retired_cv.wait(tickets).unwrap_or_else(PoisonError::into_inner);
            } else if tickets.pending.iter().any(|p| p.seq == seq) {
                drop(tickets);
                // A drain that fails on an older batch drops only that
                // batch: its error is not this ticket's, so recheck.
                if let Err((failed, e)) = self.drain_pass() {
                    if failed == seq {
                        return Err(e);
                    }
                }
                tickets = lock(&self.session.tickets);
            } else {
                return Err(FcError::UnknownTicket(seq));
            }
        }
    }

    /// Read-only view of the session state (in-flight batches, cache
    /// counters). Does not take the device lock — the session carries
    /// its own mutexes.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Bounds the result cache to `capacity` memoized unit results
    /// (evicting the lowest-retention entries down to the bound). `0`
    /// disables caching — the cold-cache reference configuration the
    /// soundness tests compare against.
    pub fn set_result_cache_capacity(&self, capacity: usize) {
        self.session.cache().set_capacity(capacity);
    }

    /// Drops every memoized result (counters survive).
    pub fn clear_result_cache(&self) {
        self.session.cache().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StoreHints;
    use crate::expr::Expr;
    use fc_ssd::SsdConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Query `k` of the cache unit tests: one operand, `Expr::var(k)`.
    fn query(k: usize) -> CacheKey {
        Arc::new(Expr::var(k).to_nnf())
    }

    /// Query `k`'s stamp after its operand reached generation `gen`.
    fn stamp(k: usize, gen: u64) -> Stamp {
        Stamp { epoch: 0, gens: vec![(k, gen)] }
    }

    #[test]
    fn retention_weighs_hits_and_senses() {
        assert!(retention(9, 4) > retention(0, 4), "hits outweigh age");
        assert!(retention(1, 8) > retention(1, 1), "an expensive entry outranks a cheap one");
        assert_eq!(retention(0, 0), retention(0, 1), "a free unit still costs one sense");
        // A full cache refuses a fresh insert scoring below its victim and
        // admits one scoring equal to it (the oldest entry makes way).
        let mut cache = ResultCache::default();
        cache.set_capacity(1);
        cache.insert(&query(0), &stamp(0, 0), &BitVec::zeros(8), 4);
        for _ in 0..9 {
            assert!(cache.lookup(&query(0), &stamp(0, 0)).is_some());
        }
        cache.insert(&query(1), &stamp(1, 0), &BitVec::zeros(8), 4);
        assert_eq!((cache.stats().rejections, cache.stats().evictions), (1, 0));
        assert!(cache.lookup(&query(0), &stamp(0, 0)).is_some(), "the hot entry stays");
        cache.clear();
        cache.insert(&query(2), &stamp(2, 0), &BitVec::zeros(8), 4);
        cache.insert(&query(3), &stamp(3, 0), &BitVec::zeros(8), 4);
        assert_eq!((cache.stats().rejections, cache.stats().evictions), (1, 1));
        assert!(cache.lookup(&query(3), &stamp(3, 0)).is_some(), "equal scores admit");
    }

    /// One resident query of [`ScanCache`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct ScanEntry {
        hits: u64,
        senses: u64,
        seq: u64,
        /// The generation of the query's one operand its result is from.
        gen: u64,
    }

    /// The retention rule by full scan, as the cache ran it before its
    /// eviction index: one [`ScanEntry`] per resident query index, the
    /// victim found by a `min_by` over all of them, and a hit only at the
    /// entry's own stamp.
    #[derive(Default)]
    struct ScanCache {
        entries: HashMap<usize, ScanEntry>,
        capacity: usize,
        next_seq: u64,
        attempts: u64,
        decays: u64,
        counters: CacheStats,
    }

    impl ScanCache {
        fn victim(&self) -> Option<(f64, u64)> {
            self.entries
                .values()
                .map(|e| (retention(e.hits, e.senses), e.seq))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        }

        fn evict_victim(&mut self) {
            let (_, seq) = self.victim().expect("evicting from a non-empty cache");
            self.entries.retain(|_, e| e.seq != seq);
            self.counters.evictions += 1;
        }

        fn hit(&mut self, k: usize, gen: u64) -> bool {
            match self.entries.get_mut(&k) {
                Some(e) if e.gen == gen => {
                    e.hits += 1;
                    self.counters.hits += 1;
                    true
                }
                _ => {
                    self.counters.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, k: usize, gen: u64, senses: u64) {
            if self.capacity == 0 {
                return;
            }
            if let Some(e) = self.entries.get_mut(&k) {
                e.senses = senses;
                e.gen = gen;
                return;
            }
            self.attempts += 1;
            if self.attempts.is_multiple_of((self.capacity as u64 * 2).max(8)) {
                self.decays += 1;
                for e in self.entries.values_mut() {
                    e.hits /= 2;
                }
            }
            if self.entries.len() >= self.capacity {
                let (victim, _) = self.victim().expect("a full cache has a victim");
                if retention(0, senses) < victim {
                    self.counters.rejections += 1;
                    return;
                }
                self.evict_victim();
            }
            self.entries.insert(k, ScanEntry { hits: 0, senses, seq: self.next_seq, gen });
            self.next_seq += 1;
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity;
            while self.entries.len() > capacity {
                self.evict_victim();
            }
        }

        fn stats(&self) -> CacheStats {
            CacheStats { entries: self.entries.len(), capacity: self.capacity, ..self.counters }
        }
    }

    #[test]
    fn eviction_index_matches_a_full_scan() {
        let queries: Vec<CacheKey> = (0..32).map(query).collect();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cache = ResultCache::default();
            let mut scan = ScanCache::default();
            cache.set_capacity(6);
            scan.set_capacity(6);
            // Ops that met a resident query under another stamp: lookups
            // and inserts.
            let mut stale = [0usize; 2];
            for step in 0..2_000 {
                // 16 distinct queries, skewed toward query 0, so some
                // entries earn many hits while others churn; each is drawn
                // at one of three stamps (its operand's generation).
                let k = rng.gen_range(0..4usize) * rng.gen_range(0..8usize);
                let gen = rng.gen_range(0..3u64);
                let (key, at) = (&queries[k], stamp(k, gen));
                let resident = scan.entries.get(&k).copied();
                let is_stale = resident.is_some_and(|e| e.gen != gen);
                match rng.gen_range(0..100u32) {
                    0..=44 => {
                        let hit = cache.lookup(key, &at).is_some();
                        assert_eq!(hit, scan.hit(k, gen));
                        if is_stale {
                            assert!(!hit, "seed {seed} step {step}: a stale lookup hit");
                            stale[0] += 1;
                        }
                    }
                    // A fresh insert, or a resident query's re-insert with
                    // new senses at its own or a newer stamp (0 scores
                    // like 1, so scores tie often).
                    45..=96 => {
                        let senses = rng.gen_range(0..=6u64);
                        let (before, attempts) = (cache.stats(), cache.attempts);
                        cache.insert(key, &at, &BitVec::zeros(8), senses);
                        scan.insert(k, gen, senses);
                        if let Some(old) = resident.filter(|_| is_stale) {
                            let entry = &cache.entries[key];
                            assert_eq!(
                                (entry.hits, entry.seq, &entry.stamp, entry.senses),
                                (old.hits, old.seq, &at, senses),
                                "seed {seed} step {step}: a stale insert refreshes in place"
                            );
                            assert_eq!(cache.stats(), before, "no eviction or rejection");
                            assert_eq!(cache.attempts, attempts, "no insert attempt");
                            stale[1] += 1;
                        }
                    }
                    97..=98 => {
                        let capacity = rng.gen_range(0..=8usize);
                        cache.set_capacity(capacity);
                        scan.set_capacity(capacity);
                    }
                    _ => {
                        cache.clear();
                        scan.entries.clear();
                    }
                }
                let victim = cache
                    .order
                    .first_key_value()
                    .map(|(&(score, seq), _)| (f64::from_bits(score), seq));
                assert_eq!(victim, scan.victim(), "seed {seed} step {step}: victim");
                assert_eq!(cache.stats(), scan.stats(), "seed {seed} step {step}: counters");
                let mut resident: Vec<_> = cache
                    .stamps()
                    .map(|(key, at)| {
                        let k = queries.iter().position(|q| q == key).expect("a test query");
                        let e = &cache.entries[key];
                        assert_eq!(at.gens.len(), 1, "one operand per test query");
                        let entry = ScanEntry {
                            hits: e.hits,
                            senses: e.senses,
                            seq: e.seq,
                            gen: at.gens[0].1,
                        };
                        (k, entry)
                    })
                    .collect();
                let mut expected: Vec<_> = scan.entries.iter().map(|(&k, &e)| (k, e)).collect();
                resident.sort_unstable();
                expected.sort_unstable();
                assert_eq!(resident, expected, "seed {seed} step {step}: residents");
                assert_eq!(cache.order.len(), cache.entries.len(), "one slot per entry");
                assert!(
                    cache.entries.values().all(|e| cache.order.contains_key(&e.slot())),
                    "seed {seed} step {step}: an entry's slot is stale"
                );
            }
            assert!(scan.decays >= 3, "seed {seed}: only {} decay windows", scan.decays);
            let CacheStats { evictions, rejections, .. } = scan.counters;
            assert!(evictions > 0 && rejections > 0, "seed {seed}: both full-cache outcomes");
            assert!(stale.iter().all(|&n| n > 0), "seed {seed}: stale lookups, inserts {stale:?}");
        }
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
