//! Policy-driven device maintenance: hot-operand regrouping, wear-aware
//! placement and cost-aware cache admission on idle-die time.
//!
//! Flash-Cosmos only gets its single-sense wins when the operands an
//! expression fuses are co-located in one block (intra-block MWS), so
//! *where data sits* is the difference between 1 sense and N. The device
//! already observes everything needed to fix a bad layout on its own:
//!
//! * the batch compiler knows which operand sets are **fused together**
//!   and how many senses each unit costs (scattered sets cost more than
//!   one sense per stripe);
//! * the result cache knows which units are **re-queried** (hit counts);
//! * every serving pass — a [`drain`](crate::device::FlashCosmosDevice::drain)
//!   or a sync read — knows which dies sit **idle** while the busiest die
//!   bounds the critical path.
//!
//! This module turns those observations into background work, split into
//! three pluggable stages:
//!
//! 1. **Affinity tracking** — [`AffinityTracker`] (fed by every batch
//!    compile) counts, per co-fused operand set, how often the set was
//!    queried, how often the cache answered it, and what it last cost in
//!    senses.
//! 2. **Regroup planning** — a [`RegroupPolicy`] (default
//!    [`HotSetRegrouper`]) selects hot, scattered sets; the planner turns
//!    each into [`RegroupJob`]s that
//!    [`migrate_operand`](crate::device::FlashCosmosDevice::migrate_operand)
//!    the set into a fresh shared placement group on a **wear-aware**
//!    target die (least summed per-block P/E cycles, block pressure as
//!    the tie-break — see
//!    [`plane_wear`](crate::device::FlashCosmosDevice::plane_wear)).
//! 3. **Background execution** — queued jobs ride the next serving
//!    pass's background tail (a
//!    [`drain`](crate::device::FlashCosmosDevice::drain) or a sync
//!    read, see [`crate::session`]): each job's
//!    modeled chip time fills the per-die idle slack
//!    ([`DieQueues::try_fill`](fc_ssd::pipeline::DieQueues::try_fill))
//!    and is executed only when every touched die stays within the
//!    configured critical-path budget ([`MaintenanceConfig`]); jobs that
//!    do not fit stay queued for the next pass.
//!
//! A job whose source operand changed between planning and execution
//! (its placement **generation** no longer matches) is *retired*, never
//! applied — the observations it was planned from are stale. Retired
//! jobs land in a bounded log ([`RetiredJob`]); once the set is
//! re-observed hot ([`MaintenanceConfig::min_cofuse`] fresh co-queries —
//! planning consumed the earlier heat), a later pass sees its operands
//! still scattered and finishes the gather.
//!
//! The same policy split covers the two placement decisions that used to
//! be hard-coded in the device: fresh placement groups ask a
//! [`PlacementPolicy`] (default [`SpreadPlacement`], the die-rotating
//! least-loaded spread; [`WearAwarePlacement`] prefers low-wear planes),
//! and the result cache asks a [`CacheAdmission`] policy which entry to
//! evict (default [`CostAwareAdmission`], hit-frequency × senses-saved;
//! [`FifoAdmission`] restores the oldest-first bound).
//!
//! ```
//! use flash_cosmos::device::{FlashCosmosDevice, StoreHints};
//! use flash_cosmos::batch::QueryBatch;
//! use fc_ssd::SsdConfig;
//! use fc_bits::BitVec;
//!
//! let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
//! // Scattered layout: each operand in its own group (own block/die).
//! for i in 0..4 {
//!     let v = BitVec::ones(64);
//!     dev.fc_write(&format!("op{i}"), &v, StoreHints::and_group(&format!("s{i}"))).unwrap();
//! }
//! let ids: Vec<usize> = (0..4).collect();
//! let mut batch = QueryBatch::new();
//! batch.push(flash_cosmos::Expr::and_vars(ids.iter().copied()));
//! // Query the set twice: the affinity tracker marks it hot...
//! let cold = dev.submit(&batch).unwrap();
//! dev.submit(&batch).unwrap();
//! // ...maintenance gathers it into one block...
//! let stats = dev.run_maintenance().unwrap();
//! assert_eq!(stats.jobs_executed, 4, "one migration per operand");
//! // ...and the warm query drops to a single sense.
//! let warm = dev.submit(&batch).unwrap();
//! assert_eq!(warm.results, cold.results);
//! assert!(warm.stats.senses < cold.stats.senses);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::device::StoreHints;
use crate::expr::OperandId;

/// Read-only placement facts a [`PlacementPolicy`] decides from,
/// snapshotted per decision (placements are rare; queries are not).
#[derive(Debug, Clone)]
pub struct PlacementQuery {
    /// Blocks already allocated per flat plane (the FTL's block
    /// pressure).
    pub pressures: Vec<u32>,
    /// Summed per-block P/E cycles per flat plane (the chips' erase
    /// counters). Scanning every block's counter is the expensive part
    /// of the snapshot, so it is only populated for policies whose
    /// [`PlacementPolicy::needs_wear`] returns `true` (all zeros
    /// otherwise).
    pub wear: Vec<u64>,
    /// Planes per die.
    pub planes_per_die: usize,
    /// Dies in the SSD.
    pub dies: usize,
    /// Dies sharing one channel bus (flat die layout is channel-major:
    /// dies `c*dies_per_channel..(c+1)*dies_per_channel` sit on channel
    /// `c`). `0` or `1` degrades to every die on its own channel.
    pub dies_per_channel: usize,
}

impl PlacementQuery {
    /// Total flat planes.
    pub fn planes(&self) -> usize {
        self.dies * self.planes_per_die
    }

    /// The die a flat plane belongs to.
    pub fn die_of(&self, plane: usize) -> usize {
        plane / self.planes_per_die
    }

    /// Summed wear of one die's planes.
    pub fn die_wear(&self, die: usize) -> u64 {
        self.wear[die * self.planes_per_die..(die + 1) * self.planes_per_die].iter().sum()
    }

    /// Summed block pressure of one die's planes.
    pub fn die_pressure(&self, die: usize) -> u64 {
        self.pressures[die * self.planes_per_die..(die + 1) * self.planes_per_die]
            .iter()
            .map(|&p| p as u64)
            .sum()
    }

    /// Channels in the SSD (≥ 1).
    pub fn channels(&self) -> usize {
        self.dies.div_ceil(self.dies_per_channel.max(1)).max(1)
    }

    /// The channel a die's bus belongs to.
    pub fn channel_of(&self, die: usize) -> usize {
        die / self.dies_per_channel.max(1)
    }

    /// The channel-first die visiting order: step `j` visits one die of
    /// every channel before revisiting a channel, so consecutive
    /// placements spread over channel buses before doubling up within
    /// one. With one die per channel this is the identity (the historic
    /// die-rotating order).
    pub(crate) fn channel_first_die(&self, step: usize) -> usize {
        let dpc = self.dies_per_channel.max(1).min(self.dies.max(1));
        let channels = self.dies.div_ceil(dpc);
        // Walk the channel-major grid column by column, skipping the
        // padding cells of a ragged last channel.
        let mut j = step % self.dies.max(1);
        for k in 0..channels * dpc {
            let d = (k % channels) * dpc + k / channels;
            if d < self.dies {
                if j == 0 {
                    return d;
                }
                j -= 1;
            }
        }
        unreachable!("the grid holds every die exactly once");
    }

    /// Inverse of [`PlacementQuery::channel_first_die`]: the step at
    /// which the order visits `die`.
    pub(crate) fn channel_first_step(&self, die: usize) -> usize {
        let dpc = self.dies_per_channel.max(1).min(self.dies.max(1));
        let channels = self.dies.div_ceil(dpc);
        let mut step = 0;
        for k in 0..channels * dpc {
            let d = (k % channels) * dpc + k / channels;
            if d < self.dies {
                if d == die {
                    return step;
                }
                step += 1;
            }
        }
        unreachable!("the grid holds every die exactly once");
    }
}

/// Picks the base plane for a fresh placement group (or colocation
/// domain). The policy owns whatever cursor state it needs; the device
/// consults it through
/// [`set_placement_policy`](crate::device::FlashCosmosDevice::set_placement_policy).
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Chooses a flat plane. `pinned_die`, when given, restricts the
    /// choice to that die's planes (the caller validated the index).
    fn choose_plane(&mut self, query: &PlacementQuery, pinned_die: Option<usize>) -> usize;

    /// Whether this policy reads [`PlacementQuery::wear`]. Defaults to
    /// `false`, sparing every fresh-group placement the per-block
    /// erase-counter scan; a policy that consults wear **must** override
    /// this or it will see zeros.
    fn needs_wear(&self) -> bool {
        false
    }
}

/// The default policy: least-loaded plane by block pressure, visiting
/// dies round-robin from a rotating cursor so pressure ties spread across
/// dies rather than filling die 0 (the PR 3 behavior, extracted).
#[derive(Debug, Clone, Default)]
pub struct SpreadPlacement {
    die_cursor: usize,
}

impl SpreadPlacement {
    /// A fresh spread policy (cursor at die 0).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The shared channel-first least-key scan both provided policies use:
/// the minimal-`key` plane wins, ties visiting one die of every
/// *channel* before a second die within any channel, and one plane of
/// every die before revisiting a die (starting at `die_cursor`, a step
/// in the channel-first order, which advances past the chosen die); a
/// pin restricts the scan to one die's planes. With one die per channel
/// the order degrades to the historic die rotation.
fn choose_rotating<K: Ord + Copy>(
    q: &PlacementQuery,
    pinned_die: Option<usize>,
    die_cursor: &mut usize,
    key: impl Fn(usize) -> K,
) -> usize {
    let ppd = q.planes_per_die;
    if let Some(d) = pinned_die {
        return (0..ppd)
            .map(|p| d * ppd + p)
            .min_by_key(|&plane| (key(plane), plane))
            .expect("a die has at least one plane");
    }
    let mut best: Option<(K, usize, usize)> = None;
    for k in 0..q.planes() {
        // Channel-fastest enumeration: spread ties over channel buses
        // first, then over dies within a channel, then over planes.
        let d = q.channel_first_die(*die_cursor + k % q.dies);
        let pid = k / q.dies;
        let plane = d * ppd + pid;
        let plane_key = key(plane);
        if best.is_none_or(|(bk, bi, _)| (plane_key, k) < (bk, bi)) {
            best = Some((plane_key, k, plane));
        }
    }
    let (_, _, plane) = best.expect("an SSD has at least one plane");
    *die_cursor = (q.channel_first_step(plane / ppd) + 1) % q.dies;
    plane
}

impl PlacementPolicy for SpreadPlacement {
    fn choose_plane(&mut self, q: &PlacementQuery, pinned_die: Option<usize>) -> usize {
        choose_rotating(q, pinned_die, &mut self.die_cursor, |plane| q.pressures[plane])
    }
}

/// Wear-levelling placement: prefers the plane with the least summed
/// per-block P/E cycles, breaking wear ties by block pressure and then by
/// the same die-rotating enumeration as [`SpreadPlacement`] — worn planes
/// stop receiving fresh groups while even wear degrades to the default
/// spread.
#[derive(Debug, Clone, Default)]
pub struct WearAwarePlacement {
    die_cursor: usize,
}

impl WearAwarePlacement {
    /// A fresh wear-aware policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for WearAwarePlacement {
    fn needs_wear(&self) -> bool {
        true
    }

    fn choose_plane(&mut self, q: &PlacementQuery, pinned_die: Option<usize>) -> usize {
        choose_rotating(q, pinned_die, &mut self.die_cursor, |plane| {
            (q.wear[plane], q.pressures[plane])
        })
    }
}

/// Observable facts about one result-cache entry, handed to a
/// [`CacheAdmission`] policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntryInfo {
    /// Lookups this entry has served.
    pub hits: u64,
    /// Senses a cold execution of the unit costs (what each future hit
    /// saves).
    pub senses: u64,
    /// Insertion sequence number (monotonic; smaller = older).
    pub seq: u64,
    /// Size of the memoized result vector, bits.
    pub bits: usize,
}

/// Scores result-cache entries for admission and eviction. When the
/// cache is full, the entry with the lowest `(score, seq)` is the
/// eviction victim; a fresh insert only displaces it when
/// [`CacheAdmission::admit`] agrees. Select a policy with
/// [`set_cache_admission`](crate::device::FlashCosmosDevice::set_cache_admission).
pub trait CacheAdmission: std::fmt::Debug + Send + Sync {
    /// The entry's retention value; higher survives longer.
    fn score(&self, entry: &CacheEntryInfo) -> f64;

    /// Whether `fresh` may displace `victim` (the lowest-scored resident
    /// entry). The default admits unless the fresh entry scores strictly
    /// below the victim — cost-aware *admission*, not just eviction.
    fn admit(&self, fresh: &CacheEntryInfo, victim: &CacheEntryInfo) -> bool {
        self.score(fresh) >= self.score(victim)
    }
}

/// Oldest-first eviction, always admitting — the PR 4 FIFO bound, kept
/// selectable for comparison and for workloads without re-query skew.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoAdmission;

impl CacheAdmission for FifoAdmission {
    fn score(&self, entry: &CacheEntryInfo) -> f64 {
        entry.seq as f64
    }

    fn admit(&self, _fresh: &CacheEntryInfo, _victim: &CacheEntryInfo) -> bool {
        true
    }
}

/// Cost-aware retention (the default): an entry is worth what its future
/// hits save, estimated as hit frequency × senses per cold execution.
/// Entries that were never re-queried decay to their sense cost alone, so
/// a full cache sheds cold one-off results before proven-hot ones — and
/// refuses to evict a proven-hot entry for a one-off insert. Hit counts
/// age: the cache halves every resident's count once per decay window
/// of insert attempts (two turnovers' worth), so the score measures
/// *recent* frequency — after a working-set shift the stale-hot entries
/// decay to evictable while genuinely hot ones re-earn their hits
/// between halvings.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostAwareAdmission;

impl CacheAdmission for CostAwareAdmission {
    fn score(&self, entry: &CacheEntryInfo) -> f64 {
        (entry.hits + 1) as f64 * entry.senses.max(1) as f64
    }
}

/// Aggregate affinity facts about one co-fused operand set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AffinityEntry {
    /// Times the set was compiled as one plan unit, weighted by the
    /// queries each unit served.
    pub fused: u64,
    /// Times the set's unit was answered by the result cache.
    pub cache_hits: u64,
    /// Most recently modeled senses for the set's unit (scatter signal:
    /// a co-located set costs `pages` senses, a scattered one more).
    pub senses: u64,
    /// Stripe pages of the set's operands.
    pub pages: u64,
}

/// Records which operand sets the batch compiler fuses and what they
/// cost — the observation stream the regrouping planner consumes.
/// Bounded: beyond `capacity` distinct sets, the coldest set is dropped.
#[derive(Debug)]
pub struct AffinityTracker {
    entries: HashMap<Vec<OperandId>, AffinityEntry>,
    capacity: usize,
}

/// Default bound on distinct tracked operand sets.
const DEFAULT_AFFINITY_CAPACITY: usize = 1024;

impl Default for AffinityTracker {
    fn default() -> Self {
        Self { entries: HashMap::new(), capacity: DEFAULT_AFFINITY_CAPACITY }
    }
}

impl AffinityTracker {
    /// Records one compiled unit over `ids` (sorted, deduplicated; sets
    /// of fewer than two operands carry no regrouping signal and are
    /// ignored). `weight` is the number of queries the unit served.
    pub(crate) fn record(
        &mut self,
        ids: &[OperandId],
        senses: u64,
        pages: u64,
        weight: u64,
        cached: bool,
    ) {
        if ids.len() < 2 {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted and deduped");
        // Hot path: an already-tracked set updates in place, allocation
        // free (this runs once per compiled unit on every submit).
        if let Some(entry) = self.entries.get_mut(ids) {
            entry.fused += weight;
            entry.cache_hits += if cached { weight } else { 0 };
            entry.senses = senses;
            entry.pages = pages;
            return;
        }
        if self.entries.len() >= self.capacity {
            // Bound the tracker: drop the coldest set (never the one
            // being recorded — it is demonstrably live). Ties fall to the
            // smallest ids, so eviction never depends on hash order.
            if let Some(coldest) =
                self.entries.iter().min_by_key(|&(ids, e)| (e.fused, ids)).map(|(k, _)| k.clone())
            {
                self.entries.remove(&coldest);
            }
        }
        self.entries.insert(
            ids.to_vec(),
            AffinityEntry {
                fused: weight,
                cache_hits: if cached { weight } else { 0 },
                senses,
                pages,
            },
        );
    }

    /// Distinct operand sets currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tracked facts for one operand set (sorted ids).
    pub fn entry(&self, ids: &[OperandId]) -> Option<AffinityEntry> {
        self.entries.get(ids).copied()
    }

    /// Consumes a set's heat (fuse and cache-hit counts; the cost facts
    /// stay). The planner calls this when it acts on a set, so the next
    /// regroup of the same set requires *fresh* observations — without
    /// this, two overlapping hot sets would steal their shared operand
    /// back and forth on every pass off the same stale counts.
    pub(crate) fn consume(&mut self, ids: &[OperandId]) {
        if let Some(entry) = self.entries.get_mut(ids) {
            entry.fused = 0;
            entry.cache_hits = 0;
        }
    }

    /// All tracked sets as regrouping candidates, hottest first.
    pub fn candidates(&self) -> Vec<HotSet> {
        let mut out: Vec<HotSet> =
            self.entries.iter().map(|(ids, e)| HotSet { ids: ids.clone(), stats: *e }).collect();
        out.sort_by(|a, b| {
            (b.stats.fused, &a.ids).cmp(&(a.stats.fused, &b.ids)) // hottest first, ids tiebreak
        });
        out
    }

    /// Forgets everything (e.g. after a workload change).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One co-fused operand set, as ranked by [`AffinityTracker::candidates`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSet {
    /// The set's operand ids (sorted).
    pub ids: Vec<OperandId>,
    /// Aggregate affinity facts.
    pub stats: AffinityEntry,
}

impl HotSet {
    /// Modeled senses per stripe — 1.0 means already co-located, higher
    /// means scattered across blocks/planes.
    pub fn senses_per_stripe(&self) -> f64 {
        self.stats.senses as f64 / self.stats.pages.max(1) as f64
    }

    /// Stable identity of the set (hash of the sorted ids) — names the
    /// gather group and keys the planned-set ledger.
    pub fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.ids.hash(&mut h);
        h.finish()
    }
}

/// Chooses which hot sets deserve gathering. Select a policy with
/// [`set_regroup_policy`](crate::device::FlashCosmosDevice::set_regroup_policy).
pub trait RegroupPolicy: std::fmt::Debug + Send + Sync {
    /// Indices into `candidates` worth regrouping, most valuable first.
    fn select(&self, candidates: &[HotSet], cfg: &MaintenanceConfig) -> Vec<usize>;
}

/// The default regrouping policy: a set is worth gathering when it was
/// fused at least [`MaintenanceConfig::min_cofuse`] times *and* its unit
/// still costs at least [`MaintenanceConfig::scatter_ratio`] senses per
/// stripe (a co-located set costs exactly one).
#[derive(Debug, Clone, Copy, Default)]
pub struct HotSetRegrouper;

impl RegroupPolicy for HotSetRegrouper {
    fn select(&self, candidates: &[HotSet], cfg: &MaintenanceConfig) -> Vec<usize> {
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.stats.fused >= cfg.min_cofuse && c.senses_per_stripe() >= cfg.scatter_ratio
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Tuning knobs of the maintenance layer. Set with
/// [`set_maintenance_config`](crate::device::FlashCosmosDevice::set_maintenance_config).
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceConfig {
    /// Minimum times a set must have been co-fused before it is hot.
    pub min_cofuse: u64,
    /// Minimum modeled senses per stripe for a set to count as scattered
    /// (1.0 = already co-located).
    pub scatter_ratio: f64,
    /// Cap on jobs queued per planning pass, applied at hot-set
    /// granularity (a set's jobs are never split across passes; a single
    /// set larger than the cap still plans whole).
    pub max_jobs_per_pass: usize,
    /// A serving pass (a drain or a sync read) may extend its critical
    /// path to `critical × slack_factor` with fill-in migration work…
    pub slack_factor: f64,
    /// …but never below this absolute budget, µs — the maintenance
    /// window an otherwise idle pass may spend.
    pub slack_floor_us: f64,
    /// Bound on the retired-job log ([`Session::retired_jobs`]).
    ///
    /// [`Session::retired_jobs`]: crate::session::Session::retired_jobs
    pub retired_log_capacity: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            min_cofuse: 2,
            scatter_ratio: 1.5,
            max_jobs_per_pass: 64,
            slack_factor: 1.25,
            // One ESP program is 400 µs; leave room for a handful of
            // page moves per otherwise-idle drain.
            slack_floor_us: 5_000.0,
            retired_log_capacity: 64,
        }
    }
}

/// One planned migration: move `operand` into the gather group described
/// by `hints`, provided its placement generation still matches.
///
/// Queued jobs are audited by `FC106` (see `LINTS.md`): the operand id
/// and name must describe the same live record, `expected_generation`
/// must not exceed the table's (snapshots of the past, never the
/// future), and `target_die` must exist.
#[derive(Debug, Clone, PartialEq)]
pub struct RegroupJob {
    /// The operand's registered name (what `migrate_operand` takes).
    pub name: String,
    /// The operand id.
    pub operand: OperandId,
    /// Destination placement (gather group + colocation domain + target
    /// die).
    pub hints: StoreHints,
    /// The operand's placement generation at planning time; execution
    /// drops the job (retires it) when the live generation differs.
    pub expected_generation: u64,
    /// Stripe pages the migration moves.
    pub pages: usize,
    /// Target die (wear-aware pick at planning time).
    pub target_die: usize,
    /// Identity of the hot set this job belongs to (the planner skips a
    /// set while any of its jobs are still queued).
    pub set_key: u64,
}

/// A job dropped instead of applied: its operand mutated between
/// planning and execution. Kept in a bounded log for observability.
#[derive(Debug, Clone, PartialEq)]
pub struct RetiredJob {
    /// The operand's registered name.
    pub name: String,
    /// The operand id.
    pub operand: OperandId,
    /// Generation the plan was based on.
    pub expected_generation: u64,
    /// Generation found at execution time.
    pub found_generation: u64,
}

/// Outcome of one maintenance execution pass (standalone
/// [`run_maintenance`](crate::device::FlashCosmosDevice::run_maintenance)
/// or the fill-in slice of a [`DrainStats`](crate::session::DrainStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintenanceStats {
    /// Migration jobs applied.
    pub jobs_executed: usize,
    /// Jobs left queued because they did not fit the slack budget.
    pub jobs_deferred: usize,
    /// Jobs dropped on a generation mismatch (see [`RetiredJob`]).
    pub jobs_retired: usize,
    /// Pages moved by the executed jobs.
    pub pages_moved: u64,
    /// Pages that moved via the chip's copyback fast path.
    pub copybacks: u64,
    /// Modeled chip time of the fill-in work, µs.
    pub fill_time_us: f64,
    /// The critical-path budget the fill-in had to respect, µs.
    pub budget_us: f64,
    /// Busiest die after fill-in, µs (≤ `budget_us` whenever any budget
    /// was finite).
    pub critical_path_us: f64,
    /// Aged pages refreshed by the retention scrubber during this drain
    /// (see [`crate::recovery`]); scrubbing shares the slack budget.
    pub pages_scrubbed: u64,
    /// Scrub jobs left queued because they did not fit the slack budget.
    pub scrubs_deferred: usize,
}

impl crate::device::DeviceCore {
    /// Plans regrouping work from the affinity tracker's observations:
    /// the installed [`RegroupPolicy`] selects hot scattered sets, and
    /// each becomes one [`RegroupJob`] per operand, gathering the set
    /// into a shared placement group (one colocation domain) on the
    /// least-worn die — or onto the set's *existing* gather-group die
    /// when a partial earlier pass already placed it (the FTL joins the
    /// cached group placement, so the job's cost model must name that
    /// die). A set is skipped while its jobs are still queued, and while
    /// its operands actually share one placement group — so a set that
    /// later re-scatters (an overlapping hot set migrated a member away)
    /// becomes plannable again. Returns the number of jobs queued by
    /// this pass.
    pub(crate) fn schedule_maintenance(&mut self) -> usize {
        let candidates = self.session.affinity().candidates();
        let picks = self.regroup_policy.select(&candidates, &self.maintenance_cfg);
        if picks.is_empty() {
            return 0;
        }
        // Gathering targets are always wear-aware, whatever the write
        // path's placement policy is. `queued_on` tracks gather jobs
        // already aimed per die (earlier passes' backlog plus the sets
        // planned below), so distinct hot sets spread across dies
        // instead of all landing on one snapshot's least-worn die.
        let query = self.placement_query(true);
        let mut queued_on = vec![0u64; query.dies];
        for job in self.session.jobs().iter() {
            queued_on[job.target_die] += 1;
        }
        let mut queued = 0usize;
        for idx in picks {
            let set = &candidates[idx];
            let key = set.key();
            if self.session.jobs().iter().any(|j| j.set_key == key) {
                continue; // already planned, still queued
            }
            // Already co-located (all operands share one group)? Nothing
            // to gather — this also stops replanning sets whose senses
            // stem from in-group block overflow, which migration cannot
            // improve.
            let first_group = self.operands.get(set.ids[0]).map(|r| r.group_index);
            if set.ids.iter().all(|&id| {
                self.operands.get(id).map(|r| r.group_index) == first_group && first_group.is_some()
            }) {
                continue;
            }
            // Multi-level operands cannot migrate (their wordlines back
            // several aliased pages), so a set containing one is not
            // gatherable.
            if set.ids.iter().any(|&id| self.operands.get(id).is_none_or(|r| r.ml)) {
                continue;
            }
            // Gathering requires polarity-uniform, still-registered
            // operands (an AND set stores raw pages, an OR set inverses;
            // a mixed block cannot single-sense either way).
            let polarities: Option<Vec<bool>> =
                set.ids.iter().map(|&id| self.operand_inverted(id)).collect();
            let Some(polarities) = polarities else { continue };
            if polarities.windows(2).any(|w| w[0] != w[1]) {
                continue;
            }
            let inverted = polarities[0];
            let gather = format!("fc-gather-{key:016x}");
            let domain = format!("fc-gatherdom-{key:016x}");
            let gather_index = self.group_index_by_name(&gather);
            // A replan after a partial pass must target where the gather
            // group already sits, not today's least-worn die.
            let target_die =
                self.group_base_die(&gather).unwrap_or_else(|| least_worn_die(&query, &queued_on));
            let mut set_jobs = Vec::with_capacity(set.ids.len());
            for &id in &set.ids {
                let rec = &self.operands[id];
                if Some(rec.group_index) == gather_index {
                    continue; // already gathered (a retired sibling re-armed the set)
                }
                let hints = crate::device::StoreHints {
                    group: gather.clone(),
                    inverted,
                    die: Some(target_die),
                    colocate: Some(domain.clone()),
                    scheme: None,
                };
                set_jobs.push(RegroupJob {
                    name: rec.name.clone(),
                    operand: id,
                    hints,
                    expected_generation: rec.generation,
                    pages: rec.lpns.len(),
                    target_die,
                    set_key: key,
                });
            }
            if set_jobs.is_empty() {
                continue;
            }
            // The per-pass cap applies at set granularity — a set's jobs
            // are never split (a half-planned set would look done and
            // not finish gathering until re-observed). A set that alone
            // exceeds the cap still plans whole, as the first of its
            // pass.
            if queued > 0 && queued + set_jobs.len() > self.maintenance_cfg.max_jobs_per_pass {
                break;
            }
            // Acting on the observations consumes them: regathering this
            // set later (e.g. after an overlapping hot set steals a
            // member) requires `min_cofuse` *fresh* co-queries, so
            // sustained conflicts migrate at most once per min_cofuse
            // queries instead of on every pass.
            self.session.affinity().consume(&set.ids);
            queued_on[target_die] += set_jobs.len() as u64;
            queued += set_jobs.len();
            self.session.jobs().extend(set_jobs);
            if queued >= self.maintenance_cfg.max_jobs_per_pass {
                break;
            }
        }
        queued
    }

    /// Plans ([`schedule_maintenance`](Self::schedule_maintenance)) and
    /// then executes **every** queued migration job immediately, with no
    /// critical-path budget — the foreground maintenance pass for tests,
    /// tools and explicit reorganization windows. Background operation
    /// queues jobs instead and lets the drain fill them into
    /// idle-die slack.
    ///
    /// # Errors
    ///
    /// Propagates migration failures (the failing job is consumed; the
    /// rest stay queued).
    pub fn run_maintenance(&mut self) -> Result<MaintenanceStats, crate::device::FcError> {
        self.schedule_maintenance();
        let mut queues = fc_ssd::pipeline::DieQueues::for_config(self.ssd.config());
        self.execute_maintenance(&mut queues, f64::INFINITY)
    }

    /// Executes queued migration jobs into `queues`' idle slack, stopping
    /// at the first job whose modeled chip time would push any touched
    /// die past `budget_us`. A job whose operand generation no longer
    /// matches its plan is retired (logged, never applied); once the set
    /// is re-observed hot, a later planning pass sees it still scattered
    /// and finishes it.
    pub(crate) fn execute_maintenance(
        &mut self,
        queues: &mut fc_ssd::pipeline::DieQueues,
        budget_us: f64,
    ) -> Result<MaintenanceStats, crate::device::FcError> {
        let (tr_us, tesp_us) = {
            let cfg = self.ssd.config();
            (cfg.tr_us, cfg.tesp_us)
        };
        let mut stats = MaintenanceStats { budget_us, ..MaintenanceStats::default() };
        // Jobs that miss the budget are *skipped over*, not head-of-line
        // blockers: a single oversized job (more pages than any drain's
        // slack can swallow) must not wedge unrelated work behind it —
        // it re-queues, in order, for a bigger budget or a foreground
        // `run_maintenance`.
        let mut deferred: std::collections::VecDeque<RegroupJob> =
            std::collections::VecDeque::new();
        loop {
            // `let-else` drops the queue guard at the end of the
            // statement — a `while let` would hold it across the whole
            // body and deadlock on the re-lock below.
            let Some(job) = self.session.jobs().pop_front() else { break };
            let found = self.operand_generation(job.operand);
            if found != job.expected_generation {
                stats.jobs_retired += 1;
                self.session.bump_jobs_retired();
                let mut log = self.session.retired_log();
                log.push_back(RetiredJob {
                    name: job.name,
                    operand: job.operand,
                    expected_generation: job.expected_generation,
                    found_generation: found,
                });
                while log.len() > self.maintenance_cfg.retired_log_capacity {
                    log.pop_front();
                }
                continue;
            }
            // Modeled chip time: each stripe page senses on its source
            // die and programs on the target die (a die-internal move —
            // copyback — keeps both halves on one die).
            let cfg = self.ssd.config();
            let mut work: Vec<(usize, f64)> = Vec::new();
            for die in &self.operands[job.operand].dies {
                let src = die.flat(cfg);
                if src == job.target_die {
                    work.push((src, tr_us + tesp_us));
                } else {
                    work.push((src, tr_us));
                    work.push((job.target_die, tesp_us));
                }
            }
            if !queues.try_fill(&work, budget_us) {
                deferred.push_back(job);
                continue;
            }
            let moved_us: f64 = work.iter().map(|&(_, us)| us).sum();
            let copybacks = match self.migrate_operand(&job.name, job.hints.clone()) {
                Ok(c) => c,
                Err(e) => {
                    // The failing job is consumed, but neither the
                    // skipped-over jobs nor the untouched remainder may
                    // be dropped with it.
                    let mut jobs = self.session.jobs();
                    while let Some(j) = deferred.pop_back() {
                        jobs.push_front(j);
                    }
                    return Err(e);
                }
            };
            stats.jobs_executed += 1;
            stats.pages_moved += job.pages as u64;
            stats.copybacks += copybacks;
            stats.fill_time_us += moved_us;
        }
        stats.jobs_deferred = deferred.len();
        *self.session.jobs() = deferred;
        stats.critical_path_us = queues.busiest_us();
        Ok(stats)
    }
}

impl crate::device::FlashCosmosDevice {
    /// Plans regrouping work from the affinity tracker's observations —
    /// see the maintenance module docs for the policy. Takes the
    /// exclusive device lock (planning reads placement and wear state
    /// that must not shear under it).
    pub fn schedule_maintenance(&self) -> usize {
        self.core_write().schedule_maintenance()
    }

    /// Plans ([`Self::schedule_maintenance`]) and then executes
    /// **every** queued migration job immediately, with no critical-path
    /// budget — the foreground maintenance pass for tests, tools and
    /// explicit reorganization windows. Background operation queues jobs
    /// instead and lets the next serving pass ([`Self::drain`] or a sync
    /// read) fill them into idle-die slack.
    /// Runs under the exclusive device lock.
    ///
    /// # Errors
    ///
    /// Propagates migration failures (the failing job is consumed; the
    /// rest stay queued).
    pub fn run_maintenance(&self) -> Result<MaintenanceStats, crate::device::FcError> {
        self.core_write().run_maintenance()
    }
}

/// The die with the least summed P/E wear — the §10 gathering target
/// that doubles as wear levelling. Ties break first on the gather jobs
/// already aimed at the die's *channel* (a gathered set's future senses
/// all stream out over one bus, so back-to-back hot sets spread across
/// channels), then on block pressure plus the jobs aimed at the die
/// itself (`queued_on`) — distinct hot sets planned in one pass spread
/// out instead of piling onto the snapshot's least-worn die.
fn least_worn_die(q: &PlacementQuery, queued_on: &[u64]) -> usize {
    let mut chan_queued = vec![0u64; q.channels()];
    for (d, &n) in queued_on.iter().enumerate() {
        chan_queued[q.channel_of(d)] += n;
    }
    (0..q.dies)
        .min_by_key(|&d| {
            (q.die_wear(d), chan_queued[q.channel_of(d)], q.die_pressure(d) + queued_on[d], d)
        })
        .expect("an SSD has at least one die")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(pressures: Vec<u32>, wear: Vec<u64>) -> PlacementQuery {
        let planes = pressures.len();
        PlacementQuery { pressures, wear, planes_per_die: 2, dies: planes / 2, dies_per_channel: 1 }
    }

    #[test]
    fn spread_policy_rotates_dies_on_ties() {
        let mut p = SpreadPlacement::new();
        let q = query(vec![0; 8], vec![0; 8]);
        let first = p.choose_plane(&q, None);
        let second = p.choose_plane(&q, None);
        assert_ne!(first / 2, second / 2, "pressure ties must rotate dies");
        // A pin restricts to the die's planes.
        assert_eq!(p.choose_plane(&q, Some(3)) / 2, 3);
    }

    #[test]
    fn spread_policy_hops_channels_before_dies() {
        // 4 dies on 2 channels (dies 0,1 on channel 0; dies 2,3 on
        // channel 1): consecutive tie placements alternate channel buses
        // before reusing one, and the full tie rotation still visits
        // every die once.
        let mut p = SpreadPlacement::new();
        let q = PlacementQuery {
            pressures: vec![0; 8],
            wear: vec![0; 8],
            planes_per_die: 2,
            dies: 4,
            dies_per_channel: 2,
        };
        let dies: Vec<usize> = (0..4).map(|_| p.choose_plane(&q, None) / 2).collect();
        assert_eq!(dies, vec![0, 2, 1, 3], "channel-first order: ch0, ch1, ch0, ch1");
        let channels: Vec<usize> = dies.iter().map(|d| q.channel_of(*d)).collect();
        assert_eq!(channels, vec![0, 1, 0, 1]);
    }

    #[test]
    fn gather_target_spreads_queued_sets_across_channels() {
        // Even wear everywhere; 3 gather jobs already aimed at die 0
        // (channel 0). The channel-aware tie-break sends the next set to
        // channel 1 — not merely a different die on the loaded bus.
        let q = PlacementQuery {
            pressures: vec![0; 8],
            wear: vec![0; 8],
            planes_per_die: 2,
            dies: 4,
            dies_per_channel: 2,
        };
        let target = least_worn_die(&q, &[3, 0, 0, 0]);
        assert_eq!(q.channel_of(target), 1, "queued channel 0 load repels the gather");
    }

    #[test]
    fn wear_aware_policy_avoids_worn_planes() {
        let mut p = WearAwarePlacement::new();
        // Die 0 heavily cycled, die 1 mildly, dies 2/3 fresh.
        let q = query(vec![0; 8], vec![9000, 9000, 40, 40, 0, 0, 0, 0]);
        let plane = p.choose_plane(&q, None);
        assert!(plane >= 4, "fresh dies win: got plane {plane}");
        // Pinned to the worn die, it still picks the less-worn plane.
        let q2 = query(vec![0; 8], vec![9000, 10, 0, 0, 0, 0, 0, 0]);
        let mut p2 = WearAwarePlacement::new();
        assert_eq!(p2.choose_plane(&q2, Some(0)), 1);
        // Even wear degrades to the spread behavior (distinct dies).
        let even = query(vec![0; 8], vec![5; 8]);
        let a = p2.choose_plane(&even, None);
        let b = p2.choose_plane(&even, None);
        assert_ne!(a / 2, b / 2);
    }

    #[test]
    fn cache_policies_score_as_documented() {
        let old_hot = CacheEntryInfo { hits: 9, senses: 4, seq: 1, bits: 256 };
        let young_cold = CacheEntryInfo { hits: 0, senses: 4, seq: 9, bits: 256 };
        let fifo = FifoAdmission;
        assert!(fifo.score(&old_hot) < fifo.score(&young_cold), "FIFO evicts oldest");
        assert!(fifo.admit(&young_cold, &old_hot), "FIFO always admits");
        let cost = CostAwareAdmission;
        assert!(cost.score(&old_hot) > cost.score(&young_cold), "hits outweigh age");
        assert!(!cost.admit(&young_cold, &old_hot), "cold insert cannot displace hot entry");
        assert!(cost.admit(&young_cold, &young_cold), "equal scores admit (degrades to FIFO)");
        // Senses weigh in: an expensive entry outranks a cheap one.
        let cheap = CacheEntryInfo { hits: 1, senses: 1, seq: 2, bits: 256 };
        let dear = CacheEntryInfo { hits: 1, senses: 8, seq: 3, bits: 256 };
        assert!(cost.score(&dear) > cost.score(&cheap));
    }

    #[test]
    fn affinity_tracker_records_and_bounds() {
        let mut t = AffinityTracker { entries: HashMap::new(), capacity: 2 };
        t.record(&[1, 2], 4, 1, 1, false);
        t.record(&[1, 2], 4, 1, 2, true);
        t.record(&[3, 4], 2, 1, 1, false);
        let e = t.entry(&[1, 2]).unwrap();
        assert_eq!(e.fused, 3);
        assert_eq!(e.cache_hits, 2);
        assert_eq!(e.senses, 4);
        // Single-operand sets carry no signal.
        t.record(&[7], 1, 1, 1, false);
        assert_eq!(t.len(), 2);
        // Capacity bound: the coldest set ([3,4], fused 1) is dropped.
        t.record(&[5, 6], 8, 2, 1, false);
        assert_eq!(t.len(), 2);
        assert!(t.entry(&[3, 4]).is_none());
        assert!(t.entry(&[1, 2]).is_some());
        // Candidates rank hottest first.
        let c = t.candidates();
        assert_eq!(c[0].ids, vec![1, 2]);
        assert_eq!(c[1].senses_per_stripe(), 4.0, "8 senses over 2 stripes");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn affinity_eviction_breaks_ties_on_ids() {
        // Every fresh tracker hashes with its own seed, so a hash-order
        // tie-break would pick different victims across these trackers.
        for _ in 0..16 {
            let mut t = AffinityTracker { entries: HashMap::new(), capacity: 4 };
            for ids in [[7, 8], [3, 9], [3, 4], [5, 6]] {
                t.record(&ids, 1, 1, 1, false);
            }
            t.record(&[1, 2], 1, 1, 1, false);
            assert!(t.entry(&[3, 4]).is_none(), "smallest tied set is evicted");
            assert_eq!(t.len(), 4);
            for ids in [[7, 8], [3, 9], [5, 6], [1, 2]] {
                assert!(t.entry(&ids).is_some(), "{ids:?} survives");
            }
        }
    }

    #[test]
    fn hot_set_regrouper_filters_on_heat_and_scatter() {
        let cfg = MaintenanceConfig::default();
        let mk = |ids: Vec<usize>, fused, senses, pages| HotSet {
            ids,
            stats: AffinityEntry { fused, cache_hits: 0, senses, pages },
        };
        let candidates = vec![
            mk(vec![0, 1], 5, 4, 1), // hot and scattered → selected
            mk(vec![2, 3], 1, 4, 1), // too cold
            mk(vec![4, 5], 5, 1, 1), // already co-located
            mk(vec![6, 7], 2, 3, 2), // exactly at both thresholds → selected
        ];
        assert_eq!(HotSetRegrouper.select(&candidates, &cfg), vec![0, 3]);
    }
}
