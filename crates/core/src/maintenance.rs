//! Device maintenance: hot-operand regrouping on idle-die time, and the
//! placement rule fresh placement groups follow.
//!
//! Flash-Cosmos only gets its single-sense wins when the operands an
//! expression fuses are co-located in one block (intra-block MWS), so
//! *where data sits* is the difference between 1 sense and N. The device
//! already observes everything needed to fix a bad layout on its own:
//!
//! * the batch compiler knows which operand sets are **fused together**
//!   and how many senses each unit costs (scattered sets cost more than
//!   one sense per stripe);
//! * every serving pass — a [`drain`](crate::device::FlashCosmosDevice::drain)
//!   or a sync read — knows which dies sit **idle** while the busiest die
//!   bounds the critical path.
//!
//! This module turns those observations into background work, split into
//! three stages:
//!
//! 1. **Affinity tracking** — [`AffinityTracker`] (fed by every batch
//!    compile) counts, per co-fused operand set, how often the set was
//!    queried and what it last cost in senses.
//! 2. **Regroup planning** — a fixed rule selects hot, scattered sets
//!    (fused at least twice and still costing at least 1.5 senses per
//!    stripe); the planner turns each into regroup jobs that
//!    [`migrate_operand`](crate::device::FlashCosmosDevice::migrate_operand)
//!    the set into a fresh shared placement group on a **wear-aware**
//!    target die (least summed per-block P/E cycles, block pressure as
//!    the tie-break — see
//!    [`plane_wear`](crate::device::FlashCosmosDevice::plane_wear), which
//!    reads one counter per plane that each chip keeps as its blocks
//!    age). A planning pass walks only the sets hot enough to qualify,
//!    and copies only those that also pass the scatter rule.
//! 3. **Background execution** — the device keeps one job queue for all
//!    of its background work: these regroup jobs and the retention
//!    scrubber's page refreshes (see [`crate::recovery`]). Queued jobs
//!    ride the next serving pass's background tail (a
//!    [`drain`](crate::device::FlashCosmosDevice::drain) or a sync
//!    read, see [`crate::session`]), oldest first: each job's modeled
//!    chip time fills the per-die idle slack
//!    ([`DieQueues::try_fill`](fc_ssd::pipeline::DieQueues::try_fill))
//!    and the job runs only when every touched die stays within the
//!    pass's critical-path budget, `max(critical path × 1.25, 5 ms)`;
//!    jobs that do not fit stay queued, in order, for the next pass. A
//!    job that fails is consumed and counted
//!    ([`MaintenanceStats::jobs_failed`]); it never fails the serving
//!    pass, whose reads have already been answered.
//!
//! A regroup job whose source operand changed between planning and
//! execution (its placement **generation** no longer matches) is
//! *retired*, never applied — the observations it was planned from are
//! stale. Retired jobs land in a bounded log ([`RetiredJob`]); once the
//! set is re-observed hot (two fresh co-queries — planning consumed the
//! earlier heat), a later pass sees its operands still scattered and
//! finishes the gather.
//!
//! Every decision here is a fixed rule. A fresh placement group opens its
//! block on the plane with the least block pressure, ties spread over
//! channels first, then dies, then planes; gather targets add wear and
//! queued jobs to that. The result cache keeps its own retention rule
//! (see [`crate::session`]).
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
//! // ...the moved pages read as the same bits, so the warm query is
//! // still a cache hit...
//! let warm = dev.submit(&batch).unwrap();
//! assert_eq!(warm.results, cold.results);
//! assert_eq!(warm.stats.senses, 0);
//! // ...and, with the cache cleared, it drops to a single sense.
//! dev.clear_result_cache();
//! let gathered = dev.submit(&batch).unwrap();
//! assert_eq!(gathered.results, cold.results);
//! assert!(gathered.stats.senses < cold.stats.senses);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use fc_ssd::pipeline::DieQueues;
use fc_ssd::SsdConfig;

use crate::device::{FcError, StoreHints};
use crate::expr::OperandId;

/// The channel-first die visiting order: step `j` visits one die of
/// every channel before revisiting a channel, so consecutive placements
/// spread over channel buses before doubling up within one. Flat dies
/// are channel-major (dies `c * dies_per_channel..(c + 1) *
/// dies_per_channel` sit on channel `c`) and the grid is always full, so
/// the order is a closed form; with one die per channel it is the
/// identity. Steps wrap around the die count.
pub(crate) fn channel_first_die(cfg: &SsdConfig, step: usize) -> usize {
    let j = step % cfg.total_dies();
    (j % cfg.channels) * cfg.dies_per_channel + j / cfg.channels
}

/// Inverse of [`channel_first_die`]: the step at which the order visits
/// `die`.
pub(crate) fn channel_first_step(cfg: &SsdConfig, die: usize) -> usize {
    (die % cfg.dies_per_channel) * cfg.channels + die / cfg.dies_per_channel
}

/// The placement rule for a fresh placement group (or colocation
/// domain): the plane with the least block pressure wins. Ties visit one
/// die of every channel before a second die within any channel, and one
/// plane of every die before a second plane of any die, starting at
/// `die_cursor` (a step in the channel-first order), which advances past
/// the chosen die. A pin restricts the choice to that die's planes (the
/// caller validated the index), the lowest plane winning ties.
///
/// Wear plays no part (the FTL never erases a block, so only injected
/// aging wears one); the regrouping planner's gather target weighs it
/// (`least_worn_die`).
pub(crate) fn spread_plane(
    cfg: &SsdConfig,
    pressures: &[u32],
    pinned_die: Option<usize>,
    die_cursor: &mut usize,
) -> usize {
    let ppd = cfg.planes_per_die;
    if let Some(d) = pinned_die {
        return (d * ppd..(d + 1) * ppd)
            .min_by_key(|&plane| pressures[plane])
            .expect("a die has at least one plane");
    }
    let dies = cfg.total_dies();
    // Channel-fastest enumeration; `min_by_key` keeps the first minimum.
    let plane = (0..cfg.total_planes())
        .map(|k| channel_first_die(cfg, *die_cursor + k % dies) * ppd + k / dies)
        .min_by_key(|&plane| pressures[plane])
        .expect("an SSD has at least one plane");
    *die_cursor = (channel_first_step(cfg, plane / ppd) + 1) % dies;
    plane
}

/// Aggregate affinity facts about one co-fused operand set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AffinityEntry {
    /// Times the set was compiled as one plan unit (a cache hit counts
    /// too), weighted by the queries each unit served.
    pub fused: u64,
    /// Most recently modeled senses for the set's unit (scatter signal:
    /// a co-located set costs `pages` senses, a scattered one more).
    pub senses: u64,
    /// Stripe pages of the set's operands.
    pub pages: u64,
}

/// Records which operand sets the batch compiler fuses and what they
/// cost — the observation stream the regrouping planner consumes.
/// Bounded: beyond `capacity` distinct sets, the coldest set is dropped.
///
/// A heat index keeps every tracked set bucketed by its fuse count, ids
/// ascending inside a bucket. The coldest set — fewest fuses, smallest
/// ids on ties — is the first set of the first bucket, and walking the
/// buckets hottest first down to `MIN_COFUSE` ranks
/// [`AffinityTracker::regroup_candidates`], so eviction finds its victim
/// without a scan and ranking needs no sort, nor a look at cold sets.
/// A record or a consume moves a set between buckets in O(log n).
#[derive(Debug)]
pub struct AffinityTracker {
    entries: HashMap<Vec<OperandId>, AffinityEntry>,
    /// Every tracked set under its `fused` count.
    heat: BTreeMap<u64, BTreeSet<Vec<OperandId>>>,
    capacity: usize,
}

/// Default bound on distinct tracked operand sets.
const DEFAULT_AFFINITY_CAPACITY: usize = 1024;

impl Default for AffinityTracker {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_AFFINITY_CAPACITY)
    }
}

/// Moves a tracked set from heat bucket `from` to bucket `to`, reusing
/// its allocation; emptied buckets go, so the first bucket is the
/// coldest one in use.
fn reheat(
    heat: &mut BTreeMap<u64, BTreeSet<Vec<OperandId>>>,
    ids: &[OperandId],
    from: u64,
    to: u64,
) {
    if from == to {
        return;
    }
    let bucket = heat.get_mut(&from).expect("a tracked set sits in its fuse-count bucket");
    let set = bucket.take(ids).expect("a tracked set sits in its fuse-count bucket");
    if bucket.is_empty() {
        heat.remove(&from);
    }
    heat.entry(to).or_default().insert(set);
}

impl AffinityTracker {
    fn with_capacity(capacity: usize) -> Self {
        Self { entries: HashMap::new(), heat: BTreeMap::new(), capacity }
    }

    /// Records one compiled unit over `ids` (sorted, deduplicated; sets
    /// of fewer than two operands carry no regrouping signal and are
    /// ignored). `weight` is the number of queries the unit served.
    pub(crate) fn record(&mut self, ids: &[OperandId], senses: u64, pages: u64, weight: u64) {
        if ids.len() < 2 {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted and deduped");
        // Hot path: an already-tracked set updates in place and moves its
        // own ids to its new heat bucket, never copying them (this runs
        // once per compiled unit on every submit).
        if let Some(entry) = self.entries.get_mut(ids) {
            let from = entry.fused;
            entry.fused += weight;
            entry.senses = senses;
            entry.pages = pages;
            reheat(&mut self.heat, ids, from, entry.fused);
            return;
        }
        if self.entries.len() >= self.capacity {
            // Bound the tracker: drop the coldest set (never the one
            // being recorded — it is demonstrably live). Ties fall to the
            // smallest ids, so eviction never depends on hash order.
            if let Some(mut coldest) = self.heat.first_entry() {
                let set = coldest.get_mut().pop_first().expect("heat buckets are never empty");
                if coldest.get().is_empty() {
                    coldest.remove();
                }
                self.entries.remove(&set);
            }
        }
        self.heat.entry(weight).or_default().insert(ids.to_vec());
        self.entries.insert(ids.to_vec(), AffinityEntry { fused: weight, senses, pages });
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

    /// Consumes a set's heat (its fuse count; the cost facts stay). The
    /// planner calls this when it acts on a set, so the next regroup of
    /// the same set requires *fresh* observations — without this, two
    /// overlapping hot sets would steal their shared operand back and
    /// forth on every pass off the same stale counts.
    pub(crate) fn consume(&mut self, ids: &[OperandId]) {
        if let Some(entry) = self.entries.get_mut(ids) {
            let from = std::mem::take(&mut entry.fused);
            reheat(&mut self.heat, ids, from, 0);
        }
    }

    /// The sets the regrouping rule selects, hottest first (most fuses
    /// first, then ascending ids): fused at least twice (`MIN_COFUSE`)
    /// *and* still costing at least 1.5 senses per stripe
    /// (`SCATTER_RATIO`). One walk over the heat buckets from the hottest
    /// down to `MIN_COFUSE`; only the sets that also pass the scatter
    /// rule are copied out.
    pub fn regroup_candidates(&self) -> Vec<HotSet> {
        self.heat
            .range(MIN_COFUSE..)
            .rev()
            .flat_map(|(_, sets)| sets)
            .filter_map(|ids| {
                let stats = self.entries[ids];
                (stats.senses_per_stripe() >= SCATTER_RATIO)
                    .then(|| HotSet { ids: ids.clone(), stats })
            })
            .collect()
    }

    /// Forgets everything (e.g. after a workload change).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.heat.clear();
    }
}

/// One co-fused operand set, as ranked by
/// [`AffinityTracker::regroup_candidates`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSet {
    /// The set's operand ids (sorted).
    pub ids: Vec<OperandId>,
    /// Aggregate affinity facts.
    pub stats: AffinityEntry,
}

impl AffinityEntry {
    /// Modeled senses per stripe — 1.0 means already co-located, higher
    /// means scattered across blocks/planes.
    pub fn senses_per_stripe(&self) -> f64 {
        self.senses as f64 / self.pages.max(1) as f64
    }
}

impl HotSet {
    /// Stable identity of the set (hash of the sorted ids) — names the
    /// gather group and keys the planned-set ledger.
    pub fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.ids.hash(&mut h);
        h.finish()
    }
}

/// A set is hot once the batch compiler fused it this many times.
const MIN_COFUSE: u64 = 2;
/// A hot set is worth gathering while its unit still costs at least this
/// many senses per stripe (a co-located set costs exactly one).
const SCATTER_RATIO: f64 = 1.5;
/// Cap on jobs one planning pass queues, applied at hot-set granularity:
/// a set's jobs are never split across passes, and a single set larger
/// than the cap still plans whole.
const MAX_JOBS_PER_PASS: usize = 64;
/// A serving pass may stretch its critical path by this factor with
/// background work…
const SLACK_FACTOR: f64 = 1.25;
/// …but never below this budget, µs: the window an otherwise idle pass
/// may spend. One ESP program is 400 µs, so this leaves room for a
/// handful of page moves.
const SLACK_FLOOR_US: f64 = 5_000.0;
/// Entries the retired-job log keeps (the total counter keeps counting).
const RETIRED_LOG_CAPACITY: usize = 64;

/// The critical-path budget of a serving pass's background work, µs: the
/// pass's own critical path stretched by [`SLACK_FACTOR`], never below
/// [`SLACK_FLOOR_US`].
pub(crate) fn slack_budget_us(critical_path_us: f64) -> f64 {
    (critical_path_us * SLACK_FACTOR).max(SLACK_FLOOR_US)
}

/// One unit of background work in the device's job queue, run oldest
/// first by `DeviceCore::execute_jobs`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Job {
    /// Gather an operand into its hot set's group.
    Regroup(RegroupJob),
    /// Refresh one aged ECC page (see [`crate::recovery`]).
    Scrub {
        /// The logical page.
        lpn: u64,
    },
}

/// One planned migration: move `operand` into its hot set's gather
/// group, provided its placement generation still matches.
///
/// The job stores only what planning decided. Execution reads the
/// operand's stripe count (and, for the retired log, its name) from the
/// operand table, and builds the destination [`StoreHints`] from
/// `set_key`, `target_die` and `inverted` ([`RegroupJob::hints`]).
///
/// Queued jobs are audited by `FC106` (see `LINTS.md`): the operand must
/// exist, `expected_generation` must not exceed the table's (snapshots
/// of the past, never the future), and `target_die` must exist.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RegroupJob {
    /// The operand id.
    pub(crate) operand: OperandId,
    /// The operand's placement generation at planning time; execution
    /// drops the job (retires it) when the live generation differs.
    pub(crate) expected_generation: u64,
    /// Target die (wear-aware pick at planning time).
    pub(crate) target_die: usize,
    /// Identity of the hot set this job belongs to: names its gather
    /// group and colocation domain, and the planner skips a set while
    /// any of its jobs are still queued.
    pub(crate) set_key: u64,
    /// Polarity of the gathered set (§6.1): every member stores the same.
    pub(crate) inverted: bool,
}

impl RegroupJob {
    /// Destination placement: the set's gather group in its own
    /// colocation domain, pinned to the target die.
    fn hints(&self) -> StoreHints {
        StoreHints {
            group: gather_group(self.set_key),
            inverted: self.inverted,
            die: Some(self.target_die),
            colocate: Some(format!("fc-gatherdom-{:016x}", self.set_key)),
            scheme: None,
        }
    }
}

/// The placement group a hot set gathers into.
fn gather_group(set_key: u64) -> String {
    format!("fc-gather-{set_key:016x}")
}

/// The modeled chip time of moving one page off each of `sources` (flat
/// dies) onto die `target`, as `(die, µs)` pieces: a sense on the source
/// die and a program on the target, one piece when the two are the same
/// die (a die-internal move, copyback, keeps both halves there).
fn page_moves(
    sources: impl IntoIterator<Item = usize>,
    target: usize,
    tr_us: f64,
    program_us: f64,
) -> Vec<(usize, f64)> {
    let mut work = Vec::new();
    for src in sources {
        if src == target {
            work.push((src, tr_us + program_us));
        } else {
            work.push((src, tr_us));
            work.push((target, program_us));
        }
    }
    work
}

/// A regroup job dropped instead of applied: its operand mutated between
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

/// Outcome of one background-job pass (standalone
/// [`run_maintenance`](crate::device::FlashCosmosDevice::run_maintenance)
/// or the fill-in slice of a [`DrainStats`](crate::session::DrainStats)).
/// A serving pass that finds no job queued reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintenanceStats {
    /// Regroup jobs applied.
    pub jobs_executed: usize,
    /// Regroup jobs left queued because they did not fit the slack budget.
    pub jobs_deferred: usize,
    /// Regroup jobs dropped on a generation mismatch (see [`RetiredJob`]).
    pub jobs_retired: usize,
    /// Pages moved by the applied regroup jobs.
    pub pages_moved: u64,
    /// Pages that moved via the chip's copyback fast path.
    pub copybacks: u64,
    /// Modeled chip time of the jobs that ran, µs.
    pub fill_time_us: f64,
    /// The critical-path budget the jobs had to respect, µs.
    pub budget_us: f64,
    /// Busiest die after the jobs ran, µs (≤ `budget_us` whenever the
    /// budget was finite).
    pub critical_path_us: f64,
    /// Aged pages refreshed by the retention scrubber (see
    /// [`crate::recovery`]).
    pub pages_scrubbed: u64,
    /// Scrub jobs left queued because they did not fit the slack budget.
    pub scrubs_deferred: usize,
    /// Jobs that failed (at most one: the pass stops there, consumes the
    /// failing job and leaves every other job queued).
    pub jobs_failed: usize,
}

impl crate::device::DeviceCore {
    /// Plans regrouping work from the affinity tracker's observations:
    /// the regrouping rule selects hot scattered sets, and
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
        let picks = self.session.affinity().regroup_candidates();
        if picks.is_empty() {
            return 0;
        }
        // Gathering targets are wear-aware. `queued_on` tracks gather
        // jobs already aimed per die (earlier passes' backlog plus the
        // sets planned below), so distinct hot sets spread across dies
        // instead of all landing on one snapshot's least-worn die.
        let cfg = self.ssd.config();
        let wear = self.plane_wear();
        let pressures = self.ssd.ftl().plane_pressures();
        let mut queued_on = vec![0u64; cfg.total_dies()];
        for job in &self.jobs {
            if let Job::Regroup(job) = job {
                queued_on[job.target_die] += 1;
            }
        }
        let mut queued = 0usize;
        for set in &picks {
            let key = set.key();
            if self.jobs.iter().any(|j| matches!(j, Job::Regroup(j) if j.set_key == key)) {
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
            let gather = gather_group(key);
            let gather_index = self.group_index_by_name(&gather);
            // A replan after a partial pass must target where the gather
            // group already sits, not today's least-worn die.
            let target_die = self
                .group_base_die(&gather)
                .unwrap_or_else(|| least_worn_die(cfg, &wear, pressures, &queued_on));
            let mut set_jobs = Vec::with_capacity(set.ids.len());
            for &id in &set.ids {
                let rec = &self.operands[id];
                if Some(rec.group_index) == gather_index {
                    continue; // already gathered (a retired sibling re-armed the set)
                }
                set_jobs.push(RegroupJob {
                    operand: id,
                    expected_generation: rec.generation,
                    target_die,
                    set_key: key,
                    inverted,
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
            if queued > 0 && queued + set_jobs.len() > MAX_JOBS_PER_PASS {
                break;
            }
            // Acting on the observations consumes them: regathering this
            // set later (e.g. after an overlapping hot set steals a
            // member) requires MIN_COFUSE *fresh* co-queries, so
            // sustained conflicts migrate at most once per MIN_COFUSE
            // queries instead of on every pass.
            self.session.affinity().consume(&set.ids);
            queued_on[target_die] += set_jobs.len() as u64;
            queued += set_jobs.len();
            self.jobs.extend(set_jobs.into_iter().map(Job::Regroup));
            if queued >= MAX_JOBS_PER_PASS {
                break;
            }
        }
        queued
    }

    /// Plans regroups ([`schedule_maintenance`](Self::schedule_maintenance))
    /// and scrubs ([`schedule_scrub`](Self::schedule_scrub)), then runs
    /// **every** queued job immediately, with no critical-path budget —
    /// the foreground pass for tests, tools and explicit reorganization
    /// windows. Background operation queues jobs instead and lets the
    /// next serving pass fill them into idle-die slack.
    ///
    /// # Errors
    ///
    /// Propagates job failures (the failing job is consumed; every other
    /// job stays queued).
    pub fn run_maintenance(&mut self) -> Result<MaintenanceStats, FcError> {
        self.schedule_maintenance();
        self.schedule_scrub();
        let mut queues = DieQueues::for_config(self.ssd.config());
        match self.execute_jobs(&mut queues, f64::INFINITY) {
            (_, Some(e)) => Err(e),
            (stats, None) => Ok(stats),
        }
    }

    /// Runs queued jobs, oldest first, into `queues`' idle slack: a job
    /// runs only when its modeled chip time keeps every die it touches
    /// within `budget_us` ([`DieQueues::try_fill`]). A job that does not
    /// fit is skipped over and stays queued, in order, so one oversized
    /// job never wedges the work behind it. A job left with nothing to do
    /// books no die time: a regroup job whose operand's placement
    /// generation moved is retired and logged (once the set is
    /// re-observed hot, a later planning pass finishes it), and a refresh
    /// of an unmapped page is dropped.
    ///
    /// The pass stops at the first failing job and returns its error
    /// beside the pass's stats, which count it in `jobs_failed` (and the
    /// device's lifetime count). That job is consumed; the skipped-over
    /// jobs and the untouched rest stay queued, in order.
    pub(crate) fn execute_jobs(
        &mut self,
        queues: &mut DieQueues,
        budget_us: f64,
    ) -> (MaintenanceStats, Option<FcError>) {
        let mut stats = MaintenanceStats { budget_us, ..MaintenanceStats::default() };
        let mut skipped: VecDeque<Job> = VecDeque::new();
        let mut failure = None;
        while let Some(job) = self.jobs.pop_front() {
            let cfg = self.ssd.config();
            let work = match &job {
                Job::Regroup(regroup) => {
                    let found = self.operand_generation(regroup.operand);
                    if found != regroup.expected_generation {
                        stats.jobs_retired += 1;
                        self.jobs_retired_total += 1;
                        let name = self.operands.get(regroup.operand).map(|r| r.name.clone());
                        self.retired_jobs.push_back(RetiredJob {
                            name: name.unwrap_or_default(),
                            operand: regroup.operand,
                            expected_generation: regroup.expected_generation,
                            found_generation: found,
                        });
                        if self.retired_jobs.len() > RETIRED_LOG_CAPACITY {
                            self.retired_jobs.pop_front();
                        }
                        continue;
                    }
                    let planes = self.operands[regroup.operand].planes.iter();
                    let sources = planes.map(|p| p.die.flat(cfg));
                    page_moves(sources, regroup.target_die, cfg.tr_us, cfg.tesp_us)
                }
                Job::Scrub { lpn } => {
                    let Some(ppa) = self.ssd.translate(*lpn) else { continue };
                    let target = self.refresh_plane(*lpn).0 / cfg.planes_per_die;
                    page_moves([ppa.plane.die.flat(cfg)], target, cfg.tr_us, cfg.tprog_slc_us)
                }
            };
            if !queues.try_fill(&work, budget_us) {
                skipped.push_back(job);
                continue;
            }
            let ran = match &job {
                Job::Regroup(regroup) => {
                    self.migrate_operand_id(regroup.operand, regroup.hints()).map(|copybacks| {
                        stats.jobs_executed += 1;
                        stats.pages_moved += self.operands[regroup.operand].planes.len() as u64;
                        stats.copybacks += copybacks;
                    })
                }
                Job::Scrub { lpn } => self
                    .refresh_page(*lpn)
                    .map(|refreshed| stats.pages_scrubbed += u64::from(refreshed)),
            };
            if let Err(e) = ran {
                failure = Some(e);
                break;
            }
            stats.fill_time_us += work.iter().map(|&(_, us)| us).sum::<f64>();
        }
        stats.jobs_deferred = skipped.iter().filter(|job| matches!(job, Job::Regroup(_))).count();
        stats.scrubs_deferred = skipped.len() - stats.jobs_deferred;
        stats.jobs_failed = usize::from(failure.is_some());
        self.jobs_failed_total += stats.jobs_failed as u64;
        // The failing job is consumed; the skipped-over jobs go back in
        // front of the untouched rest.
        skipped.append(&mut self.jobs);
        self.jobs = skipped;
        stats.critical_path_us = queues.busiest_us();
        (stats, failure)
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

    /// Plans regroups ([`Self::schedule_maintenance`]) and scrubs
    /// ([`Self::schedule_scrub`]), then runs **every** queued job
    /// immediately, with no critical-path budget — the foreground pass
    /// for tests, tools and explicit reorganization windows. Background
    /// operation queues jobs instead and lets the next serving pass
    /// ([`Self::drain`] or a sync read) fill them into idle-die slack.
    /// Runs under the exclusive device lock.
    ///
    /// # Errors
    ///
    /// Propagates job failures (the failing job is consumed; every other
    /// job stays queued).
    pub fn run_maintenance(&self) -> Result<MaintenanceStats, FcError> {
        self.core_write().run_maintenance()
    }

    /// Background jobs queued and not yet run: regroup jobs and scrub
    /// refreshes.
    pub fn pending_jobs(&self) -> usize {
        self.core().jobs.len()
    }

    /// The bounded log of retired (generation-mismatched) regroup jobs,
    /// oldest first. Past 64 entries a retirement drops the oldest one;
    /// [`Self::jobs_retired_total`] still counts them all.
    pub fn retired_jobs(&self) -> Vec<RetiredJob> {
        self.core().retired_jobs.iter().cloned().collect()
    }

    /// Total regroup jobs ever retired on a generation mismatch.
    pub fn jobs_retired_total(&self) -> u64 {
        self.core().jobs_retired_total
    }

    /// Total background jobs that ever failed, in serving passes and in
    /// [`Self::run_maintenance`] alike.
    pub fn jobs_failed_total(&self) -> u64 {
        self.core().jobs_failed_total
    }
}

/// The die with the least summed P/E wear — the §10 gathering target
/// that doubles as wear levelling. Ties break first on the gather jobs
/// already aimed at the die's *channel* (a gathered set's future senses
/// all stream out over one bus, so back-to-back hot sets spread across
/// channels), then on block pressure plus the jobs aimed at the die
/// itself (`queued_on`) — distinct hot sets planned in one pass spread
/// out instead of piling onto the snapshot's least-worn die. `wear` and
/// `pressures` are per flat plane.
fn least_worn_die(cfg: &SsdConfig, wear: &[u64], pressures: &[u32], queued_on: &[u64]) -> usize {
    let ppd = cfg.planes_per_die;
    let mut chan_queued = vec![0u64; cfg.channels];
    for (d, &n) in queued_on.iter().enumerate() {
        chan_queued[d / cfg.dies_per_channel] += n;
    }
    (0..cfg.total_dies())
        .min_by_key(|&d| {
            let planes = d * ppd..(d + 1) * ppd;
            let die_wear: u64 = wear[planes.clone()].iter().sum();
            let die_pressure: u64 = pressures[planes].iter().map(|&p| u64::from(p)).sum();
            (die_wear, chan_queued[d / cfg.dies_per_channel], die_pressure + queued_on[d], d)
        })
        .expect("an SSD has at least one die")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryBatch;
    use crate::device::FlashCosmosDevice;
    use crate::expr::Expr;
    use fc_bits::BitVec;
    use fc_nand::error::NandError;
    use fc_ssd::device::DeviceError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn channel_first_order_covers_every_preset_geometry() {
        let grid = |channels, dies_per_channel| SsdConfig {
            channels,
            dies_per_channel,
            ..SsdConfig::tiny_test()
        };
        // The presets plus the two fcbench geometries.
        for cfg in [
            SsdConfig::tiny_test(),
            SsdConfig::fig7_example(),
            SsdConfig::paper_table1(),
            grid(8, 4),
            grid(4, 2),
        ] {
            let dies = cfg.total_dies();
            let order: Vec<usize> = (0..dies).map(|j| channel_first_die(&cfg, j)).collect();
            let mut visited = vec![false; dies];
            for (step, &die) in order.iter().enumerate() {
                assert!(!visited[die], "die {die} visited twice");
                visited[die] = true;
                assert_eq!(channel_first_step(&cfg, die), step, "step and die are inverses");
                assert_eq!(channel_first_die(&cfg, step + dies), die, "steps wrap");
            }
            for round in order.chunks(cfg.channels) {
                let mut channels: Vec<usize> =
                    round.iter().map(|d| d / cfg.dies_per_channel).collect();
                channels.sort_unstable();
                assert_eq!(channels, (0..cfg.channels).collect::<Vec<_>>(), "one die per channel");
            }
        }
    }

    #[test]
    fn spread_rule_rotates_dies_on_ties() {
        // 4 dies, each on its own channel, 2 planes per die.
        let cfg = SsdConfig { channels: 4, dies_per_channel: 1, ..SsdConfig::tiny_test() };
        let pressures = vec![0; 8];
        let mut cursor = 0;
        let first = spread_plane(&cfg, &pressures, None, &mut cursor);
        let second = spread_plane(&cfg, &pressures, None, &mut cursor);
        assert_ne!(first / 2, second / 2, "pressure ties must rotate dies");
        // A pin restricts to the die's planes.
        assert_eq!(spread_plane(&cfg, &pressures, Some(3), &mut cursor) / 2, 3);
    }

    #[test]
    fn spread_rule_hops_channels_before_dies() {
        // 4 dies on 2 channels (dies 0,1 on channel 0; dies 2,3 on
        // channel 1): consecutive tie placements alternate channel buses
        // before reusing one, and the full tie rotation still visits
        // every die once.
        let cfg = SsdConfig::tiny_test();
        let mut cursor = 0;
        let dies: Vec<usize> =
            (0..4).map(|_| spread_plane(&cfg, &[0; 8], None, &mut cursor) / 2).collect();
        assert_eq!(dies, vec![0, 2, 1, 3], "channel-first order: ch0, ch1, ch0, ch1");
        let channels: Vec<usize> = dies.iter().map(|d| d / cfg.dies_per_channel).collect();
        assert_eq!(channels, vec![0, 1, 0, 1]);
    }

    #[test]
    fn gather_target_spreads_queued_sets_across_channels() {
        // Even wear everywhere; 3 gather jobs already aimed at die 0
        // (channel 0). The channel-aware tie-break sends the next set to
        // channel 1 — not merely a different die on the loaded bus.
        let cfg = SsdConfig::tiny_test(); // 4 dies on 2 channels
        let target = least_worn_die(&cfg, &[0; 8], &[0; 8], &[3, 0, 0, 0]);
        assert_eq!(target / cfg.dies_per_channel, 1, "queued channel 0 load repels the gather");
        // Wear outranks every tie-break: with channel 1 worn, the gather
        // stays on the loaded channel 0, on its unloaded die.
        let worn = [0, 0, 0, 0, 40, 40, 9000, 9000];
        assert_eq!(least_worn_die(&cfg, &worn, &[0; 8], &[3, 0, 0, 0]), 1);
    }

    #[test]
    fn affinity_tracker_records_and_bounds() {
        let mut t = AffinityTracker::with_capacity(2);
        t.record(&[1, 2], 4, 1, 1);
        t.record(&[1, 2], 4, 1, 2);
        t.record(&[3, 4], 2, 1, 1);
        let e = t.entry(&[1, 2]).unwrap();
        assert_eq!(e.fused, 3);
        assert_eq!(e.senses, 4);
        // Single-operand sets carry no signal.
        t.record(&[7], 1, 1, 1);
        assert_eq!(t.len(), 2);
        // Capacity bound: the coldest set ([3,4], fused 1) is dropped.
        t.record(&[5, 6], 8, 2, 1);
        assert_eq!(t.len(), 2);
        assert!(t.entry(&[3, 4]).is_none());
        assert!(t.entry(&[1, 2]).is_some());
        // Candidates rank hottest first, once hot enough to qualify.
        assert_eq!(t.regroup_candidates().len(), 1, "[5,6] is fused once");
        t.record(&[5, 6], 8, 2, 1);
        let c = t.regroup_candidates();
        assert_eq!(c[0].ids, vec![1, 2]);
        assert_eq!(c[1].stats.senses_per_stripe(), 4.0, "8 senses over 2 stripes");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn affinity_eviction_breaks_ties_on_ids() {
        // Every fresh tracker hashes with its own seed, so a hash-order
        // tie-break would pick different victims across these trackers.
        for _ in 0..16 {
            let mut t = AffinityTracker::with_capacity(4);
            for ids in [[7, 8], [3, 9], [3, 4], [5, 6]] {
                t.record(&ids, 1, 1, 1);
            }
            t.record(&[1, 2], 1, 1, 1);
            assert!(t.entry(&[3, 4]).is_none(), "smallest tied set is evicted");
            assert_eq!(t.len(), 4);
            for ids in [[7, 8], [3, 9], [5, 6], [1, 2]] {
                assert!(t.entry(&ids).is_some(), "{ids:?} survives");
            }
        }
    }

    /// The tracker as it ran before its heat index: eviction by a full
    /// scan for the `(fused, ids)` minimum, candidates by clone, sort and
    /// the regrouping rule's filter.
    struct ScanTracker {
        entries: HashMap<Vec<OperandId>, AffinityEntry>,
        capacity: usize,
    }

    impl ScanTracker {
        fn record(&mut self, ids: &[OperandId], senses: u64, pages: u64, weight: u64) {
            if ids.len() < 2 {
                return;
            }
            if let Some(e) = self.entries.get_mut(ids) {
                e.fused += weight;
                e.senses = senses;
                e.pages = pages;
                return;
            }
            if self.entries.len() >= self.capacity {
                let coldest = self
                    .entries
                    .iter()
                    .min_by_key(|&(ids, e)| (e.fused, ids))
                    .map(|(k, _)| k.clone())
                    .expect("a full tracker has a coldest set");
                self.entries.remove(&coldest);
            }
            self.entries.insert(ids.to_vec(), AffinityEntry { fused: weight, senses, pages });
        }

        fn consume(&mut self, ids: &[OperandId]) {
            if let Some(e) = self.entries.get_mut(ids) {
                e.fused = 0;
            }
        }

        fn candidates(&self) -> Vec<HotSet> {
            let mut out: Vec<HotSet> = self
                .entries
                .iter()
                .map(|(ids, e)| HotSet { ids: ids.clone(), stats: *e })
                .collect();
            out.sort_by(|a, b| (b.stats.fused, &a.ids).cmp(&(a.stats.fused, &b.ids)));
            out.retain(|c| {
                c.stats.fused >= MIN_COFUSE && c.stats.senses_per_stripe() >= SCATTER_RATIO
            });
            out
        }
    }

    #[test]
    fn heat_index_matches_a_full_scan() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            // 20 distinct sets over 8 operands; the singletons among them
            // must be ignored.
            let mut pool: Vec<Vec<OperandId>> = Vec::new();
            while pool.len() < 20 {
                let mut ids: Vec<OperandId> =
                    (0..rng.gen_range(1..=3usize)).map(|_| rng.gen_range(0..8usize)).collect();
                ids.sort_unstable();
                ids.dedup();
                if !pool.contains(&ids) {
                    pool.push(ids);
                }
            }
            let mut t = AffinityTracker::with_capacity(8);
            let mut scan = ScanTracker { entries: HashMap::new(), capacity: 8 };
            for step in 0..2_000 {
                let ids = &pool[rng.gen_range(0..pool.len())];
                match rng.gen_range(0..100u32) {
                    0..=79 => {
                        let senses = rng.gen_range(1..=8u64);
                        let pages = rng.gen_range(1..=2u64);
                        let weight = rng.gen_range(1..=3u64);
                        t.record(ids, senses, pages, weight);
                        scan.record(ids, senses, pages, weight);
                    }
                    80..=98 => {
                        t.consume(ids);
                        scan.consume(ids);
                    }
                    _ => {
                        t.clear();
                        scan.entries.clear();
                    }
                }
                assert_eq!(t.entries, scan.entries, "seed {seed} step {step}: tracked sets");
                let ranked = t.regroup_candidates();
                assert_eq!(ranked, scan.candidates(), "seed {seed} step {step}: ranking");
            }
        }
    }

    /// A starved budget defers jobs instead of blowing the critical path;
    /// a later pass under the default budget finishes the queue.
    #[test]
    fn jobs_that_miss_the_budget_defer_to_the_next_pass() {
        let mut rng = StdRng::seed_from_u64(0xB4D);
        let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let bits = dev.config().page_bits();
        let ids: Vec<OperandId> = (0..4)
            .map(|i| {
                let v = BitVec::random(bits, &mut rng);
                let hints = StoreHints::and_group(&format!("solo{i}"));
                dev.fc_write(&format!("op{i}"), &v, hints).unwrap().id
            })
            .collect();
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(ids.iter().copied()));
        dev.submit(&batch).unwrap();
        dev.submit(&batch).unwrap();
        assert_eq!(dev.schedule_maintenance(), 4);
        // A budget too small for even one page move (tR + tESP ≈ 425 µs).
        let mut queues = DieQueues::for_config(dev.config());
        let (starved, failure) = dev.core_write().execute_jobs(&mut queues, 100.0);
        assert!(failure.is_none());
        assert_eq!(starved.jobs_executed, 0, "nothing fits 100 µs");
        assert_eq!(starved.jobs_deferred, 4);
        assert_eq!(dev.pending_jobs(), 4);
        // An idle drain under the default budget finishes the queue.
        let drained = dev.drain().unwrap();
        assert_eq!(drained.batches, 0, "idle drain: maintenance only");
        assert_eq!(drained.maintenance.jobs_executed, 4);
        assert!(drained.maintenance.critical_path_us <= drained.maintenance.budget_us);
        assert_eq!(dev.pending_jobs(), 0);
        // The migrations kept the cached result; a cold read senses once.
        let replayed = dev.submit(&batch).unwrap();
        assert_eq!((replayed.stats.senses, replayed.stats.cached_units), (0, 1));
        dev.clear_result_cache();
        let gathered = dev.submit(&batch).unwrap();
        assert_eq!(gathered.results, replayed.results);
        assert_eq!(gathered.stats.senses, 1);
    }

    /// A failing job consumes only itself: the refresh skipped over before
    /// it and the refresh queued behind it both stay queued, in order.
    #[test]
    fn a_failing_job_keeps_every_other_job_queued() {
        let mut rng = StdRng::seed_from_u64(0xFA1);
        let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let cfg = dev.config().clone();
        let chunk_bits = dev.core().ssd.logical_page_bits(true);
        dev.store_durable("rec", &BitVec::random(chunk_bits + 1, &mut rng)).unwrap();
        let mut core = dev.core_write();
        let record = core.recovery.durables["rec"].lpns.clone();
        assert_eq!(record.len(), 2, "a 2-page record");
        let full_die = core.ssd.translate(record[0]).unwrap().plane.die.flat(&cfg);
        // An MLC pair on another die: no regroup job can migrate it.
        let ml_die = (full_die + 1) % cfg.total_dies();
        let (a, b) = (BitVec::random(64, &mut rng), BitVec::random(64, &mut rng));
        let hints = StoreHints::and_group("ml").with_die(ml_die);
        let ml = core.fc_write_ml(&["m0", "m1"], &[&a, &b], hints).unwrap()[0].id;
        let regroup = RegroupJob {
            operand: ml,
            expected_generation: core.operand_generation(ml),
            target_die: ml_die,
            set_key: 0,
            inverted: false,
        };
        core.jobs.extend([
            Job::Scrub { lpn: record[0] },
            Job::Regroup(regroup),
            Job::Scrub { lpn: record[1] },
        ]);
        // The first refresh's source die has no slack left: it is skipped.
        let mut queues = DieQueues::for_config(&cfg);
        queues.push(full_die, SLACK_FLOOR_US);
        let (stats, failure) = core.execute_jobs(&mut queues, SLACK_FLOOR_US);
        let err = failure.unwrap();
        assert!(
            matches!(err, FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(_)))),
            "{err}"
        );
        assert_eq!((stats.jobs_failed, core.jobs_failed_total), (1, 1));
        assert_eq!(core.jobs, [Job::Scrub { lpn: record[0] }, Job::Scrub { lpn: record[1] }]);
    }

    /// A failing background job never fails the serving pass that runs
    /// it: a sync read, a sync submit and a drained async batch each
    /// return their results, count the failure and consume the job.
    #[test]
    fn a_failing_job_never_fails_a_serving_pass() {
        let mut rng = StdRng::seed_from_u64(0xFA2);
        let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let bits = dev.config().page_bits();
        let (a, b) = (BitVec::random(bits, &mut rng), BitVec::random(bits, &mut rng));
        let ha = dev.fc_write("a", &a, StoreHints::and_group("g")).unwrap();
        let hb = dev.fc_write("b", &b, StoreHints::and_group("g")).unwrap();
        let (m0, m1) = (BitVec::random(64, &mut rng), BitVec::random(64, &mut rng));
        let hints = StoreHints::and_group("ml");
        let ml = dev.fc_write_ml(&["m0", "m1"], &[&m0, &m1], hints).unwrap()[0].id;
        // A regroup of an MLC operand always fails.
        let queue_failing_job = || {
            let mut core = dev.core_write();
            let expected_generation = core.operand_generation(ml);
            let regroup = RegroupJob {
                operand: ml,
                expected_generation,
                target_die: 0,
                set_key: 0,
                inverted: false,
            };
            core.jobs.push_back(Job::Regroup(regroup));
        };
        let expr = ha & hb;
        let want = a.and(&b);
        let mut batch = QueryBatch::new();
        batch.push(expr.clone());

        queue_failing_job();
        assert_eq!(dev.fc_read(&expr).unwrap().0, want);
        assert_eq!((dev.jobs_failed_total(), dev.pending_jobs()), (1, 0));

        queue_failing_job();
        assert_eq!(dev.submit(&batch).unwrap().results, std::slice::from_ref(&want));
        assert_eq!((dev.jobs_failed_total(), dev.pending_jobs()), (2, 0));

        queue_failing_job();
        let ticket = dev.submit_async(&batch).unwrap();
        assert_eq!(dev.drain().unwrap().maintenance.jobs_failed, 1);
        assert_eq!(dev.wait(ticket).unwrap().results, [want]);
        assert_eq!((dev.jobs_failed_total(), dev.pending_jobs()), (3, 0));
    }

    #[test]
    fn hot_set_regrouper_filters_on_heat_and_scatter() {
        let mut t = AffinityTracker::default();
        // (ids, fused, senses, pages)
        let sets = [
            ([6, 7], 2, 3, 2), // exactly at both thresholds → selected
            ([4, 5], 5, 1, 1), // already co-located
            ([2, 3], 1, 4, 1), // too cold
            ([0, 1], 5, 4, 1), // hot and scattered → selected
        ];
        for (ids, fused, senses, pages) in sets {
            t.record(&ids, senses, pages, fused);
        }
        let picked: Vec<Vec<usize>> = t.regroup_candidates().into_iter().map(|c| c.ids).collect();
        assert_eq!(picked, [vec![0, 1], vec![6, 7]], "hottest first");
    }
}
