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
//! * the result cache knows which units are **re-queried** (hit counts);
//! * every serving pass — a [`drain`](crate::device::FlashCosmosDevice::drain)
//!   or a sync read — knows which dies sit **idle** while the busiest die
//!   bounds the critical path.
//!
//! This module turns those observations into background work, split into
//! three stages:
//!
//! 1. **Affinity tracking** — [`AffinityTracker`] (fed by every batch
//!    compile) counts, per co-fused operand set, how often the set was
//!    queried, how often the cache answered it, and what it last cost in
//!    senses.
//! 2. **Regroup planning** — a fixed rule selects hot, scattered sets
//!    (fused at least [`MaintenanceConfig::min_cofuse`] times and still
//!    costing at least [`MaintenanceConfig::scatter_ratio`] senses per
//!    stripe); the planner turns each into [`RegroupJob`]s that
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
//! // ...and the warm query drops to a single sense.
//! let warm = dev.submit(&batch).unwrap();
//! assert_eq!(warm.results, cold.results);
//! assert!(warm.stats.senses < cold.stats.senses);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use fc_ssd::SsdConfig;

use crate::device::StoreHints;
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
///
/// A heat index keeps every tracked set bucketed by its fuse count, ids
/// ascending inside a bucket. The coldest set — fewest fuses, smallest
/// ids on ties — is the first set of the first bucket, and walking the
/// buckets hottest first ranks [`AffinityTracker::candidates`], so
/// eviction finds its victim without a scan and ranking needs no sort.
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
        // Hot path: an already-tracked set updates in place and moves its
        // own ids to its new heat bucket, never copying them (this runs
        // once per compiled unit on every submit).
        if let Some(entry) = self.entries.get_mut(ids) {
            let from = entry.fused;
            entry.fused += weight;
            entry.cache_hits += if cached { weight } else { 0 };
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
            let from = std::mem::take(&mut entry.fused);
            entry.cache_hits = 0;
            reheat(&mut self.heat, ids, from, 0);
        }
    }

    /// All tracked sets as regrouping candidates, hottest first (most
    /// fuses first, then ascending ids).
    pub fn candidates(&self) -> Vec<HotSet> {
        self.heat
            .values()
            .rev()
            .flatten()
            .map(|ids| HotSet { ids: ids.clone(), stats: self.entries[ids] })
            .collect()
    }

    /// Forgets everything (e.g. after a workload change).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.heat.clear();
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

/// The regrouping rule: indices into `candidates` worth gathering, in
/// candidate order. A set qualifies when it was fused at least
/// [`MaintenanceConfig::min_cofuse`] times *and* its unit still costs at
/// least [`MaintenanceConfig::scatter_ratio`] senses per stripe (a
/// co-located set costs exactly one).
fn select_regroups(candidates: &[HotSet], cfg: &MaintenanceConfig) -> Vec<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.stats.fused >= cfg.min_cofuse && c.senses_per_stripe() >= cfg.scatter_ratio
        })
        .map(|(i, _)| i)
        .collect()
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
        let candidates = self.session.affinity().candidates();
        let picks = select_regroups(&candidates, &self.maintenance_cfg);
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
            let target_die = self
                .group_base_die(&gather)
                .unwrap_or_else(|| least_worn_die(cfg, &wear, pressures, &queued_on));
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
            let mut t = AffinityTracker::with_capacity(4);
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

    /// The tracker as it ran before its heat index: eviction by a full
    /// scan for the `(fused, ids)` minimum, candidates by clone and sort.
    struct ScanTracker {
        entries: HashMap<Vec<OperandId>, AffinityEntry>,
        capacity: usize,
    }

    impl ScanTracker {
        fn record(&mut self, ids: &[OperandId], senses: u64, pages: u64, weight: u64, hit: bool) {
            if ids.len() < 2 {
                return;
            }
            let cache_hits = if hit { weight } else { 0 };
            if let Some(e) = self.entries.get_mut(ids) {
                e.fused += weight;
                e.cache_hits += cache_hits;
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
            self.entries
                .insert(ids.to_vec(), AffinityEntry { fused: weight, cache_hits, senses, pages });
        }

        fn consume(&mut self, ids: &[OperandId]) {
            if let Some(e) = self.entries.get_mut(ids) {
                e.fused = 0;
                e.cache_hits = 0;
            }
        }

        fn candidates(&self) -> Vec<HotSet> {
            let mut out: Vec<HotSet> = self
                .entries
                .iter()
                .map(|(ids, e)| HotSet { ids: ids.clone(), stats: *e })
                .collect();
            out.sort_by(|a, b| (b.stats.fused, &a.ids).cmp(&(a.stats.fused, &b.ids)));
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
                        let hit = rng.gen_bool(0.3);
                        t.record(ids, senses, pages, weight, hit);
                        scan.record(ids, senses, pages, weight, hit);
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
                assert_eq!(t.candidates(), scan.candidates(), "seed {seed} step {step}: ranking");
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
        assert_eq!(select_regroups(&candidates, &cfg), vec![0, 3]);
    }
}
