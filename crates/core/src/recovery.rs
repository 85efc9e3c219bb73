//! Reliability and graceful degradation: the error-recovery tiers that
//! sit between the physics model's bit errors and the query API.
//!
//! The NAND model produces real failure modes — retention drift, read
//! disturb, P/E wear, manufacturing-grade spread, stuck columns — and the
//! recovery machinery escalates through tiers until the data is back or
//! provably lost:
//!
//! 1. **Read-retry** (tier 1, inside [`fc_ssd::device::SsdDevice::read`]):
//!    on an ECC decode failure the device re-senses at recalibrated Vref
//!    offsets from [`fc_nand::sense::retry_ladder`].
//! 2. **Cross-die parity rebuild** (tier 2, this module): with
//!    [`FlashCosmosDevice::enable_parity`] every stored page joins a
//!    RAIN-style XOR stripe whose members live on pairwise-distinct dies
//!    and whose parity page lives on yet another die — so a single stuck
//!    block or even a whole-die failure corrupts at most one page per
//!    stripe, and that page is rebuilt from its peers and rewritten
//!    out-of-place.
//! 3. **Retention scrubbing** (background, this module): a walk over the
//!    mapped ECC pages in LPN order picks those whose *modeled* RBER
//!    (worst-grade, from the block's wear/retention/disturb state)
//!    reaches 2 % of the ECC correction margin, at most 64 per pass,
//!    most-at-risk first, and queues a refresh of each on the device's
//!    one background job queue (see [`crate::maintenance`]). The
//!    refreshes run before the pages become uncorrectable, in the
//!    idle-die slack of every serving pass (a
//!    [`drain`](FlashCosmosDevice::drain) or a sync read), beside the
//!    regroup jobs and under the same latency budget.
//! 4. **Fault injection** ([`FaultPlan`] / [`FlashCosmosDevice::inject_faults`]):
//!    a typed, deterministic harness for retention aging, read disturb,
//!    P/E cycling, stuck blocks and die failures, replacing raw
//!    [`ssd_mut`](FlashCosmosDevice::ssd_mut) pokes. Itemized faults bump
//!    only the touched operands' generations instead of wiping the whole
//!    result cache.
//!
//! Flash-Cosmos operand pages are raw (ESP-programmed, no ECC, no
//! randomization), so a stuck column corrupts them *silently* on read.
//! Stuck-block and die faults therefore rebuild every mapped page in the
//! faulted region proactively at injection time; pages no stripe can
//! recover are recorded as lost, and queries touching them fail with
//! [`FcError::QueryFailed`] while the rest of their batch completes.
//!
//! ```
//! use fc_bits::BitVec;
//! use flash_cosmos::device::{FlashCosmosDevice, StoreHints};
//! use flash_cosmos::recovery::FaultPlan;
//! use flash_cosmos::Expr;
//! use fc_ssd::SsdConfig;
//!
//! let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
//! dev.enable_parity();
//! let data = BitVec::from_fn(256, |i| i % 3 == 0);
//! let h = dev.fc_write("a", &data, StoreHints::and_group("g")).unwrap();
//! // Corrupt the block holding the operand: its raw page would read back
//! // silently wrong, so injection rebuilds it from parity on the spot.
//! let report = dev.inject_faults(&FaultPlan::new().stuck_block("a", 0)).unwrap();
//! assert_eq!(report.rebuilt_pages, 1);
//! let (result, _) = dev.fc_read(&Expr::var(h.id)).unwrap();
//! assert_eq!(result, data);
//! ```

use std::collections::{HashMap, HashSet};

use fc_bits::BitVec;
use fc_nand::geometry::BlockAddr;
use fc_nand::rber::BlockGrade;
use fc_nand::stress::StressState;
use fc_ssd::device::{DeviceError, WriteOptions};
use fc_ssd::ftl::{GroupKey, PageMeta, PlacementHint};
use fc_ssd::parity::{rebuild_member, xor_fold, StripeMap};
use fc_ssd::topology::{DieId, Ppa};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::{DeviceCore, FcError, FlashCosmosDevice};
use crate::expr::OperandId;
use crate::maintenance::Job;

/// FTL group-index namespace for parity pages: one group per plane,
/// `PARITY_GROUP_BASE + plane`, so a group's id encodes the plane the
/// FTL keeps it on. Regular placement groups are numbered sequentially
/// from zero, so the high-bit bases can never collide with them.
const PARITY_GROUP_BASE: u64 = 1 << 40;
/// FTL group-index namespace for rebuild rewrites (one group per plane,
/// encoded like [`PARITY_GROUP_BASE`]).
const REBUILD_GROUP_BASE: u64 = 1 << 41;

/// Device-wide reliability snapshot: the SSD's read-health counters plus
/// this module's recovery counters, so one struct answers "which tiers
/// fired and how often".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceHealth {
    /// Logical page reads served by the SSD.
    pub reads: u64,
    /// Bits the ECC decoder corrected (nominal and retry reads).
    pub bits_corrected: u64,
    /// Re-senses issued at shifted Vref levels (tier 1).
    pub retry_reads: u64,
    /// Reads recovered by the retry ladder (tier 1 successes).
    pub retry_recoveries: u64,
    /// Reads that exhausted the retry ladder (tier 1 failures — these
    /// escalate to parity rebuild where a stripe exists).
    pub uncorrectable_reads: u64,
    /// Pages rebuilt from cross-die parity (tier 2 successes).
    pub parity_rebuilds: u64,
    /// Pages refreshed by retention scrubbing.
    pub pages_scrubbed: u64,
    /// Pages rewritten out-of-place by recovery (rebuilds + refreshes
    /// that relocated data).
    pub relocations: u64,
    /// Pages that stayed unreadable after every tier — permanent data
    /// loss, surfaced per query as [`FcError::QueryFailed`].
    pub uncorrectable_after_recovery: u64,
}

/// The scrubber queues a page when its predicted worst-grade RBER
/// reaches this fraction of the ECC correction margin (t/n): 0.02
/// separates heavily aged pages (percent-level fractions) from fresh ones
/// (sub-percent) under the calibrated physics model.
const SCRUB_MARGIN_FRACTION: f64 = 0.02;
/// Upper bound on pages one scrub scheduling pass queues.
const SCRUB_MAX_PER_PASS: usize = 64;

/// One mapped ECC page the scrub scheduler is considering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScrubCandidate {
    /// The logical page.
    pub lpn: u64,
    /// Flat die index the page currently lives on.
    pub die: usize,
    /// Modeled worst-grade RBER under the block's current stress state.
    pub predicted_rber: f64,
    /// The ECC correction margin (t/n) the prediction is compared to.
    pub margin: f64,
}

/// The scrub rule: indices of `candidates` to queue, in scrub order —
/// pages whose predicted RBER is at least [`SCRUB_MARGIN_FRACTION`] of
/// the ECC margin, most-at-risk first (ties keep LPN order), capped at
/// `max_per_pass`.
fn select_scrubs(candidates: &[ScrubCandidate], max_per_pass: usize) -> Vec<usize> {
    let mut picks: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].predicted_rber >= SCRUB_MARGIN_FRACTION * candidates[i].margin)
        .collect();
    picks.sort_by(|&a, &b| candidates[b].predicted_rber.total_cmp(&candidates[a].predicted_rber));
    picks.truncate(max_per_pass);
    picks
}

/// A named durable record stored through the conventional (SLC +
/// randomized + ECC) path.
#[derive(Debug, Clone)]
pub(crate) struct DurableRecord {
    pub(crate) lpns: Vec<u64>,
    pub(crate) bits: usize,
}

/// A deterministic, typed fault-injection plan: build one with the
/// chained constructors, then apply it atomically with
/// [`FlashCosmosDevice::inject_faults`]. All names and die indices are
/// validated before anything mutates.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(crate) retention_months: Option<f64>,
    pub(crate) disturbs: Vec<(String, u64)>,
    pub(crate) ages: Vec<(String, u32)>,
    pub(crate) stuck_blocks: Vec<(String, usize)>,
    pub(crate) failed_dies: Vec<usize>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the device-wide retention age (months at 30 °C equivalent).
    /// Retention is chip-global, so applying it bumps the device epoch
    /// instead of itemized generations.
    #[must_use]
    pub fn retention(mut self, months: f64) -> Self {
        self.retention_months = Some(months);
        self
    }

    /// Adds read-disturb stress: `reads` extra senses on every distinct
    /// block holding pages of the named operand or durable record.
    #[must_use]
    pub fn disturb(mut self, name: &str, reads: u64) -> Self {
        self.disturbs.push((name.to_string(), reads));
        self
    }

    /// Adds P/E wear: `cycles` program/erase cycles on every distinct
    /// block holding pages of the named target (stored data is kept —
    /// this models a block that was heavily cycled before the data
    /// landed on it).
    ///
    /// **Wear stacks on shared blocks.** Each `age` entry cycles the
    /// *physical blocks* of its target, so when several plan entries
    /// resolve to the same block — two co-resident names (grouped
    /// operands share blocks stripe-by-stripe; striped durable records
    /// interleave into shared blocks), or the same name listed twice —
    /// that block receives the **sum** of all the entries' cycles, not
    /// the maximum. This is deliberate: the plan reads as a sequence of
    /// physical conditioning steps, and a block that hosted two heavily
    /// cycled tenants really did absorb both histories. Aging one name
    /// of a co-resident set therefore ages its neighbors' blocks too;
    /// budget the per-entry cycles for the whole set, or place targets
    /// in distinct groups when independent wear is wanted.
    #[must_use]
    pub fn age(mut self, name: &str, cycles: u32) -> Self {
        self.ages.push((name.to_string(), cycles));
        self
    }

    /// Marks the block holding stripe page `slot` of the named target as
    /// having stuck columns (a deterministic ~12.5%-density column mask
    /// seeded from the block address). Mapped pages in the block are
    /// rebuilt from parity at injection time; unrebuildable ones are
    /// recorded as lost.
    #[must_use]
    pub fn stuck_block(mut self, name: &str, slot: usize) -> Self {
        self.stuck_blocks.push((name.to_string(), slot));
        self
    }

    /// Fails an entire die (flat index): every block reads back zeros.
    /// Mapped pages on the die are rebuilt from parity at injection
    /// time; the die is excluded from future placement.
    #[must_use]
    pub fn fail_die(mut self, die: usize) -> Self {
        self.failed_dies.push(die);
        self
    }
}

/// What [`FlashCosmosDevice::inject_faults`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Operands whose generation was bumped (sorted, deduplicated).
    pub touched_operands: Vec<OperandId>,
    /// Pages rebuilt from parity during injection.
    pub rebuilt_pages: u64,
    /// Pages no recovery tier could save (now permanently lost).
    pub lost_pages: u64,
    /// Whether the device epoch was bumped (global retention change).
    pub epoch_bumped: bool,
}

/// Reliability state carried by [`FlashCosmosDevice`]: parity stripes,
/// the durable-record catalog, scrub bookkeeping and recovery counters.
#[derive(Default)]
pub(crate) struct RecoveryState {
    pub(crate) stripes: StripeMap,
    pub(crate) next_stripe_id: u64,
    pub(crate) parity_enabled: bool,
    pub(crate) durables: HashMap<String, DurableRecord>,
    /// Pages that stayed unreadable after every tier.
    pub(crate) lost_pages: HashSet<u64>,
    /// Dies failed via [`FaultPlan::fail_die`] — excluded from recovery
    /// placement.
    pub(crate) failed_dies: HashSet<usize>,
    /// Per-page stress fingerprint `(block PEC, retention bits)` at the
    /// last refresh — retention is chip-global and survives a refresh,
    /// so without this a hot page would re-queue forever.
    scrub_done: HashMap<u64, (u32, u64)>,
    pub(crate) parity_rebuilds: u64,
    pub(crate) pages_scrubbed: u64,
    pub(crate) relocations: u64,
    pub(crate) uncorrectable_after_recovery: u64,
}

impl std::fmt::Debug for RecoveryState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryState")
            .field("stripes", &self.stripes.len())
            .field("parity_enabled", &self.parity_enabled)
            .field("durables", &self.durables.len())
            .field("lost_pages", &self.lost_pages.len())
            .field("failed_dies", &self.failed_dies)
            .finish_non_exhaustive()
    }
}

impl DeviceCore {
    /// Pages that stayed unreadable after every recovery tier.
    pub(crate) fn lost_page_count(&self) -> usize {
        self.recovery.lost_pages.len()
    }

    /// Whether a query on this page would fail (used by the batch
    /// executor's per-query isolation pre-pass).
    pub(crate) fn is_lost_page(&self, lpn: u64) -> bool {
        self.recovery.lost_pages.contains(&lpn)
    }

    /// The device-wide reliability snapshot: SSD read-health counters
    /// merged with this module's recovery counters.
    pub(crate) fn health(&self) -> DeviceHealth {
        let h = self.ssd.health();
        DeviceHealth {
            reads: h.reads,
            bits_corrected: h.bits_corrected,
            retry_reads: h.retry_reads,
            retry_recoveries: h.retry_recoveries,
            uncorrectable_reads: h.uncorrectable,
            parity_rebuilds: self.recovery.parity_rebuilds,
            pages_scrubbed: self.recovery.pages_scrubbed,
            relocations: self.recovery.relocations,
            uncorrectable_after_recovery: self.recovery.uncorrectable_after_recovery,
        }
    }

    // ------------------------------------------------------------------
    // Parity stripes
    // ------------------------------------------------------------------

    /// Groups freshly written pages into die-disjoint XOR stripes and
    /// writes one parity page per stripe. No-op unless parity is
    /// enabled. Chunks greedily: a stripe closes when adding the next
    /// page would repeat a die or exceed `total_dies − 1` members, so a
    /// single-die fault can corrupt at most one member per stripe (the
    /// property rebuild correctness rests on).
    pub(crate) fn parity_protect_lpns(&mut self, lpns: &[u64]) -> Result<(), FcError> {
        if !self.recovery.parity_enabled || lpns.is_empty() {
            return Ok(());
        }
        let cap = self.ssd.config().total_dies().saturating_sub(1).max(1);
        let mut chunk: Vec<u64> = Vec::new();
        let mut chunk_dies: HashSet<usize> = HashSet::new();
        let mut chunks: Vec<(Vec<u64>, HashSet<usize>)> = Vec::new();
        for &lpn in lpns {
            let die = match self.ssd.translate(lpn) {
                Some(ppa) => ppa.plane.die.flat(self.ssd.config()),
                None => continue,
            };
            if chunk.len() >= cap || chunk_dies.contains(&die) {
                chunks.push((std::mem::take(&mut chunk), std::mem::take(&mut chunk_dies)));
            }
            chunk.push(lpn);
            chunk_dies.insert(die);
        }
        if !chunk.is_empty() {
            chunks.push((chunk, chunk_dies));
        }
        for (members, dies) in chunks {
            let mut payloads = Vec::with_capacity(members.len());
            for &m in &members {
                payloads.push(self.ssd.read(m)?);
            }
            let parity = xor_fold(payloads.iter());
            let conventional =
                self.ssd.page_meta(members[0]).expect("freshly written pages carry metadata").ecc;
            let plane = self.stripe_plane(&dies, None);
            let parity_lpn = self.parity_write(&parity, conventional, plane)?;
            let id = self.recovery.next_stripe_id;
            self.recovery.next_stripe_id += 1;
            self.recovery.stripes.insert(id, members, parity_lpn);
        }
        Ok(())
    }

    /// Removes the stripes protecting any of `lpns` and trims their
    /// parity pages (callers re-protect after rewriting).
    pub(crate) fn parity_unprotect_lpns(&mut self, lpns: &[u64]) {
        let mut ids: Vec<u64> = lpns
            .iter()
            .filter_map(|&l| self.recovery.stripes.stripe_of_member(l).map(|(id, _)| id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            if let Some(stripe) = self.recovery.stripes.remove(id) {
                self.ssd.trim(stripe.parity_lpn);
            }
        }
    }

    /// Writes one parity page on `plane` through the plane's shared
    /// parity group (so parity pages fill blocks instead of taking one
    /// block each).
    fn parity_write(
        &mut self,
        payload: &BitVec,
        conventional: bool,
        plane: usize,
    ) -> Result<u64, FcError> {
        let key = GroupKey::new(PARITY_GROUP_BASE + plane as u64, 0);
        let meta =
            if conventional { PageMeta::conventional() } else { PageMeta::flash_cosmos(false) };
        let lpn = self.alloc_lpn();
        self.ssd.write(
            lpn,
            payload,
            WriteOptions { placement: PlacementHint::Grouped { group: key, plane }, meta },
        )?;
        Ok(lpn)
    }

    /// Where a parity-stripe page goes when it is rebuilt or refreshed:
    /// [`Self::stripe_plane`] away from the dies of the rest of its
    /// stripe, so relocation preserves the die-disjointness that rebuild
    /// correctness (and the device audit's `FC102`) rests on. `None` for
    /// pages outside every stripe — those refresh through the ordinary
    /// striped round-robin.
    fn stripe_target_plane(&self, lpn: u64) -> Option<usize> {
        let cfg = self.ssd.config();
        let die = |l: u64| self.ssd.translate(l).map(|p| p.plane.die.flat(cfg));
        let (peers, parity): (HashSet<usize>, Option<usize>) =
            if let Some((_, stripe)) = self.recovery.stripes.stripe_of_member(lpn) {
                let peers = stripe.members.iter().filter(|&&m| m != lpn).filter_map(|&m| die(m));
                (peers.collect(), die(stripe.parity_lpn))
            } else if let Some((_, stripe)) = self.recovery.stripes.stripe_of_parity(lpn) {
                (stripe.members.iter().filter_map(|&m| die(m)).collect(), None)
            } else {
                return None;
            };
        Some(self.stripe_plane(&peers, parity))
    }

    /// The least-pressure plane on the first rung of the `FC102` ladder
    /// that has one: a healthy die outside both `peers` (the dies of the
    /// page's stripe peers) and `parity` (the die of its stripe's parity
    /// page, for a member), then a healthy die outside `peers`, then any
    /// healthy die, then any die. Members need pairwise-distinct dies
    /// more than parity needs a die of its own, so when failed dies shrink
    /// the pool the parity die is given up first — and recovery always
    /// makes progress.
    fn stripe_plane(&self, peers: &HashSet<usize>, parity: Option<usize>) -> usize {
        let ppd = self.ssd.config().planes_per_die;
        let rung = |die: usize| {
            if self.recovery.failed_dies.contains(&die) {
                3
            } else if peers.contains(&die) {
                2
            } else if parity == Some(die) {
                1
            } else {
                0
            }
        };
        let (_, _, plane) = self
            .ssd
            .ftl()
            .plane_pressures()
            .iter()
            .enumerate()
            .map(|(plane, &p)| (rung(plane / ppd), p, plane))
            .min()
            .expect("SSDs have at least one plane");
        plane
    }

    // ------------------------------------------------------------------
    // Tier-2 rebuild
    // ------------------------------------------------------------------

    /// Rebuilds one page from its stripe (member from peers + parity;
    /// parity from members) and rewrites it out-of-place on a healthy
    /// die. Returns the recovered payload.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Uncorrectable`] (wrapped) when the page is in no
    /// stripe; peer-read errors propagate (a second fault in the same
    /// stripe is beyond single-parity recovery).
    pub(crate) fn rebuild_lpn(&mut self, lpn: u64) -> Result<BitVec, FcError> {
        let payload = if let Some((_, stripe)) = self.recovery.stripes.stripe_of_member(lpn) {
            let stripe = stripe.clone();
            let mut peers = Vec::new();
            for &m in stripe.members.iter().filter(|&&m| m != lpn) {
                peers.push(self.ssd.read(m)?);
            }
            let parity = self.ssd.read(stripe.parity_lpn)?;
            rebuild_member(peers.iter(), &parity)
        } else if let Some((_, stripe)) = self.recovery.stripes.stripe_of_parity(lpn) {
            let stripe = stripe.clone();
            let mut payloads = Vec::with_capacity(stripe.members.len());
            for &m in &stripe.members {
                payloads.push(self.ssd.read(m)?);
            }
            xor_fold(payloads.iter())
        } else {
            return Err(FcError::Device(DeviceError::Uncorrectable { lpn }));
        };
        self.relocate_rebuilt(lpn, &payload)?;
        self.recovery.parity_rebuilds += 1;
        Ok(payload)
    }

    /// Rewrites a rebuilt stripe page out-of-place (same LPN, same
    /// metadata, fresh block on [`Self::stripe_target_plane`]) and patches
    /// operand placement records if the page belongs to one.
    fn relocate_rebuilt(&mut self, lpn: u64, payload: &BitVec) -> Result<(), FcError> {
        let meta = self.ssd.page_meta(lpn).expect("rebuilt pages are mapped");
        let plane = self.stripe_target_plane(lpn).expect("rebuilt pages belong to a stripe");
        let key = GroupKey::new(REBUILD_GROUP_BASE + plane as u64, 0);
        self.ssd.trim(lpn);
        self.ssd.write(
            lpn,
            payload,
            WriteOptions { placement: PlacementHint::Grouped { group: key, plane }, meta },
        )?;
        self.recovery.relocations += 1;
        if let Some((id, slot)) = self.operand_of_lpn(lpn) {
            let ppa = self.ssd.translate(lpn).expect("just rewritten");
            self.operands[id].planes[slot] = ppa.plane;
            self.bump_generation(id);
        }
        Ok(())
    }

    /// The operand owning a logical page, with its stripe slot.
    pub(crate) fn operand_of_lpn(&self, lpn: u64) -> Option<(OperandId, usize)> {
        self.operands
            .iter()
            .enumerate()
            .find_map(|(id, r)| r.lpns.iter().position(|&l| l == lpn).map(|slot| (id, slot)))
    }

    // ------------------------------------------------------------------
    // Durable records (the conventional storage tier)
    // ------------------------------------------------------------------

    /// Stores a named durable record through the conventional path
    /// (SLC with randomization and ECC, striped placement) — the data
    /// that *needs* the recovery tiers, unlike ESP operand pages whose
    /// modeled RBER is zero. Parity-protected when parity is enabled.
    ///
    /// # Errors
    ///
    /// [`FcError::DuplicateName`] when the name is taken (by a durable
    /// record or an operand), plus SSD write errors.
    pub(crate) fn store_durable(&mut self, name: &str, data: &BitVec) -> Result<(), FcError> {
        if self.name_taken(name) {
            return Err(FcError::DuplicateName(name.to_string()));
        }
        let chunk_bits = self.ssd.logical_page_bits(true);
        let pages = data.len().div_ceil(chunk_bits).max(1);
        let mut lpns = Vec::with_capacity(pages);
        for i in 0..pages {
            let page = crate::device::stripe_page(data, i, chunk_bits);
            let lpn = self.alloc_lpn();
            self.ssd.write(lpn, &page, WriteOptions::conventional())?;
            lpns.push(lpn);
        }
        self.recovery
            .durables
            .insert(name.to_string(), DurableRecord { lpns: lpns.clone(), bits: data.len() });
        self.parity_protect_lpns(&lpns)
    }

    /// Reads a durable record back, escalating each page through the
    /// recovery tiers: the SSD's built-in retry ladder first, then
    /// parity rebuild on ladder exhaustion.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] for unknown records; a wrapped
    /// [`DeviceError::Uncorrectable`] when a page stayed unreadable
    /// after every tier (it is then recorded as lost).
    pub fn read_durable(&mut self, name: &str) -> Result<BitVec, FcError> {
        let rec = self
            .recovery
            .durables
            .get(name)
            .cloned()
            .ok_or_else(|| FcError::UnknownName(name.to_string()))?;
        let chunk_bits = self.ssd.logical_page_bits(true);
        let mut out = BitVec::zeros(rec.lpns.len() * chunk_bits);
        for (i, &lpn) in rec.lpns.iter().enumerate() {
            let page = match self.ssd.read(lpn) {
                Ok(p) => p,
                Err(DeviceError::Uncorrectable { .. }) => match self.rebuild_lpn(lpn) {
                    Ok(p) => p,
                    Err(e) => {
                        self.recovery.lost_pages.insert(lpn);
                        self.recovery.uncorrectable_after_recovery += 1;
                        return Err(e);
                    }
                },
                Err(e) => return Err(e.into()),
            };
            out.copy_from(i * chunk_bits, &page);
        }
        Ok(out.slice(0, rec.bits))
    }

    /// Replaces a durable record's contents (the new data may have a
    /// different length). Old pages are unprotected and trimmed; the new
    /// pages are parity-protected when parity is enabled.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] for unknown records, plus SSD write
    /// errors.
    pub fn overwrite_durable(&mut self, name: &str, data: &BitVec) -> Result<(), FcError> {
        let rec = self
            .recovery
            .durables
            .get(name)
            .cloned()
            .ok_or_else(|| FcError::UnknownName(name.to_string()))?;
        self.parity_unprotect_lpns(&rec.lpns);
        for &lpn in &rec.lpns {
            self.ssd.trim(lpn);
            self.recovery.lost_pages.remove(&lpn);
            self.recovery.scrub_done.remove(&lpn);
        }
        self.recovery.durables.remove(name);
        self.store_durable(name, data)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Applies a [`FaultPlan`]: validates every named target and die
    /// index first, then injects each fault through the chip APIs.
    /// Itemized faults (wear, disturb, stuck blocks, die failures) bump
    /// only the touched operands' generations; a global retention change
    /// bumps the device epoch. Stuck-block and die faults proactively
    /// rebuild every mapped page in the faulted region — raw ESP pages
    /// corrupt *silently*, so waiting for a read error would be too
    /// late.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] / [`FcError::DieOutOfRange`] from
    /// validation (nothing mutated), or propagated device errors from
    /// rebuild rewrites.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<FaultReport, FcError> {
        let dies = self.ssd.config().total_dies();
        for &die in &plan.failed_dies {
            if die >= dies {
                return Err(FcError::DieOutOfRange { die, dies });
            }
        }
        for name in plan
            .ages
            .iter()
            .map(|(n, _)| n)
            .chain(plan.disturbs.iter().map(|(n, _)| n))
            .chain(plan.stuck_blocks.iter().map(|(n, _)| n))
        {
            self.fault_target(name)?;
        }

        let mut report = FaultReport::default();
        let mut touched: Vec<OperandId> = Vec::new();

        if let Some(months) = plan.retention_months {
            // Retention is chip-global: every page's read behavior may
            // change, which per-operand generations cannot express.
            self.bump_epoch();
            self.ssd.set_retention_months(months);
            report.epoch_bumped = true;
        }
        for (name, cycles) in &plan.ages {
            let (lpns, id) = self.fault_target(name)?;
            for (die, block) in self.distinct_blocks(&lpns) {
                let die_id = DieId::from_flat(die, self.ssd.config());
                self.ssd.chip_mut(die_id).cycle_block(block, *cycles).map_err(DeviceError::Nand)?;
            }
            if let Some(id) = id {
                self.bump_generation(id);
                touched.push(id);
            }
        }
        for (name, reads) in &plan.disturbs {
            let (lpns, id) = self.fault_target(name)?;
            for (die, block) in self.distinct_blocks(&lpns) {
                let die_id = DieId::from_flat(die, self.ssd.config());
                self.ssd
                    .chip_mut(die_id)
                    .add_block_reads(block, *reads)
                    .map_err(DeviceError::Nand)?;
            }
            if let Some(id) = id {
                self.bump_generation(id);
                touched.push(id);
            }
        }
        for (name, slot) in &plan.stuck_blocks {
            let (lpns, _) = self.fault_target(name)?;
            let Some(&lpn) = lpns.get(*slot) else { continue };
            let Some(ppa) = self.ssd.translate(lpn) else { continue };
            let page_bits = self.ssd.config().page_bits();
            let die = ppa.plane.die.flat(self.ssd.config());
            let block = BlockAddr::new(ppa.plane.plane, ppa.block);
            // Deterministic per-block corruption pattern: same plan, same
            // placement → bit-identical fault, replayable in CI.
            let seed = 0x57C0_0000u64
                ^ ((die as u64) << 32)
                ^ (u64::from(ppa.plane.plane) << 16)
                ^ u64::from(ppa.block);
            let mut rng = StdRng::seed_from_u64(seed);
            let mask = BitVec::random_with_density(page_bits, 0.125, &mut rng);
            let value = BitVec::random(page_bits, &mut rng);
            let die_id = ppa.plane.die;
            self.ssd
                .chip_mut(die_id)
                .set_block_stuck(block, mask, value)
                .map_err(DeviceError::Nand)?;
            self.rebuild_mapped_where(
                |p| p.plane == ppa.plane && p.block == ppa.block,
                &mut report,
                &mut touched,
            )?;
        }
        for &die in &plan.failed_dies {
            self.recovery.failed_dies.insert(die);
            let page_bits = self.ssd.config().page_bits();
            let die_id = DieId::from_flat(die, self.ssd.config());
            // Every column of every block reads 0: one defect, shared.
            self.ssd
                .chip_mut(die_id)
                .set_all_blocks_stuck(BitVec::ones(page_bits), BitVec::zeros(page_bits))
                .map_err(DeviceError::Nand)?;
            self.rebuild_mapped_where(|p| p.plane.die == die_id, &mut report, &mut touched)?;
        }
        touched.sort_unstable();
        touched.dedup();
        report.touched_operands = touched;
        Ok(report)
    }

    /// Resolves a fault-plan name to the pages it covers: operands
    /// first, then durable records.
    fn fault_target(&self, name: &str) -> Result<(Vec<u64>, Option<OperandId>), FcError> {
        if let Some(h) = self.operand(name) {
            return Ok((self.operands[h.id].lpns.clone(), Some(h.id)));
        }
        if let Some(rec) = self.recovery.durables.get(name) {
            return Ok((rec.lpns.clone(), None));
        }
        Err(FcError::UnknownName(name.to_string()))
    }

    /// The distinct physical blocks holding any of `lpns`, as
    /// `(flat die, block address)` pairs.
    fn distinct_blocks(&self, lpns: &[u64]) -> Vec<(usize, BlockAddr)> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &lpn in lpns {
            if let Some(ppa) = self.ssd.translate(lpn) {
                let die = ppa.plane.die.flat(self.ssd.config());
                if seen.insert((die, ppa.plane.plane, ppa.block)) {
                    out.push((die, BlockAddr::new(ppa.plane.plane, ppa.block)));
                }
            }
        }
        out
    }

    /// Rebuilds every mapped page whose physical address matches `pred`
    /// (pages already recorded lost are skipped). Unrebuildable pages
    /// are recorded lost; owners of every touched page get a generation
    /// bump so cached results cannot mask either the relocation or the
    /// loss.
    fn rebuild_mapped_where(
        &mut self,
        pred: impl Fn(Ppa) -> bool,
        report: &mut FaultReport,
        touched: &mut Vec<OperandId>,
    ) -> Result<(), FcError> {
        let victims: Vec<u64> = self
            .ssd
            .mapped_snapshot()
            .into_iter()
            .filter(|&(lpn, ppa, _)| pred(ppa) && !self.recovery.lost_pages.contains(&lpn))
            .map(|(lpn, _, _)| lpn)
            .collect();
        for lpn in victims {
            match self.rebuild_lpn(lpn) {
                Ok(_) => report.rebuilt_pages += 1,
                Err(_) => {
                    self.recovery.lost_pages.insert(lpn);
                    self.recovery.uncorrectable_after_recovery += 1;
                    report.lost_pages += 1;
                }
            }
            if let Some((id, _)) = self.operand_of_lpn(lpn) {
                self.bump_generation(id);
                touched.push(id);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Retention scrubbing
    // ------------------------------------------------------------------

    /// Walks every mapped ECC page, predicts its worst-grade RBER from
    /// the block's current stress state, and queues a refresh job for
    /// each page the scrub rule selects (at-risk pages, most-at-risk
    /// first, at most [`SCRUB_MAX_PER_PASS`]). Returns how many were
    /// queued.
    ///
    /// Raw ESP operand pages are skipped: their modeled RBER is exactly
    /// zero (§5.2) and their protection is the parity tier.
    pub(crate) fn schedule_scrub(&mut self) -> usize {
        let candidates = self.scrub_candidates();
        let picks = select_scrubs(&candidates, SCRUB_MAX_PER_PASS);
        let mut queued_now = 0;
        for i in picks {
            if let Some(c) = candidates.get(i) {
                self.jobs.push_back(Job::Scrub { lpn: c.lpn });
                queued_now += 1;
            }
        }
        queued_now
    }

    /// The read-only half of [`Self::schedule_scrub`]: every mapped ECC
    /// page's worst-grade RBER prediction, minus pages already queued for
    /// a refresh, lost, stuck, on a failed die, or scrub-done at their
    /// current stress fingerprint.
    fn scrub_candidates(&self) -> Vec<ScrubCandidate> {
        // Only ECC pages are scrubbed; skip the FTL walk when none is
        // mapped (every serving pass asks, and operand pages carry no
        // ECC).
        if self.ssd.ftl().ecc_pages() == 0 {
            return Vec::new();
        }
        let margin = self.ssd.ecc_correction_margin();
        let queued: HashSet<u64> = self
            .jobs
            .iter()
            .filter_map(|job| match job {
                Job::Scrub { lpn } => Some(*lpn),
                Job::Regroup(_) => None,
            })
            .collect();
        let mut candidates: Vec<ScrubCandidate> = Vec::new();
        for (lpn, ppa, meta) in self.ssd.mapped_snapshot() {
            if !meta.ecc || queued.contains(&lpn) || self.recovery.lost_pages.contains(&lpn) {
                continue;
            }
            let die = ppa.plane.die.flat(self.ssd.config());
            if self.recovery.failed_dies.contains(&die) {
                continue;
            }
            let chip = self.ssd.chip(ppa.plane.die);
            let block = BlockAddr::new(ppa.plane.plane, ppa.block);
            if chip.block_stuck(block).is_some() {
                continue; // refresh cannot help stuck columns — parity's job
            }
            let stress = StressState {
                pec: chip.block_pec(block).unwrap_or(0),
                retention_months: chip.retention_months(),
                reads_since_program: chip.block_reads_since_program(block).unwrap_or(0),
            };
            let fingerprint = (stress.pec, stress.retention_months.to_bits());
            if self.recovery.scrub_done.get(&lpn) == Some(&fingerprint) {
                continue;
            }
            let predicted = chip.config().rber.rber_graded(
                meta.scheme,
                meta.randomized,
                stress,
                BlockGrade::Worst,
            );
            candidates.push(ScrubCandidate { lpn, die, predicted_rber: predicted, margin });
        }
        candidates
    }

    /// Whether a [`Self::schedule_scrub`] pass would queue anything
    /// right now — the drain's read-locked phase asks this to decide if
    /// the write-locked background tail is worth taking at all.
    pub(crate) fn scrub_would_schedule(&self) -> bool {
        let candidates = self.scrub_candidates();
        if candidates.is_empty() {
            return false;
        }
        !select_scrubs(&candidates, SCRUB_MAX_PER_PASS).is_empty()
    }

    /// Where a refresh of `lpn` rewrites it: the plane, and the placement
    /// that lands it there. A stripe page goes to
    /// [`Self::stripe_target_plane`] through that plane's rebuild group,
    /// so its stripe stays die-disjoint; any other page takes the plane
    /// the striped round-robin hands out next.
    pub(crate) fn refresh_plane(&self, lpn: u64) -> (usize, PlacementHint) {
        match self.stripe_target_plane(lpn) {
            Some(plane) => {
                let group = GroupKey::new(REBUILD_GROUP_BASE + plane as u64, 0);
                (plane, PlacementHint::Grouped { group, plane })
            }
            None => (self.ssd.ftl().next_striped_plane(), PlacementHint::Striped),
        }
    }

    /// Refreshes one mapped page out-of-place onto
    /// [`Self::refresh_plane`] with a [`SsdDevice::migrate`]: randomized
    /// pages always rewrite through the controller, which runs the full
    /// retry ladder, and a refresh that still fails escalates to parity
    /// rebuild. Returns `false` when no tier could read the page, which is
    /// then recorded lost.
    ///
    /// [`SsdDevice::migrate`]: fc_ssd::device::SsdDevice::migrate
    ///
    /// # Errors
    ///
    /// SSD rewrite errors other than an uncorrectable read.
    pub(crate) fn refresh_page(&mut self, lpn: u64) -> Result<bool, FcError> {
        let meta = self.ssd.page_meta(lpn).expect("refreshed pages are mapped");
        let (_, hint) = self.refresh_plane(lpn);
        match self.ssd.migrate(lpn, hint, meta) {
            Ok(_) => {}
            Err(DeviceError::Uncorrectable { .. }) => {
                if self.rebuild_lpn(lpn).is_err() {
                    self.recovery.lost_pages.insert(lpn);
                    self.recovery.uncorrectable_after_recovery += 1;
                    return Ok(false);
                }
            }
            Err(e) => return Err(e.into()),
        }
        self.recovery.pages_scrubbed += 1;
        if let Some(fp) = self.stress_fingerprint(lpn) {
            self.recovery.scrub_done.insert(lpn, fp);
        }
        Ok(true)
    }

    /// The page's current stress fingerprint `(block PEC, retention)` —
    /// scrub-done bookkeeping that prevents endless re-queueing.
    fn stress_fingerprint(&self, lpn: u64) -> Option<(u32, u64)> {
        let ppa = self.ssd.translate(lpn)?;
        let chip = self.ssd.chip(ppa.plane.die);
        let block = BlockAddr::new(ppa.plane.plane, ppa.block);
        Some((chip.block_pec(block).ok()?, chip.retention_months().to_bits()))
    }
}

impl FlashCosmosDevice {
    /// Turns on cross-die parity protection for *subsequent* writes
    /// (`fc_write`, `fc_overwrite`, [`Self::store_durable`]): stored
    /// pages join XOR stripes whose members sit on pairwise-distinct
    /// dies, with the parity page on a die outside the stripe.
    pub fn enable_parity(&mut self) {
        self.core_mut().recovery.parity_enabled = true;
    }

    /// Whether new writes are parity-protected.
    pub fn parity_enabled(&self) -> bool {
        self.core().recovery.parity_enabled
    }

    /// Number of live parity stripes.
    pub fn stripe_count(&self) -> usize {
        self.core().recovery.stripes.len()
    }

    /// Pages that stayed unreadable after every recovery tier.
    pub fn lost_page_count(&self) -> usize {
        self.core().lost_page_count()
    }

    /// The device-wide reliability snapshot: SSD read-health counters
    /// merged with the recovery counters.
    pub fn health(&self) -> DeviceHealth {
        self.core().health()
    }

    /// Stores a named durable record through the conventional path (SLC
    /// with randomization and ECC, striped placement) — the data that
    /// *needs* the recovery tiers, unlike ESP operand pages whose
    /// modeled RBER is zero. Parity-protected when parity is enabled.
    /// Takes the exclusive device lock.
    ///
    /// # Errors
    ///
    /// [`FcError::DuplicateName`] when the name is taken (by a durable
    /// record or an operand), plus SSD write errors.
    pub fn store_durable(&self, name: &str, data: &BitVec) -> Result<(), FcError> {
        self.core_write().store_durable(name, data)
    }

    /// Reads a durable record back, escalating each page through the
    /// recovery tiers: the SSD's built-in retry ladder first, then
    /// parity rebuild on ladder exhaustion. Takes the exclusive device
    /// lock (recovery escalation relocates pages).
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] for unknown records; a wrapped
    /// [`DeviceError::Uncorrectable`] when a page stayed unreadable
    /// after every tier (it is then recorded as lost).
    pub fn read_durable(&self, name: &str) -> Result<BitVec, FcError> {
        self.core_write().read_durable(name)
    }

    /// Replaces a durable record's contents (the new data may have a
    /// different length). Old pages are unprotected and trimmed; the new
    /// pages are parity-protected when parity is enabled. Takes the
    /// exclusive device lock.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] for unknown records, plus SSD write
    /// errors.
    pub fn overwrite_durable(&self, name: &str, data: &BitVec) -> Result<(), FcError> {
        self.core_write().overwrite_durable(name, data)
    }

    /// Applies a [`FaultPlan`] — see the recovery module docs for the
    /// fault model. Takes the exclusive device lock.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] / [`FcError::DieOutOfRange`] from
    /// validation (nothing mutated), or propagated device errors from
    /// rebuild rewrites.
    pub fn inject_faults(&self, plan: &FaultPlan) -> Result<FaultReport, FcError> {
        self.core_write().inject_faults(plan)
    }

    /// Walks every mapped ECC page, predicts its worst-grade RBER from
    /// the block's current stress state, and queues a refresh job for
    /// each page the scrub rule selects (at-risk pages whose predicted
    /// RBER reaches 2 % of the ECC correction margin, most-at-risk first,
    /// at most 64). Returns how many were queued. The refreshes run with
    /// the other background jobs ([`Self::run_maintenance`] or a serving
    /// pass's background tail). Takes the exclusive device lock.
    pub fn schedule_scrub(&self) -> usize {
        self.core_write().schedule_scrub()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StoreHints;
    use crate::expr::Expr;
    use fc_ssd::ecc::EccConfig;
    use fc_ssd::SsdConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device() -> FlashCosmosDevice {
        FlashCosmosDevice::new(SsdConfig::tiny_test())
    }

    #[test]
    fn parity_stripes_are_die_disjoint() {
        let mut dev = device();
        dev.enable_parity();
        let mut rng = StdRng::seed_from_u64(1);
        let data = BitVec::random(1024, &mut rng); // 4 pages on 4 dies
        dev.fc_write("a", &data, StoreHints::and_group("g")).unwrap();
        assert!(dev.stripe_count() >= 2, "4 members with cap 3 split into ≥ 2 stripes");
        let cfg = SsdConfig::tiny_test();
        let core = dev.core();
        for (_, stripe) in core.recovery.stripes.iter() {
            let member_dies: Vec<usize> = stripe
                .members
                .iter()
                .map(|&m| core.ssd.translate(m).unwrap().plane.die.flat(&cfg))
                .collect();
            let distinct: HashSet<usize> = member_dies.iter().copied().collect();
            assert_eq!(distinct.len(), member_dies.len(), "members share a die: {member_dies:?}");
            let parity_die = core.ssd.translate(stripe.parity_lpn).unwrap().plane.die.flat(&cfg);
            assert!(
                !distinct.contains(&parity_die),
                "parity die {parity_die} collides with members {member_dies:?}"
            );
        }
    }

    #[test]
    fn stuck_block_rebuild_keeps_fc_query_exact() {
        let mut dev = device();
        dev.enable_parity();
        let mut rng = StdRng::seed_from_u64(2);
        let vs: Vec<BitVec> = (0..4).map(|_| BitVec::random(256, &mut rng)).collect();
        let handles: Vec<_> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
            .collect();
        // All four single-page operands share one block (group g, slot 0)
        // — the stuck fault silently corrupts every one of them, and the
        // injection-time rebuild recovers each from its mirror stripe.
        let report = dev.inject_faults(&FaultPlan::new().stuck_block("op0", 0)).unwrap();
        assert_eq!(report.rebuilt_pages, 4, "all co-resident pages rebuilt: {report:?}");
        assert_eq!(report.lost_pages, 0);
        assert_eq!(report.touched_operands.len(), 4);
        assert!(!report.epoch_bumped, "itemized faults must not wipe the whole cache");
        let expr = Expr::and_vars(handles.iter().map(|h| h.id));
        let (result, _) = dev.fc_read(&expr).unwrap();
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
        assert_eq!(result, expect, "query after rebuild must stay bit-exact");
        assert!(dev.health().parity_rebuilds >= 4);
    }

    #[test]
    fn die_failure_rebuilds_every_mapped_page() {
        let mut dev = device();
        dev.enable_parity();
        let mut rng = StdRng::seed_from_u64(3);
        let data = BitVec::random(1024, &mut rng); // 4 pages, one per die
        let h = dev.fc_write("a", &data, StoreHints::and_group("g")).unwrap();
        let cfg = SsdConfig::tiny_test();
        let victim_die = dev.operand_dies(h.id).unwrap()[0].flat(&cfg);
        let report = dev.inject_faults(&FaultPlan::new().fail_die(victim_die)).unwrap();
        assert_eq!(report.lost_pages, 0, "single-die failure is within parity budget");
        assert!(report.rebuilt_pages >= 1);
        let (result, _) = dev.fc_read(&Expr::var(h.id)).unwrap();
        assert_eq!(result, data);
        // Nothing of the operand remains on the failed die.
        for die in dev.operand_dies(h.id).unwrap() {
            assert_ne!(die.flat(&cfg), victim_die);
        }
    }

    /// A failed die holds one stuck-column defect that all its blocks
    /// share, not two pages per block; the other dies stay healthy.
    #[test]
    fn a_failed_die_shares_one_stuck_defect_across_its_blocks() {
        let dev = device();
        dev.inject_faults(&FaultPlan::new().fail_die(1)).unwrap();
        let cfg = SsdConfig::tiny_test();
        let core = dev.core();
        let chip = core.ssd.chip(DieId::from_flat(1, &cfg));
        let first = chip.block_stuck(BlockAddr::new(0, 0)).expect("failed die is stuck");
        let last = BlockAddr::new(cfg.planes_per_die as u32 - 1, cfg.blocks_per_plane as u32 - 1);
        assert!(std::ptr::eq(first, chip.block_stuck(last).unwrap()), "one shared defect");
        assert!(first.mask.is_all_ones() && first.value.is_all_zeros(), "every column reads 0");
        let healthy = core.ssd.chip(DieId::from_flat(0, &cfg));
        assert!(healthy.block_stuck(BlockAddr::new(0, 0)).is_none());
    }

    #[test]
    fn fault_plan_unknown_name_errors_without_mutating() {
        let dev = device();
        let mut rng = StdRng::seed_from_u64(4);
        let data = BitVec::random(256, &mut rng);
        dev.fc_write("a", &data, StoreHints::and_group("g")).unwrap();
        let err =
            dev.inject_faults(&FaultPlan::new().retention(12.0).age("nope", 1000)).unwrap_err();
        assert!(matches!(err, FcError::UnknownName(n) if n == "nope"));
        let err = dev.inject_faults(&FaultPlan::new().fail_die(99)).unwrap_err();
        assert!(matches!(err, FcError::DieOutOfRange { die: 99, .. }));
        // Validation rejected the plans before the retention change: the
        // chips are untouched.
        let die0 = DieId::from_flat(0, dev.config());
        assert_eq!(dev.core().ssd.chip(die0).retention_months(), 0.0);
    }

    #[test]
    fn margin_scrubber_selects_above_threshold_most_at_risk_first() {
        let margin = 0.111;
        let c = |lpn, rber| ScrubCandidate { lpn, die: 0, predicted_rber: rber, margin };
        let candidates = vec![c(0, 3.0e-3), c(1, 5.0e-4), c(2, 9.0e-3), c(3, 2.5e-3), c(4, 1.0e-6)];
        let picks = select_scrubs(&candidates, 2);
        // 5e-4 and 1e-6 are below 0.02 × 0.111 ≈ 2.2e-3; of the rest the
        // two worst are kept (cap 2), worst first.
        assert_eq!(picks, vec![2, 0]);
    }

    #[test]
    fn durable_roundtrip_overwrite_and_unknown_name() {
        let dev = device();
        let mut rng = StdRng::seed_from_u64(5);
        let v1 = BitVec::random(1000, &mut rng);
        let v2 = BitVec::random(500, &mut rng);
        dev.store_durable("cfg", &v1).unwrap();
        assert_eq!(dev.read_durable("cfg").unwrap(), v1);
        assert!(matches!(dev.store_durable("cfg", &v2).unwrap_err(), FcError::DuplicateName(_)));
        dev.overwrite_durable("cfg", &v2).unwrap();
        assert_eq!(dev.read_durable("cfg").unwrap(), v2);
        assert!(matches!(dev.read_durable("nope").unwrap_err(), FcError::UnknownName(_)));
        assert!(matches!(dev.overwrite_durable("nope", &v2).unwrap_err(), FcError::UnknownName(_)));
    }

    #[test]
    fn operands_and_durable_records_share_one_namespace() {
        let dev = device();
        let mut rng = StdRng::seed_from_u64(5);
        let v = BitVec::random(300, &mut rng);
        fn taken<T>(r: Result<T, FcError>) -> bool {
            matches!(r, Err(FcError::DuplicateName(_)))
        }
        // A durable record's name is closed to both operand writers...
        dev.store_durable("rec", &v).unwrap();
        assert!(taken(dev.fc_write("rec", &v, StoreHints::and_group("g"))));
        let ml = StoreHints::and_group("ml");
        assert!(taken(dev.fc_write_ml(&["rec", "other"], &[&v, &v], ml.clone())));
        assert!(taken(dev.fc_write_ml(&["other", "rec"], &[&v, &v], ml.clone())));
        // A name repeated within one multi-level write is taken too.
        assert!(taken(dev.fc_write_ml(&["other", "other"], &[&v, &v], ml)));
        // ...and an operand's name to durable records.
        dev.fc_write("op", &v, StoreHints::and_group("g")).unwrap();
        assert!(taken(dev.store_durable("op", &v)));
        // Every rejected write left nothing behind.
        assert!(dev.operand("rec").is_none() && dev.operand("other").is_none());
        assert_eq!(dev.read_durable("rec").unwrap(), v);
    }

    #[test]
    fn scrub_refreshes_aged_durable_pages_then_goes_quiet() {
        let mut dev = FlashCosmosDevice::new_physics(SsdConfig::tiny_test());
        dev.ssd_mut().set_ecc(EccConfig::durable());
        dev.enable_parity();
        let mut rng = StdRng::seed_from_u64(6);
        let data = BitVec::random(1000, &mut rng);
        dev.store_durable("log", &data).unwrap();
        dev.inject_faults(&FaultPlan::new().retention(48.0).age("log", 15_000)).unwrap();
        let queued = dev.schedule_scrub();
        assert!(queued > 0, "aged pages must cross the scrub threshold");
        let scrubbed = dev.run_maintenance().unwrap().pages_scrubbed;
        assert!(scrubbed >= queued as u64, "every queued page refreshed");
        assert_eq!(dev.read_durable("log").unwrap(), data, "refresh preserves data");
        // Refreshed pages sit on fresh blocks (PEC 0) whose predicted
        // RBER is back under the margin: a second pass finds nothing.
        assert_eq!(dev.schedule_scrub(), 0, "scrub must converge");
        assert_eq!(dev.pending_jobs(), 0);
        assert!(dev.health().pages_scrubbed >= scrubbed);
    }

    #[test]
    fn oversized_scrub_pass_defers_under_budget() {
        let mut dev = FlashCosmosDevice::new_physics(SsdConfig::tiny_test());
        dev.ssd_mut().set_ecc(EccConfig::durable());
        let mut rng = StdRng::seed_from_u64(7);
        let data = BitVec::random(2000, &mut rng);
        dev.store_durable("log", &data).unwrap();
        dev.inject_faults(&FaultPlan::new().retention(48.0).age("log", 15_000)).unwrap();
        let queued = dev.schedule_scrub();
        assert!(queued > 1);
        // A budget that fits roughly one refresh defers the rest instead
        // of blowing the latency envelope.
        let budget = dev.config().tr_us + dev.config().tprog_slc_us;
        let mut queues = fc_ssd::pipeline::DieQueues::for_config(dev.config());
        let (stats, failure) = dev.core_mut().execute_jobs(&mut queues, budget);
        assert!(failure.is_none());
        let (scrubbed, deferred) = (stats.pages_scrubbed, stats.scrubs_deferred);
        assert!(deferred > 0, "oversized pass must defer: {scrubbed} scrubbed, {deferred} left");
        assert_eq!(scrubbed as usize + deferred, queued);
        assert_eq!(dev.pending_jobs(), deferred, "deferred jobs stay queued");
        // The remainder drains once the budget allows.
        let rest = dev.run_maintenance().unwrap().pages_scrubbed;
        assert_eq!(rest as usize, deferred);
    }

    #[test]
    fn retention_fault_bumps_epoch_and_itemized_faults_do_not() {
        let dev = device();
        let mut rng = StdRng::seed_from_u64(8);
        let data = BitVec::random(256, &mut rng);
        dev.fc_write("a", &data, StoreHints::and_group("g")).unwrap();
        let epoch0 = dev.core().epoch;
        let report = dev.inject_faults(&FaultPlan::new().age("a", 500).disturb("a", 1000)).unwrap();
        assert_eq!(dev.core().epoch, epoch0, "itemized faults leave the epoch alone");
        assert!(!report.epoch_bumped);
        assert_eq!(report.touched_operands, vec![0]);
        let report = dev.inject_faults(&FaultPlan::new().retention(24.0)).unwrap();
        assert!(report.epoch_bumped);
        assert!(dev.core().epoch > epoch0);
    }
}
