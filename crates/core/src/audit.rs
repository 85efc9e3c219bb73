//! `fc_audit` — a two-pass static analyzer over compiled plans and
//! device metadata.
//!
//! Seven PRs of growth piled up *implicit* cross-layer invariants:
//! placement co-residency (PR 3), generation/epoch stamping (PR 4),
//! budget-bounded maintenance jobs (PR 5), die-disjoint parity stripes
//! (PR 6), ML-operand routing (PR 7). One bug in exactly this class
//! already shipped — PR 5's `serial_senses` mispricing — and was only
//! caught by a pinned-seed replay *after* the fact. This module makes
//! the invariants machine-checkable the way Buddy-RAM-style in-memory
//! engines verify the compiled bitwise program instead of trusting the
//! code generator: the analyzer inspects state, it never executes
//! anything.
//!
//! * **Pass 1 — plan lint** (`enforce_plan`, codes `FC001`–`FC007`)
//!   runs on the output of `compile_batch` before any chip is touched
//!   and checks the plan IR against the operand table: wordline
//!   co-residency, cross-die merge structure, threshold lowering,
//!   ML routing, unit stamps, die-queue assignment, and per-query
//!   accounting.
//! * **Pass 2 — device audit** ([`FlashCosmosDevice::audit`], codes
//!   `FC101`–`FC107`) cross-checks whole-device metadata: FTL aliasing
//!   discipline, parity-stripe integrity and coverage, result-cache
//!   stamps, queued-job stamps, and placement, name and wear bookkeeping
//!   against the FTL and the chips.
//!
//! Both passes are wired in under `debug_assertions` — on every batch
//! compile, and in the background tail after every
//! [`FlashCosmosDevice::drain`] or sync read that senses — so the whole
//! test suite runs with the analyzer armed while release builds pay
//! nothing. One fixed rule says what a finding does there: an
//! error-severity finding panics at the hook, and a warning-severity one
//! ([`LintCode::Fc103`] / [`LintCode::Fc104`]) prints and never panics —
//! it flags an honest, documented protection gap. An explicit
//! [`FlashCosmosDevice::audit`] call returns every finding instead.
//!
//! The analyzer is validated by a **mutation harness** (the
//! `#[doc(hidden)]` surface below): seeded corruptions of a healthy
//! plan or device — forge a wordline, drop a merge, skew a generation,
//! alias an LPN, drop a parity member, orphan a unit or a record — where each
//! lint code must fire on its matching mutation and stay silent on
//! healthy state. `LINTS.md` at the repo root catalogs every code.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use fc_bits::BitVec;
use fc_nand::command::Command;
use fc_nand::geometry::BlockAddr;
use fc_ssd::ftl::PageMeta;
use fc_ssd::topology::{PlaneId, Ppa};

use crate::batch::{CompiledBatch, PlannedUnit, QueryBatch, UnitWork};
use crate::crossdie::MergeTree;
use crate::device::{DeviceCore, FcError, FlashCosmosDevice};
use crate::expr::{Nnf, OperandId};
use crate::maintenance::{Job, RegroupJob};
use crate::session::Stamp;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An honest, documented gap worth surfacing — never fatal.
    Warning,
    /// A broken invariant: executing or serving this state is unsound.
    Error,
}

/// The typed lint codes. `FC0xx` are plan-lint (pass 1) codes, `FC1xx`
/// device-audit (pass 2) codes; see `LINTS.md` for the full catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// Fused wordlines not co-resident in the unit's blocks/planes.
    Fc001,
    /// Cross-die structure broken: merge recipe and leaf partition
    /// disagree, or a partial-count `ThresholdMws` slipped through.
    Fc002,
    /// Threshold lowering out of bounds or polarity-inconsistent.
    Fc003,
    /// A multi-level operand routed into an in-flash execute unit.
    Fc004,
    /// A unit stamp's epoch or data generations disagree with the
    /// device.
    Fc005,
    /// Die-queue assignment disagrees with cached placement.
    Fc006,
    /// Per-query accounting inconsistent: a unit no query consumes, a
    /// query no unit feeds, or leaf bookkeeping out of step.
    Fc007,
    /// Undeclared physical-page aliasing in the FTL map.
    Fc101,
    /// Parity stripe not die-disjoint / double membership / dangling page.
    Fc102,
    /// Coverage gap: an FC data page outside every parity stripe (warn).
    Fc103,
    /// ML pages outside the parity/scrub protection tiers (warn).
    Fc104,
    /// Result-cache entry whose stamp does not fit its query or the
    /// device: operands other than its key's, another epoch, or a
    /// generation the table has not reached.
    Fc105,
    /// Queued background job not stamped with live state.
    Fc106,
    /// Placement bookkeeping inconsistent (operand planes vs the FTL,
    /// group and domain placements, the name table, wear counters).
    Fc107,
}

impl LintCode {
    /// Every code, plan pass first — iteration order for docs and tests.
    pub const ALL: [LintCode; 14] = [
        LintCode::Fc001,
        LintCode::Fc002,
        LintCode::Fc003,
        LintCode::Fc004,
        LintCode::Fc005,
        LintCode::Fc006,
        LintCode::Fc007,
        LintCode::Fc101,
        LintCode::Fc102,
        LintCode::Fc103,
        LintCode::Fc104,
        LintCode::Fc105,
        LintCode::Fc106,
        LintCode::Fc107,
    ];

    /// The code's display form, e.g. `"FC001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::Fc001 => "FC001",
            LintCode::Fc002 => "FC002",
            LintCode::Fc003 => "FC003",
            LintCode::Fc004 => "FC004",
            LintCode::Fc005 => "FC005",
            LintCode::Fc006 => "FC006",
            LintCode::Fc007 => "FC007",
            LintCode::Fc101 => "FC101",
            LintCode::Fc102 => "FC102",
            LintCode::Fc103 => "FC103",
            LintCode::Fc104 => "FC104",
            LintCode::Fc105 => "FC105",
            LintCode::Fc106 => "FC106",
            LintCode::Fc107 => "FC107",
        }
    }

    /// The severity findings of this code carry. `FC103`/`FC104` flag
    /// documented protection gaps and stay warnings; everything else is
    /// a broken invariant.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::Fc103 | LintCode::Fc104 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated invariant.
    pub code: LintCode,
    /// How bad it is (the code's default severity).
    pub severity: Severity,
    /// Where: a structural path like `unit 2 leaf 0 (slot 1)` or
    /// `stripe 4`, not a source location.
    pub location: String,
    /// What is wrong, with the observed values.
    pub message: String,
    /// How to fix it (or which chokepoint was bypassed).
    pub hint: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{} {sev} at {}: {} (fix: {})", self.code, self.location, self.message, self.hint)
    }
}

fn finding(code: LintCode, location: String, message: String, hint: &str) -> Finding {
    Finding { code, severity: code.default_severity(), location, message, hint: hint.to_string() }
}

fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.code, &a.location, &a.message).cmp(&(b.code, &b.location, &b.message)));
}

// ---------------------------------------------------------------------------
// Enforcement hooks (wired under `debug_assertions` in batch/session).
// ---------------------------------------------------------------------------

/// Enforces pass-1 findings over a freshly compiled batch: panics on
/// errors, prints warnings.
#[cfg(debug_assertions)]
pub(crate) fn enforce_plan(dev: &DeviceCore, compiled: &CompiledBatch) {
    enforce(lint_plan(dev, compiled), "plan");
}

/// Enforces pass-2 findings after a serving pass.
#[cfg(debug_assertions)]
pub(crate) fn enforce_device(dev: &DeviceCore) {
    enforce(dev.audit(), "device");
}

#[cfg(debug_assertions)]
fn enforce(findings: Vec<Finding>, pass: &str) {
    let mut fatal: Vec<Finding> = Vec::new();
    for f in findings {
        match f.severity {
            Severity::Warning => eprintln!("[fc_audit:{pass}] {f}"),
            Severity::Error => fatal.push(f),
        }
    }
    if !fatal.is_empty() {
        let mut msg = format!("fc_audit: {} denied finding(s) in the {pass} pass:", fatal.len());
        for f in &fatal {
            msg.push_str("\n  ");
            msg.push_str(&f.to_string());
        }
        panic!("{msg}");
    }
}

// ---------------------------------------------------------------------------
// Pass 1 — plan lint (FC001–FC007).
// ---------------------------------------------------------------------------

/// Multiplicative hasher for the residency map's small `u64` keys. The
/// lint sits on every debug-build compile, so SipHash's constant factor
/// matters more than DoS hardening against adversarial plans.
#[derive(Default)]
struct ResidencyHasher(u64);

impl std::hash::Hasher for ResidencyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        let mut h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        self.0 = h;
    }
}

/// One physical block's operand pages, batch-wide: the occupied
/// wordline mask plus the `(operand, stripe slot, stored-inverted)`
/// that owns each — inversion rides along so threshold lowering checks
/// need no further FTL lookups.
#[derive(Clone, Copy)]
struct BlockView<'a> {
    pbm: u64,
    owners: &'a [Option<(OperandId, usize, bool)>],
}

fn residency_key(plane_flat: usize, block: u32) -> u64 {
    ((plane_flat as u64) << 32) | u64::from(block)
}

/// Geometries up to this many blocks (every test config by a wide
/// margin) get the dense direct-index table; larger ones hash.
const DENSE_BLOCK_LIMIT: usize = 1 << 14;

/// Batch-wide operand-page residency, indexed by `(plane, block)`.
/// Small geometries resolve lookups with one array read; large ones
/// fall back to the hashed path. Per-block owner rows live in one flat
/// array (`wpb` entries each) so building the map never allocates per
/// block.
struct ResidencyMap {
    /// `plane_flat * blocks_per_plane + block -> block index + 1`
    /// (`0` = no operand pages there). Empty when hashing instead.
    dense: Vec<u32>,
    sparse: HashMap<u64, u32, std::hash::BuildHasherDefault<ResidencyHasher>>,
    pbm: Vec<u64>,
    owners: Vec<Option<(OperandId, usize, bool)>>,
    wpb: usize,
    blocks_per_plane: usize,
}

impl ResidencyMap {
    fn new(total_planes: usize, blocks_per_plane: usize, wpb: usize) -> Self {
        let total = total_planes.saturating_mul(blocks_per_plane);
        Self {
            dense: if total <= DENSE_BLOCK_LIMIT { vec![0; total] } else { Vec::new() },
            sparse: HashMap::default(),
            pbm: Vec::new(),
            owners: Vec::new(),
            wpb,
            blocks_per_plane,
        }
    }

    fn get(&self, plane_flat: usize, block: u32) -> Option<BlockView<'_>> {
        let idx = if self.dense.is_empty() {
            *self.sparse.get(&residency_key(plane_flat, block))? as usize
        } else {
            let v = *self.dense.get(plane_flat * self.blocks_per_plane + block as usize)?;
            if v == 0 {
                return None;
            }
            (v - 1) as usize
        };
        Some(BlockView {
            pbm: *self.pbm.get(idx)?,
            owners: self.owners.get(idx * self.wpb..(idx + 1) * self.wpb)?,
        })
    }

    /// The block's index, materializing an empty entry on first sight.
    fn index(&mut self, plane_flat: usize, block: u32) -> Option<usize> {
        let idx = if self.dense.is_empty() {
            match self.sparse.entry(residency_key(plane_flat, block)) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get() as usize,
                std::collections::hash_map::Entry::Vacant(e) => {
                    let idx = self.pbm.len();
                    e.insert(idx as u32);
                    idx
                }
            }
        } else {
            let slot = self.dense.get_mut(plane_flat * self.blocks_per_plane + block as usize)?;
            if *slot == 0 {
                *slot = self.pbm.len() as u32 + 1;
            }
            (*slot - 1) as usize
        };
        if idx == self.pbm.len() {
            self.pbm.push(0);
            self.owners.resize(self.owners.len() + self.wpb, None);
        }
        Some(idx)
    }
}

/// Reusable per-unit scratch: allocated once per lint pass and recycled
/// across units (and slots), so the healthy path does no allocation
/// inside the unit loop.
#[derive(Default)]
struct UnitScratch {
    /// Operand-id-indexed membership mask for the current unit.
    in_unit: Vec<bool>,
    /// Operand-id-indexed literal-polarity bits (bit 0 — referenced by
    /// a positive literal, bit 1 — by a negated one).
    polarity: Vec<u8>,
    /// Which `polarity` entries to clear when the unit is done.
    touched: Vec<OperandId>,
    /// Complete threshold nodes of the unit expression.
    thresholds: Vec<(usize, Vec<OperandId>)>,
    /// Sorted operand ids referenced by one threshold command.
    ids: Vec<OperandId>,
    /// Counting sort of leaves by slot: counts, prefix sums, scatter
    /// cursor, and the bucketed leaf indices (ascending per slot).
    slot_count: Vec<u32>,
    slot_start: Vec<u32>,
    cursor: Vec<u32>,
    slot_leaves: Vec<usize>,
    /// Leaf set referenced by one spanning stripe's merge recipe.
    referenced: Vec<usize>,
}

impl UnitScratch {
    fn new(operands: usize) -> Self {
        Self { in_unit: vec![false; operands], polarity: vec![0u8; operands], ..Self::default() }
    }
}

/// Resolves every non-ML operand page of the batch through the FTL
/// exactly once. Units then validate their activated wordlines with a
/// mask test and an array read instead of re-deriving placement per
/// unit per slot — that one-pass structure is what keeps the lint a
/// small fraction of the compile it guards (`audit/plan_lint_16q`).
///
/// Operand LPNs are dense (the device hands them out from a counter),
/// so the reverse `lpn -> (operand, slot)` table is a flat array and
/// the whole resolution is one hash-free sweep over the mapped pages.
fn batch_residency(dev: &DeviceCore, compiled: &CompiledBatch) -> ResidencyMap {
    let cfg = dev.ssd.config();
    let wpb = cfg.wls_per_block;
    let mut page_of: Vec<Option<(OperandId, usize)>> = vec![None; dev.next_lpn as usize];
    let stamped = compiled.units.iter().flat_map(|unit| &unit.stamp.gens);
    for &(id, _) in stamped {
        let Some(record) = dev.operands.get(id) else { continue };
        if record.ml {
            continue; // ML wordlines never join an MWS sense (FC004)
        }
        for (slot, &lpn) in record.lpns.iter().enumerate() {
            if let Some(entry) = page_of.get_mut(lpn as usize) {
                *entry = Some((id, slot));
            }
        }
    }
    let mut map = ResidencyMap::new(cfg.total_planes(), cfg.blocks_per_plane, wpb);
    for (lpn, ppa, meta) in dev.ssd.mapped_snapshot() {
        let Some(&Some((id, slot))) = page_of.get(lpn as usize) else { continue };
        if ppa.wl as usize >= wpb || ppa.wl >= 64 {
            continue; // beyond any PBM; FC001 flags such activations
        }
        let Some(bi) = map.index(ppa.plane.flat(cfg), ppa.block) else { continue };
        map.pbm[bi] |= 1 << ppa.wl;
        map.owners[bi * wpb + ppa.wl as usize] = Some((id, slot, meta.inverted));
    }
    map
}

/// Lints a compiled batch against the device's operand table and FTL
/// without executing anything. Findings come back sorted by
/// `(code, location)`.
pub(crate) fn lint_plan(dev: &DeviceCore, compiled: &CompiledBatch) -> Vec<Finding> {
    let mut out = Vec::new();
    let n = compiled.queries();
    let residency = batch_residency(dev, compiled);
    let mut scratch = UnitScratch::new(dev.operands.len());
    let mut covered = vec![false; n];
    for (ui, unit) in compiled.units.iter().enumerate() {
        lint_unit(dev, &residency, ui, unit, &mut covered, &mut scratch, &mut out);
    }
    for (qi, seen) in covered.iter().enumerate() {
        if !seen {
            out.push(finding(
                LintCode::Fc007,
                format!("query {qi}"),
                "no planned unit feeds this query".to_string(),
                "every query must appear in at least one unit's consumer list",
            ));
        }
    }
    sort_findings(&mut out);
    out
}

fn lint_unit(
    dev: &DeviceCore,
    residency: &ResidencyMap,
    ui: usize,
    unit: &PlannedUnit,
    covered: &mut [bool],
    scratch: &mut UnitScratch,
    out: &mut Vec<Finding>,
) {
    let loc = |suffix: &str| {
        if suffix.is_empty() {
            format!("unit {ui}")
        } else {
            format!("unit {ui} {suffix}")
        }
    };

    // FC007 — unit shape.
    if unit.pages == 0 {
        out.push(finding(
            LintCode::Fc007,
            loc(""),
            "unit covers zero stripe pages".to_string(),
            "operand vectors always occupy at least one page",
        ));
    }
    if unit.consumers.is_empty() {
        out.push(finding(
            LintCode::Fc007,
            loc(""),
            "unit has no consumer queries".to_string(),
            "drop units no query reads",
        ));
    }
    for &q in &unit.consumers {
        match covered.get_mut(q) {
            Some(slot) => *slot = true,
            None => out.push(finding(
                LintCode::Fc007,
                loc(""),
                format!("consumer query id {q} out of range ({} queries)", covered.len()),
                "consumer ids index the submitted batch",
            )),
        }
    }

    // FC005 — unit stamps hold the device epoch and data generations.
    if unit.stamp.epoch != dev.epoch {
        out.push(finding(
            LintCode::Fc005,
            loc(""),
            format!(
                "unit stamped epoch {} but the device is at epoch {}",
                unit.stamp.epoch, dev.epoch
            ),
            "unit stamps must embed the compile-time epoch",
        ));
    }
    for &(id, gen) in &unit.stamp.gens {
        let live = dev.operand_data_generation(id);
        if live != gen {
            out.push(finding(
                LintCode::Fc005,
                loc(""),
                format!(
                    "unit stamp holds v{id}@{gen} but the operand table holds data generation {live}"
                ),
                "the stamp must take data generations from the operand table at compile time",
            ));
        }
    }

    // FC004 — ML operands only route through controller-eval units.
    let has_ml = unit.stamp.gens.iter().any(|&(id, _)| dev.operands.get(id).is_some_and(|r| r.ml));
    if has_ml && matches!(unit.work, UnitWork::Execute { .. }) {
        out.push(finding(
            LintCode::Fc004,
            loc(""),
            "multi-level operand planned into an in-flash execute unit".to_string(),
            "ML pages are Gray-coded cell levels; route the unit through controller evaluation",
        ));
    }

    let UnitWork::Execute { leaves, slots, merges } = &unit.work else {
        return;
    };

    if slots.len() != leaves.len() || merges.len() != unit.pages {
        out.push(finding(
            LintCode::Fc007,
            loc(""),
            format!(
                "leaf bookkeeping out of step: {} leaves, {} slots, {} merge entries for {} pages",
                leaves.len(),
                slots.len(),
                merges.len(),
                unit.pages
            ),
            "slots are per leaf and merges per stripe; both grow with the plan",
        ));
        return; // The structural checks below index these in lockstep.
    }

    let cfg = dev.ssd.config();
    for &(id, _) in &unit.stamp.gens {
        if let Some(flag) = scratch.in_unit.get_mut(id) {
            *flag = true;
        }
    }

    // Expression context is only consulted for threshold lowering; most
    // units are AND/OR-only and never walk the NNF. The walks run
    // lazily, on the first ThresholdMws the leaf loop meets.
    scratch.touched.clear();
    scratch.thresholds.clear();
    let mut thr_init = false;

    // Counting sort of leaves by slot (for the FC002 merge checks and
    // the single-leaf lookups) — one pass, no per-slot churn.
    let pages = unit.pages;
    scratch.slot_count.clear();
    scratch.slot_count.resize(pages, 0);
    for &slot in slots {
        if slot < pages {
            scratch.slot_count[slot] += 1;
        }
    }
    scratch.slot_start.clear();
    scratch.slot_start.resize(pages + 1, 0);
    for s in 0..pages {
        scratch.slot_start[s + 1] = scratch.slot_start[s] + scratch.slot_count[s];
    }
    scratch.cursor.clear();
    scratch.cursor.extend_from_slice(&scratch.slot_start[..pages]);
    scratch.slot_leaves.clear();
    scratch.slot_leaves.resize(slots.len(), 0);
    for (li, &slot) in slots.iter().enumerate() {
        if slot < pages {
            let at = scratch.cursor[slot] as usize;
            scratch.slot_leaves[at] = li;
            scratch.cursor[slot] += 1;
        }
    }
    for (li, leaf) in leaves.iter().enumerate() {
        let slot = slots[li];
        if slot >= unit.pages {
            out.push(finding(
                LintCode::Fc007,
                loc(&format!("leaf {li} (slot {slot})")),
                format!("leaf assigned to slot {slot} of a {}-page unit", unit.pages),
                "stripe slots index the unit's pages",
            ));
            continue;
        }

        // FC006 — die-queue assignment must agree with cached placement:
        // the leaf's plane must hold a unit operand at this slot, and the
        // program must be compiled for that in-die plane.
        if leaf.program.plane != leaf.plane.plane {
            out.push(finding(
                LintCode::Fc006,
                loc(&format!("leaf {li} (slot {slot})")),
                format!(
                    "program compiled for in-die plane {} but queued on {}",
                    leaf.program.plane, leaf.plane.plane
                ),
                "the leaf plane and its program's plane are one decision",
            ));
        }
        let placed = unit.stamp.gens.iter().any(|&(id, _)| {
            dev.operands.get(id).is_some_and(|r| r.planes.get(slot) == Some(&leaf.plane))
        });
        if !placed {
            out.push(finding(
                LintCode::Fc006,
                loc(&format!("leaf {li} (slot {slot})")),
                format!(
                    "leaf queued on die CH{}/D{} plane {} where no unit operand holds slot-{slot} pages",
                    leaf.plane.die.channel, leaf.plane.die.die, leaf.plane.plane
                ),
                "route leaves to the planes the operand table placed the stripe on",
            ));
        }
        let plane_flat = leaf.plane.flat(cfg);

        for (ci, cmd) in leaf.program.commands.iter().enumerate() {
            match cmd {
                Command::Mws { targets, .. } => {
                    for (ti, t) in targets.iter().enumerate() {
                        // FC001 — every fused wordline co-resident in one
                        // block/plane of the unit's operands, duplicate-free.
                        if targets[..ti].iter().any(|p| p.block.block == t.block.block) {
                            out.push(finding(
                                LintCode::Fc001,
                                loc(&format!("leaf {li} (slot {slot}) command {ci}")),
                                format!("block {} targeted twice in one MWS frame", t.block.block),
                                "fuse a block's wordlines into one PBM target",
                            ));
                        }
                        if t.block.plane != leaf.plane.plane {
                            out.push(finding(
                                LintCode::Fc001,
                                loc(&format!("leaf {li} (slot {slot}) command {ci}")),
                                format!(
                                    "target block on in-die plane {} inside a plane-{} program",
                                    t.block.plane, leaf.plane.plane
                                ),
                                "MWS targets must stay in the program's plane",
                            ));
                            continue;
                        }
                        let block = residency.get(plane_flat, t.block.block);
                        let mut bad = t.pbm & !block.map_or(0, |b| b.pbm);
                        if let Some(b) = block {
                            let mut resolved = t.pbm & b.pbm;
                            while resolved != 0 {
                                let wl = resolved.trailing_zeros();
                                resolved &= resolved - 1;
                                match b.owners.get(wl as usize).copied().flatten() {
                                    Some((id, s, _))
                                        if s == slot
                                            && scratch
                                                .in_unit
                                                .get(id)
                                                .copied()
                                                .unwrap_or(false) => {}
                                    _ => bad |= 1 << wl,
                                }
                            }
                        }
                        while bad != 0 {
                            let wl = bad.trailing_zeros();
                            bad &= bad - 1;
                            out.push(finding(
                                LintCode::Fc001,
                                loc(&format!("leaf {li} (slot {slot}) command {ci}")),
                                format!(
                                    "wordline (block {}, wl {wl}) is not a slot-{slot} page of any unit operand",
                                    t.block.block
                                ),
                                "programs may only sense the wordlines the placement map resolved",
                            ));
                        }
                    }
                }
                Command::ThresholdMws { target, k } => {
                    if !thr_init {
                        thr_init = true;
                        collect_literals(&unit.nnf, &mut scratch.polarity, &mut scratch.touched);
                        collect_thresholds(&unit.nnf, &mut scratch.thresholds);
                    }
                    lint_threshold_cmd(
                        unit,
                        (ui, li, ci),
                        leaf.program.controller_not,
                        leaf.program.commands.len(),
                        leaf.plane,
                        target,
                        *k,
                        slot,
                        residency.get(plane_flat, target.block.block),
                        &scratch.in_unit,
                        &scratch.polarity,
                        &scratch.thresholds,
                        &mut scratch.ids,
                        cfg.wls_per_block,
                        out,
                    );
                }
                _ => {}
            }
        }
    }
    // FC002 — the merge recipes and the leaf partition must describe the
    // same cross-die split.
    for (slot, merge) in merges.iter().enumerate() {
        let group = &scratch.slot_leaves
            [scratch.slot_start[slot] as usize..scratch.slot_start[slot + 1] as usize];
        let tree = match (merge, group.len()) {
            (None, 0 | 1) => continue, // a lone leaf's page is the stripe result
            (Some(_), 0 | 1) => {
                out.push(finding(
                    LintCode::Fc002,
                    loc(&format!("slot {slot}")),
                    format!("merge recipe attached to a stripe of {} leaves", group.len()),
                    "merges exist only for genuinely spanning stripes",
                ));
                continue;
            }
            (None, leaves) => {
                out.push(finding(
                    LintCode::Fc002,
                    loc(&format!("slot {slot}")),
                    format!("{leaves}-leaf spanning stripe has no merge recipe"),
                    "spanning stripes buffer partials; only the merge produces the result",
                ));
                continue;
            }
            (Some(tree), _) => tree,
        };
        // A genuinely spanning stripe (only cross-die units reach here).
        // `group` is ascending, so comparing against the sorted
        // (undeduped) merge references catches both missing and
        // double-consumed leaves.
        scratch.referenced.clear();
        tree_leaves(tree, &mut scratch.referenced);
        scratch.referenced.sort_unstable();
        if scratch.referenced != group {
            out.push(finding(
                LintCode::Fc002,
                loc(&format!("slot {slot}")),
                format!(
                    "merge references leaves {:?} but the stripe owns {group:?}",
                    scratch.referenced
                ),
                "the merge recipe must consume exactly the stripe's leaves, once each",
            ));
        }
    }

    for &(id, _) in &unit.stamp.gens {
        if let Some(flag) = scratch.in_unit.get_mut(id) {
            *flag = false;
        }
    }
    for &id in &scratch.touched {
        if let Some(mask) = scratch.polarity.get_mut(id) {
            *mask = 0;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lint_threshold_cmd(
    unit: &PlannedUnit,
    (ui, li, ci): (usize, usize, usize),
    controller_not: bool,
    program_len: usize,
    plane: PlaneId,
    target: &fc_nand::command::MwsTarget,
    chip_k: usize,
    slot: usize,
    block: Option<BlockView<'_>>,
    in_unit: &[bool],
    polarity: &[u8],
    thresholds: &[(usize, Vec<OperandId>)],
    ids: &mut Vec<OperandId>,
    wls_per_block: usize,
    out: &mut Vec<Finding>,
) {
    // Findings are rare on the healthy path, so the location string is
    // only materialized when one fires.
    let cloc = || format!("unit {ui} leaf {li} (slot {slot}) command {ci}");
    let n = target.wl_count();
    // FC003 — chip-side bounds.
    if chip_k < 1 || chip_k > n {
        out.push(finding(
            LintCode::Fc003,
            cloc(),
            format!("threshold k={chip_k} outside 1..={n} activated wordlines"),
            "lower k within the activated-wordline count (dual: k' = n - k + 1)",
        ));
    }
    if n > wls_per_block {
        out.push(finding(
            LintCode::Fc003,
            cloc(),
            format!("{n} activated wordlines exceed the {wls_per_block}-wordline block"),
            "a ThresholdMws is single-block; expand wider votes to OR-of-ANDs",
        ));
    }
    if target.block.plane != plane.plane {
        out.push(finding(
            LintCode::Fc001,
            cloc(),
            format!(
                "threshold target on in-die plane {} inside a plane-{} program",
                target.block.plane, plane.plane
            ),
            "MWS targets must stay in the program's plane",
        ));
        return;
    }

    // Resolve the activated wordlines back to operands (FC001) and their
    // raw storage polarity (FC003).
    ids.clear();
    // Raw polarities still possible for every activated wordline so far:
    // bit 1 — raw-positive, bit 0 — raw-complement.
    let mut possible: u8 = 0b11;
    for wl in target.wls() {
        let owner = block.and_then(|b| b.owners.get(wl as usize).copied().flatten());
        let (id, inverted) = match owner {
            Some((id, s, inverted)) if s == slot && in_unit.get(id).copied().unwrap_or(false) => {
                (id, inverted)
            }
            _ => {
                out.push(finding(
                    LintCode::Fc001,
                    cloc(),
                    format!(
                        "wordline (block {}, wl {wl}) is not a slot-{slot} page of any unit operand",
                        target.block.block
                    ),
                    "programs may only sense the wordlines the placement map resolved",
                ));
                continue;
            }
        };
        ids.push(id);
        let mask = polarity.get(id).copied().unwrap_or(0);
        if mask == 0 {
            continue; // no literal references this operand
        }
        // A literal is raw-positive when its negation matches the stored
        // inversion (planner `resolve`); the wordline's candidate raw
        // polarities are those of the literals referencing its operand.
        let mut candidates = 0u8;
        if mask & 0b01 != 0 {
            candidates |= if inverted { 0b01 } else { 0b10 };
        }
        if mask & 0b10 != 0 {
            candidates |= if inverted { 0b10 } else { 0b01 };
        }
        possible &= candidates;
    }
    if possible == 0 {
        out.push(finding(
            LintCode::Fc003,
            cloc(),
            "activated wordlines mix raw-positive and raw-complement storage".to_string(),
            "a threshold vote needs uniform raw polarity across its wordlines (§6.1)",
        ));
    }

    // FC002 — partial-count ban: every ThresholdMws must realize a
    // *complete* threshold node of the unit expression. A chip-side vote
    // over a subset of a (cross-plane) threshold's literals counts only
    // the local wordlines and is silently wrong.
    ids.sort_unstable();
    ids.dedup();
    let complete = thresholds.iter().any(|(tn, tids)| *tn == n && tids == ids);
    if !complete {
        out.push(finding(
            LintCode::Fc002,
            cloc(),
            format!(
                "chip threshold votes over {n} wordline(s) matching no complete threshold node of the unit expression"
            ),
            "spanning thresholds must expand through the crossdie split, never partial-count on one die",
        ));
        return;
    }

    // FC003 — dual-bound cross-check when the whole unit is one
    // threshold over literals (the try_compile_threshold lowering, which
    // emits single-command programs).
    if program_len != 1 {
        return;
    }
    if let Nnf::Threshold { k: logical_k, children } = &unit.nnf {
        if children.len() == n && possible.count_ones() == 1 {
            let raw_positive = possible & 0b10 != 0;
            let (want_k, want_not) =
                if raw_positive { (n - logical_k + 1, true) } else { (*logical_k, false) };
            if chip_k != want_k || controller_not != want_not {
                out.push(finding(
                    LintCode::Fc003,
                    cloc(),
                    format!(
                        "threshold({logical_k} of {n}) over raw-{} storage lowered to chip k={chip_k}, controller_not={controller_not}; expected k={want_k}, controller_not={want_not}",
                        if raw_positive { "positive" } else { "complement" }
                    ),
                    "raw-positive votes lower through the dual k' = n - k + 1 with a controller NOT",
                ));
            }
        }
    }
}

/// Fills per-operand literal-polarity masks into the shared scratch
/// slice, recording which entries were set so the caller can clear them.
fn collect_literals(nnf: &Nnf, polarity: &mut [u8], touched: &mut Vec<OperandId>) {
    match nnf {
        Nnf::Literal(l) => {
            if let Some(mask) = polarity.get_mut(l.id) {
                if *mask == 0 {
                    touched.push(l.id);
                }
                *mask |= 1 << u8::from(l.negated);
            }
        }
        Nnf::And(cs) | Nnf::Or(cs) => {
            cs.iter().for_each(|c| collect_literals(c, polarity, touched))
        }
        Nnf::Xor(a, b) => {
            collect_literals(a, polarity, touched);
            collect_literals(b, polarity, touched);
        }
        Nnf::Threshold { children, .. } => {
            children.iter().for_each(|c| collect_literals(c, polarity, touched));
        }
    }
}

/// Collects every threshold node whose children are all literals as
/// `(children_count, sorted operand-id set)` — the complete votes a
/// `ThresholdMws` may legitimately realize.
fn collect_thresholds(nnf: &Nnf, out: &mut Vec<(usize, Vec<OperandId>)>) {
    match nnf {
        Nnf::Literal(_) => {}
        Nnf::And(cs) | Nnf::Or(cs) => cs.iter().for_each(|c| collect_thresholds(c, out)),
        Nnf::Xor(a, b) => {
            collect_thresholds(a, out);
            collect_thresholds(b, out);
        }
        Nnf::Threshold { children, .. } => {
            let mut ids = Vec::with_capacity(children.len());
            let mut all_literals = true;
            for c in children {
                match c {
                    Nnf::Literal(l) => {
                        ids.push(l.id);
                    }
                    other => {
                        all_literals = false;
                        collect_thresholds(other, out);
                    }
                }
            }
            if all_literals {
                ids.sort_unstable();
                ids.dedup();
                out.push((children.len(), ids));
            }
        }
    }
}

fn tree_leaves(tree: &MergeTree, out: &mut Vec<usize>) {
    match tree {
        MergeTree::Leaf(i) => out.push(*i),
        MergeTree::Node(_, parts) => parts.iter().for_each(|p| tree_leaves(p, out)),
    }
}

// ---------------------------------------------------------------------------
// Pass 2 — device audit (FC101–FC107).
// ---------------------------------------------------------------------------

impl DeviceCore {
    /// Cross-checks whole-device metadata — FTL aliasing, parity-stripe
    /// integrity and coverage, result-cache stamps, queued-job stamps,
    /// placement, name and wear bookkeeping — and returns the findings,
    /// sorted by `(code, location)`. Inspects only; never executes or
    /// mutates. Wired in automatically after every drain or sync read
    /// that senses, in debug builds (see [`crate::audit`]).
    pub fn audit(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.audit_ftl_aliasing(&mut out);
        self.audit_parity(&mut out);
        self.audit_cache_stamps(&mut out);
        self.audit_job_stamps(&mut out);
        self.audit_placement(&mut out);
        sort_findings(&mut out);
        out
    }

    /// FC101 — every physical page is mapped by at most one logical page,
    /// except the declared `ml_page` aliasing of multi-level wordlines.
    fn audit_ftl_aliasing(&self, out: &mut Vec<Finding>) {
        let mut by_ppa: HashMap<Ppa, Vec<(u64, PageMeta)>> = HashMap::new();
        for (lpn, ppa, meta) in self.ssd.mapped_snapshot() {
            by_ppa.entry(ppa).or_default().push((lpn, meta));
        }
        for (ppa, mut entries) in by_ppa {
            if entries.len() < 2 {
                continue;
            }
            entries.sort_by_key(|&(lpn, _)| lpn);
            let lpns: Vec<u64> = entries.iter().map(|&(lpn, _)| lpn).collect();
            let loc = format!(
                "ppa (plane {}, block {}, wl {})",
                ppa.plane.flat(self.ssd.config()),
                ppa.block,
                ppa.wl
            );
            let bpc = entries
                .iter()
                .map(|(_, m)| m.scheme.cell_mode().bits_per_cell() as usize)
                .min()
                .unwrap_or(1);
            let pages: BTreeSet<u8> = entries.iter().map(|(_, m)| m.ml_page).collect();
            let declared = bpc > 1 && pages.len() == entries.len() && entries.len() <= bpc;
            if !declared {
                out.push(finding(
                    LintCode::Fc101,
                    loc,
                    format!(
                        "physical page multi-mapped by logical pages {lpns:?} without distinct multi-level ml_page declarations"
                    ),
                    "aliasing is only legal for the 2-3 Gray-code pages of one MLC/TLC wordline",
                ));
            }
        }
    }

    /// FC102/FC103 — parity stripes die-disjoint with no double
    /// membership or dangling pages, and (warn) every non-ML FC data
    /// page covered when parity is enabled.
    fn audit_parity(&self, out: &mut Vec<Finding>) {
        let cfg = self.ssd.config();
        let total_dies = cfg.total_dies();
        let healthy_dies = total_dies.saturating_sub(self.recovery.failed_dies.len());
        let mut stripes: Vec<_> = self.recovery.stripes.iter().collect();
        stripes.sort_by_key(|&(id, _)| id);

        let mut member_count: HashMap<u64, u32> = HashMap::new();
        for (_, s) in &stripes {
            for &m in &s.members {
                *member_count.entry(m).or_insert(0) += 1;
            }
        }
        let mut doubled: BTreeSet<u64> = BTreeSet::new();
        for (id, s) in &stripes {
            let loc = format!("stripe {id}");
            let mut member_dies: Vec<usize> = Vec::new();
            for &m in &s.members {
                if member_count.get(&m).copied().unwrap_or(0) > 1 && doubled.insert(m) {
                    out.push(finding(
                        LintCode::Fc102,
                        loc.clone(),
                        format!("page {m} is a member of more than one parity stripe"),
                        "a page's rebuild source must be unique; re-stripe through the chokepoint",
                    ));
                }
                match self.ssd.translate(m) {
                    Some(ppa) => member_dies.push(ppa.plane.die.flat(cfg)),
                    None => {
                        if !self.recovery.lost_pages.contains(&m) {
                            out.push(finding(
                                LintCode::Fc102,
                                loc.clone(),
                                format!("member page {m} is unmapped and not recorded as lost"),
                                "unprotect pages before trimming them",
                            ));
                        }
                    }
                }
            }
            let distinct: BTreeSet<usize> = member_dies.iter().copied().collect();
            // Die-disjointness is only *required* when enough healthy dies
            // exist — the placement ladder legitimately degrades when
            // failed dies shrink the pool.
            if distinct.len() < member_dies.len() && healthy_dies >= s.members.len() {
                out.push(finding(
                    LintCode::Fc102,
                    loc.clone(),
                    format!(
                        "members share dies ({} distinct for {} mapped members) with {healthy_dies} healthy dies available",
                        distinct.len(),
                        member_dies.len()
                    ),
                    "stripe members must sit on pairwise-distinct dies to survive a die loss",
                ));
            }
            match self.ssd.translate(s.parity_lpn) {
                Some(ppa) => {
                    let pdie = ppa.plane.die.flat(cfg);
                    let spare_healthy_die = (0..total_dies)
                        .any(|d| !self.recovery.failed_dies.contains(&d) && !distinct.contains(&d));
                    if distinct.contains(&pdie) && spare_healthy_die {
                        out.push(finding(
                            LintCode::Fc102,
                            loc.clone(),
                            format!(
                                "parity page {} shares die {pdie} with a member while a healthy die outside the stripe exists",
                                s.parity_lpn
                            ),
                            "place parity on a die disjoint from every member",
                        ));
                    }
                }
                None => {
                    if !self.recovery.lost_pages.contains(&s.parity_lpn) {
                        out.push(finding(
                            LintCode::Fc102,
                            loc,
                            format!(
                                "parity page {} is unmapped and not recorded as lost",
                                s.parity_lpn
                            ),
                            "a stripe without parity cannot rebuild; remove or re-protect it",
                        ));
                    }
                }
            }
        }

        // FC103 (warn) — coverage: with parity enabled, every non-ML
        // Flash-Cosmos data page belongs to exactly one stripe (or is a
        // parity page itself).
        if self.recovery.parity_enabled {
            let mut uncovered: Vec<u64> = Vec::new();
            for (lpn, _ppa, meta) in self.ssd.mapped_snapshot() {
                if meta.randomized
                    || meta.ecc
                    || meta.scheme.cell_mode().bits_per_cell() > 1
                    || self.recovery.lost_pages.contains(&lpn)
                    || self.recovery.stripes.stripe_of_member(lpn).is_some()
                    || self.recovery.stripes.stripe_of_parity(lpn).is_some()
                {
                    continue;
                }
                uncovered.push(lpn);
            }
            if !uncovered.is_empty() {
                uncovered.sort_unstable();
                uncovered.truncate(8);
                out.push(finding(
                    LintCode::Fc103,
                    "parity coverage".to_string(),
                    format!(
                        "FC data pages outside every parity stripe while parity is enabled (first few: {uncovered:?})"
                    ),
                    "pages written before enable_parity() stay uncovered; rewrite them to protect them",
                ));
            }
        }

        // FC104 (warn) — the documented ML protection gap, surfaced
        // honestly: parity is on but multi-level operands sit outside
        // the parity/scrub tiers (see fc_write_ml's protection contract).
        if self.recovery.parity_enabled {
            let ml = self.operands.iter().filter(|r| r.ml).count();
            if ml > 0 {
                out.push(finding(
                    LintCode::Fc104,
                    "protection tiers".to_string(),
                    format!(
                        "{ml} multi-level operand(s) are outside the parity and scrub tiers (read-retry only)"
                    ),
                    "keep data that must survive die loss in SLC/ESP storage, or accept the documented density trade",
                ));
            }
        }
    }

    /// FC105 — every result-cache entry's stamp names exactly the
    /// operands of its query (a hit on stamp equality is sound only
    /// then), carries the device's epoch, and holds no generation newer
    /// than the operand table's data generation. A stamp older than the
    /// table's is fine: the entry is stale, misses, and its query's next
    /// execution refreshes it in place.
    fn audit_cache_stamps(&self, out: &mut Vec<Finding>) {
        let cache = self.session.cache();
        for (key, stamp) in cache.stamps() {
            let named: Vec<OperandId> = key.operands().into_iter().collect();
            if !stamp.gens.iter().map(|&(id, _)| id).eq(named.iter().copied()) {
                let stamped: Vec<OperandId> = stamp.gens.iter().map(|&(id, _)| id).collect();
                out.push(finding(
                    LintCode::Fc105,
                    "result cache".to_string(),
                    format!(
                        "entry for a query over {named:?} is stamped with operands {stamped:?}"
                    ),
                    "a unit's stamp holds one generation per operand of its query, ascending by id",
                ));
            }
            if stamp.epoch != self.epoch {
                out.push(finding(
                    LintCode::Fc105,
                    "result cache".to_string(),
                    format!(
                        "entry stamped epoch {} survived into epoch {}",
                        stamp.epoch, self.epoch
                    ),
                    "epoch bumps must clear the cache (the ssd_mut chokepoint)",
                ));
            }
            for &(id, gen) in &stamp.gens {
                let live = self.operand_data_generation(id);
                if id >= self.operands.len() {
                    out.push(finding(
                        LintCode::Fc105,
                        "result cache".to_string(),
                        format!("entry references unknown operand v{id}"),
                        "stamps are built from validated units only",
                    ));
                } else if gen > live {
                    out.push(finding(
                        LintCode::Fc105,
                        "result cache".to_string(),
                        format!(
                            "entry stamped v{id}@{gen}, newer than the table's data generation {live}"
                        ),
                        "generations are handed out by bump_generation only; never forge stamps",
                    ));
                }
            }
        }
    }

    /// FC106 — queued background jobs are stamped with live state:
    /// regroup jobs name known operands, reachable generations and
    /// existing dies; refreshes name allocated pages.
    fn audit_job_stamps(&self, out: &mut Vec<Finding>) {
        let total_dies = self.ssd.config().total_dies();
        for (ji, job) in self.jobs.iter().enumerate() {
            let loc = format!("job {ji}");
            let job = match job {
                Job::Regroup(job) => job,
                Job::Scrub { lpn } => {
                    if *lpn >= self.next_lpn {
                        out.push(finding(
                            LintCode::Fc106,
                            loc,
                            format!("scrub queued for never-allocated page {lpn}"),
                            "scrub candidates come from the mapped-page scan",
                        ));
                    }
                    continue;
                }
            };
            match self.operands.get(job.operand) {
                None => out.push(finding(
                    LintCode::Fc106,
                    loc.clone(),
                    format!("job targets unknown operand v{}", job.operand),
                    "plan jobs from the live operand table",
                )),
                Some(r) if job.expected_generation > r.generation => out.push(finding(
                    LintCode::Fc106,
                    loc.clone(),
                    format!(
                        "job expects generation {} but the table has only reached {}",
                        job.expected_generation, r.generation
                    ),
                    "expected generations are snapshots of the past, never the future",
                )),
                Some(_) => {}
            }
            if job.target_die >= total_dies {
                out.push(finding(
                    LintCode::Fc106,
                    loc,
                    format!("job targets die {} of a {total_dies}-die SSD", job.target_die),
                    "validate target dies at planning time",
                ));
            }
        }
    }

    /// FC107 — the operand plane cache agrees with the FTL, and group,
    /// domain and wear bookkeeping agree with the SSD's geometry.
    fn audit_placement(&self, out: &mut Vec<Finding>) {
        let cfg = self.ssd.config();
        let total_planes = cfg.total_planes();
        let total_dies = cfg.total_dies();
        for (id, r) in self.operands.iter().enumerate() {
            let loc = format!("operand v{id} ({:?})", r.name);
            if r.planes.len() != r.lpns.len() {
                out.push(finding(
                    LintCode::Fc107,
                    loc.clone(),
                    format!(
                        "plane cache out of step: {} pages, {} planes",
                        r.lpns.len(),
                        r.planes.len()
                    ),
                    "update lpns and planes together on every placement change",
                ));
                continue;
            }
            for (slot, &lpn) in r.lpns.iter().enumerate() {
                if self.recovery.lost_pages.contains(&lpn) {
                    continue;
                }
                match self.ssd.translate(lpn) {
                    Some(ppa) if ppa.plane == r.planes[slot] => {}
                    Some(ppa) => out.push(finding(
                        LintCode::Fc107,
                        loc.clone(),
                        format!(
                            "slot {slot}: cached on flat plane {} but the FTL maps page {lpn} to flat plane {}",
                            r.planes[slot].flat(cfg),
                            ppa.plane.flat(cfg)
                        ),
                        "refresh the plane cache whenever a page moves (the compile hot path trusts it)",
                    )),
                    None => out.push(finding(
                        LintCode::Fc107,
                        loc.clone(),
                        format!("slot {slot}: page {lpn} is unmapped and not recorded as lost"),
                        "operand pages stay mapped until the operand is rewritten",
                    )),
                }
            }
            if !self.group_place.contains_key(&r.group_index) {
                out.push(finding(
                    LintCode::Fc107,
                    loc,
                    format!("placement group {} has no recorded base plane", r.group_index),
                    "group placement is resolved before the first write lands",
                ));
            }
        }
        let mut groups: Vec<_> = self.groups.iter().collect();
        groups.sort();
        for (name, &gi) in groups {
            if !self.group_place.contains_key(&gi) {
                out.push(finding(
                    LintCode::Fc107,
                    format!("group {name:?}"),
                    format!("group index {gi} registered without a placement"),
                    "group_placement() records the name and the place atomically",
                ));
            }
        }
        let mut places: Vec<_> = self.group_place.iter().collect();
        places.sort_by_key(|&(gi, _)| gi);
        for (gi, place) in places {
            check_place(
                out,
                format!("group {gi} placement"),
                place.base_plane,
                place.pinned_die,
                total_planes,
                total_dies,
            );
        }
        let mut domains: Vec<_> = self.domain_place.iter().collect();
        domains.sort_by_key(|&(name, _)| name);
        for (name, place) in domains {
            check_place(
                out,
                format!("colocation domain {name:?}"),
                place.base_plane,
                place.pinned_die,
                total_planes,
                total_dies,
            );
        }
        // Each plane's P/E counter, which maintenance plans with, against
        // the sum over the plane's blocks.
        for (plane, counted) in self.plane_wear().into_iter().enumerate() {
            let pid = PlaneId::from_flat(plane, cfg);
            let chip = self.ssd.chip(pid.die);
            let scanned: u64 = (0..cfg.blocks_per_plane as u32)
                .map(|b| chip.block_pec(BlockAddr::new(pid.plane, b)).map_or(0, u64::from))
                .sum();
            if counted != scanned {
                out.push(finding(
                    LintCode::Fc107,
                    format!("plane {plane} wear"),
                    format!("P/E counter reads {counted} but the plane's blocks sum to {scanned}"),
                    "erases and cycle_block move the plane's counter by the block's actual increase",
                ));
            }
        }
        self.audit_names(out);
    }

    /// FC107's name-table check: the name table and the operand table are
    /// one bijection — every operand's name maps back to its id, and every
    /// name maps to the operand that bears it, so the table holds one
    /// name per operand — and no operand name is also a durable record's
    /// (operands and durable records share one namespace).
    fn audit_names(&self, out: &mut Vec<Finding>) {
        for (id, r) in self.operands.iter().enumerate() {
            let loc = format!("operand v{id} ({:?})", r.name);
            let message = match self.names.get(&r.name) {
                Some(&mapped) if mapped == id => None,
                Some(&mapped) => Some(format!("its name maps to operand v{mapped}")),
                None => Some("the name table has no entry for it".to_string()),
            };
            if let Some(message) = message {
                out.push(finding(
                    LintCode::Fc107,
                    loc.clone(),
                    message,
                    "a write registers the name with the record it creates, in one step",
                ));
            }
            if self.recovery.durables.contains_key(&r.name) {
                out.push(finding(
                    LintCode::Fc107,
                    loc,
                    "a durable record has the same name".to_string(),
                    "operand and durable writes both reject a taken name (name_taken)",
                ));
            }
        }
        let mut names: Vec<_> = self.names.iter().collect();
        names.sort();
        for (name, &id) in names {
            if self.operands.get(id).is_none_or(|r| r.name != *name) {
                out.push(finding(
                    LintCode::Fc107,
                    format!("name {name:?}"),
                    format!("maps to operand v{id}, which is not named {name:?}"),
                    "names are registered once, with the record they name",
                ));
            }
        }
    }
}

fn check_place(
    out: &mut Vec<Finding>,
    loc: String,
    base_plane: usize,
    pinned_die: Option<usize>,
    total_planes: usize,
    total_dies: usize,
) {
    if base_plane >= total_planes {
        out.push(finding(
            LintCode::Fc107,
            loc.clone(),
            format!("base plane {base_plane} outside the {total_planes}-plane SSD"),
            "the spread rule chooses among existing planes",
        ));
    }
    if pinned_die.is_some_and(|d| d >= total_dies) {
        out.push(finding(
            LintCode::Fc107,
            loc,
            format!("pinned die {} outside the {total_dies}-die SSD", pinned_die.unwrap_or(0)),
            "die pins are validated before anything is cached",
        ));
    }
}

// ---------------------------------------------------------------------------
// Mutation harness (self-tests of the analyzer; hidden from docs).
// ---------------------------------------------------------------------------

/// A compiled batch held for linting outside the enforcement hooks —
/// the mutation harness corrupts it and asserts the matching code fires.
#[doc(hidden)]
pub struct PlanProbe {
    pub(crate) compiled: CompiledBatch,
}

/// Seeded plan corruptions; each targets exactly one plan-lint code.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMutation {
    /// OR a foreign wordline into an MWS target's PBM → `FC001`.
    ForgeWordline,
    /// Clear one spanning stripe's merge recipe → `FC002`.
    DropMerge,
    /// Skew a chip threshold's k beyond its wordline count → `FC003`.
    SkewThresholdK,
    /// Replace a controller-eval (ML) unit with an execute unit → `FC004`.
    RetagMlAsExecute,
    /// Bump one generation in a unit's stamp → `FC005`.
    SkewUnitGeneration,
    /// Stamp a unit with an operand's placement generation where it
    /// differs from the data generation (after a migration) → `FC005`.
    StampPlacementGeneration,
    /// Re-queue a leaf on another die → `FC006` (and usually `FC001`).
    MisrouteLeafDie,
    /// Empty a unit's consumer list → `FC007` (its senses price no
    /// query, and the query it fed goes uncovered).
    OrphanUnit,
}

/// Seeded device corruptions; each targets one device-audit code.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMutation {
    /// Alias a fresh LPN onto an operand's physical page → `FC101`.
    AliasLpn,
    /// Register a second stripe over an existing member → `FC102`.
    DoubleStripeMember,
    /// Drop one member from a stripe (now uncovered) → `FC103` (warn).
    DropParityMember,
    /// Insert a cache entry stamped with a future generation → `FC105`.
    SkewCacheGeneration,
    /// Drop one operand from a resident cache entry's stamp → `FC105`.
    DropStampOperand,
    /// Queue a regroup job for a nonexistent operand → `FC106`.
    DeadJob,
    /// Queue a scrub for a never-allocated page → `FC106`.
    UnmappedScrub,
    /// Corrupt one slot of an operand's cached plane → `FC107`.
    SwapOperandPlane,
    /// Remove an operand's name-table entry, orphaning its record →
    /// `FC107`.
    OrphanRecord,
}

impl DeviceCore {
    /// Compiles a batch into a [`PlanProbe`] for the mutation harness
    /// (and the plan-lint benchmarks), the way every read compiles it.
    #[doc(hidden)]
    pub fn compile_probe(&self, batch: &QueryBatch) -> Result<PlanProbe, FcError> {
        Ok(PlanProbe { compiled: self.compile_batch(batch)? })
    }

    /// Runs pass 1 over a probe without enforcement.
    #[doc(hidden)]
    pub fn lint_probe(&self, probe: &PlanProbe) -> Vec<Finding> {
        lint_plan(self, &probe.compiled)
    }

    /// Applies one seeded corruption to a probe. Returns `false` when
    /// the probe holds nothing the mutation applies to (e.g. no merge
    /// to drop) — the harness treats that as a test-setup error.
    #[doc(hidden)]
    pub fn corrupt_probe(&self, probe: &mut PlanProbe, mutation: PlanMutation) -> bool {
        let cfg = self.ssd.config();
        let units = &mut probe.compiled.units;
        match mutation {
            PlanMutation::ForgeWordline => units.iter_mut().any(|u| {
                let UnitWork::Execute { leaves, .. } = &mut u.work else { return false };
                leaves.iter_mut().any(|leaf| {
                    leaf.program.commands.iter_mut().any(|c| match c {
                        Command::Mws { targets, .. } if !targets.is_empty() => {
                            targets[0].pbm |= 1 << 63;
                            true
                        }
                        _ => false,
                    })
                })
            }),
            PlanMutation::DropMerge => units.iter_mut().any(|u| {
                let UnitWork::Execute { merges, .. } = &mut u.work else { return false };
                let Some(merge) = merges.iter_mut().find(|m| m.is_some()) else { return false };
                *merge = None;
                true
            }),
            PlanMutation::SkewThresholdK => units.iter_mut().any(|u| {
                let UnitWork::Execute { leaves, .. } = &mut u.work else { return false };
                leaves.iter_mut().any(|leaf| {
                    leaf.program.commands.iter_mut().any(|c| match c {
                        Command::ThresholdMws { target, k } => {
                            *k = target.wl_count() + 5;
                            true
                        }
                        _ => false,
                    })
                })
            }),
            PlanMutation::RetagMlAsExecute => units.iter_mut().any(|u| {
                if !matches!(u.work, UnitWork::Controller { .. }) {
                    return false;
                }
                u.work = UnitWork::Execute {
                    leaves: Vec::new(),
                    slots: Vec::new(),
                    merges: vec![None; u.pages],
                };
                true
            }),
            PlanMutation::SkewUnitGeneration => units.iter_mut().any(|u| {
                let Some(stamp) = u.stamp.gens.first_mut() else { return false };
                stamp.1 += 1;
                true
            }),
            PlanMutation::StampPlacementGeneration => units.iter_mut().any(|u| {
                u.stamp.gens.iter_mut().any(|(id, gen)| {
                    let placement = self.operand_generation(*id);
                    let moved = placement != *gen;
                    *gen = placement;
                    moved
                })
            }),
            PlanMutation::MisrouteLeafDie => {
                if cfg.total_dies() < 2 {
                    return false;
                }
                units.iter_mut().any(|u| {
                    let UnitWork::Execute { leaves, .. } = &mut u.work else { return false };
                    let Some(leaf) = leaves.first_mut() else { return false };
                    let flat = leaf.plane.flat(cfg);
                    let moved = (flat + cfg.planes_per_die) % cfg.total_planes();
                    leaf.plane = PlaneId::from_flat(moved, cfg);
                    true
                })
            }
            PlanMutation::OrphanUnit => units.iter_mut().any(|u| {
                if u.consumers.is_empty() {
                    return false;
                }
                u.consumers.clear();
                true
            }),
        }
    }

    /// Applies one seeded corruption to the live device state,
    /// deliberately bypassing the epoch/generation chokepoints (that is
    /// the point: the audit must catch what the chokepoints would have
    /// prevented). Returns `false` when the device holds nothing the
    /// mutation applies to.
    #[doc(hidden)]
    pub fn corrupt_for_audit(&mut self, mutation: DeviceMutation) -> bool {
        match mutation {
            DeviceMutation::AliasLpn => {
                let Some(target) =
                    self.operands.iter().find(|r| !r.ml).and_then(|r| r.lpns.first().copied())
                else {
                    return false;
                };
                let fresh = self.next_lpn;
                self.next_lpn += 1;
                self.ssd
                    .ftl_mut_for_audit()
                    .alias(fresh, target, PageMeta::flash_cosmos(false))
                    .is_ok()
            }
            DeviceMutation::DoubleStripeMember => {
                let Some((_, member, parity)) = self
                    .recovery
                    .stripes
                    .iter()
                    .map(|(id, s)| (id, s.members[0], s.parity_lpn))
                    .min_by_key(|&(id, _, _)| id)
                else {
                    return false;
                };
                let id = self.recovery.next_stripe_id;
                self.recovery.next_stripe_id += 1;
                self.recovery.stripes.insert(id, vec![member], parity);
                true
            }
            DeviceMutation::DropParityMember => {
                let Some((id, members, parity)) = self
                    .recovery
                    .stripes
                    .iter()
                    .filter(|(_, s)| s.members.len() >= 2)
                    .map(|(id, s)| (id, s.members.clone(), s.parity_lpn))
                    .min_by_key(|&(id, _, _)| id)
                else {
                    return false;
                };
                let kept = members[..members.len() - 1].to_vec();
                self.recovery.stripes.insert(id, kept, parity);
                true
            }
            DeviceMutation::SkewCacheGeneration => {
                if self.operands.is_empty() {
                    return false;
                }
                let forged = self.operand_generation(0) + 7;
                let key = Arc::new(Nnf::Literal(crate::expr::Literal { id: 0, negated: false }));
                let stamp = Stamp { epoch: self.epoch, gens: vec![(0usize, forged)] };
                self.session.cache().insert(&key, &stamp, &BitVec::zeros(8), 1);
                true
            }
            DeviceMutation::DropStampOperand => {
                // The eviction victim is the first resident entry: a
                // seeded choice, unlike hash order. Re-inserting its query
                // refreshes the entry in place with the shortened stamp.
                let mut cache = self.session.cache();
                let Some((key, mut stamp)) =
                    cache.stamps().next().map(|(key, stamp)| (Arc::clone(key), stamp.clone()))
                else {
                    return false;
                };
                if stamp.gens.pop().is_none() {
                    return false;
                }
                cache.insert(&key, &stamp, &BitVec::zeros(8), 1);
                true
            }
            DeviceMutation::DeadJob => {
                let dead = self.operands.len() + 41;
                self.jobs.push_back(Job::Regroup(RegroupJob {
                    operand: dead,
                    expected_generation: u64::MAX,
                    target_die: 0,
                    set_key: u64::MAX,
                    inverted: false,
                }));
                true
            }
            DeviceMutation::UnmappedScrub => {
                self.jobs.push_back(Job::Scrub { lpn: u64::MAX });
                true
            }
            DeviceMutation::SwapOperandPlane => {
                let cfg = self.ssd.config().clone();
                let Some(r) = self.operands.iter_mut().find(|r| !r.planes.is_empty()) else {
                    return false;
                };
                let flat = r.planes[0].flat(&cfg);
                r.planes[0] = PlaneId::from_flat((flat + 1) % cfg.total_planes(), &cfg);
                true
            }
            DeviceMutation::OrphanRecord => {
                let Some(r) = self.operands.first() else { return false };
                self.names.remove(&r.name).is_some()
            }
        }
    }
}

impl FlashCosmosDevice {
    /// Cross-checks whole-device metadata — FTL aliasing, parity-stripe
    /// integrity and coverage, result-cache stamps, queued-job stamps,
    /// placement, name and wear bookkeeping — and returns the findings,
    /// sorted by `(code, location)`. Inspects only; never executes or
    /// mutates. Runs under the shared device lock (the automatic hook in
    /// the background tail instead audits under the exclusive lock — a
    /// snapshot no concurrent reader can shear).
    pub fn audit(&self) -> Vec<Finding> {
        self.core().audit()
    }

    /// Compiles a batch into a [`PlanProbe`] for the mutation harness
    /// (and the plan-lint benchmarks), the way every read compiles it.
    #[doc(hidden)]
    pub fn compile_probe(&self, batch: &QueryBatch) -> Result<PlanProbe, FcError> {
        self.core().compile_probe(batch)
    }

    /// Runs pass 1 over a probe without enforcement.
    #[doc(hidden)]
    pub fn lint_probe(&self, probe: &PlanProbe) -> Vec<Finding> {
        self.core().lint_probe(probe)
    }

    /// Applies one seeded corruption to a probe. Returns `false` when
    /// the probe holds nothing the mutation applies to (e.g. no merge
    /// to drop) — the harness treats that as a test-setup error.
    #[doc(hidden)]
    pub fn corrupt_probe(&self, probe: &mut PlanProbe, mutation: PlanMutation) -> bool {
        self.core().corrupt_probe(probe, mutation)
    }

    /// Applies one seeded corruption to the live device state,
    /// deliberately bypassing the epoch/generation chokepoints (that is
    /// the point: the audit must catch what the chokepoints would have
    /// prevented). Returns `false` when the device holds nothing the
    /// mutation applies to.
    #[doc(hidden)]
    pub fn corrupt_for_audit(&mut self, mutation: DeviceMutation) -> bool {
        self.core_mut().corrupt_for_audit(mutation)
    }
}
