//! The MWS program compiler: lowers a normalized expression onto the
//! chip's command set (§6.1, §6.2, Fig. 16).
//!
//! ## Circuit-derived compilation rules
//!
//! The latch periphery imposes exactly these constraints (see
//! `fc_nand::latch`):
//!
//! 1. A normal sense AND-accumulates into the S-latch; one MWS command
//!    senses `OR` over its block-targets of (`AND` of each target's
//!    wordlines) — Eq. (1).
//! 2. An inverse sense *re-initializes* the S-latch (Fig. 4), so a
//!    program gets at most **one** inverse command and it must come
//!    first (the Fig. 16 ordering rule).
//! 3. The M3 transfer OR-accumulates into the C-latch; a clean copy
//!    needs a C-latch init in the same command.
//!
//! From these, two composition strategies:
//!
//! * **S-strategy (AND of groups)** — one optional leading inverse
//!   command computes the AND of all *complement-flavored* groups (each
//!   group one block-target; De Morgan turns the sensed `OR` into the
//!   required `AND` under the inversion); subsequent normal commands
//!   AND-accumulate the positive groups; the final command carries
//!   `init_c + transfer`.
//! * **C-strategy (OR of children)** — each child compiles to its own
//!   S-strategy sub-sequence ending in a transfer; the C-latch
//!   OR-accumulates across children. This also lets Flash-Cosmos OR more
//!   blocks than the inter-block power cap allows, at one extra command
//!   per chunk.
//!
//! Literal polarity folds the §6.1 inverse-storage trick in: a literal is
//! *raw-positive* when `negated == stored_inverted` (the raw page equals
//! the literal's value), *raw-complement* otherwise.

use std::collections::HashMap;

use fc_nand::calib::timing;
use fc_nand::command::{Command, IscmFlags, MwsTarget};
use fc_nand::geometry::{BlockAddr, WlAddr};
use serde::{Deserialize, Serialize};

use crate::expr::{flatten_and, flatten_or, Literal, Nnf, OperandId};

/// Where one operand's page lives on the plane, and how it was stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    /// Wordline holding the operand's page.
    pub wl: WlAddr,
    /// Whether the *inverse* of the operand was stored (§6.1).
    pub inverted: bool,
}

/// Operand-to-wordline mapping for one plane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementMap {
    inner: HashMap<OperandId, Placement>,
}

impl PlacementMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an operand's placement.
    pub fn insert(&mut self, id: OperandId, wl: WlAddr, inverted: bool) {
        self.inner.insert(id, Placement { wl, inverted });
    }

    /// Looks up an operand.
    pub fn get(&self, id: OperandId) -> Option<Placement> {
        self.inner.get(&id).copied()
    }

    /// Number of placed operands.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Chip capabilities the planner must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannerCaps {
    /// Power cap on blocks per MWS command (Table 1: 4).
    pub max_inter_blocks: usize,
    /// Wordlines per block (string length; Table 1: 48).
    pub wls_per_block: usize,
}

impl Default for PlannerCaps {
    fn default() -> Self {
        Self { max_inter_blocks: timing::MAX_INTER_BLOCKS, wls_per_block: 48 }
    }
}

impl PlannerCaps {
    /// The caps of a concrete SSD configuration — the single source the
    /// batch compiler, the planner and the platform models plan against.
    pub fn for_config(config: &fc_ssd::SsdConfig) -> Self {
        Self { max_inter_blocks: config.max_inter_blocks, wls_per_block: config.wls_per_block }
    }
}

/// Planner failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// An operand has no placement on this plane.
    NoPlacement(OperandId),
    /// The expression references wordlines on different planes (a latch
    /// bank is per-plane).
    PlaneMismatch,
    /// One MWS command would need two targets in the same block (a block
    /// is activated once per sense).
    BlockConflict(BlockAddr),
    /// A command would activate more blocks than the power cap allows.
    PowerCapExceeded {
        /// Blocks the command needs.
        needed: usize,
        /// Configured cap.
        cap: usize,
    },
    /// The expression shape cannot be lowered with the circuit's latch
    /// rules and the current data layout. The payload explains which rule
    /// failed; re-storing operands inverted or regrouping usually fixes it.
    Unplannable(String),
    /// XOR is supported only between two literals (the chip XOR logic
    /// combines the two latches once).
    UnsupportedXor,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoPlacement(id) => write!(f, "operand v{id} has no placement"),
            PlanError::PlaneMismatch => write!(f, "operands span multiple planes"),
            PlanError::BlockConflict(b) => {
                write!(f, "two targets in the same block {b} within one MWS command")
            }
            PlanError::PowerCapExceeded { needed, cap } => {
                write!(f, "command needs {needed} blocks, power cap is {cap}")
            }
            PlanError::Unplannable(msg) => write!(f, "expression cannot be lowered: {msg}"),
            PlanError::UnsupportedXor => {
                write!(f, "XOR is only supported between two literals")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled MWS program for one plane.
#[derive(Debug, Clone, PartialEq)]
pub struct MwsProgram {
    /// Chip commands, in order. The final data lands in the C-latch.
    pub commands: Vec<Command>,
    /// Whether the controller must complement the read-out page (the
    /// De Morgan fallback when the chip-side inverse could not be used).
    pub controller_not: bool,
    /// Plane the program runs on.
    pub plane: u32,
}

impl MwsProgram {
    /// Number of sensing operations (MWS commands) in the program — the
    /// paper's headline cost metric.
    pub fn sense_count(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, Command::Mws { .. } | Command::ThresholdMws { .. }))
            .count()
    }
}

/// Compiles an NNF expression into an MWS program.
///
/// # Errors
///
/// Returns a [`PlanError`] when the expression cannot be lowered under
/// the latch rules, the power cap, or the current placement. The caller
/// can retry after re-storing operands (e.g. inverted, §6.1).
pub fn compile(
    nnf: &Nnf,
    placements: &PlacementMap,
    caps: PlannerCaps,
) -> Result<MwsProgram, PlanError> {
    // XOR programs have their own two-command + XorLatch shape.
    if let Nnf::Xor(a, b) = nnf {
        let mut planner = Planner { placements, caps, plane: None };
        return planner.compile_xor(a, b);
    }
    // Dynamic-sense lowering: a top-level threshold whose literals share
    // one block with uniform raw polarity is a single `ThresholdMws`.
    if let Nnf::Threshold { k, children } = nnf {
        let mut planner = Planner { placements, caps, plane: None };
        if let Some(p) = planner.try_compile_threshold(*k, children)? {
            return Ok(p);
        }
    }
    // Any threshold the dynamic sense cannot serve takes the exact
    // OR-of-combinations expansion through the latch strategies.
    let expanded;
    let nnf = if contains_threshold(nnf) {
        expanded = expand_thresholds(nnf)?;
        &expanded
    } else {
        nnf
    };
    let mut planner = Planner { placements, caps, plane: None };
    match planner.compile_and_strategy(nnf) {
        Ok(p) => Ok(p),
        Err(first_err) => {
            // De Morgan fallback: plan the complement and let the
            // controller invert the read-out page.
            let negated = negate_nnf(nnf);
            let mut retry = Planner { placements, caps, plane: None };
            match retry.compile_and_strategy(&negated) {
                Ok(mut p) => {
                    p.controller_not = !p.controller_not;
                    Ok(p)
                }
                Err(_) => Err(first_err),
            }
        }
    }
}

/// Complements an NNF (De Morgan).
pub fn negate_nnf(nnf: &Nnf) -> Nnf {
    match nnf {
        Nnf::Literal(l) => Nnf::Literal(Literal { id: l.id, negated: !l.negated }),
        Nnf::And(cs) => Nnf::Or(cs.iter().map(negate_nnf).collect()),
        Nnf::Or(cs) => Nnf::And(cs.iter().map(negate_nnf).collect()),
        Nnf::Xor(a, b) => Nnf::Xor(Box::new(negate_nnf(a)), Box::new(b.as_ref().clone())),
        // Fewer than k ones means at least n−k+1 zeros:
        // NOT THkₙ(c…) = TH(n−k+1)ₙ(!c…). The NNF invariant 1 < k < n is
        // preserved because k ↦ n−k+1 maps (1, n) onto itself.
        Nnf::Threshold { k, children } => Nnf::Threshold {
            k: children.len() - *k + 1,
            children: children.iter().map(negate_nnf).collect(),
        },
    }
}

/// Whether any threshold node remains in the tree.
fn contains_threshold(nnf: &Nnf) -> bool {
    match nnf {
        Nnf::Literal(_) => false,
        Nnf::And(cs) | Nnf::Or(cs) => cs.iter().any(contains_threshold),
        Nnf::Xor(a, b) => contains_threshold(a) || contains_threshold(b),
        Nnf::Threshold { .. } => true,
    }
}

/// Cap on the number of AND terms one threshold may expand into.
pub(crate) const MAX_THRESHOLD_COMBOS: usize = 10_000;

/// Rewrites every threshold node into its exact `OR` of `C(n, k)`
/// size-`k` `AND` combinations so the latch strategies can lower it.
///
/// This is the fallback when the dynamic sense does not apply (mixed
/// raw polarity, operands spread over blocks or planes, nested votes,
/// repeated wordlines): it is exact — never silently approximate — but
/// costs combinatorially more senses, which is precisely the gap the
/// `ThresholdMws` primitive closes.
pub(crate) fn expand_thresholds(nnf: &Nnf) -> Result<Nnf, PlanError> {
    Ok(match nnf {
        Nnf::Literal(l) => Nnf::Literal(*l),
        Nnf::And(cs) => {
            flatten_and(cs.iter().map(expand_thresholds).collect::<Result<Vec<_>, _>>()?)
        }
        Nnf::Or(cs) => flatten_or(cs.iter().map(expand_thresholds).collect::<Result<Vec<_>, _>>()?),
        Nnf::Xor(a, b) => {
            Nnf::Xor(Box::new(expand_thresholds(a)?), Box::new(expand_thresholds(b)?))
        }
        Nnf::Threshold { k, children } => {
            let children: Vec<Nnf> =
                children.iter().map(expand_thresholds).collect::<Result<Vec<_>, _>>()?;
            let n = children.len();
            if binomial(n, *k) > MAX_THRESHOLD_COMBOS {
                return Err(PlanError::Unplannable(format!(
                    "threshold C({n}, {k}) expansion exceeds {MAX_THRESHOLD_COMBOS} terms; \
                     co-locate the operands in one block so the dynamic sense applies"
                )));
            }
            let disjuncts: Vec<Nnf> = index_combinations(n, *k)
                .into_iter()
                .map(|combo| flatten_and(combo.into_iter().map(|i| children[i].clone()).collect()))
                .collect();
            flatten_or(disjuncts)
        }
    })
}

/// `C(n, k)`, saturating far above [`MAX_THRESHOLD_COMBOS`].
pub(crate) fn binomial(n: usize, k: usize) -> usize {
    let k = k.min(n - k);
    let mut c: usize = 1;
    for i in 0..k {
        // Exact at each step: the running product of i+1 consecutive
        // binomial factors is divisible by (i + 1).
        c = c.saturating_mul(n - i) / (i + 1);
        if c > 1_000_000 {
            return usize::MAX;
        }
    }
    c
}

/// All size-`k` index subsets of `0..n`, lexicographic.
pub(crate) fn index_combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(start: usize, n: usize, k: usize, stack: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if stack.len() == k {
            out.push(stack.clone());
            return;
        }
        for i in start..n {
            if n - i < k - stack.len() {
                break;
            }
            stack.push(i);
            rec(i + 1, n, k, stack, out);
            stack.pop();
        }
    }
    let mut out = Vec::new();
    rec(0, n, k, &mut Vec::with_capacity(k), &mut out);
    out
}

/// A literal resolved against the data layout.
#[derive(Debug, Clone, Copy)]
struct RawLiteral {
    wl: WlAddr,
    /// True when the raw page equals the literal's value.
    raw_positive: bool,
}

struct Planner<'a> {
    placements: &'a PlacementMap,
    caps: PlannerCaps,
    plane: Option<u32>,
}

impl<'a> Planner<'a> {
    fn resolve(&mut self, lit: Literal) -> Result<RawLiteral, PlanError> {
        let p = self.placements.get(lit.id).ok_or(PlanError::NoPlacement(lit.id))?;
        match self.plane {
            None => self.plane = Some(p.wl.plane),
            Some(pl) if pl != p.wl.plane => return Err(PlanError::PlaneMismatch),
            _ => {}
        }
        Ok(RawLiteral { wl: p.wl, raw_positive: lit.negated == p.inverted })
    }

    fn plane(&self) -> u32 {
        self.plane.unwrap_or(0)
    }

    /// S-strategy: `nnf` is an AND of groups (or a single group).
    fn compile_and_strategy(&mut self, nnf: &Nnf) -> Result<MwsProgram, PlanError> {
        let groups: Vec<&Nnf> = match nnf {
            Nnf::And(cs) => cs.iter().collect(),
            other => vec![other],
        };

        // Partition: complement-flavored groups feed the single leading
        // inverse command; positive groups become normal commands.
        // Positive literals sharing a block merge into one intra-block
        // MWS target (the whole point of MWS).
        let mut inverse_targets: Vec<MwsTarget> = Vec::new();
        let mut normal_commands: Vec<Vec<MwsTarget>> = Vec::new();
        let mut positive_by_block: Vec<(BlockAddr, Vec<u32>)> = Vec::new();

        for group in &groups {
            match group {
                Nnf::Literal(lit) => {
                    let r = self.resolve(*lit)?;
                    if r.raw_positive {
                        let block = r.wl.block();
                        match positive_by_block.iter_mut().find(|(b, _)| *b == block) {
                            Some((_, wls)) => wls.push(r.wl.wl),
                            None => positive_by_block.push((block, vec![r.wl.wl])),
                        }
                    } else {
                        let target = MwsTarget::new(r.wl.block(), &[r.wl.wl]);
                        push_distinct(&mut inverse_targets, target)?;
                    }
                }
                Nnf::Or(children) => match self.classify_or(children)? {
                    OrLowering::InverseTargets(ts) => {
                        for t in ts {
                            push_distinct(&mut inverse_targets, t)?;
                        }
                    }
                    OrLowering::SingleCommand(ts) => normal_commands.push(ts),
                    OrLowering::NeedsCAccumulation => {
                        if groups.len() == 1 {
                            return self.compile_or_strategy(children);
                        }
                        return Err(PlanError::Unplannable(
                            "an OR group inside a conjunction needs C-latch accumulation, \
                                 which cannot combine with AND accumulation; store the group's \
                                 operands inverted in one block instead"
                                .to_string(),
                        ));
                    }
                },
                Nnf::And(_) => unreachable!("NNF flattening removes nested ANDs"),
                Nnf::Xor(_, _) => {
                    return Err(PlanError::Unplannable(
                        "XOR may only appear at the top of an expression".to_string(),
                    ))
                }
                // `compile` expands thresholds before strategy lowering;
                // reject rather than answer wrong if one slips through a
                // future call path.
                Nnf::Threshold { .. } => {
                    return Err(PlanError::Unplannable(
                        "a threshold group must be expanded or dynamically sensed \
                         before strategy lowering"
                            .to_string(),
                    ))
                }
            }
        }

        for (block, wls) in positive_by_block {
            normal_commands.push(vec![MwsTarget::new(block, &wls)]);
        }

        if inverse_targets.len() > self.caps.max_inter_blocks {
            return Err(PlanError::PowerCapExceeded {
                needed: inverse_targets.len(),
                cap: self.caps.max_inter_blocks,
            });
        }

        // Assemble: inverse first (Fig. 16 ordering), then accumulation.
        let mut commands = Vec::new();
        if !inverse_targets.is_empty() {
            commands.push(Command::Mws {
                flags: IscmFlags { inverse: true, init_s: true, init_c: true, transfer: false },
                targets: inverse_targets,
            });
        }
        let n_normal = normal_commands.len();
        for (i, targets) in normal_commands.into_iter().enumerate() {
            for t in &targets {
                if t.wl_count() > self.caps.wls_per_block {
                    return Err(PlanError::Unplannable(format!(
                        "target asks for {} wordlines in one block of {}",
                        t.wl_count(),
                        self.caps.wls_per_block
                    )));
                }
            }
            if targets.len() > self.caps.max_inter_blocks {
                return Err(PlanError::PowerCapExceeded {
                    needed: targets.len(),
                    cap: self.caps.max_inter_blocks,
                });
            }
            let first = commands.is_empty();
            let last = i + 1 == n_normal;
            commands.push(Command::Mws {
                flags: IscmFlags { inverse: false, init_s: first, init_c: last, transfer: last },
                targets,
            });
        }
        // All-complement expression: the inverse command is also the last
        // one — give it the publish flags.
        if n_normal == 0 {
            match commands.last_mut() {
                Some(Command::Mws { flags, .. }) => {
                    flags.transfer = true;
                }
                _ => {
                    return Err(PlanError::Unplannable("empty expression".to_string()));
                }
            }
        }
        Ok(MwsProgram { commands, controller_not: false, plane: self.plane() })
    }

    /// C-strategy for a top-level OR whose children do not fit one
    /// command: each child transfers into the OR-accumulating C-latch.
    /// Consecutive children that each reduce to a raw-positive block
    /// target are merged into shared multi-target commands up to the
    /// power cap — ORing N blocks costs `ceil(N / cap)` senses.
    fn compile_or_strategy(&mut self, children: &[Nnf]) -> Result<MwsProgram, PlanError> {
        let mut commands: Vec<Command> = Vec::new();
        let mut pending: Vec<MwsTarget> = Vec::new();
        for child in children {
            if let Some(target) = self.as_positive_target(child)? {
                let conflict = pending.iter().any(|t| t.block == target.block);
                if conflict || pending.len() == self.caps.max_inter_blocks {
                    flush_or_chunk(&mut commands, &mut pending);
                }
                if pending.iter().any(|t| t.block == target.block) {
                    return Err(PlanError::BlockConflict(target.block));
                }
                pending.push(target);
                continue;
            }
            flush_or_chunk(&mut commands, &mut pending);
            let sub = {
                let mut sub_planner =
                    Planner { placements: self.placements, caps: self.caps, plane: self.plane };
                let p = sub_planner.compile_and_strategy(child)?;
                self.plane = sub_planner.plane;
                p
            };
            if sub.controller_not {
                return Err(PlanError::Unplannable(
                    "an OR child required a controller-side NOT, which cannot feed the \
                     C-latch accumulation; store its operands inverted instead"
                        .to_string(),
                ));
            }
            // Re-flag the sub-program: keep C across children (init_c only
            // on the very first command of the whole program); every child
            // publishes with a transfer on its last command.
            let first_of_program = commands.is_empty();
            let n = sub.commands.len();
            for (i, mut cmd) in sub.commands.into_iter().enumerate() {
                if let Command::Mws { flags, .. } = &mut cmd {
                    flags.init_c = first_of_program && i == 0;
                    flags.transfer = i + 1 == n;
                }
                commands.push(cmd);
            }
        }
        flush_or_chunk(&mut commands, &mut pending);
        Ok(MwsProgram { commands, controller_not: false, plane: self.plane() })
    }

    /// A child expressible as one raw-positive block target (literal or
    /// one-block AND of positives).
    fn as_positive_target(&mut self, child: &Nnf) -> Result<Option<MwsTarget>, PlanError> {
        match child {
            Nnf::Literal(l) => {
                let r = self.resolve(*l)?;
                Ok(r.raw_positive.then(|| MwsTarget::new(r.wl.block(), &[r.wl.wl])))
            }
            Nnf::And(lits) => self.try_one_block_positive_and(lits),
            _ => Ok(None),
        }
    }

    /// How an OR group can be lowered.
    fn classify_or(&mut self, children: &[Nnf]) -> Result<OrLowering, PlanError> {
        // Case A — the §6.1 inverse-storage shape: every child is a
        // raw-complement literal and all share one block. One inverse
        // block-target computes the OR.
        let mut complement_wls: Vec<WlAddr> = Vec::new();
        let mut all_complement_one_block = true;
        for c in children {
            match c {
                Nnf::Literal(l) => {
                    let r = self.resolve(*l)?;
                    if r.raw_positive {
                        all_complement_one_block = false;
                        break;
                    }
                    complement_wls.push(r.wl);
                }
                _ => {
                    all_complement_one_block = false;
                    break;
                }
            }
        }
        if all_complement_one_block && !complement_wls.is_empty() {
            let block = complement_wls[0].block();
            if complement_wls.iter().all(|w| w.block() == block) {
                let wls: Vec<u32> = complement_wls.iter().map(|w| w.wl).collect();
                return Ok(OrLowering::InverseTargets(vec![MwsTarget::new(block, &wls)]));
            }
            // All-complement but spread over blocks: an inverse command
            // with multiple targets computes an AND of per-block ORs, not
            // the OR of all complements, so this shape cannot use the
            // inverse path — fall through to the other strategies.
        }

        // Case B — Eq. (1): every child maps to one raw-positive block
        // target; one normal command computes OR across targets.
        let mut targets: Vec<MwsTarget> = Vec::new();
        let mut single_command = true;
        for c in children {
            let target = match c {
                Nnf::Literal(l) => {
                    let r = self.resolve(*l)?;
                    if !r.raw_positive {
                        single_command = false;
                        break;
                    }
                    MwsTarget::new(r.wl.block(), &[r.wl.wl])
                }
                Nnf::And(lits) => match self.try_one_block_positive_and(lits)? {
                    Some(t) => t,
                    None => {
                        single_command = false;
                        break;
                    }
                },
                _ => {
                    single_command = false;
                    break;
                }
            };
            if targets.iter().any(|t| t.block == target.block) {
                single_command = false;
                break;
            }
            targets.push(target);
        }
        if single_command {
            if targets.len() > self.caps.max_inter_blocks {
                return Ok(OrLowering::NeedsCAccumulation);
            }
            return Ok(OrLowering::SingleCommand(targets));
        }
        Ok(OrLowering::NeedsCAccumulation)
    }

    /// An AND of literals expressible as a single raw-positive block
    /// target.
    fn try_one_block_positive_and(&mut self, lits: &[Nnf]) -> Result<Option<MwsTarget>, PlanError> {
        let mut wls: Vec<u32> = Vec::new();
        let mut block: Option<BlockAddr> = None;
        for l in lits {
            let Nnf::Literal(lit) = l else { return Ok(None) };
            let r = self.resolve(*lit)?;
            if !r.raw_positive {
                return Ok(None);
            }
            match block {
                None => block = Some(r.wl.block()),
                Some(b) if b != r.wl.block() => return Ok(None),
                _ => {}
            }
            wls.push(r.wl.wl);
        }
        Ok(block.map(|b| MwsTarget::new(b, &wls)))
    }

    /// Single-sense threshold lowering (`mlsense`): when every vote is a
    /// literal on a *distinct* wordline of **one** block and all votes
    /// share the same raw polarity, one dynamic-reference `ThresholdMws`
    /// answers the whole vote:
    ///
    /// * uniform raw-complement (`raw_positive == false`): a true vote is
    ///   a programmed cell, so "≥ k of n true" is exactly the chip's
    ///   "≥ k activated cells programmed" report — direct `k`.
    /// * uniform raw-positive: a true vote is an *erased* cell;
    ///   "≥ k erased" = NOT("≥ n−k+1 programmed"), so the chip senses at
    ///   `k' = n−k+1` and the controller complements the page.
    ///
    /// Returns `Ok(None)` when the shape does not fit (mixed polarity,
    /// multiple blocks, nested votes, repeated wordlines — a repeat would
    /// silently collapse in the activation bitmap and lose a vote); the
    /// caller then falls back to the exact OR-of-combinations expansion.
    fn try_compile_threshold(
        &mut self,
        k: usize,
        children: &[Nnf],
    ) -> Result<Option<MwsProgram>, PlanError> {
        let n = children.len();
        let mut raws: Vec<RawLiteral> = Vec::with_capacity(n);
        for c in children {
            let Nnf::Literal(lit) = c else { return Ok(None) };
            raws.push(self.resolve(*lit)?);
        }
        let raw_positive = raws[0].raw_positive;
        if raws.iter().any(|r| r.raw_positive != raw_positive) {
            return Ok(None);
        }
        let block = raws[0].wl.block();
        if raws.iter().any(|r| r.wl.block() != block) {
            return Ok(None);
        }
        let mut wls: Vec<u32> = raws.iter().map(|r| r.wl.wl).collect();
        wls.sort_unstable();
        if wls.windows(2).any(|w| w[0] == w[1]) {
            return Ok(None);
        }
        if n > self.caps.wls_per_block {
            return Ok(None);
        }
        let (chip_k, controller_not) = if raw_positive { (n - k + 1, true) } else { (k, false) };
        let target = MwsTarget::new(block, &wls);
        let commands = vec![Command::ThresholdMws { target, k: chip_k }];
        Ok(Some(MwsProgram { commands, controller_not, plane: self.plane() }))
    }

    /// XOR program: C ← value(a); S ← value(b); C ← S XOR C.
    fn compile_xor(&mut self, a: &Nnf, b: &Nnf) -> Result<MwsProgram, PlanError> {
        let (Nnf::Literal(la), Nnf::Literal(lb)) = (a, b) else {
            return Err(PlanError::UnsupportedXor);
        };
        let ra = self.resolve(*la)?;
        let rb = self.resolve(*lb)?;
        let commands = vec![
            Command::Mws {
                flags: IscmFlags {
                    inverse: !ra.raw_positive,
                    init_s: true,
                    init_c: true,
                    transfer: true,
                },
                targets: vec![MwsTarget::new(ra.wl.block(), &[ra.wl.wl])],
            },
            Command::Mws {
                flags: IscmFlags {
                    inverse: !rb.raw_positive,
                    init_s: true,
                    init_c: false,
                    transfer: false,
                },
                targets: vec![MwsTarget::new(rb.wl.block(), &[rb.wl.wl])],
            },
            Command::XorLatch { plane: self.plane() },
        ];
        Ok(MwsProgram { commands, controller_not: false, plane: self.plane() })
    }
}

/// Emits one OR-chunk command (multi-target, S-init, transfer) from the
/// pending target batch.
fn flush_or_chunk(commands: &mut Vec<Command>, pending: &mut Vec<MwsTarget>) {
    if pending.is_empty() {
        return;
    }
    let first = commands.is_empty();
    commands.push(Command::Mws {
        flags: IscmFlags { inverse: false, init_s: true, init_c: first, transfer: true },
        targets: std::mem::take(pending),
    });
}

/// How an OR group lowers onto commands.
enum OrLowering {
    /// Targets to add to the leading inverse command.
    InverseTargets(Vec<MwsTarget>),
    /// One normal multi-target command (Eq. 1).
    SingleCommand(Vec<MwsTarget>),
    /// Needs the C-accumulation strategy (only legal at top level).
    NeedsCAccumulation,
}

/// Adds `target` to the inverse-command target list, rejecting duplicate
/// blocks (a block is activated once per sense).
fn push_distinct(targets: &mut Vec<MwsTarget>, target: MwsTarget) -> Result<(), PlanError> {
    if targets.iter().any(|t| t.block == target.block) {
        return Err(PlanError::BlockConflict(target.block));
    }
    targets.push(target);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn caps() -> PlannerCaps {
        PlannerCaps { max_inter_blocks: 4, wls_per_block: 8 }
    }

    /// Places operands 0..n sequentially in `block`, not inverted.
    fn straight_placement(n: usize, block: u32) -> PlacementMap {
        let mut m = PlacementMap::new();
        for i in 0..n {
            m.insert(i, WlAddr::new(0, block, i as u32), false);
        }
        m
    }

    #[test]
    fn and_of_colocated_operands_is_one_command() {
        let m = straight_placement(5, 0);
        let e = Expr::and_vars(0..5);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        assert!(!p.controller_not);
        match &p.commands[0] {
            Command::Mws { flags, targets } => {
                assert_eq!(targets.len(), 1);
                assert_eq!(targets[0].wl_count(), 5);
                assert!(flags.init_s && flags.init_c && flags.transfer && !flags.inverse);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_across_blocks_accumulates_in_s() {
        let mut m = PlacementMap::new();
        for i in 0..4 {
            m.insert(i, WlAddr::new(0, 0, i as u32), false);
        }
        for i in 4..8 {
            m.insert(i, WlAddr::new(0, 1, (i - 4) as u32), false);
        }
        let e = Expr::and_vars(0..8);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 2);
        // First command initializes S, last publishes to C.
        match (&p.commands[0], &p.commands[1]) {
            (Command::Mws { flags: f0, .. }, Command::Mws { flags: f1, .. }) => {
                assert!(f0.init_s && !f0.transfer);
                assert!(!f1.init_s && f1.init_c && f1.transfer);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn or_of_inverted_operands_is_one_inverse_command() {
        // §6.1: operands stored inverted in one block → OR via a single
        // intra-block inverse MWS.
        let mut m = PlacementMap::new();
        for i in 0..6 {
            m.insert(i, WlAddr::new(0, 2, i as u32), true);
        }
        let e = Expr::or_vars(0..6);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        match &p.commands[0] {
            Command::Mws { flags, targets } => {
                assert!(flags.inverse && flags.transfer);
                assert_eq!(targets[0].wl_count(), 6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn or_across_blocks_is_inter_block_mws() {
        // Eq. (1): one command, multiple block targets.
        let mut m = PlacementMap::new();
        for i in 0..3 {
            m.insert(i, WlAddr::new(0, i as u32, 0), false);
        }
        let e = Expr::or_vars(0..3);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        match &p.commands[0] {
            Command::Mws { flags, targets } => {
                assert!(!flags.inverse);
                assert_eq!(targets.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kcs_shape_and_plus_or_in_one_command() {
        // (v0 & v1 & v2) | v3 with the AND group in block 0 and the
        // clique vector in block 1 — the paper's KCS observation.
        let mut m = straight_placement(3, 0);
        m.insert(3, WlAddr::new(0, 1, 0), false);
        let e = Expr::or(vec![Expr::and_vars(0..3), Expr::var(3)]);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        match &p.commands[0] {
            Command::Mws { targets, .. } => {
                assert_eq!(targets.len(), 2);
                assert_eq!(targets[0].wl_count(), 3);
                assert_eq!(targets[1].wl_count(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fig16_shape_inverse_first_then_accumulation() {
        // {A1 + (B1·B2·B3·B4)} · (C1+C3) · (D2+D4), with C and D stored
        // inverted (Fig. 16).
        let mut m = PlacementMap::new();
        m.insert(0, WlAddr::new(0, 0, 0), false); // A1
        for i in 0..4 {
            m.insert(1 + i, WlAddr::new(0, 1, i as u32), false); // B1..B4
        }
        m.insert(5, WlAddr::new(0, 2, 0), true); // C1 (inverted)
        m.insert(6, WlAddr::new(0, 2, 2), true); // C3
        m.insert(7, WlAddr::new(0, 3, 1), true); // D2
        m.insert(8, WlAddr::new(0, 3, 3), true); // D4
        let e = Expr::and(vec![
            Expr::or(vec![Expr::var(0), Expr::and_vars(1..5)]),
            Expr::or_vars([5, 6]),
            Expr::or_vars([7, 8]),
        ]);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        // Two MWS commands, exactly as in Fig. 16.
        assert_eq!(p.sense_count(), 2);
        match &p.commands[0] {
            Command::Mws { flags, targets } => {
                assert!(flags.inverse, "inverse command must come first");
                assert!(!flags.transfer);
                assert_eq!(targets.len(), 2, "C-block and D-block targets");
                assert_eq!(targets[0].wl_count(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.commands[1] {
            Command::Mws { flags, targets } => {
                assert!(!flags.inverse && !flags.init_s);
                assert!(flags.init_c && flags.transfer);
                assert_eq!(targets.len(), 2, "A-block and B-block targets");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_of_operand_is_inverse_read() {
        let m = straight_placement(1, 0);
        let e = Expr::not(Expr::var(0));
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        match &p.commands[0] {
            Command::Mws { flags, .. } => assert!(flags.inverse && flags.transfer),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nand_and_nor_compile_to_single_inverse_senses() {
        let m = straight_placement(4, 0);
        let nand = Expr::nand(vec![Expr::var(0), Expr::var(1), Expr::var(2)]);
        let p = compile(&nand.to_nnf(), &m, caps()).unwrap();
        // NAND = controller sees it as OR of complements; De Morgan
        // fallback plans AND of raws with chip inverse... either way a
        // single sense with no controller work or a single sense plus NOT.
        assert_eq!(p.sense_count(), 1);

        let mut m2 = PlacementMap::new();
        for i in 0..3 {
            m2.insert(i, WlAddr::new(0, i as u32, 0), false);
        }
        let nor = Expr::nor(vec![Expr::var(0), Expr::var(1), Expr::var(2)]);
        let p = compile(&nor.to_nnf(), &m2, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
    }

    #[test]
    fn or_beyond_power_cap_uses_c_accumulation() {
        // 6 operands in 6 different blocks, cap 4 → chunked transfers.
        let mut m = PlacementMap::new();
        for i in 0..6 {
            m.insert(i, WlAddr::new(0, i as u32, 0), false);
        }
        let e = Expr::or_vars(0..6);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 2, "6 blocks at cap 4 → 2 chunked commands");
        // Every command transfers (C accumulates the OR).
        for c in &p.commands {
            if let Command::Mws { flags, .. } = c {
                assert!(flags.transfer);
            }
        }
    }

    #[test]
    fn xor_of_two_literals() {
        let m = straight_placement(2, 0);
        let e = Expr::xor(Expr::var(0), Expr::var(1));
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 2);
        assert!(matches!(p.commands[2], Command::XorLatch { .. }));
        // XNOR rides the same shape via the inverse read (Eq. 2).
        let xnor = Expr::xnor(Expr::var(0), Expr::var(1));
        let p = compile(&xnor.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 2);
        match &p.commands[0] {
            Command::Mws { flags, .. } => assert!(flags.inverse),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn xor_of_non_literals_is_rejected() {
        let m = straight_placement(3, 0);
        let e = Expr::xor(Expr::and_vars(0..2), Expr::var(2));
        assert_eq!(compile(&e.to_nnf(), &m, caps()).unwrap_err(), PlanError::UnsupportedXor);
    }

    #[test]
    fn missing_placement_is_reported() {
        let m = straight_placement(1, 0);
        let e = Expr::and_vars(0..2);
        assert_eq!(compile(&e.to_nnf(), &m, caps()).unwrap_err(), PlanError::NoPlacement(1));
    }

    #[test]
    fn two_complement_literals_in_one_block_use_demorgan_fallback() {
        // !v0 & !v1 with both raw in block 0: the inverse command cannot
        // hold two same-block targets (a block is activated once per
        // sense), so the planner falls back to De Morgan — it senses
        // v0 | v1 via C-accumulation (two senses; same-block OR has no
        // single-sense form, which is exactly the §6.1 motivation for
        // storing such operands inverted) and complements in the
        // controller.
        let m = straight_placement(2, 0);
        let e = Expr::and(vec![Expr::not(Expr::var(0)), Expr::not(Expr::var(1))]);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert!(p.controller_not, "De Morgan fallback complements in the controller");
        assert_eq!(p.sense_count(), 2);
    }

    #[test]
    fn complement_literals_across_blocks_fold_into_one_inverse_command() {
        // !v0 & !v1 with raws in different blocks: one inverse command
        // with two targets — S = NOT(v0 | v1) = !v0 & !v1.
        let mut m = PlacementMap::new();
        m.insert(0, WlAddr::new(0, 0, 0), false);
        m.insert(1, WlAddr::new(0, 1, 0), false);
        let e = Expr::and(vec![Expr::not(Expr::var(0)), Expr::not(Expr::var(1))]);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        match &p.commands[0] {
            Command::Mws { flags, targets } => {
                assert!(flags.inverse && flags.transfer);
                assert_eq!(targets.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plane_mismatch_is_rejected() {
        let mut m = PlacementMap::new();
        m.insert(0, WlAddr::new(0, 0, 0), false);
        m.insert(1, WlAddr::new(1, 0, 0), false);
        let e = Expr::and_vars(0..2);
        assert_eq!(compile(&e.to_nnf(), &m, caps()).unwrap_err(), PlanError::PlaneMismatch);
    }

    #[test]
    fn threshold_of_colocated_raw_positive_literals_is_one_dynamic_sense() {
        // Straight (non-inverted) storage: a true vote is an erased cell,
        // so the chip counts the complement — k' = n−k+1, controller NOT.
        let m = straight_placement(5, 0);
        let e = Expr::threshold_vars(3, 0..5);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        assert!(p.controller_not);
        match &p.commands[0] {
            Command::ThresholdMws { target, k } => {
                assert_eq!(*k, 3, "k' = n − k + 1 = 5 − 3 + 1");
                assert_eq!(target.wl_count(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn threshold_of_inverted_storage_senses_direct_k() {
        // Operands stored inverted: a true vote is a programmed cell —
        // the chip's report is the answer as-is.
        let mut m = PlacementMap::new();
        for i in 0..7 {
            m.insert(i, WlAddr::new(0, 3, i as u32), true);
        }
        let e = Expr::threshold_vars(2, 0..7);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        assert!(!p.controller_not);
        match &p.commands[0] {
            Command::ThresholdMws { target, k } => {
                assert_eq!(*k, 2);
                assert_eq!(target.wl_count(), 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn majority_lowers_through_threshold() {
        let m = straight_placement(7, 0);
        let e = Expr::majority_vars(0..7);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        match &p.commands[0] {
            Command::ThresholdMws { k, .. } => assert_eq!(*k, 4, "7 − ⌈7/2⌉ + 1"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn threshold_wider_than_the_string_expands() {
        // 9 votes do not fit an 8-WL string: no single activation can
        // cover the vote, so the expansion takes over (C(9, 5) ANDs).
        let m = straight_placement(9, 0);
        let e = Expr::majority_vars(0..9);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert!(p.sense_count() > 1);
        assert!(!p.commands.iter().any(|c| matches!(c, Command::ThresholdMws { .. })));
    }

    #[test]
    fn negated_threshold_flips_k_and_stays_one_sense() {
        // NOT TH3₅(v…) = TH3₅(!v…); the negated literals over straight
        // storage are raw-complement → direct chip k, no controller NOT.
        let m = straight_placement(5, 0);
        let e = Expr::not(Expr::threshold_vars(3, 0..5));
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert_eq!(p.sense_count(), 1);
        assert!(!p.controller_not);
        match &p.commands[0] {
            Command::ThresholdMws { k, .. } => assert_eq!(*k, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn threshold_with_mixed_polarity_expands_exactly() {
        // Two operands stored inverted, three straight: no uniform raw
        // polarity → the planner must fall back to the OR-of-C(n,k)-ANDs
        // expansion rather than answer wrong. (Operands sit in distinct
        // blocks so the expansion's inverse commands stay conflict-free.)
        let mut m = PlacementMap::new();
        for i in 0..3 {
            m.insert(i, WlAddr::new(0, i as u32, 0), false);
        }
        m.insert(3, WlAddr::new(0, 3, 0), true);
        m.insert(4, WlAddr::new(0, 4, 0), true);
        let e = Expr::threshold_vars(4, 0..5);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert!(p.sense_count() > 1, "expansion costs more senses");
        assert!(!p.commands.iter().any(|c| matches!(c, Command::ThresholdMws { .. })));
    }

    #[test]
    fn threshold_spread_over_blocks_expands_exactly() {
        let mut m = PlacementMap::new();
        for i in 0..4 {
            m.insert(i, WlAddr::new(0, i as u32, 0), false);
        }
        let e = Expr::threshold_vars(3, 0..4);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert!(p.sense_count() > 1);
        assert!(!p.commands.iter().any(|c| matches!(c, Command::ThresholdMws { .. })));
    }

    #[test]
    fn threshold_with_repeated_wordline_keeps_vote_multiplicity() {
        // TH2(v0, v0, v1) ≡ v0: a repeated wordline would collapse in the
        // activation bitmap, so the dynamic sense must refuse and the
        // expansion (which keeps multiplicity) take over.
        let m = straight_placement(2, 0);
        let e = Expr::threshold(2, vec![Expr::var(0), Expr::var(0), Expr::var(1)]);
        let p = compile(&e.to_nnf(), &m, caps()).unwrap();
        assert!(!p.commands.iter().any(|c| matches!(c, Command::ThresholdMws { .. })));
    }

    #[test]
    fn oversized_threshold_expansion_is_rejected() {
        // C(20, 10) = 184,756 > 10,000 — and the operands span blocks so
        // the dynamic sense cannot serve it either.
        let mut m = PlacementMap::new();
        for i in 0..20 {
            m.insert(i, WlAddr::new(0, (i % 5) as u32, (i / 5) as u32), false);
        }
        let e = Expr::threshold_vars(10, 0..20);
        match compile(&e.to_nnf(), &m, caps()) {
            Err(PlanError::Unplannable(msg)) => assert!(msg.contains("expansion")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
