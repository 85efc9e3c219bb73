//! Cross-plane execution plans: splitting one query over the planes its
//! operands live on.
//!
//! Die-aware placement (this crate's `device` module) spreads distinct
//! placement groups across dies so independent queries execute in
//! parallel. The price: a single query whose operands span planes can no
//! longer compile to one MWS program — a latch bank is per-plane, so the
//! planner's [`PlanError::PlaneMismatch`] used to be a hard error. This
//! module turns that error into a *planned* split execution:
//!
//! * the normalized expression is partitioned by plane. Children of an
//!   AND/OR that share a plane run **together** (keeping every
//!   intra-plane MWS fusion the planner can find), children that
//!   themselves span planes recurse;
//! * each single-plane piece becomes a [`Leaf`] holding an ordinary
//!   [`MwsProgram`] for that plane's chip;
//! * the controller combines the partial result pages per the
//!   [`MergeTree`] (AND/OR/XOR — the same operator that joined the
//!   pieces in the expression).
//!
//! An XOR whose sides span planes is a controller XOR of its two sides'
//! full partial pages, at any depth and with any sides. The latch rule
//! (only a top-level XOR of two literals lowers onto one chip) is the
//! planner's, and it still applies inside each single-plane leaf.
//!
//! Leaves on different dies sense concurrently, so a split query's
//! critical path is the busiest die, not the sum — exactly the
//! plane/die-level parallelism §7–§8 of the paper builds its throughput
//! on. The splitter is compiler-agnostic: the Flash-Cosmos planner and
//! the ParaBit baseline compiler both plug in as the leaf compiler, so
//! the baseline stops silently executing cross-die operands on one chip.

use std::collections::BTreeMap;

use fc_bits::BitVec;
use fc_ssd::topology::PlaneId;

use crate::expr::{Nnf, OperandId};
use crate::planner::{MwsProgram, PlanError};

/// How the controller combines partial result pages of a split query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeOp {
    /// Bitwise AND of the partials.
    And,
    /// Bitwise OR of the partials.
    Or,
    /// Bitwise XOR of the partials (exactly two).
    Xor,
}

/// One single-plane piece of a spanning plan: a compiled program plus the
/// SSD-level plane (die + in-die plane) it runs on.
#[derive(Debug, Clone)]
pub(crate) struct Leaf {
    /// The plane whose chip executes the program.
    pub plane: PlaneId,
    /// The compiled single-plane program.
    pub program: MwsProgram,
}

/// A split execution plan for one expression stripe: either a single
/// leaf (all operands on one plane — one chip program) or a controller
/// merge over sub-plans.
#[derive(Debug, Clone)]
pub(crate) enum ExecPlan {
    /// Runs entirely on one plane.
    Chip(Leaf),
    /// Controller-side combination of concurrently executable parts.
    Merge {
        /// Combining operator.
        op: MergeOp,
        /// Sub-plans (each a leaf or a nested merge).
        parts: Vec<ExecPlan>,
    },
}

/// Merge recipe over a flattened leaf list: leaves are referenced by
/// their index in the [`ExecPlan::flatten`] output (pre-order).
///
/// The plan lint's `FC002` (see `LINTS.md`) holds every spanning
/// stripe to exactly one recipe consuming exactly its leaves, once
/// each — partial or double consumption merges wrong bits silently.
#[derive(Debug, Clone)]
pub(crate) enum MergeTree {
    /// The executed page of leaf `i`.
    Leaf(usize),
    /// Combine the children's pages with the operator.
    Node(MergeOp, Vec<MergeTree>),
}

impl ExecPlan {
    /// Decomposes the plan into its leaves (appended to `leaves` in
    /// pre-order) and the merge recipe referencing them by index.
    pub fn flatten(self, leaves: &mut Vec<Leaf>) -> MergeTree {
        match self {
            ExecPlan::Chip(leaf) => {
                leaves.push(leaf);
                MergeTree::Leaf(leaves.len() - 1)
            }
            ExecPlan::Merge { op, parts } => {
                MergeTree::Node(op, parts.into_iter().map(|p| p.flatten(leaves)).collect())
            }
        }
    }
}

/// Combines executed leaf pages per the merge recipe. Each leaf page is
/// consumed exactly once (`pages[i]` is taken, not cloned).
///
/// # Panics
///
/// Panics if a referenced page is missing or already consumed — the
/// recipe and the page list must come from the same [`ExecPlan`].
pub(crate) fn eval_merge(tree: &MergeTree, pages: &mut [Option<BitVec>]) -> BitVec {
    match tree {
        MergeTree::Leaf(i) => pages[*i].take().expect("each leaf page is consumed exactly once"),
        MergeTree::Node(op, parts) => {
            let mut acc = eval_merge(&parts[0], pages);
            for part in &parts[1..] {
                let page = eval_merge(part, pages);
                match op {
                    MergeOp::And => acc.and_assign(&page),
                    MergeOp::Or => acc.or_assign(&page),
                    MergeOp::Xor => acc.xor_assign(&page),
                }
            }
            acc
        }
    }
}

/// Compiles `nnf` into an [`ExecPlan`], splitting across planes where the
/// operand placement requires it. `plane_of` resolves every operand to
/// the SSD-level plane its stripe page lives on (`None` for unplaced
/// operands); `leaf_compile` lowers a single-plane sub-expression to a
/// chip program (the Flash-Cosmos planner or the ParaBit compiler).
///
/// An expression on one plane is one leaf. A spanning n-ary AND/OR
/// buckets its single-plane children per plane (one leaf per plane, in
/// plane order) after recursing into its spanning children; a spanning
/// XOR merges its two sides; a spanning threshold expands to the exact
/// OR-of-combinations form first (no Boolean merge carries partial
/// *counts*) — more senses, never a silently wrong page.
///
/// # Errors
///
/// [`PlanError::NoPlacement`] for operands `plane_of` cannot resolve,
/// [`PlanError::Unplannable`] for an expression that names no operand
/// or whose threshold expansion is too large, and whatever
/// `leaf_compile` reports for a piece it cannot lower (a nested XOR
/// *inside* one plane, for instance).
pub(crate) fn compile_spanning<P, F>(
    nnf: &Nnf,
    plane_of: &P,
    leaf_compile: &mut F,
) -> Result<ExecPlan, PlanError>
where
    P: Fn(OperandId) -> Option<PlaneId>,
    F: FnMut(&Nnf) -> Result<MwsProgram, PlanError>,
{
    let mut span = Vec::with_capacity(2);
    collect_span(nnf, plane_of, &mut span)?;
    match (span.as_slice(), nnf) {
        ([], _) => Err(PlanError::Unplannable("expression names no operand".to_string())),
        (&[plane], _) => Ok(ExecPlan::Chip(Leaf { plane, program: leaf_compile(nnf)? })),
        (_, Nnf::Literal(_)) => unreachable!("a literal lives on exactly one plane"),
        (_, Nnf::And(cs)) => split_nary(cs, MergeOp::And, plane_of, leaf_compile),
        (_, Nnf::Or(cs)) => split_nary(cs, MergeOp::Or, plane_of, leaf_compile),
        (_, Nnf::Xor(a, b)) => Ok(ExecPlan::Merge {
            op: MergeOp::Xor,
            parts: vec![
                compile_spanning(a, plane_of, leaf_compile)?,
                compile_spanning(b, plane_of, leaf_compile)?,
            ],
        }),
        (_, Nnf::Threshold { .. }) => {
            compile_spanning(&crate::planner::expand_thresholds(nnf)?, plane_of, leaf_compile)
        }
    }
}

/// Collects the distinct planes an expression's operands live on into
/// `span` (a small vector with linear dedup — expressions touch a
/// handful of planes, and this path runs once per plan node, so it stays
/// allocation-light on the hot single-plane case).
fn collect_span<P>(nnf: &Nnf, plane_of: &P, span: &mut Vec<PlaneId>) -> Result<(), PlanError>
where
    P: Fn(OperandId) -> Option<PlaneId>,
{
    match nnf {
        Nnf::Literal(l) => {
            let plane = plane_of(l.id).ok_or(PlanError::NoPlacement(l.id))?;
            if !span.contains(&plane) {
                span.push(plane);
            }
        }
        Nnf::And(cs) | Nnf::Or(cs) | Nnf::Threshold { children: cs, .. } => {
            for c in cs {
                collect_span(c, plane_of, span)?;
            }
        }
        Nnf::Xor(a, b) => {
            collect_span(a, plane_of, span)?;
            collect_span(b, plane_of, span)?;
        }
    }
    Ok(())
}

/// Splits an n-ary AND/OR: spanning children recurse, and children
/// sharing a plane run together (so intra-plane MWS fusion survives).
fn split_nary<P, F>(
    children: &[Nnf],
    op: MergeOp,
    plane_of: &P,
    leaf_compile: &mut F,
) -> Result<ExecPlan, PlanError>
where
    P: Fn(OperandId) -> Option<PlaneId>,
    F: FnMut(&Nnf) -> Result<MwsProgram, PlanError>,
{
    let mut buckets: BTreeMap<PlaneId, Vec<Nnf>> = BTreeMap::new();
    let mut parts = Vec::new();
    let mut span = Vec::with_capacity(2);
    for child in children {
        span.clear();
        collect_span(child, plane_of, &mut span)?;
        if let [plane] = span[..] {
            buckets.entry(plane).or_default().push(child.clone());
        } else {
            parts.push(compile_spanning(child, plane_of, leaf_compile)?);
        }
    }
    for (plane, mut bucket) in buckets {
        let sub = if bucket.len() == 1 {
            bucket.pop().expect("non-empty bucket")
        } else {
            match op {
                MergeOp::And => Nnf::And(bucket),
                MergeOp::Or => Nnf::Or(bucket),
                MergeOp::Xor => unreachable!("XOR is not n-ary"),
            }
        };
        parts.push(ExecPlan::Chip(Leaf { plane, program: leaf_compile(&sub)? }));
    }
    Ok(ExecPlan::Merge { op, parts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::planner::{self, PlacementMap, PlannerCaps};
    use fc_nand::geometry::WlAddr;
    use fc_ssd::topology::DieId;
    use std::collections::BTreeSet;

    fn caps() -> PlannerCaps {
        PlannerCaps { max_inter_blocks: 4, wls_per_block: 8 }
    }

    /// Distinct dies the plan's leaves run on.
    fn die_count(plan: &ExecPlan) -> usize {
        let mut leaves = Vec::new();
        plan.clone().flatten(&mut leaves);
        leaves.iter().map(|leaf| leaf.plane.die).collect::<BTreeSet<_>>().len()
    }

    /// Senses across the plan's leaves.
    fn senses(plan: &ExecPlan) -> usize {
        let mut leaves = Vec::new();
        plan.clone().flatten(&mut leaves);
        leaves.iter().map(|leaf| leaf.program.sense_count()).sum()
    }

    /// Places operand `i` on (die i/2, in-die plane 0), block i, wl 0.
    fn layout(n: usize) -> (PlacementMap, std::collections::HashMap<OperandId, PlaneId>) {
        let mut map = PlacementMap::new();
        let mut planes = std::collections::HashMap::new();
        for i in 0..n {
            map.insert(i, WlAddr::new(0, i as u32, 0), false);
            planes.insert(i, PlaneId { die: DieId::new(0, (i / 2) as u32), plane: 0 });
        }
        (map, planes)
    }

    #[test]
    fn co_planar_expression_stays_one_program() {
        let (map, _) = layout(4);
        let planes: std::collections::HashMap<OperandId, PlaneId> =
            (0..4).map(|i| (i, PlaneId { die: DieId::new(0, 0), plane: 0 })).collect();
        let nnf = Expr::or_vars(0..4).to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        assert!(matches!(plan, ExecPlan::Chip(_)));
        assert_eq!(senses(&plan), 1, "Eq. 1 fusion survives");
        assert_eq!(die_count(&plan), 1);
    }

    #[test]
    fn spanning_and_splits_per_plane_and_merges() {
        // 4 operands over 2 dies: one leaf per die, AND-merged.
        let (map, planes) = layout(4);
        let nnf = Expr::and_vars(0..4).to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        assert_eq!(die_count(&plan), 2);
        let ExecPlan::Merge { op: MergeOp::And, ref parts } = plan else {
            panic!("expected an AND merge, got {plan:?}");
        };
        assert_eq!(parts.len(), 2);
        let mut leaves = Vec::new();
        let tree = plan.flatten(&mut leaves);
        assert_eq!(leaves.len(), 2);
        assert!(matches!(tree, MergeTree::Node(MergeOp::And, _)));
    }

    #[test]
    fn eval_merge_combines_partials() {
        let a = BitVec::from_fn(8, |i| i % 2 == 0);
        let b = BitVec::from_fn(8, |i| i < 4);
        let tree = MergeTree::Node(MergeOp::And, vec![MergeTree::Leaf(0), MergeTree::Leaf(1)]);
        let mut pages = vec![Some(a.clone()), Some(b.clone())];
        assert_eq!(eval_merge(&tree, &mut pages), a.and(&b));
        let tree = MergeTree::Node(MergeOp::Xor, vec![MergeTree::Leaf(0), MergeTree::Leaf(1)]);
        let mut pages = vec![Some(a.clone()), Some(b.clone())];
        assert_eq!(eval_merge(&tree, &mut pages), a.xor(&b));
    }

    #[test]
    fn nested_xor_across_planes_merges_on_the_controller() {
        let (map, planes) = layout(4);
        let nnf = Expr::or(vec![
            Expr::xor(Expr::var(0), Expr::var(2)), // spans dies 0 and 1
            Expr::var(3),
        ])
        .to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        let ExecPlan::Merge { op: MergeOp::Or, ref parts } = plan else {
            panic!("expected an OR merge, got {plan:?}");
        };
        assert!(
            parts.iter().any(|p| matches!(p, ExecPlan::Merge { op: MergeOp::Xor, .. })),
            "the spanning XOR becomes a controller XOR inside the OR: {parts:?}"
        );
        assert_eq!(senses(&plan), 3, "one sense per literal's plane");
    }

    #[test]
    fn spanning_threshold_expands_and_merges_exactly() {
        // TH2 over operands on two dies: no Boolean merge op carries
        // partial counts, so the splitter must expand the vote first.
        let (map, planes) = layout(4);
        let nnf = Expr::threshold_vars(2, 0..4).to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        assert_eq!(die_count(&plan), 2);
        assert!(matches!(plan, ExecPlan::Merge { op: MergeOp::Or, .. }));
    }

    #[test]
    fn missing_placement_is_reported() {
        let (map, mut planes) = layout(3);
        planes.remove(&1);
        let nnf = Expr::and_vars(0..3).to_nnf();
        let err = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap_err();
        assert_eq!(err, PlanError::NoPlacement(1));
    }
}
