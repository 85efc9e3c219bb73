//! Property-based verification that compiled MWS programs compute the
//! same function as direct expression evaluation — the planner's
//! correctness contract, checked by executing every generated program on
//! the functional chip model.

use fc_bits::BitVec;
use fc_nand::chip::NandChip;
use fc_nand::command::Command;
use fc_nand::config::ChipConfig;
use fc_nand::geometry::WlAddr;
use flash_cosmos::planner::{self, PlacementMap, PlannerCaps};
use flash_cosmos::{Expr, FlashCosmosDevice, StoreHints};
use proptest::prelude::*;

const PAGE_BITS: usize = 256;

/// Generates random expressions over `n` operands with limited depth so
/// they stay within the planner's supported shapes (AND/OR/NOT trees).
fn arb_expr(n: usize) -> impl Strategy<Value = Expr> {
    let leaf = (0..n).prop_map(Expr::var);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::and),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::or),
            inner.prop_map(Expr::not),
        ]
    })
}

/// Executes a compiled program on a chip pre-loaded with `vectors`
/// according to `layout` (operand i → block/wl/inverted).
fn run_program(vectors: &[BitVec], layout: &[(u32, u32, bool)], expr: &Expr) -> Option<BitVec> {
    let mut cfg = ChipConfig::tiny_test();
    cfg.geometry.page_bytes = (PAGE_BITS / 8) as u32;
    let mut chip = NandChip::new(cfg);
    let mut placements = PlacementMap::new();
    for (i, &(block, wl, inverted)) in layout.iter().enumerate() {
        let stored = if inverted { vectors[i].not() } else { vectors[i].clone() };
        chip.execute(Command::esp_program(WlAddr::new(0, block, wl), stored)).unwrap();
        placements.insert(i, WlAddr::new(0, block, wl), inverted);
    }
    let caps = PlannerCaps { max_inter_blocks: 4, wls_per_block: 8 };
    let program = planner::compile(&expr.to_nnf(), &placements, caps).ok()?;
    let mut last = None;
    for cmd in &program.commands {
        last = chip.execute(cmd.clone()).unwrap().into_page();
    }
    let page = last.expect("programs end with a transfer");
    Some(if program.controller_not { page.not() } else { page })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever the planner accepts, it must compute exactly.
    #[test]
    fn compiled_programs_match_reference_eval(
        expr in arb_expr(6),
        seed in any::<u64>(),
        inverted_mask in 0u8..64,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors: Vec<BitVec> =
            (0..6).map(|_| BitVec::random(PAGE_BITS, &mut rng)).collect();
        // Operands spread over 3 blocks, 2 wordlines each; random
        // inversion decisions exercise the polarity logic.
        let layout: Vec<(u32, u32, bool)> = (0..6)
            .map(|i| ((i / 2) as u32, (i % 2) as u32, inverted_mask & (1 << i) != 0))
            .collect();
        if let Some(result) = run_program(&vectors, &layout, &expr) {
            let lookup = |i: usize| vectors[i].clone();
            prop_assert_eq!(result, expr.eval(&lookup), "expr {}", expr);
        }
        // Planner rejections are acceptable (layout-dependent); silently
        // wrong answers are not.
    }

    /// NNF normalization preserves semantics for arbitrary expressions.
    #[test]
    fn nnf_preserves_semantics(expr in arb_expr(5), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors: Vec<BitVec> =
            (0..5).map(|_| BitVec::random(128, &mut rng)).collect();
        let lookup = |i: usize| vectors[i].clone();
        prop_assert_eq!(expr.to_nnf().eval(&lookup), expr.eval(&lookup));
    }

    /// The device API answers every expression exactly, for arbitrary
    /// grouping choices: what the planner refuses on a placement is
    /// evaluated in the controller.
    #[test]
    fn device_reads_match_reference(
        expr in arb_expr(5),
        seed in any::<u64>(),
        grouping in prop::collection::vec(0u8..3, 5),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dev = FlashCosmosDevice::new(fc_ssd::SsdConfig::tiny_test());
        let vectors: Vec<BitVec> =
            (0..5).map(|_| BitVec::random(600, &mut rng)).collect();
        for (i, v) in vectors.iter().enumerate() {
            dev.fc_write(
                &format!("v{i}"),
                v,
                StoreHints::and_group(&format!("g{}", grouping[i])),
            )
            .unwrap();
        }
        let (result, _) = dev
            .fc_read(&expr)
            .map_err(|e| TestCaseError::fail(format!("expr {expr}: unexpected error {e}")))?;
        let lookup = |i: usize| vectors[i].clone();
        prop_assert_eq!(result, expr.eval(&lookup), "expr {}", expr);
    }

    /// ParaBit and Flash-Cosmos agree wherever both accept the shape.
    #[test]
    fn parabit_agrees_with_flash_cosmos(
        n_and in 1usize..6,
        n_or in 1usize..4,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let total = n_and + n_or;
        let dev = FlashCosmosDevice::new(fc_ssd::SsdConfig::tiny_test());
        let vectors: Vec<BitVec> =
            (0..total).map(|_| BitVec::random(300, &mut rng)).collect();
        for (i, v) in vectors.iter().enumerate() {
            let group = if i < n_and { "and" } else { "or" };
            dev.fc_write(&format!("v{i}"), v, StoreHints::and_group(&format!("{group}{i}")))
                .unwrap();
        }
        // (v0 & .. & v_{n_and-1}) | v_{n_and} | ... — a DNF both support.
        let mut children = vec![Expr::and_vars(0..n_and)];
        children.extend((n_and..total).map(Expr::var));
        let expr = Expr::or(children);
        let fc = dev.fc_read(&expr);
        let pb = dev.parabit_read(&expr);
        if let (Ok((fc_res, fc_stats)), Ok((pb_res, pb_stats))) = (fc, pb) {
            prop_assert_eq!(&fc_res, &pb_res);
            let lookup = |i: usize| vectors[i].clone();
            prop_assert_eq!(fc_res, expr.eval(&lookup));
            prop_assert!(fc_stats.senses <= pb_stats.senses);
        }
    }
}
