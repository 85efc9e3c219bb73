//! The `fc_audit` static analyzer end to end: healthy plans and devices
//! are finding-free, every lint code fires on its matching seeded
//! corruption (the mutation harness), and an error finding panics at the
//! debug-build hook.

use fc_bits::BitVec;
use fc_nand::ispp::ProgramScheme;
use fc_ssd::SsdConfig;
use flash_cosmos::audit::{DeviceMutation, PlanMutation};
use flash_cosmos::{Expr, FlashCosmosDevice, LintCode, QueryBatch, Severity, StoreHints};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn device() -> FlashCosmosDevice {
    FlashCosmosDevice::new(SsdConfig::tiny_test())
}

/// Stores `n` random page-sized vectors in one AND group.
fn store_group(
    dev: &mut FlashCosmosDevice,
    group: &str,
    n: usize,
    die: Option<usize>,
    rng: &mut StdRng,
) -> Vec<usize> {
    let bits = dev.config().page_bits();
    (0..n)
        .map(|i| {
            let mut hints = StoreHints::and_group(group);
            if let Some(d) = die {
                hints = hints.with_die(d);
            }
            let v = BitVec::random(bits, rng);
            dev.fc_write(&format!("{group}-{i}"), &v, hints).unwrap().id
        })
        .collect()
}

/// Compiles a healthy probe, asserts the plan lint is silent, applies
/// the mutation, and asserts `code` is among the fired findings.
fn assert_plan_mutation_fires(
    dev: &mut FlashCosmosDevice,
    batch: &QueryBatch,
    mutation: PlanMutation,
    code: LintCode,
) {
    let mut probe = dev.compile_probe(batch).unwrap();
    let healthy = dev.lint_probe(&probe);
    assert!(healthy.is_empty(), "healthy plan must lint clean, got {healthy:?}");
    assert!(dev.corrupt_probe(&mut probe, mutation), "{mutation:?} found nothing to corrupt");
    let findings = dev.lint_probe(&probe);
    assert!(
        findings.iter().any(|f| f.code == code),
        "{mutation:?} must fire {code}, got {findings:?}"
    );
}

/// Asserts a clean device audit, applies the mutation, and asserts
/// `code` is among the fired findings.
fn assert_device_mutation_fires(
    dev: &mut FlashCosmosDevice,
    mutation: DeviceMutation,
    code: LintCode,
) {
    let healthy = dev.audit();
    assert!(healthy.is_empty(), "healthy device must audit clean, got {healthy:?}");
    assert!(dev.corrupt_for_audit(mutation), "{mutation:?} found nothing to corrupt");
    let findings = dev.audit();
    assert!(
        findings.iter().any(|f| f.code == code),
        "{mutation:?} must fire {code}, got {findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Pass 1 — seeded plan corruptions, one per code.
// ---------------------------------------------------------------------------

#[test]
fn fc001_fires_on_forged_wordline() {
    let mut rng = StdRng::seed_from_u64(0xA001);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 3, None, &mut rng);
    let batch: QueryBatch = [Expr::and_vars(ids)].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::ForgeWordline, LintCode::Fc001);
}

#[test]
fn fc002_fires_on_dropped_merge() {
    let mut rng = StdRng::seed_from_u64(0xA002);
    let mut dev = device();
    let a = store_group(&mut dev, "a", 2, Some(0), &mut rng);
    let b = store_group(&mut dev, "b", 2, Some(1), &mut rng);
    // A query spanning two pinned dies forces the crossdie split + merge.
    let batch: QueryBatch = [Expr::and_vars(a.into_iter().chain(b))].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::DropMerge, LintCode::Fc002);
}

#[test]
fn fc003_fires_on_skewed_threshold_k() {
    let mut rng = StdRng::seed_from_u64(0xA003);
    let mut dev = device();
    let ids = store_group(&mut dev, "t", 5, None, &mut rng);
    // A co-resident threshold lowers to one chip-side ThresholdMws.
    let batch: QueryBatch = [Expr::threshold_vars(3, ids)].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::SkewThresholdK, LintCode::Fc003);
}

#[test]
fn fc004_fires_on_ml_unit_retagged_as_execute() {
    let mut rng = StdRng::seed_from_u64(0xA004);
    let mut dev = device();
    let bits = dev.config().page_bits();
    let mlc: Vec<BitVec> = (0..2).map(|_| BitVec::random(bits, &mut rng)).collect();
    let handles = dev
        .fc_write_ml(
            &["m0", "m1"],
            &mlc.iter().collect::<Vec<_>>(),
            StoreHints::and_group("ml").with_scheme(ProgramScheme::Mlc),
        )
        .unwrap();
    let batch: QueryBatch = [Expr::and_vars(handles.iter().map(|h| h.id))].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::RetagMlAsExecute, LintCode::Fc004);
}

#[test]
fn fc005_fires_on_skewed_unit_generation() {
    let mut rng = StdRng::seed_from_u64(0xA005);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 3, None, &mut rng);
    let batch: QueryBatch = [Expr::and_vars(ids)].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::SkewUnitGeneration, LintCode::Fc005);
}

#[test]
fn fc005_fires_on_a_unit_stamped_with_a_placement_generation() {
    let mut rng = StdRng::seed_from_u64(0xA015);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 3, None, &mut rng);
    // A migration moves the operand's placement generation past its data
    // generation; a healthy stamp keeps the data generation.
    dev.migrate_operand("g-1", StoreHints::and_group("h")).unwrap();
    let batch: QueryBatch = [Expr::and_vars(ids)].into_iter().collect();
    assert_plan_mutation_fires(
        &mut dev,
        &batch,
        PlanMutation::StampPlacementGeneration,
        LintCode::Fc005,
    );
}

#[test]
fn fc006_fires_on_misrouted_leaf_die() {
    let mut rng = StdRng::seed_from_u64(0xA006);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 3, None, &mut rng);
    let batch: QueryBatch = [Expr::and_vars(ids)].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::MisrouteLeafDie, LintCode::Fc006);
}

#[test]
fn fc007_fires_on_mispriced_unit() {
    // An orphaned unit is priced for no query: its senses land in no
    // per-query share, and the query it fed is left uncovered.
    let mut rng = StdRng::seed_from_u64(0xA007);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 3, None, &mut rng);
    let batch: QueryBatch = [Expr::and_vars(ids)].into_iter().collect();
    assert_plan_mutation_fires(&mut dev, &batch, PlanMutation::OrphanUnit, LintCode::Fc007);
}

// ---------------------------------------------------------------------------
// Pass 2 — seeded device corruptions, one per code.
// ---------------------------------------------------------------------------

#[test]
fn fc101_fires_on_undeclared_lpn_alias() {
    let mut rng = StdRng::seed_from_u64(0xA101);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert_device_mutation_fires(&mut dev, DeviceMutation::AliasLpn, LintCode::Fc101);
}

#[test]
fn fc102_fires_on_double_stripe_membership() {
    let mut rng = StdRng::seed_from_u64(0xA102);
    let mut dev = device();
    dev.enable_parity();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert!(dev.stripe_count() >= 1);
    assert_device_mutation_fires(&mut dev, DeviceMutation::DoubleStripeMember, LintCode::Fc102);
}

#[test]
fn fc103_fires_on_dropped_parity_member() {
    let mut rng = StdRng::seed_from_u64(0xA103);
    let mut dev = device();
    dev.enable_parity();
    // A two-page vector in an unpinned group spans two dies, so its
    // pages form one two-member stripe; dropping a member leaves a raw
    // FC page uncovered.
    let bits = 2 * dev.config().page_bits();
    let v = BitVec::random(bits, &mut rng);
    dev.fc_write("wide", &v, StoreHints::and_group("g")).unwrap();
    assert_device_mutation_fires(&mut dev, DeviceMutation::DropParityMember, LintCode::Fc103);
    // The coverage gap is a warning, not an error: the state is
    // degraded-but-honest, never unsound.
    assert!(dev.audit().iter().all(|f| f.severity == Severity::Warning));
}

#[test]
fn fc103_fires_naturally_on_pages_written_before_parity() {
    let mut rng = StdRng::seed_from_u64(0xA113);
    let mut dev = device();
    // Pages written before enable_parity() stay uncovered — the audit
    // surfaces exactly that, with no seeded mutation needed.
    store_group(&mut dev, "early", 2, None, &mut rng);
    assert!(dev.audit().is_empty(), "no parity, no coverage obligation");
    dev.enable_parity();
    let findings = dev.audit();
    assert!(findings.iter().any(|f| f.code == LintCode::Fc103), "got {findings:?}");
}

#[test]
fn fc104_fires_on_ml_operands_under_parity() {
    let mut rng = StdRng::seed_from_u64(0xA104);
    let mut dev = device();
    dev.enable_parity();
    assert!(dev.audit().is_empty());
    let bits = dev.config().page_bits();
    let mlc: Vec<BitVec> = (0..2).map(|_| BitVec::random(bits, &mut rng)).collect();
    dev.fc_write_ml(
        &["m0", "m1"],
        &mlc.iter().collect::<Vec<_>>(),
        StoreHints::and_group("ml").with_scheme(ProgramScheme::Mlc),
    )
    .unwrap();
    // The documented fc_write_ml protection gap: parity is on, ML pages
    // are outside it. Warn-level — the contract says so.
    let findings = dev.audit();
    let f = findings.iter().find(|f| f.code == LintCode::Fc104).expect("FC104 must fire");
    assert_eq!(f.severity, Severity::Warning);
}

#[test]
fn fc105_fires_on_future_cache_generation() {
    let mut rng = StdRng::seed_from_u64(0xA105);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert_device_mutation_fires(&mut dev, DeviceMutation::SkewCacheGeneration, LintCode::Fc105);
}

#[test]
fn fc105_fires_on_a_stamp_missing_an_operand() {
    let mut rng = StdRng::seed_from_u64(0xA115);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 2, None, &mut rng);
    // One resident entry, then an overwrite leaves it stale — still a
    // healthy entry: it misses until its query refreshes it.
    dev.fc_read(&Expr::and_vars(ids)).unwrap();
    let bits = dev.config().page_bits();
    dev.fc_overwrite("g-0", &BitVec::random(bits, &mut rng)).unwrap();
    assert_eq!(dev.session().cache_stats().entries, 1);
    assert_device_mutation_fires(&mut dev, DeviceMutation::DropStampOperand, LintCode::Fc105);
}

#[test]
fn fc106_fires_on_dead_maintenance_job() {
    let mut rng = StdRng::seed_from_u64(0xA106);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert_device_mutation_fires(&mut dev, DeviceMutation::DeadJob, LintCode::Fc106);
}

#[test]
fn fc106_fires_on_never_allocated_scrub_target() {
    let mut rng = StdRng::seed_from_u64(0xA116);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert_device_mutation_fires(&mut dev, DeviceMutation::UnmappedScrub, LintCode::Fc106);
}

#[test]
fn fc107_fires_on_corrupted_operand_plane_cache() {
    let mut rng = StdRng::seed_from_u64(0xA107);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert_device_mutation_fires(&mut dev, DeviceMutation::SwapOperandPlane, LintCode::Fc107);
}

#[test]
fn fc107_fires_on_an_orphaned_record() {
    let mut rng = StdRng::seed_from_u64(0xA117);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    dev.store_durable("journal", &BitVec::random(64, &mut rng)).unwrap();
    assert_device_mutation_fires(&mut dev, DeviceMutation::OrphanRecord, LintCode::Fc107);
    assert!(dev.operand("g-0").is_none(), "the record is unreachable by name");
}

// ---------------------------------------------------------------------------
// Healthy state stays silent across representative shapes.
// ---------------------------------------------------------------------------

#[test]
fn healthy_plans_lint_clean_across_shapes() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let mut dev = device();
    dev.enable_parity();
    let a = store_group(&mut dev, "a", 4, Some(0), &mut rng);
    let b = store_group(&mut dev, "b", 3, Some(1), &mut rng);
    let t = store_group(&mut dev, "t", 5, None, &mut rng);
    let shapes: Vec<Expr> = vec![
        Expr::and_vars(a.clone()),
        Expr::or_vars(b.clone()),
        Expr::threshold_vars(3, t.clone()),
        Expr::and_vars(a.iter().chain(&b).copied()),
        Expr::not(Expr::or_vars(t.clone())),
        Expr::or(vec![Expr::and_vars(a.clone()), Expr::and_vars(b.clone())]),
        Expr::majority_vars(t),
    ];
    let batch: QueryBatch = shapes.into_iter().collect();
    let probe = dev.compile_probe(&batch).unwrap();
    let findings = dev.lint_probe(&probe);
    assert!(findings.is_empty(), "healthy plans must lint clean, got {findings:?}");
    // And the full device stays clean too (parity was on before writes).
    let findings = dev.audit();
    assert!(findings.is_empty(), "healthy device must audit clean, got {findings:?}");
}

#[test]
fn healthy_device_audits_clean_after_maintenance_and_scrub() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut dev = device();
    dev.enable_parity();
    let ids = store_group(&mut dev, "g", 6, None, &mut rng);
    let batch: QueryBatch = [Expr::and_vars(ids.clone()), Expr::or_vars(ids)].into_iter().collect();
    dev.submit(&batch).unwrap();
    dev.run_maintenance().unwrap();
    dev.drain().unwrap(); // enforce_device runs here in debug builds too
    let findings = dev.audit();
    assert!(findings.is_empty(), "got {findings:?}");
}

// ---------------------------------------------------------------------------
// Enforcement: an error finding panics at the debug-build hook.
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "fc_audit")]
fn deny_mode_panics_on_corrupted_device_at_drain() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut dev = device();
    let ids = store_group(&mut dev, "g", 2, None, &mut rng);
    assert!(dev.corrupt_for_audit(DeviceMutation::AliasLpn));
    // Queue real work: an empty drain returns early without mutating
    // anything, so the device pass only arms on the full path.
    let batch: QueryBatch = [Expr::and_vars(ids)].into_iter().collect();
    let _ticket = dev.submit_async(&batch).unwrap();
    dev.drain().unwrap(); // debug-build enforcement hook fires FC101
}

// ---------------------------------------------------------------------------
// Diagnostics surface.
// ---------------------------------------------------------------------------

#[test]
fn findings_are_typed_ordered_and_displayable() {
    let mut rng = StdRng::seed_from_u64(0xD15B);
    let mut dev = device();
    store_group(&mut dev, "g", 2, None, &mut rng);
    assert!(dev.corrupt_for_audit(DeviceMutation::UnmappedScrub));
    assert!(dev.corrupt_for_audit(DeviceMutation::SwapOperandPlane));
    let findings = dev.audit();
    // Sorted by code: FC106 before FC107, deterministically.
    let codes: Vec<LintCode> = findings.iter().map(|f| f.code).collect();
    let mut sorted = codes.clone();
    sorted.sort();
    assert_eq!(codes, sorted, "findings come back ordered");
    assert!(codes.contains(&LintCode::Fc106) && codes.contains(&LintCode::Fc107));
    for f in &findings {
        let line = f.to_string();
        assert!(line.starts_with(f.code.as_str()), "display leads with the code: {line}");
        assert!(!f.hint.is_empty(), "every finding carries a fix hint");
    }
    assert_eq!(LintCode::ALL.len(), 14);
}
