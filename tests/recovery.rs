//! The reliability tiers end to end: read-retry under modeled aging,
//! cross-die parity rebuild, drain-time retention scrubbing, and the
//! deterministic fault-injection harness — exercised through the full
//! stack against clean in-memory shadows.

use fc_bits::BitVec;
use fc_ssd::ecc::EccConfig;
use fc_ssd::SsdConfig;
use fc_workloads::skew::ZipfSampler;
use flash_cosmos::{Expr, FaultPlan, FcError, FlashCosmosDevice, LintCode, QueryBatch, StoreHints};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn physics_device() -> FlashCosmosDevice {
    let mut dev = FlashCosmosDevice::new_physics(SsdConfig::tiny_test());
    dev.ssd_mut().set_ecc(EccConfig::durable());
    dev
}

/// ISSUE scenario 1: a device aged to the paper's retention/PEC corner
/// fails a large fraction of nominal-Vref reads, and the retry ladder
/// recovers every one of them bit-exactly — no uncorrectable result ever
/// reaches the caller.
#[test]
fn retry_ladder_recovers_aged_reads_bit_exact() {
    let mut dev = physics_device();
    dev.enable_parity();
    let mut rng = StdRng::seed_from_u64(0x4E7241);
    let data = BitVec::random(2000, &mut rng);
    dev.store_durable("journal", &data).unwrap();
    dev.inject_faults(&FaultPlan::new().retention(48.0).age("journal", 15_000)).unwrap();
    for _ in 0..5 {
        assert_eq!(dev.read_durable("journal").unwrap(), data, "recovered reads stay bit-exact");
    }
    let h = dev.health();
    assert!(h.retry_reads > 0, "the aged corner must actually trigger the ladder: {h:?}");
    assert!(h.retry_recoveries > 0, "shifted-Vref re-senses must recover reads: {h:?}");
    assert_eq!(h.uncorrectable_after_recovery, 0, "no read may stay unrecovered: {h:?}");
}

/// ISSUE scenario 3: a Zipf-skewed read workload over aged durable
/// records, with drain-time scrubbing riding the idle-die slack, never
/// surfaces an uncorrectable result — and the scrubber converges (a
/// refreshed page does not re-queue).
#[test]
fn scrub_keeps_zipf_workload_at_zero_uncorrectable() {
    let mut dev = physics_device();
    dev.enable_parity();
    let mut rng = StdRng::seed_from_u64(0x5C4B);
    let names = ["rec-0", "rec-1", "rec-2", "rec-3"];
    let shadows: Vec<BitVec> = names.iter().map(|_| BitVec::random(800, &mut rng)).collect();
    for (name, data) in names.iter().zip(&shadows) {
        dev.store_durable(name, data).unwrap();
    }
    // Striped conventional placement interleaves the records into shared
    // blocks, so aging one record's blocks ages the whole working set —
    // aging every name would stack cycles 4× past any recoverable corner.
    dev.inject_faults(&FaultPlan::new().retention(48.0).age("rec-0", 15_000)).unwrap();

    let zipf = ZipfSampler::new(names.len(), 0.99);
    let mut scrubbed_total = 0;
    for _round in 0..6 {
        for _ in 0..4 {
            let rank = zipf.sample(&mut rng);
            assert_eq!(dev.read_durable(names[rank]).unwrap(), shadows[rank]);
        }
        // Drains with nothing queued still run the scrubber in the slack
        // budget; what does not fit one pass stays queued for the next.
        let m = dev.drain().unwrap().maintenance;
        if m.pages_scrubbed > 0 {
            assert!(m.budget_us >= 5_000.0, "a refreshing pass reports its budget: {m:?}");
            assert!(m.fill_time_us > 0.0, "and the die time its refreshes took: {m:?}");
            assert!(m.critical_path_us <= m.budget_us, "within the budget: {m:?}");
        }
        scrubbed_total += m.pages_scrubbed;
    }
    assert!(scrubbed_total > 0, "aged pages must cross the scrub threshold");
    assert_eq!(dev.pending_jobs(), 0, "repeated drains fully drain the job queue");
    assert_eq!(dev.schedule_scrub(), 0, "refreshed pages must not re-queue");
    let h = dev.health();
    assert!(h.pages_scrubbed >= scrubbed_total);
    assert_eq!(h.uncorrectable_after_recovery, 0, "workload saw no uncorrectable: {h:?}");
}

/// ISSUE scenario 4: faults injected *between* async submission and the
/// drain are observed by the drained queries — the drain compiles the
/// batch after the injection-time rebuild, so the results match the clean
/// ground truth, not the poisoned wordlines.
#[test]
fn faults_between_submit_and_drain_observe_ground_truth() {
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    dev.enable_parity();
    let mut rng = StdRng::seed_from_u64(0xD4A1);
    let vs: Vec<BitVec> = (0..4).map(|_| BitVec::random(256, &mut rng)).collect();
    let handles: Vec<_> = vs
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
        .collect();
    let mut batch = QueryBatch::new();
    let q = batch.push(Expr::and_vars(handles.iter().map(|h| h.id)));
    let ticket = dev.submit_async(&batch).unwrap();

    // The queued program now points at wordlines a stuck block corrupts;
    // the injection-time parity rebuild relocates them.
    let report = dev.inject_faults(&FaultPlan::new().stuck_block("op0", 0)).unwrap();
    assert!(report.rebuilt_pages >= 1);
    assert_eq!(report.lost_pages, 0);

    dev.drain().unwrap();
    let out = ticket.wait(&dev).unwrap();
    assert!(out.failures.is_empty(), "nothing was lost: {:?}", out.failures);
    let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
    assert_eq!(out.results[q], expect, "drained query observes ground truth");
}

/// Per-query failure isolation: a page that stays unreadable after every
/// recovery tier fails exactly the queries that touch it. The rest of
/// the batch completes with bit-exact results, on the sync, fail-fast,
/// and async paths alike.
#[test]
fn lost_page_fails_only_the_queries_that_touch_it() {
    // No parity: the stuck block is genuinely unrecoverable.
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let mut rng = StdRng::seed_from_u64(0x105E);
    let bad_data = BitVec::random(256, &mut rng);
    let ok_data: Vec<BitVec> = (0..2).map(|_| BitVec::random(256, &mut rng)).collect();
    let bad = dev.fc_write("bad", &bad_data, StoreHints::and_group("gb")).unwrap();
    let ok: Vec<_> = ok_data
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("ok{i}"), v, StoreHints::and_group("gg")).unwrap())
        .collect();
    let report = dev.inject_faults(&FaultPlan::new().stuck_block("bad", 0)).unwrap();
    assert!(report.lost_pages >= 1, "without parity the page is lost: {report:?}");
    assert_eq!(dev.lost_page_count() as u64, report.lost_pages);

    let mut batch = QueryBatch::new();
    let q_bad = batch.push(Expr::var(bad.id));
    let q_ok = batch.push(Expr::and_vars(ok.iter().map(|h| h.id)));
    let out = dev.submit(&batch).unwrap();
    assert_eq!(out.failures.len(), 1, "exactly one query fails: {:?}", out.failures);
    assert_eq!(out.failures[0].query, q_bad);
    assert_eq!(out.failures[0].tiers_tried, 2, "retry ladder and parity were both exhausted");
    assert_eq!(out.results[q_bad].len(), 0, "a failed query yields no bits, not zeros");
    assert_eq!(out.results[q_ok], ok_data[0].and(&ok_data[1]), "healthy query is unaffected");

    // Fail-fast paths surface the same facts as an error.
    let err = dev.fc_read(&Expr::var(bad.id)).unwrap_err();
    assert!(matches!(err, FcError::QueryFailed { query: 0, tiers_tried: 2, .. }), "{err}");

    // The async path delivers partial results through the ticket.
    let ticket = dev.submit_async(&batch).unwrap();
    let out = ticket.wait(&dev).unwrap();
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].query, q_bad);
    assert_eq!(out.results[q_ok], ok_data[0].and(&ok_data[1]));
}

/// The ISSUE acceptance scenario: a Zipf-skewed overwrite-and-query
/// endurance run with retention aging, read disturb, and a stuck block
/// injected mid-run completes with zero uncorrectable results, bit-exact
/// against a clean in-memory shadow, and a health snapshot showing every
/// recovery tier fired.
#[test]
fn endurance_run_with_full_fault_mix_stays_exact() {
    let mut dev = physics_device();
    dev.enable_parity();
    let mut rng = StdRng::seed_from_u64(0xE2D);
    let n_ops = 6;
    let mut shadows: Vec<BitVec> = (0..n_ops).map(|_| BitVec::random(700, &mut rng)).collect();
    let handles: Vec<_> = shadows
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
        .collect();
    let journal = BitVec::random(600, &mut rng);
    dev.store_durable("journal", &journal).unwrap();

    // The physics corner: chip-wide retention, a heavily cycled journal
    // (read-retry territory), and read disturb on the hottest operand.
    dev.inject_faults(
        &FaultPlan::new().retention(48.0).age("journal", 15_000).disturb("op0", 50_000),
    )
    .unwrap();

    let zipf = ZipfSampler::new(n_ops, 0.99);
    for round in 0..6 {
        // Zipf-skewed overwrite keeps the placement (and parity stripes)
        // churning.
        let hot = zipf.sample(&mut rng);
        shadows[hot] = BitVec::random(700, &mut rng);
        dev.fc_overwrite(&format!("op{hot}"), &shadows[hot]).unwrap();

        if round == 2 {
            // One stuck block mid-run: silently corrupts co-resident raw
            // pages, recovered from the parity stripes at injection time.
            let report = dev.inject_faults(&FaultPlan::new().stuck_block("op1", 0)).unwrap();
            assert_eq!(report.lost_pages, 0, "stuck block is within parity budget: {report:?}");
        }

        let mut batch = QueryBatch::new();
        let a = zipf.sample(&mut rng);
        let b = (a + 1) % n_ops;
        let q_pair = batch.push(Expr::and_vars([handles[a].id, handles[b].id]));
        let q_all = batch.push(Expr::and_vars(handles.iter().map(|h| h.id)));
        let ticket = dev.submit_async(&batch).unwrap();
        dev.drain().unwrap();
        let out = ticket.wait(&dev).unwrap();
        assert!(out.failures.is_empty(), "no query may fail: {:?}", out.failures);
        assert_eq!(out.results[q_pair], shadows[a].and(&shadows[b]), "round {round}");
        let all = shadows.iter().skip(1).fold(shadows[0].clone(), |acc, v| acc.and(v));
        assert_eq!(out.results[q_all], all, "round {round}");
        assert_eq!(dev.read_durable("journal").unwrap(), journal, "round {round}");
    }
    // Drain until the scrub backlog (refreshes deferred past each
    // drain's slack budget) fully clears.
    for _ in 0..16 {
        if dev.pending_jobs() == 0 {
            break;
        }
        dev.drain().unwrap();
    }

    let h = dev.health();
    assert!(h.retry_recoveries > 0, "tier 1 (read-retry) must have fired: {h:?}");
    assert!(h.parity_rebuilds > 0, "tier 2 (parity rebuild) must have fired: {h:?}");
    assert!(h.pages_scrubbed > 0, "tier 3 (retention scrub) must have fired: {h:?}");
    assert_eq!(h.uncorrectable_after_recovery, 0, "zero unrecovered reads: {h:?}");
    assert_eq!(dev.lost_page_count(), 0, "nothing was lost");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ISSUE scenario 2: for random operand data and a random single-die
    /// failure, every parity-rebuilt operand reads back identical to a
    /// clean shadow, individually and through an MWS query.
    #[test]
    fn parity_rebuild_matches_clean_shadow(seed in 0u64..1_000, victim in 0usize..4) {
        let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        dev.enable_parity();
        let mut rng = StdRng::seed_from_u64(seed);
        let shadows: Vec<BitVec> = (0..3).map(|_| BitVec::random(700, &mut rng)).collect();
        let handles: Vec<_> = shadows
            .iter()
            .enumerate()
            .map(|(i, v)| {
                dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap()
            })
            .collect();
        let report = dev.inject_faults(&FaultPlan::new().fail_die(victim)).unwrap();
        prop_assert_eq!(report.lost_pages, 0, "one die is within the parity budget");
        for (h, shadow) in handles.iter().zip(&shadows) {
            let (got, _) = dev.fc_read(&Expr::var(h.id)).unwrap();
            prop_assert_eq!(&got, shadow);
        }
        let (got, _) = dev.fc_read(&Expr::and_vars(handles.iter().map(|h| h.id))).unwrap();
        let expect = shadows.iter().skip(1).fold(shadows[0].clone(), |a, v| a.and(v));
        prop_assert_eq!(got, expect);
    }
}

/// A whole-die failure leaves every parity stripe `FC102`-clean. With
/// four dies, a three-member stripe and its parity page cover every die,
/// so a member rebuilt off the failed die has no die outside its peers
/// and parity left: it must take the parity die (members stay pairwise
/// distinct), never a peer's die.
#[test]
fn die_failure_rebuild_keeps_stripes_fc102_clean() {
    for seed in 0..50u64 {
        for victim in 0..4 {
            let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
            dev.enable_parity();
            let mut rng = StdRng::seed_from_u64(seed);
            let shadows: Vec<BitVec> = (0..3).map(|_| BitVec::random(700, &mut rng)).collect();
            for (i, v) in shadows.iter().enumerate() {
                dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap();
            }
            dev.inject_faults(&FaultPlan::new().fail_die(victim)).unwrap();
            let fc102: Vec<_> =
                dev.audit().into_iter().filter(|f| f.code == LintCode::Fc102).collect();
            assert!(fc102.is_empty(), "seed {seed}, failed die {victim}: {fc102:?}");
        }
    }
}

/// Pins the documented stacking contract of [`FaultPlan::age`]: entries
/// resolve to *physical blocks*, so co-resident names (and repeated
/// names) sum their cycles on every shared block instead of taking the
/// maximum or segregating per name.
#[test]
fn age_entries_stack_cycles_on_shared_blocks() {
    use fc_nand::geometry::BlockAddr;
    use fc_ssd::topology::DieId;

    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let mut rng = StdRng::seed_from_u64(0xA6E5);
    // One stripe each, same group: "a" and "b" share one physical block.
    let a = BitVec::random(256, &mut rng);
    let b = BitVec::random(256, &mut rng);
    dev.fc_write("a", &a, StoreHints::and_group("g")).unwrap();
    dev.fc_write("b", &b, StoreHints::and_group("g")).unwrap();

    let config = SsdConfig::tiny_test();
    let pec_map = |dev: &mut FlashCosmosDevice| -> Vec<u32> {
        let mut out = Vec::new();
        for die in 0..config.total_dies() {
            let chip = dev.ssd_mut().chip(DieId::from_flat(die, &config));
            for plane in 0..config.planes_per_die {
                for block in 0..config.blocks_per_plane {
                    out.push(chip.block_pec(BlockAddr::new(plane as u32, block as u32)).unwrap());
                }
            }
        }
        out
    };

    let before = pec_map(&mut dev);
    let report =
        dev.inject_faults(&FaultPlan::new().age("a", 500).age("b", 700).age("a", 300)).unwrap();
    assert_eq!(report.touched_operands, vec![0, 1]);
    let after = pec_map(&mut dev);

    let deltas: Vec<u32> =
        before.iter().zip(&after).map(|(b, a)| a - b).filter(|&d| d != 0).collect();
    assert_eq!(
        deltas,
        vec![500 + 700 + 300],
        "co-resident age entries must stack additively on the one shared block"
    );
    // The stored data itself is untouched by pure wear conditioning.
    let (got, _) = dev.fc_read(&Expr::var(0)).unwrap();
    assert_eq!(got, a);
}
