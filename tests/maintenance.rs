//! The maintenance layer end to end: hot-operand regrouping converging a
//! scattered layout to single-sense units inside drain's slack budget,
//! wear-aware gather targets, cost-aware cache retention beating FIFO
//! under Zipf skew, and the generation-mismatch retirement contract.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use fc_workloads::skew::CoQueryWorkload;
use flash_cosmos::{BatchResults, Expr, FlashCosmosDevice, QueryBatch, Severity, StoreHints};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn device() -> FlashCosmosDevice {
    FlashCosmosDevice::new(SsdConfig::tiny_test())
}

/// The `fc_audit` device pass stays error-free after every interleaving
/// step (warn-level coverage findings are allowed in mixed scenarios).
fn assert_audit_clean(dev: &FlashCosmosDevice) -> Result<(), TestCaseError> {
    let errors: Vec<_> =
        dev.audit().into_iter().filter(|f| f.severity == Severity::Error).collect();
    prop_assert!(errors.is_empty(), "device audit found errors: {errors:?}");
    Ok(())
}

/// Submits `batch` right after a migration, which moved placement but not
/// data: every unit replays its cached entry and senses nothing. Then
/// clears the result cache and submits `batch` again, so the returned run
/// senses the regrouped layout; it answers with the replay's bits.
fn replay_then_cold(dev: &FlashCosmosDevice, batch: &QueryBatch) -> BatchResults {
    let replay = dev.submit(batch).unwrap();
    assert_eq!(replay.stats.senses, 0, "a migration keeps cached results");
    assert_eq!(replay.stats.cached_units, batch.len(), "every unit replays its entry");
    dev.clear_result_cache();
    let cold = dev.submit(batch).unwrap();
    assert_eq!(cold.results, replay.results, "the replay holds the regrouped layout's bits");
    cold
}

/// Writes `n` page-sized operands, each scattered into its own singleton
/// group, and returns ids + data.
fn scattered_operands(
    dev: &mut FlashCosmosDevice,
    n: usize,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<BitVec>) {
    let bits = dev.config().page_bits();
    let mut ids = Vec::new();
    let mut data = Vec::new();
    for i in 0..n {
        let v = BitVec::random(bits, rng);
        ids.push(
            dev.fc_write(&format!("op{i}"), &v, StoreHints::and_group(&format!("solo{i}")))
                .unwrap()
                .id,
        );
        data.push(v);
    }
    (ids, data)
}

/// ISSUE acceptance: on a skewed co-query workload, maintenance migrates
/// the hot set during `drain()`'s idle-die slack — without exceeding the
/// critical-path budget — and the warm-path modeled senses for the hot
/// query drop ≥ 2× versus the scattered layout.
#[test]
fn regrouping_converges_within_the_drain_slack_budget() {
    let w = CoQueryWorkload::scattered(SsdConfig::tiny_test(), 12, 6, 4, 1.1, 0xC0).unwrap();
    let hot = w.expr(0);
    let expected = w.expected(0);
    let mut batch = QueryBatch::new();
    batch.push(hot.clone());

    // Cold, scattered: one sense per operand-block.
    let cold = w.dev.submit(&batch).unwrap();
    assert_eq!(cold.results[0], expected);
    assert_eq!(cold.stats.senses, 4, "scattered layout senses every block");

    // Heat the set past the co-fuse threshold, then plan.
    w.dev.submit(&batch).unwrap();
    let queued = w.dev.schedule_maintenance();
    assert_eq!(queued, 4, "one migration job per hot-set operand");
    assert_eq!(w.dev.pending_jobs(), 4);

    // The jobs ride the next drain, filling idle-die slack.
    let ticket = w.dev.submit_async(&batch).unwrap();
    let drained = w.dev.drain().unwrap();
    let m = drained.maintenance;
    assert_eq!(m.jobs_executed, 4, "all jobs fit the default slack floor");
    assert_eq!(m.jobs_deferred, 0);
    assert_eq!(m.jobs_retired, 0);
    assert_eq!(m.pages_moved, 4);
    assert!(m.fill_time_us > 0.0);
    assert!(
        m.critical_path_us <= m.budget_us + 1e-9,
        "fill-in must respect the budget: {} vs {}",
        m.critical_path_us,
        m.budget_us
    );
    let results = ticket.wait(&w.dev).unwrap();
    assert_eq!(results.results[0], expected, "drained query still bit-exact");

    // Warm path: the first post-migration submit replays the cached
    // entry; with the cache cleared, the next one runs at the regrouped
    // cost.
    let warm = replay_then_cold(&w.dev, &batch);
    assert_eq!(warm.results[0], expected, "migration preserves data");
    assert_eq!(warm.stats.senses, 1, "gathered set is one intra-block MWS");
    assert!(
        warm.stats.senses * 2 <= cold.stats.senses,
        "≥2× sense drop: warm {} vs cold {}",
        warm.stats.senses,
        cold.stats.senses
    );
    // And the gathered operands now share one placement group.
    let hot_ids = &w.sets[0];
    let g = w.dev.group_index_of(hot_ids[0]);
    assert!(hot_ids.iter().all(|&id| w.dev.group_index_of(id) == g));
}

/// ISSUE satellite: a regroup job whose source operand was overwritten
/// between planning and execution is retired (generation mismatch), not
/// applied — and the retirement re-arms the set for replanning.
#[test]
fn overwritten_operand_retires_its_job_instead_of_migrating() {
    let mut rng = StdRng::seed_from_u64(0x0F);
    let mut dev = device();
    let (ids, mut data) = scattered_operands(&mut dev, 3, &mut rng);
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(ids.iter().copied()));
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert_eq!(dev.schedule_maintenance(), 3);

    // Overwrite op1 *after* planning, *before* execution.
    let replacement = BitVec::random(dev.config().page_bits(), &mut rng);
    dev.fc_overwrite("op1", &replacement).unwrap();
    data[1] = replacement;

    let stats = dev.run_maintenance().unwrap();
    assert_eq!(stats.jobs_retired, 1, "the overwritten operand's job must drop");
    assert_eq!(stats.jobs_executed, 2, "its siblings still gather");
    let retired = dev.retired_jobs();
    assert_eq!(retired.len(), 1);
    assert_eq!(retired[0].operand, ids[1]);
    assert_eq!(retired[0].name, "op1", "the log names the operand from the table");
    assert!(retired[0].found_generation > retired[0].expected_generation);
    assert_eq!(dev.jobs_retired_total(), 1);
    // The un-migrated operand stayed in its original group...
    assert_ne!(dev.group_index_of(ids[1]), dev.group_index_of(ids[0]));
    // ...and the query stays bit-exact on the overwritten data.
    let out = dev.submit(&batch).unwrap();
    assert_eq!(out.results[0], data[0].and(&data[1]).and(&data[2]));

    // The retirement re-armed the set: a later pass finishes the gather
    // (the replanned set now includes the overwritten operand's new
    // generation) and converges to a single sense.
    dev.submit(&batch).unwrap();
    let second = dev.run_maintenance().unwrap();
    assert!(second.jobs_executed >= 1, "re-armed set gathers the straggler");
    let converged = replay_then_cold(&dev, &batch);
    assert_eq!(converged.results[0], data[0].and(&data[1]).and(&data[2]));
    assert_eq!(converged.stats.senses, 1, "fully gathered after the second pass");
}

/// The retired-job log keeps its newest 64 entries while the total
/// counter keeps counting.
#[test]
fn retired_job_log_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0x10);
    let mut dev = device();
    // 17 hot 4-operand sets: 68 jobs, planned over two passes (64 + 4).
    let (ids, _) = scattered_operands(&mut dev, 68, &mut rng);
    let batch: QueryBatch = ids.chunks(4).map(|set| Expr::and_vars(set.iter().copied())).collect();
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert_eq!(dev.schedule_maintenance(), 64);
    assert_eq!(dev.schedule_maintenance(), 4);
    // Invalidate every job before execution.
    let bits = dev.config().page_bits();
    for i in 0..68 {
        let v = BitVec::random(bits, &mut rng);
        dev.fc_overwrite(&format!("op{i}"), &v).unwrap();
    }
    let stats = dev.run_maintenance().unwrap();
    assert_eq!(stats.jobs_retired, 68);
    assert_eq!(dev.jobs_retired_total(), 68, "the counter sees all retirements");
    let names: Vec<String> = dev.retired_jobs().into_iter().map(|r| r.name).collect();
    let newest: Vec<String> = (4..68).map(|i| format!("op{i}")).collect();
    assert_eq!(names, newest, "the log keeps the newest 64, oldest first");
}

/// At equal capacity, cost-aware retention beats FIFO eviction on a
/// Zipf-skewed resubmit stream by a wide margin.
#[test]
fn cost_aware_cache_beats_fifo_under_zipf_skew() {
    const SETS: usize = 32;
    const CAPACITY: usize = 8;
    const STREAM: usize = 400;
    /// FIFO eviction's hit rate on this seeded stream at equal capacity,
    /// measured while FIFO was still selectable.
    const FIFO_HIT_RATE: f64 = 215.0 / 400.0;

    let w = CoQueryWorkload::scattered(SsdConfig::tiny_test(), 16, SETS, 2, 1.1, 0x21F).unwrap();
    w.dev.set_result_cache_capacity(CAPACITY);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..STREAM {
        let (batch, ranks) = w.zipf_batch(1, &mut rng);
        let out = w.dev.submit(&batch).unwrap();
        assert_eq!(out.results[0], w.expected(ranks[0]), "cached replay stays exact");
    }
    let stats = w.dev.session().cache_stats();
    assert_eq!(stats.capacity, CAPACITY);
    let rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
    assert!(
        rate >= FIFO_HIT_RATE + 0.1,
        "cost-aware must beat FIFO substantially: {rate:.3} vs {FIFO_HIT_RATE:.3}"
    );
}

/// Cost-aware retention protects a hot entry that FIFO would evict as
/// the oldest.
#[test]
fn cost_aware_cache_keeps_the_hot_entry() {
    let mut dev = device();
    dev.set_result_cache_capacity(2);
    let mut rng = StdRng::seed_from_u64(0x11);
    let (ids, _) = scattered_operands(&mut dev, 3, &mut rng);
    dev.fc_read(&Expr::var(ids[0])).unwrap();
    dev.fc_read(&Expr::var(ids[1])).unwrap();
    for _ in 0..5 {
        dev.fc_read(&Expr::var(ids[0])).unwrap();
    }
    dev.fc_read(&Expr::var(ids[2])).unwrap(); // evicts cold ids[1]
    let (_, s) = dev.fc_read(&Expr::var(ids[0])).unwrap();
    assert_eq!(s.senses, 0, "cost-aware kept the hot entry");
    assert!(dev.session().cache_stats().rejections <= 1);
}

/// The regrouping planner's target die avoids cycled planes.
#[test]
fn regroup_target_avoids_worn_dies() {
    let mut rng = StdRng::seed_from_u64(0x12);
    let mut dev = device();
    let cfg = SsdConfig::tiny_test();
    // Age every block on dies 0..3 heavily; die 3 stays fresh.
    for die in 0..3 {
        for plane in 0..cfg.planes_per_die as u32 {
            for block in 0..cfg.blocks_per_plane as u32 {
                let d = fc_ssd::topology::DieId::from_flat(die, &cfg);
                dev.ssd_mut()
                    .chip_mut(d)
                    .cycle_block(fc_nand::geometry::BlockAddr::new(plane, block), 5_000)
                    .unwrap();
            }
        }
    }
    let wear = dev.plane_wear();
    assert!(wear[0] > 0 && wear[6] == 0 && wear[7] == 0, "wear map reflects cycling: {wear:?}");

    // The regrouping planner picks the fresh die as migration target.
    let (ids, _) = scattered_operands(&mut dev, 3, &mut rng);
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(ids.iter().copied()));
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert!(dev.schedule_maintenance() >= 1);
    dev.run_maintenance().unwrap();
    for &id in &ids {
        let dies = dev.operand_dies(id).unwrap();
        assert!(dies.iter().all(|d| d.flat(&cfg) == 3), "gather target is the least-worn die");
    }
}

/// An async batch compiles once, at drain, so it feeds the affinity
/// tracker once: one submission is one observation, so a single queued
/// query never crosses the default co-fuse threshold, also when an
/// overwrite lands between its submission and its drain.
#[test]
fn an_async_submission_is_one_affinity_observation() {
    let mut rng = StdRng::seed_from_u64(0x2C);
    let mut dev = device();
    let (ids, _) = scattered_operands(&mut dev, 3, &mut rng);
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(ids.iter().copied()));
    let ticket = dev.submit_async(&batch).unwrap();
    // Overwrite a member while the batch is queued.
    let v = BitVec::random(dev.config().page_bits(), &mut rng);
    dev.fc_overwrite("op0", &v).unwrap();
    dev.drain().unwrap();
    ticket.wait(&dev).unwrap();
    let entry = dev.session().affinity().entry(&ids).unwrap();
    assert_eq!(entry.fused, 1, "one submission = one observation");
    assert_eq!(dev.schedule_maintenance(), 0, "a once-queried set is not hot");
}

/// The per-pass job cap (64) applies at set granularity: a hot set that
/// would overshoot it waits for the next pass, and a set is never split.
#[test]
fn job_cap_defers_whole_sets_to_the_next_pass() {
    let mut rng = StdRng::seed_from_u64(0x2D);
    let mut dev = device();
    // Nine hot 8-operand sets: 72 jobs against a cap of 64.
    let (ids, _) = scattered_operands(&mut dev, 72, &mut rng);
    let batch: QueryBatch = ids.chunks(8).map(|set| Expr::and_vars(set.iter().copied())).collect();
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert_eq!(dev.schedule_maintenance(), 64, "the ninth set would overshoot the cap");
    assert_eq!(dev.pending_jobs(), 64);
    assert_eq!(dev.schedule_maintenance(), 8, "next pass picks up the deferred set");
    assert_eq!(dev.pending_jobs(), 72);
    dev.run_maintenance().unwrap();
    let warm = replay_then_cold(&dev, &batch);
    assert_eq!(warm.stats.senses, 9, "every set gathered: one sense each");
}

/// Two disjoint hot sets planned in one pass gather onto *different*
/// dies — the target choice accounts for jobs already queued, so the
/// pass does not pile every gather group onto one snapshot's least-worn
/// die and recreate the single-die serialization PR 3 removed.
#[test]
fn distinct_hot_sets_spread_their_gather_targets_across_dies() {
    let mut rng = StdRng::seed_from_u64(0x32);
    let mut dev = device();
    let cfg = SsdConfig::tiny_test();
    let (ids, _) = scattered_operands(&mut dev, 4, &mut rng);
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(ids[..2].iter().copied()));
    batch.push(Expr::and_vars(ids[2..].iter().copied()));
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert_eq!(dev.schedule_maintenance(), 4, "both sets plan in one pass");
    dev.run_maintenance().unwrap();
    let die_a = dev.operand_dies(ids[0]).unwrap()[0].flat(&cfg);
    let die_b = dev.operand_dies(ids[2]).unwrap()[0].flat(&cfg);
    assert_eq!(dev.operand_dies(ids[1]).unwrap()[0].flat(&cfg), die_a);
    assert_eq!(dev.operand_dies(ids[3]).unwrap()[0].flat(&cfg), die_b);
    assert_ne!(die_a, die_b, "disjoint gather groups must not share one die");
    let warm = replay_then_cold(&dev, &batch);
    assert_eq!(warm.stats.senses, 2, "each set one sense");
    assert_eq!(warm.stats.dies_used, 2, "the sets sense on different dies concurrently");
}

/// An oversized job (more pages than any drain budget can swallow) is
/// skipped over, not a head-of-line blocker: unrelated jobs behind it
/// still execute, and the big job waits for a foreground pass.
#[test]
fn an_oversized_job_defers_without_wedging_the_queue() {
    let mut rng = StdRng::seed_from_u64(0x31);
    let mut dev = device();
    let bits = dev.config().page_bits();
    // One huge operand pair (16 stripes → 16 × tESP ≈ 6.4 ms on the
    // target die, over the 5 ms floor) plus a small scattered pair.
    let big: Vec<BitVec> = (0..2).map(|_| BitVec::random(bits * 16, &mut rng)).collect();
    for (i, v) in big.iter().enumerate() {
        dev.fc_write(&format!("big{i}"), v, StoreHints::and_group(&format!("bigsolo{i}"))).unwrap();
    }
    let (small_ids, _) = scattered_operands(&mut dev, 2, &mut rng);
    let mut heat = QueryBatch::new();
    heat.push(Expr::and_vars([0usize, 1]));
    heat.push(Expr::and_vars(small_ids.iter().copied()));
    dev.submit(&heat).unwrap();
    dev.submit(&heat).unwrap();
    assert_eq!(dev.schedule_maintenance(), 4, "both sets plan (big first: hotter ids order)");
    // Drain under the default budget: the big set's jobs cannot fit, the
    // small set's jobs behind them still must.
    let drained = dev.drain().unwrap();
    assert!(drained.maintenance.jobs_executed >= 2, "small jobs passed the blocked big ones");
    assert!(drained.maintenance.jobs_deferred >= 1, "big jobs wait, still queued");
    assert!(drained.maintenance.critical_path_us <= drained.maintenance.budget_us + 1e-9);
    let mut small_batch = QueryBatch::new();
    small_batch.push(Expr::and_vars(small_ids.iter().copied()));
    assert_eq!(replay_then_cold(&dev, &small_batch).stats.senses, 1, "small set gathered");
    // Re-cache the big set's query (clearing dropped its entry), then the
    // foreground pass (no budget) finishes the big set.
    let mut big_batch = QueryBatch::new();
    big_batch.push(Expr::and_vars([0usize, 1]));
    dev.submit(&big_batch).unwrap();
    let fg = dev.run_maintenance().unwrap();
    assert!(fg.jobs_executed >= 1);
    assert_eq!(dev.pending_jobs(), 0);
    let out = replay_then_cold(&dev, &big_batch);
    assert_eq!(out.results[0], big[0].and(&big[1]));
    assert_eq!(out.stats.senses, 16, "big set gathered: one sense per stripe");
}

/// A set that re-scatters — an overlapping hot set migrated one of its
/// members away — becomes plannable again (the planner tracks actual
/// placement, not a once-planned ledger).
#[test]
fn a_regathered_member_stolen_by_an_overlapping_set_is_regathered_again() {
    let mut rng = StdRng::seed_from_u64(0x2F);
    let mut dev = device();
    let (ids, data) = scattered_operands(&mut dev, 3, &mut rng);
    let s1: QueryBatch = [Expr::and_vars([ids[0], ids[1]])].into_iter().collect();
    let s2: QueryBatch = [Expr::and_vars([ids[1], ids[2]])].into_iter().collect();
    // Submitting a set twice heats it past the co-fuse threshold; so does
    // `replay_then_cold`, whose cold submit reports the layout's true
    // cost to the affinity tracker last.
    let heat = |dev: &FlashCosmosDevice, b: &QueryBatch| {
        dev.submit(b).unwrap();
        dev.submit(b).unwrap();
    };
    // Gather S1 = {0, 1}.
    heat(&dev, &s1);
    dev.run_maintenance().unwrap();
    assert_eq!(replay_then_cold(&dev, &s1).stats.senses, 1, "S1 gathered");
    let s1_group = dev.group_index_of(ids[0]);
    // Gather S2 = {1, 2}: steals operand 1 from S1's block.
    heat(&dev, &s2);
    let stats = dev.run_maintenance().unwrap();
    assert!(stats.jobs_executed >= 1);
    assert_ne!(dev.group_index_of(ids[1]), s1_group, "operand 1 moved out of S1's group");
    // S1 is scattered again; re-observing it must replan and regather.
    let scattered_again = replay_then_cold(&dev, &s1).stats.senses;
    assert!(scattered_again > 1, "S1 re-scattered after the steal");
    let stats = dev.run_maintenance().unwrap();
    assert!(stats.jobs_executed >= 1, "re-scattered set must be plannable again");
    let warm = replay_then_cold(&dev, &s1);
    assert_eq!(warm.results[0], data[0].and(&data[1]));
    assert_eq!(warm.stats.senses, 1, "S1 regathered to a single sense");
}

/// A replan after a partial pass (one job retired) targets the die the
/// gather group actually sits on — not whatever die is least worn at
/// replan time — so the modeled fill-in cost lands on the die that
/// really executes the program.
#[test]
fn replanned_stragglers_target_the_existing_gather_die() {
    let mut rng = StdRng::seed_from_u64(0x30);
    let cfg = SsdConfig::tiny_test();
    let mut dev = device();
    let (ids, _) = scattered_operands(&mut dev, 3, &mut rng);
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(ids.iter().copied()));
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert_eq!(dev.schedule_maintenance(), 3);
    // Retire op2's job, so the first pass gathers only op0/op1.
    let v = BitVec::random(dev.config().page_bits(), &mut rng);
    dev.fc_overwrite("op2", &v).unwrap();
    let first = dev.run_maintenance().unwrap();
    assert_eq!((first.jobs_executed, first.jobs_retired), (2, 1));
    let gather_die = dev.operand_dies(ids[0]).unwrap()[0];
    assert_eq!(dev.operand_dies(ids[1]).unwrap()[0], gather_die);
    // Make every *other* die more attractive by wear: age the gather die
    // heavily, so a naive replan would pick a different target.
    for plane in 0..cfg.planes_per_die as u32 {
        for block in 0..cfg.blocks_per_plane as u32 {
            dev.ssd_mut()
                .chip_mut(gather_die)
                .cycle_block(fc_nand::geometry::BlockAddr::new(plane, block), 9_000)
                .unwrap();
        }
    }
    // Re-observe the set (still scattered: op2 sits outside) and replan.
    dev.submit(&batch).unwrap();
    dev.submit(&batch).unwrap();
    assert!(dev.schedule_maintenance() >= 1, "straggler replans");
    let second = dev.run_maintenance().unwrap();
    assert!(second.jobs_executed >= 1);
    assert_eq!(
        dev.operand_dies(ids[2]).unwrap()[0],
        gather_die,
        "straggler must join the group's actual die, worn or not"
    );
    let warm = replay_then_cold(&dev, &batch);
    assert_eq!(warm.stats.senses, 1, "fully gathered despite the wear shift");
}

/// Cost-aware admission adapts to a working-set shift: refused inserts
/// age the weakest resident, so the new population wears the stale-hot
/// entries out instead of being locked out forever.
#[test]
fn cost_aware_cache_adapts_after_a_working_set_shift() {
    let mut rng = StdRng::seed_from_u64(0x2E);
    let mut dev = device();
    dev.set_result_cache_capacity(2);
    let (ids, _) = scattered_operands(&mut dev, 6, &mut rng);
    // Phase 1: two entries become hot (several hits each).
    for _ in 0..4 {
        dev.fc_read(&Expr::var(ids[0])).unwrap();
        dev.fc_read(&Expr::var(ids[1])).unwrap();
    }
    // Phase 2: the workload shifts to a new pair, re-queried repeatedly.
    for _ in 0..12 {
        dev.fc_read(&Expr::var(ids[2])).unwrap();
        dev.fc_read(&Expr::var(ids[3])).unwrap();
    }
    let (_, s2) = dev.fc_read(&Expr::var(ids[2])).unwrap();
    let (_, s3) = dev.fc_read(&Expr::var(ids[3])).unwrap();
    assert_eq!(s2.senses + s3.senses, 0, "the new working set eventually resides");
    assert!(dev.session().cache_stats().rejections > 0, "the shift was resisted, then won");
}

/// Operations the interleaving proptest can apply.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit,
    SubmitAsync,
    Maintain,
    Overwrite(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ISSUE satellite: interleaving `submit` / `submit_async` /
    /// `run_maintenance` / `fc_overwrite` never changes any query result
    /// — every result matches a cold-cache, no-maintenance reference
    /// device and ground-truth evaluation, so background migrations are
    /// invisible to queries and invalidated cache entries are never
    /// served.
    #[test]
    fn background_maintenance_never_changes_results(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let maint = device();
        let cold = device();
        cold.set_result_cache_capacity(0);

        let bits = maint.config().page_bits();
        let mut truth: Vec<BitVec> = Vec::new();
        for i in 0..5usize {
            let v = BitVec::random(bits, &mut rng);
            let hints = StoreHints::and_group(&format!("solo{i}"));
            maint.fc_write(&format!("op{i}"), &v, hints.clone()).unwrap();
            cold.fc_write(&format!("op{i}"), &v, hints).unwrap();
            truth.push(v);
        }
        let ids: Vec<usize> = (0..5).collect();

        let random_batch = |rng: &mut StdRng| -> QueryBatch {
            (0..rng.gen_range(1usize..=3))
                .map(|_| {
                    let k = rng.gen_range(2usize..=3);
                    let start = rng.gen_range(0..=ids.len() - k);
                    let slice = ids[start..start + k].iter().copied();
                    match rng.gen_range(0..3) {
                        0 => Expr::and_vars(slice),
                        1 => Expr::or_vars(slice),
                        _ => Expr::xor(Expr::var(ids[start]), Expr::var(ids[start + 1])),
                    }
                })
                .collect()
        };

        let mut in_flight: Vec<(flash_cosmos::Ticket, QueryBatch)> = Vec::new();
        for _ in 0..12 {
            let op = match rng.gen_range(0..6) {
                0 | 1 => Op::Submit,
                2 => Op::SubmitAsync,
                3 => Op::Maintain,
                _ => Op::Overwrite(rng.gen_range(0..5)),
            };
            match op {
                Op::Submit => {
                    let batch = random_batch(&mut rng);
                    let b = cold.submit(&batch).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    // Twice on the maintained device: the batch's sets turn
                    // hot, so maintenance has migrations to interleave.
                    for _ in 0..2 {
                        let a = maint.submit(&batch)
                            .map_err(|e| TestCaseError::fail(e.to_string()))?;
                        prop_assert_eq!(&a.results, &b.results,
                            "maintained device diverged from the reference");
                    }
                    for (qi, q) in batch.queries().iter().enumerate() {
                        let lookup = |i: usize| truth[i].clone();
                        prop_assert_eq!(&b.results[qi], &q.eval(&lookup),
                            "query {} diverged from ground truth", qi);
                    }
                }
                Op::SubmitAsync => {
                    let batch = random_batch(&mut rng);
                    let ticket = maint.submit_async(&batch)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    in_flight.push((ticket, batch));
                }
                Op::Maintain => {
                    // Plans against current heat and migrates immediately —
                    // possibly while async batches are in flight (they
                    // compile at drain, against the moved layout).
                    maint.run_maintenance().map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
                Op::Overwrite(i) => {
                    let v = BitVec::random(bits, &mut rng);
                    maint.fc_overwrite(&format!("op{i}"), &v)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    cold.fc_overwrite(&format!("op{i}"), &v)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    truth[i] = v;
                }
            }
            assert_audit_clean(&maint)?;
        }
        maint.drain().map_err(|e| TestCaseError::fail(e.to_string()))?;
        assert_audit_clean(&maint)?;
        for (ticket, batch) in in_flight.drain(..) {
            let got = maint.wait(ticket).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let reference = cold.submit(&batch).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&got.results, &reference.results,
                "async batch diverged from the reference");
            for (qi, q) in batch.queries().iter().enumerate() {
                let lookup = |i: usize| truth[i].clone();
                prop_assert_eq!(&got.results[qi], &q.eval(&lookup),
                    "async query {} diverged from ground truth", qi);
            }
        }
    }
}
