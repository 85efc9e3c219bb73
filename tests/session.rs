//! The async session layer end to end: ticketed submission overlapping
//! batches across dies, and the generation-stamped cross-batch result
//! cache staying bit-identical to a cold-cache device under interleaved
//! writes, overwrites and migrations.

use std::time::Instant;

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::{Expr, FcError, FlashCosmosDevice, QueryBatch, Severity, StoreHints};
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

/// Stores `n` random page-sized vectors in one AND group (optionally die
/// pinned), returning ids and data.
fn store_group(
    dev: &mut FlashCosmosDevice,
    group: &str,
    n: usize,
    die: Option<usize>,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<BitVec>) {
    let bits = dev.config().page_bits();
    let mut ids = Vec::new();
    let mut data = Vec::new();
    for i in 0..n {
        let mut hints = StoreHints::and_group(group);
        if let Some(d) = die {
            hints = hints.with_die(d);
        }
        let v = BitVec::random(bits, rng);
        ids.push(dev.fc_write(&format!("{group}-{i}"), &v, hints).unwrap().id);
        data.push(v);
    }
    (ids, data)
}

/// The repeat-heavy 16-query mix the resubmit bench uses.
fn sixteen_queries(ids: &[usize]) -> QueryBatch {
    (0..16)
        .map(|q| match q % 4 {
            0 => Expr::and_vars(ids.iter().copied()),
            1 => Expr::and_vars(ids.iter().rev().copied()),
            2 => Expr::and_vars(ids[..4].iter().copied()),
            _ => Expr::and_vars(ids[q % 5..].iter().copied()),
        })
        .collect()
}

/// ISSUE acceptance: re-submitting a 16-query batch with a warm cache is
/// ≥5× cheaper than the cold submit in modeled senses and wall time, and
/// bit-exact versus a cold-cache device.
#[test]
fn warm_resubmit_is_five_times_cheaper_and_bit_exact() {
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let mut warm_dev = device();
    // 16 Ki-bit vectors (64 stripes on the tiny geometry): the cold
    // submit's chip-simulation cost dwarfs the warm path's fixed
    // compile/replay overhead, so the ≥5× wall-time bar holds with a
    // wide margin even on noisy CI runners.
    let vectors: Vec<BitVec> = (0..8).map(|_| BitVec::random(16_384, &mut rng)).collect();
    let ids: Vec<usize> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            warm_dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap().id
        })
        .collect();
    let mut cold_dev = device();
    cold_dev.set_result_cache_capacity(0);
    for (i, v) in vectors.iter().enumerate() {
        cold_dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap();
    }
    let batch = sixteen_queries(&ids);

    let cold = warm_dev.submit(&batch).unwrap();
    assert!(cold.stats.senses > 0);
    assert_eq!(cold.stats.cached_units, 0, "first submit is all fresh work");

    // Modeled cost: the warm resubmit replays every unit from the cache.
    let warm = warm_dev.submit(&batch).unwrap();
    assert_eq!(warm.stats.senses, 0, "fully warm: no sensing at all");
    assert_eq!(warm.stats.chip_time_us, 0.0);
    assert!(warm.stats.cached_units > 0);
    assert_eq!(warm.stats.cached_senses, cold.stats.senses);
    assert!(
        warm.stats.senses * 5 <= cold.stats.senses,
        "≥5× in modeled senses: warm {} vs cold {}",
        warm.stats.senses,
        cold.stats.senses
    );
    // serial_senses still models the cold serial cost, so senses_saved
    // reports the full amortization.
    assert_eq!(warm.stats.serial_senses, cold.stats.serial_senses);

    // Bit-exactness: warm results == cold-submit results == a device that
    // never caches.
    let reference = cold_dev.submit(&batch).unwrap();
    assert_eq!(warm.results, cold.results);
    assert_eq!(warm.results, reference.results);

    // Wall time: median of repeated warm submits ≥5× under the median of
    // repeated cold-cache submits of the same batch.
    let median = |dev: &mut FlashCosmosDevice| {
        let mut outs: Vec<BitVec> = (0..batch.len()).map(|_| BitVec::zeros(0)).collect();
        let mut samples: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                dev.submit_into(&batch, &mut outs).unwrap();
                t.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let warm_time = median(&mut warm_dev);
    let cold_time = median(&mut cold_dev);
    assert!(
        warm_time * 5.0 <= cold_time,
        "≥5× in wall time: warm {:.1} µs vs cold {:.1} µs",
        warm_time * 1e6,
        cold_time * 1e6
    );
}

/// ISSUE acceptance: two async batches whose work lands on different dies
/// drain with a combined critical path strictly below two serial submits.
#[test]
fn overlapped_async_batches_beat_serial_submits() {
    let mut rng = StdRng::seed_from_u64(0xA51C);
    let mut dev = device();
    // Batch A's groups pinned to dies 0/1, batch B's to dies 2/3: the
    // batches' busy dies are disjoint, so they should fully overlap.
    let mut batch_a = QueryBatch::new();
    let mut batch_b = QueryBatch::new();
    let mut expected_a = Vec::new();
    let mut expected_b = Vec::new();
    for g in 0..4 {
        let (ids, data) = store_group(&mut dev, &format!("a{g}"), 2, Some(g % 2), &mut rng);
        batch_a.push(Expr::and_vars(ids.iter().copied()));
        expected_a.push(data[0].and(&data[1]));
        let (ids, data) = store_group(&mut dev, &format!("b{g}"), 2, Some(2 + g % 2), &mut rng);
        batch_b.push(Expr::and_vars(ids.iter().copied()));
        expected_b.push(data[0].and(&data[1]));
    }

    let ta = dev.submit_async(&batch_a).unwrap();
    let tb = dev.submit_async(&batch_b).unwrap();
    assert_eq!(dev.session().in_flight(), 2);
    let drained = dev.drain().unwrap();
    assert_eq!(drained.batches, 2);
    assert!(drained.senses > 0);
    assert!(
        drained.combined_critical_path_us < drained.serial_critical_path_us,
        "disjoint-die batches must overlap: combined {} vs serial {}",
        drained.combined_critical_path_us,
        drained.serial_critical_path_us
    );
    assert!(drained.overlap_saved_us() > 0.0);
    assert_eq!(drained.dies_used, 4);

    // The serial reference on a fresh device reports the same per-batch
    // critical paths the drain summed.
    let mut serial_dev = device();
    let mut rng = StdRng::seed_from_u64(0xA51C);
    for g in 0..4 {
        store_group(&mut serial_dev, &format!("a{g}"), 2, Some(g % 2), &mut rng);
        store_group(&mut serial_dev, &format!("b{g}"), 2, Some(2 + g % 2), &mut rng);
    }
    let sa = serial_dev.submit(&batch_a).unwrap();
    let sb = serial_dev.submit(&batch_b).unwrap();
    let serial_sum = sa.stats.critical_path_us + sb.stats.critical_path_us;
    assert!((drained.serial_critical_path_us - serial_sum).abs() < 1e-6);
    assert!(drained.combined_critical_path_us < serial_sum);

    // And the overlapped results are bit-exact.
    let ra = ta.wait(&dev).unwrap();
    let rb = tb.wait(&dev).unwrap();
    assert_eq!(ra.results, expected_a);
    assert_eq!(rb.results, expected_b);
    assert_eq!(ra.results, sa.results);
    assert_eq!(rb.results, sb.results);
}

/// An overwrite between `submit_async` and `drain` is what the queued
/// batch observes: the drain compiles it against drain-time data.
#[test]
fn async_batches_observe_drain_time_data() {
    let mut rng = StdRng::seed_from_u64(0xD8A1);
    let mut dev = device();
    let (ids, data) = store_group(&mut dev, "g", 2, None, &mut rng);
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(ids.iter().copied()));

    let ticket = dev.submit_async(&batch).unwrap();
    let replacement = BitVec::random(dev.config().page_bits(), &mut rng);
    dev.fc_overwrite("g-0", &replacement).unwrap();
    let results = ticket.wait(&dev).unwrap();
    assert_eq!(
        results.results[0],
        replacement.and(&data[1]),
        "drained queries observe the overwrite"
    );

    // Same, via the cache: the pre-overwrite result was cached, but its
    // generation-stamped key can never serve the post-overwrite query.
    let after = dev.submit(&batch).unwrap();
    assert_eq!(after.results[0], replacement.and(&data[1]));
}

/// A batch queued behind an identical one replays the result the earlier
/// batch just cached: the drain compiles each batch when it claims it, so
/// the second compile finds the first one's entry, and the hit reports
/// the senses it saved. The two batches cost one cache lookup each.
#[test]
fn a_queued_batch_replays_a_unit_an_earlier_batch_of_its_drain_cached() {
    let mut rng = StdRng::seed_from_u64(0xD4A2);
    let mut dev = device();
    let (ids, data) = store_group(&mut dev, "g", 3, None, &mut rng);
    let batch: QueryBatch = [Expr::and_vars(ids.iter().copied())].into_iter().collect();
    let t1 = dev.submit_async(&batch).unwrap();
    let t2 = dev.submit_async(&batch).unwrap();
    dev.drain().unwrap();
    let cache = dev.session().cache_stats();
    assert_eq!((cache.misses, cache.hits), (1, 1), "one lookup per unit per batch");
    let first = t1.wait(&dev).unwrap();
    let second = t2.wait(&dev).unwrap();
    assert!(first.stats.senses > 0);
    assert_eq!(first.stats.cached_units, 0);
    assert_eq!(second.stats.cached_units, 1);
    assert_eq!(second.stats.cached_senses, first.stats.senses);
    assert_eq!(second.stats.senses, 0);
    assert_eq!(second.stats.serial_senses, first.stats.serial_senses);
    let expect = data[0].and(&data[1]).and(&data[2]);
    assert_eq!(first.results[0], expect);
    assert_eq!(second.results[0], expect);
}

/// An async batch queued before a migration compiles at drain, against
/// the new wordlines. Its compile replays the query whose result was
/// cached before the move (the moved pages read as the same bits),
/// bit-exactly and with no sense, and senses the other query on the new
/// layout.
#[test]
fn a_batch_queued_before_a_migration_compiles_into_a_cache_hit() {
    let mut rng = StdRng::seed_from_u64(0xD4A4);
    let dev = device();
    let bits = dev.config().page_bits();
    let data: Vec<BitVec> = (0..3).map(|_| BitVec::random(bits, &mut rng)).collect();
    let ids: Vec<usize> = (0..3)
        .map(|i| {
            let hints = StoreHints::and_group(&format!("solo{i}"));
            dev.fc_write(&format!("op{i}"), &data[i], hints).unwrap().id
        })
        .collect();
    let all = Expr::and_vars(ids.iter().copied());
    let pair = Expr::and_vars([ids[0], ids[1]]);
    // Cache the three-way AND, then queue it beside the uncached pair:
    // scattered, the pair compiles to one sense per operand.
    let (cached, _) = dev.fc_read(&all).unwrap();
    let ticket = dev.submit_async(&[all, pair].into_iter().collect()).unwrap();
    // Gather the pair's operands into one block.
    for name in ["op0", "op1"] {
        dev.migrate_operand(name, StoreHints::and_group("gathered")).unwrap();
    }
    let drained = dev.drain().unwrap();
    let results = ticket.wait(&dev).unwrap();
    assert_eq!(results.results[0], cached, "the replay is the cached result");
    assert_eq!(results.results[0], data[0].and(&data[1]).and(&data[2]));
    assert_eq!(results.results[1], data[0].and(&data[1]));
    assert_eq!(results.stats.cached_units, 1, "the three-way AND replays its entry");
    assert_eq!(results.stats.per_query[0].senses, 0.0, "the replay senses nothing");
    // The pair senses once: the gathered program, not the two-sense one
    // the scattered layout at submission would have compiled to.
    assert_eq!(results.stats.senses, 1);
    assert_eq!(drained.senses, 1);
}

/// Queues a threshold over 20 voters and an AND behind it, then moves one
/// voter to another die: the threshold's drain-time compile must expand
/// C(20, 10) terms, over the planner's cap. Returns the device, the
/// voters' data and the two tickets.
fn queue_an_unplannable_batch_first(
) -> (FlashCosmosDevice, Vec<BitVec>, flash_cosmos::Ticket, flash_cosmos::Ticket) {
    let mut rng = StdRng::seed_from_u64(0xD4A3);
    // 48 wordlines per block: all 20 voters share one block.
    let config = SsdConfig { wls_per_block: 48, ..SsdConfig::tiny_test() };
    let mut dev = FlashCosmosDevice::new(config.clone());
    let (ids, data) = store_group(&mut dev, "g", 20, None, &mut rng);
    let threshold: QueryBatch = [Expr::threshold_vars(10, ids.clone())].into_iter().collect();
    let and: QueryBatch = [Expr::and_vars(ids[..2].iter().copied())].into_iter().collect();
    let first = dev.submit_async(&threshold).unwrap();
    let second = dev.submit_async(&and).unwrap();
    let home = dev.operand_dies(ids[19]).unwrap()[0].flat(&config);
    let away = (home + 1) % config.total_dies();
    dev.migrate_operand("g-19", StoreHints::and_group("away").with_die(away)).unwrap();
    (dev, data, first, second)
}

/// A drain that fails on one batch drops only that batch: its ticket
/// reports `UnknownTicket`, while the batch queued behind it stays
/// pending and answers its own wait. `submit_async` admits a batch the
/// planner will reject: the drain that compiles it is what fails.
#[test]
fn a_failing_drain_drops_only_its_batch() {
    let (dev, data, first, second) = queue_an_unplannable_batch_first();
    assert!(dev.drain().is_err(), "the threshold cannot compile");
    assert_eq!(dev.session().in_flight(), 1, "the batch behind the failure stays queued");
    assert!(matches!(dev.wait(first).unwrap_err(), FcError::UnknownTicket(_)));
    assert_eq!(dev.wait(second).unwrap().results[0], data[0].and(&data[1]));

    // Voters scattered from the start: admission checks operands only.
    let mut rng = StdRng::seed_from_u64(0xD4A5);
    let voters: Vec<usize> = (0..20)
        .map(|i| {
            let v = BitVec::random(dev.config().page_bits(), &mut rng);
            let hints = StoreHints::and_group(&format!("voter{i}")).with_die(i % 2);
            dev.fc_write(&format!("voter{i}"), &v, hints).unwrap().id
        })
        .collect();
    let scattered: QueryBatch = [Expr::threshold_vars(10, voters)].into_iter().collect();
    let ticket = dev.submit_async(&scattered).expect("admission does not plan");
    assert_eq!(dev.session().in_flight(), 1);
    let err = dev.drain().unwrap_err();
    assert!(matches!(err, FcError::Plan(_)), "the drain's compile fails: {err:?}");
    assert_eq!(dev.session().in_flight(), 0);
    assert!(matches!(dev.wait(ticket).unwrap_err(), FcError::UnknownTicket(_)));
}

/// A wait whose drain fails on an older batch queued ahead of its own
/// does not report that batch's error: it drains again and returns its
/// own batch's results, and the failed batch's ticket reports
/// `UnknownTicket`.
#[test]
fn a_wait_behind_a_failing_batch_returns_its_own_results() {
    let (dev, data, first, second) = queue_an_unplannable_batch_first();
    let results = dev.wait(second).expect("the older batch's failure is not this wait's");
    assert_eq!(results.results[0], data[0].and(&data[1]));
    assert_eq!(dev.session().in_flight(), 0);
    assert!(matches!(dev.wait(first).unwrap_err(), FcError::UnknownTicket(_)));
}

/// `submit_async` runs the operand checks every compile starts with and
/// queues nothing it rejects: an unknown operand, a query naming no
/// operand, and a query over operands of different lengths.
#[test]
fn submit_async_rejects_invalid_queries_without_queueing() {
    let mut rng = StdRng::seed_from_u64(0xD4A6);
    let mut dev = device();
    let (ids, _) = store_group(&mut dev, "g", 2, None, &mut rng);
    let bits = dev.config().page_bits();
    let long = BitVec::random(2 * bits, &mut rng);
    let long = dev.fc_write("long", &long, StoreHints::and_group("long")).unwrap().id;
    let valid = Expr::and_vars(ids.iter().copied());
    // The invalid query rides behind a valid one: the whole batch is
    // refused.
    let refused = |query: Expr| {
        let batch: QueryBatch = [valid.clone(), query].into_iter().collect();
        let err = dev.submit_async(&batch).unwrap_err();
        assert_eq!(dev.session().in_flight(), 0, "nothing queued after {err:?}");
        err
    };
    let unknown = refused(Expr::and(vec![valid.clone(), Expr::var(999)]));
    assert!(matches!(unknown, FcError::UnknownOperand(999)), "{unknown:?}");
    let empty = refused(Expr::And(Vec::new()));
    assert!(matches!(empty, FcError::SizeMismatch), "{empty:?}");
    let mixed = refused(Expr::and_vars([ids[0], long]));
    assert!(matches!(mixed, FcError::SizeMismatch), "{mixed:?}");
    // Queries of different lengths may share a batch.
    let lengths: QueryBatch = [valid, Expr::var(long)].into_iter().collect();
    let ticket = dev.submit_async(&lengths).unwrap();
    assert_eq!(dev.wait(ticket).unwrap().results[1].len(), 2 * bits);
}

/// On the synchronous path an overwrite invalidates cached results and a
/// migration keeps them, plus handle/geometry stability across
/// `fc_overwrite`.
#[test]
fn an_overwrite_invalidates_cached_results_and_a_migration_keeps_them() {
    let mut rng = StdRng::seed_from_u64(0x0F11);
    let mut dev = device();
    let (ids, data) = store_group(&mut dev, "g", 3, None, &mut rng);
    let expr = Expr::and_vars(ids.iter().copied());
    let (first, s) = dev.fc_read(&expr).unwrap();
    assert!(s.senses > 0);
    assert_eq!(first, data[0].and(&data[1]).and(&data[2]));

    // Overwrite: same handle, new data, cache miss by construction.
    let replacement = BitVec::random(dev.config().page_bits(), &mut rng);
    let h = dev.fc_overwrite("g-1", &replacement).unwrap();
    assert_eq!(h.id, ids[1], "overwrite keeps the handle");
    let (second, s) = dev.fc_read(&expr).unwrap();
    assert!(s.senses > 0, "generation bump forces re-execution");
    assert_eq!(second, data[0].and(&replacement).and(&data[2]));

    // Migration: placement moved but data unchanged — the entry keeps
    // answering, and a cold read of the moved layout agrees with it.
    let (warm, s) = dev.fc_read(&expr).unwrap();
    assert_eq!(s.senses, 0, "warm again before the migration");
    dev.migrate_operand("g-2", StoreHints::and_group("elsewhere")).unwrap();
    let (third, s) = dev.fc_read(&expr).unwrap();
    assert_eq!((s.senses, s.cached_units), (0, 1), "the migration keeps the entry");
    assert_eq!(third, warm, "migration preserves data");
    dev.clear_result_cache();
    let (cold, s) = dev.fc_read(&expr).unwrap();
    assert!(s.senses > 0, "a cold read senses the moved layout");
    assert_eq!(cold, warm, "migration preserves data");

    // Error paths: unknown names and geometry changes are rejected.
    assert!(matches!(
        dev.fc_overwrite("nonexistent", &replacement).unwrap_err(),
        FcError::UnknownName(_)
    ));
    assert!(matches!(
        dev.fc_overwrite("g-0", &BitVec::zeros(7)).unwrap_err(),
        FcError::SizeMismatch
    ));
}

/// An overwrite leaves its query's cache entry stale, not dead: the next
/// read of the query senses and refreshes that same entry in place, so a
/// full cache neither evicts nor refuses anything, and every other
/// query's entry keeps hitting.
#[test]
fn an_overwrite_refreshes_its_query_entry_in_place() {
    let mut rng = StdRng::seed_from_u64(0x0F12);
    let mut dev = device();
    let (ids, data) = store_group(&mut dev, "g", 4, None, &mut rng);
    dev.set_result_cache_capacity(2);
    let first = Expr::and_vars(ids[..2].iter().copied());
    let second = Expr::and_vars(ids[2..].iter().copied());
    assert!(dev.fc_read(&first).unwrap().1.senses > 0);
    assert!(dev.fc_read(&second).unwrap().1.senses > 0);
    assert_eq!(dev.session().cache_stats().entries, 2);

    let replacement = BitVec::random(dev.config().page_bits(), &mut rng);
    dev.fc_overwrite("g-0", &replacement).unwrap();
    let (got, s) = dev.fc_read(&first).unwrap();
    assert!(s.senses > 0, "the stale entry is a miss");
    assert_eq!(got, replacement.and(&data[1]));
    let stats = dev.session().cache_stats();
    assert_eq!(
        (stats.entries, stats.evictions, stats.rejections),
        (2, 0, 0),
        "the read refreshed the query's entry in place"
    );

    let (got, s) = dev.fc_read(&first).unwrap();
    assert_eq!((s.senses, s.cached_units), (0, 1), "the refreshed entry hits");
    assert_eq!(got, replacement.and(&data[1]));
    let (got, s) = dev.fc_read(&second).unwrap();
    assert_eq!((s.senses, s.cached_units), (0, 1), "the other query's entry still hits");
    assert_eq!(got, data[2].and(&data[3]));
}

/// Operations a random interleaving can apply to both devices.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit,
    SubmitAsync,
    Overwrite(usize),
    Migrate(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ISSUE acceptance (cache soundness): interleaving `submit_async` /
    /// `submit` with `fc_overwrite` overwrites and `migrate_operand`
    /// moves keeps every result bit-identical to a cold-cache device
    /// executing the same sequence, and to ground-truth evaluation over
    /// the current data, at every step.
    #[test]
    fn cached_results_match_cold_cache_device_under_interleaved_writes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cached = device();
        let mut cold = device();
        cold.set_result_cache_capacity(0);

        // 5 operands in singleton groups → maximal die scatter.
        let bits = cached.config().page_bits();
        let mut truth: Vec<BitVec> = Vec::new();
        for i in 0..5usize {
            let v = BitVec::random(bits, &mut rng);
            let hints = StoreHints::and_group(&format!("solo{i}"));
            cached.fc_write(&format!("op{i}"), &v, hints.clone()).unwrap();
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

        // Async batches queue on the cached device; the cold reference
        // submits them at drain time (drained queries observe drain-time
        // data by contract).
        let mut in_flight: Vec<(flash_cosmos::Ticket, QueryBatch)> = Vec::new();
        let drain_and_compare = |cached: &mut FlashCosmosDevice,
                                     cold: &mut FlashCosmosDevice,
                                     in_flight: &mut Vec<(flash_cosmos::Ticket, QueryBatch)>,
                                     truth: &[BitVec]|
         -> Result<(), TestCaseError> {
            cached.drain().map_err(|e| TestCaseError::fail(e.to_string()))?;
            for (ticket, batch) in in_flight.drain(..) {
                let got = cached.wait(ticket).map_err(|e| TestCaseError::fail(e.to_string()))?;
                let reference = cold.submit(&batch)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(&got.results, &reference.results,
                    "async batch diverged from the cold-cache device");
                for (qi, q) in batch.queries().iter().enumerate() {
                    let lookup = |i: usize| truth[i].clone();
                    prop_assert_eq!(&got.results[qi], &q.eval(&lookup),
                        "async query {} diverged from ground truth", qi);
                }
            }
            Ok(())
        };

        for _ in 0..10 {
            let op = match rng.gen_range(0..5) {
                0 | 1 => Op::Submit,
                2 => Op::SubmitAsync,
                3 => Op::Overwrite(rng.gen_range(0..5)),
                _ => Op::Migrate(rng.gen_range(0..5)),
            };
            match op {
                Op::Submit => {
                    let batch = random_batch(&mut rng);
                    let a = cached.submit(&batch).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    let b = cold.submit(&batch).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(&a.results, &b.results,
                        "cached submit diverged from the cold-cache device");
                    for (qi, q) in batch.queries().iter().enumerate() {
                        let lookup = |i: usize| truth[i].clone();
                        prop_assert_eq!(&a.results[qi], &q.eval(&lookup),
                            "query {} diverged from ground truth", qi);
                    }
                }
                Op::SubmitAsync => {
                    let batch = random_batch(&mut rng);
                    let ticket = cached.submit_async(&batch)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    in_flight.push((ticket, batch));
                }
                Op::Overwrite(i) => {
                    let v = BitVec::random(bits, &mut rng);
                    cached.fc_overwrite(&format!("op{i}"), &v)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    cold.fc_overwrite(&format!("op{i}"), &v)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    truth[i] = v;
                }
                Op::Migrate(i) => {
                    let dest = StoreHints::and_group(&format!("gather{}", rng.gen_range(0..2)));
                    cached.migrate_operand(&format!("op{i}"), dest.clone())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    cold.migrate_operand(&format!("op{i}"), dest)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
            }
            assert_audit_clean(&cached)?;
        }
        drain_and_compare(&mut cached, &mut cold, &mut in_flight, &truth)?;
        assert_audit_clean(&cached)?;
    }
}
