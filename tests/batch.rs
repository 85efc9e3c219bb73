//! Batched query sessions end to end: a [`QueryBatch`] submitted through
//! the full stack (FTL placement → joint planner → chip MWS → result
//! assembly) returns bit-exact the same vectors as serial `fc_read`
//! calls, while the joint plan saves senses whenever queries overlap.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::{Expr, FlashCosmosDevice, QueryBatch, StoreHints};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn device() -> FlashCosmosDevice {
    FlashCosmosDevice::new(SsdConfig::tiny_test())
}

/// Stores `n` random vectors in one placement group, returning their ids.
fn store_group(
    dev: &mut FlashCosmosDevice,
    n: usize,
    bits: usize,
    group: &str,
    or_group: bool,
    rng: &mut StdRng,
) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let v = BitVec::random(bits, rng);
            let hints =
                if or_group { StoreHints::or_group(group) } else { StoreHints::and_group(group) };
            dev.fc_write(&format!("{group}-{i}"), &v, hints).unwrap().id
        })
        .collect()
}

/// The ISSUE acceptance criterion: a batch of N ≥ 4 AND queries over
/// operands in one sense group completes with fewer total senses than N
/// serial `fc_read` calls, with bit-exact results, asserted via
/// `BatchStats`.
#[test]
fn same_group_and_batch_beats_serial_senses() {
    let mut dev = device();
    // This test measures the joint *planner* against a genuinely serial
    // reference, so the cross-batch result cache (which would answer the
    // repeated fc_reads for free) is disabled.
    dev.set_result_cache_capacity(0);
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let ids = store_group(&mut dev, 6, 700, "g", false, &mut rng);

    // Six AND queries over the group; a production bitmap-index batch
    // repeats popular filters, here as reorderings and duplicates of the
    // same conjunctions.
    let queries = vec![
        Expr::and_vars(ids.iter().copied()),
        Expr::and_vars(ids.iter().rev().copied()), // same function, reordered
        Expr::and_vars(ids[..3].iter().copied()),
        Expr::and_vars(ids[..3].iter().rev().copied()), // dup of the above
        Expr::and_vars(ids[2..].iter().copied()),
        Expr::and_vars(ids.iter().copied()), // straight duplicate
    ];
    let n = queries.len();
    assert!(n >= 4);

    // Serial reference: N independent fc_read calls.
    let mut serial_results = Vec::new();
    let mut serial_senses = 0;
    for q in &queries {
        let (r, s) = dev.fc_read(q).unwrap();
        serial_results.push(r);
        serial_senses += s.senses;
    }

    let batch: QueryBatch = queries.iter().cloned().collect();
    let out = dev.submit(&batch).unwrap();

    for (qi, serial) in serial_results.iter().enumerate() {
        assert_eq!(&out.results[qi], serial, "query {qi} must be bit-exact vs serial");
    }
    assert_eq!(out.stats.serial_senses, serial_senses, "stats must model the serial cost");
    assert!(
        out.stats.senses < serial_senses,
        "joint plan must save senses: {} vs {serial_senses}",
        out.stats.senses
    );
    assert_eq!(out.stats.senses_saved(), serial_senses - out.stats.senses);
    assert_eq!(out.stats.deduped_queries, 3);
    assert!(out.stats.critical_path_us <= out.stats.chip_time_us);
    assert_stats_finite(&out.stats);
}

/// Every aggregate and per-query stat must be finite — the amortization
/// split divides by the consumer count, which must never reach zero (a
/// unit with no consumers would otherwise yield `inf` shares).
fn assert_stats_finite(stats: &flash_cosmos::BatchStats) {
    assert!(stats.chip_time_us.is_finite());
    assert!(stats.critical_path_us.is_finite());
    assert!(stats.energy_uj.is_finite());
    let mut senses = 0.0;
    for (qi, q) in stats.per_query.iter().enumerate() {
        assert!(q.senses.is_finite(), "query {qi} senses not finite: {}", q.senses);
        assert!(q.chip_time_us.is_finite(), "query {qi} time not finite: {}", q.chip_time_us);
        assert!(q.energy_uj.is_finite(), "query {qi} energy not finite: {}", q.energy_uj);
        senses += q.senses;
    }
    // The per-query split must also re-sum to the executed totals.
    assert!(
        (senses - stats.senses as f64).abs() < 1e-9,
        "per-query senses {senses} must sum to {}",
        stats.senses
    );
}

/// Builds a random plannable expression over the stored operand table.
fn random_expr(rng: &mut StdRng, and_ids: &[usize], or_ids: &[usize], depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| {
        let all = [and_ids, or_ids].concat();
        Expr::var(all[rng.gen_range(0..all.len())])
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..6) {
        0 => {
            // AND over a random slice of the co-located AND group.
            let k = rng.gen_range(2..=and_ids.len());
            let start = rng.gen_range(0..=and_ids.len() - k);
            Expr::and_vars(and_ids[start..start + k].iter().copied())
        }
        1 => {
            // OR over a random slice of the inverse-stored OR group.
            let k = rng.gen_range(2..=or_ids.len());
            let start = rng.gen_range(0..=or_ids.len() - k);
            Expr::or_vars(or_ids[start..start + k].iter().copied())
        }
        2 => Expr::or(vec![
            random_expr(rng, and_ids, or_ids, depth - 1),
            random_expr(rng, and_ids, or_ids, depth - 1),
        ]),
        3 => Expr::not(random_expr(rng, and_ids, or_ids, depth - 1)),
        4 => Expr::xor(leaf(rng), leaf(rng)),
        _ => leaf(rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A shuffled batch of random expressions returns bit-exact the same
    /// results as serial `fc_read` calls, and never costs more senses.
    #[test]
    fn shuffled_batch_matches_serial(seed in any::<u64>()) {
        let mut dev = device();
        // Serial-reference test: keep the result cache out of the picture
        // (it would answer repeated fc_reads without sensing).
        dev.set_result_cache_capacity(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let and_ids = store_group(&mut dev, 5, 300, "ands", false, &mut rng);
        let or_ids = store_group(&mut dev, 4, 300, "ors", true, &mut rng);

        // Every random query answers serially: what the planner refuses
        // on this placement is evaluated in the controller.
        let mut queries = Vec::new();
        let mut serial_results = Vec::new();
        let mut serial_senses = 0;
        while queries.len() < 8 {
            let e = random_expr(&mut rng, &and_ids, &or_ids, 2);
            let (r, s) = dev
                .fc_read(&e)
                .map_err(|err| TestCaseError::fail(format!("query {e}: {err}")))?;
            queries.push(e);
            serial_results.push(r);
            serial_senses += s.senses;
        }

        // Shuffle the submission order (Fisher–Yates).
        let mut order: Vec<usize> = (0..queries.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let batch: QueryBatch = order.iter().map(|&i| queries[i].clone()).collect();
        let out = dev.submit(&batch).unwrap();

        for (pos, &qi) in order.iter().enumerate() {
            prop_assert_eq!(
                &out.results[pos],
                &serial_results[qi],
                "query {} (batch slot {}) diverged from serial",
                qi,
                pos
            );
        }
        prop_assert_eq!(out.stats.serial_senses, serial_senses);
        prop_assert!(out.stats.senses <= serial_senses,
            "joint plan must never cost extra senses: {} vs {}", out.stats.senses, serial_senses);
        let finite = out.stats.per_query.iter()
            .all(|q| q.senses.is_finite() && q.chip_time_us.is_finite() && q.energy_uj.is_finite());
        prop_assert!(finite, "per-query stats must stay finite");
    }
}

/// Mixed-size batches assemble each query at its own length.
#[test]
fn mixed_size_batch_end_to_end() {
    let dev = device();
    let mut rng = StdRng::seed_from_u64(0x517E);
    let long: Vec<BitVec> = (0..3).map(|_| BitVec::random(1500, &mut rng)).collect();
    let short: Vec<BitVec> = (0..2).map(|_| BitVec::random(120, &mut rng)).collect();
    let long_ids: Vec<usize> = long
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("l{i}"), v, StoreHints::and_group("L")).unwrap().id)
        .collect();
    let short_ids: Vec<usize> = short
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("s{i}"), v, StoreHints::or_group("S")).unwrap().id)
        .collect();
    let mut batch = QueryBatch::new();
    batch.push(Expr::and_vars(long_ids.iter().copied()));
    batch.push(Expr::or_vars(short_ids.iter().copied()));
    batch.push(Expr::nand(long_ids.iter().map(|&i| Expr::var(i)).collect()));
    let out = dev.submit(&batch).unwrap();
    assert_eq!(out.results[0], long[0].and(&long[1]).and(&long[2]));
    assert_eq!(out.results[1], short[0].or(&short[1]));
    assert_eq!(out.results[2], long[0].and(&long[1]).and(&long[2]).not());
    assert_eq!(out.results[0].len(), 1500);
    assert_eq!(out.results[1].len(), 120);
}
