//! Die-aware placement and cross-die execution, end to end: distinct
//! placement groups spread across dies, a batch of independent queries
//! senses on several dies concurrently (critical path < chip time), and
//! a query whose operands span dies still answers bit-exactly via the
//! controller merge instead of failing with `PlaneMismatch`.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::{Expr, FlashCosmosDevice, QueryBatch, StoreHints};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn device() -> FlashCosmosDevice {
    FlashCosmosDevice::new(SsdConfig::tiny_test())
}

/// Stores `groups` placement groups of `per_group` single-stripe vectors
/// each; returns (per-group operand ids, the vectors).
fn store_spread(
    dev: &mut FlashCosmosDevice,
    groups: usize,
    per_group: usize,
    die: Option<usize>,
    rng: &mut StdRng,
) -> (Vec<Vec<usize>>, Vec<Vec<BitVec>>) {
    let bits = dev.config().page_bits(); // single stripe
    let mut ids = Vec::new();
    let mut data = Vec::new();
    for g in 0..groups {
        let mut hints = StoreHints::and_group(&format!("g{g}"));
        if let Some(d) = die {
            hints = hints.with_die(d);
        }
        let vs: Vec<BitVec> = (0..per_group).map(|_| BitVec::random(bits, rng)).collect();
        let gids: Vec<usize> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("g{g}-{i}"), v, hints.clone()).unwrap().id)
            .collect();
        ids.push(gids);
        data.push(vs);
    }
    (ids, data)
}

/// The ISSUE acceptance criterion: a single-stripe batch of ≥8
/// independent queries on the tiny geometry (8 planes, 4 dies) executes
/// across ≥2 dies with `critical_path_us < chip_time_us`, bit-exactly.
#[test]
fn single_stripe_batch_spans_dies() {
    let mut dev = device();
    let mut rng = StdRng::seed_from_u64(0xD1E5);
    let (ids, data) = store_spread(&mut dev, 8, 2, None, &mut rng);

    let batch: QueryBatch = ids.iter().map(|g| Expr::and_vars(g.iter().copied())).collect();
    assert!(batch.len() >= 8);
    let out = dev.submit(&batch).unwrap();

    for (g, vs) in data.iter().enumerate() {
        assert_eq!(out.results[g], vs[0].and(&vs[1]), "query {g} must be bit-exact");
    }
    assert!(out.stats.dies_used >= 2, "work must span dies, used {}", out.stats.dies_used);
    assert_eq!(out.stats.dies_used, 4, "8 groups on tiny cover all 4 dies");
    assert!(
        out.stats.critical_path_us < out.stats.chip_time_us,
        "die parallelism must shorten the critical path: {} vs {}",
        out.stats.critical_path_us,
        out.stats.chip_time_us
    );
}

/// The die-0-serialized baseline (every group pinned to die 0) is ≥2×
/// slower on the critical path than die-aware placement for the same
/// 8-query batch — the bug this PR fixes made *every* batch behave like
/// the pinned one.
#[test]
fn die_aware_critical_path_beats_die0_serialization() {
    let run = |die: Option<usize>| {
        let mut dev = device();
        let mut rng = StdRng::seed_from_u64(0xD1E6);
        let (ids, data) = store_spread(&mut dev, 8, 2, die, &mut rng);
        let batch: QueryBatch = ids.iter().map(|g| Expr::and_vars(g.iter().copied())).collect();
        let out = dev.submit(&batch).unwrap();
        for (g, vs) in data.iter().enumerate() {
            assert_eq!(out.results[g], vs[0].and(&vs[1]));
        }
        out.stats
    };
    let spread = run(None);
    let pinned = run(Some(0));
    assert_eq!(pinned.dies_used, 1, "pinned baseline serializes on die 0");
    assert_eq!(spread.senses, pinned.senses, "placement must not change sense counts");
    assert!(
        pinned.critical_path_us >= 2.0 * spread.critical_path_us,
        "die-aware placement must be ≥2× better on critical path: {} vs {}",
        spread.critical_path_us,
        pinned.critical_path_us
    );
}

/// A query whose operands live on different dies returns the correct
/// result (per-die programs + controller merge) for every operator
/// shape, instead of `PlanError::PlaneMismatch`.
#[test]
fn cross_die_queries_answer_exactly() {
    let dev = device();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let bits = 700; // 3 stripes
    let a = BitVec::random(bits, &mut rng);
    let b = BitVec::random(bits, &mut rng);
    let ha = dev.fc_write("a", &a, StoreHints::and_group("ga")).unwrap();
    let hb = dev.fc_write("b", &b, StoreHints::and_group("gb")).unwrap();
    assert_ne!(
        dev.operand_dies(ha.id).unwrap()[0],
        dev.operand_dies(hb.id).unwrap()[0],
        "distinct groups land on distinct dies"
    );
    let cases: Vec<(Expr, BitVec)> = vec![
        (ha & hb, a.and(&b)),
        (ha | hb, a.or(&b)),
        (ha ^ hb, a.xor(&b)),
        (!(ha & hb), a.and(&b).not()),
        (!(ha | hb), a.or(&b).not()),
        (Expr::xnor(ha.into(), hb.into()), a.xor(&b).not()),
    ];
    for (expr, expect) in cases {
        let (result, stats) = dev.fc_read(&expr).unwrap();
        assert_eq!(result, expect, "cross-die {expr:?} diverged");
        assert!(stats.senses >= 2, "at least one sense per die");
    }
}

/// A spanning XOR is a controller XOR of its two sides at any depth and
/// with any sides: nested under an OR, or at the top over an AND. Both
/// answer bit-exactly through `submit`, `fc_read` and `submit_async` +
/// `wait`.
#[test]
fn spanning_xor_merges_at_any_depth() {
    let dev = device();
    // Every path re-plans and re-senses instead of replaying the cache.
    dev.set_result_cache_capacity(0);
    let mut rng = StdRng::seed_from_u64(0x0A0B);
    let bits = 700; // 3 stripes
    let vs: Vec<BitVec> = (0..3).map(|_| BitVec::random(bits, &mut rng)).collect();
    // Operand i is pinned to die i, so every stripe spans three dies.
    let ids: Vec<usize> = vs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let hints = StoreHints::and_group(&format!("x{i}")).with_die(i);
            dev.fc_write(&format!("x{i}"), v, hints).unwrap().id
        })
        .collect();
    let (a, b, c) = (Expr::var(ids[0]), Expr::var(ids[1]), Expr::var(ids[2]));
    let batch: QueryBatch = [
        Expr::or(vec![Expr::xor(a.clone(), b.clone()), c.clone()]),
        Expr::xor(Expr::and(vec![a, b]), c),
    ]
    .into_iter()
    .collect();
    let lookup = |id: usize| vs[id].clone(); // ids are 0, 1, 2 on a fresh device
    let expect: Vec<BitVec> = batch.queries().iter().map(|e| e.eval(&lookup)).collect();

    let out = dev.submit(&batch).unwrap();
    assert!(out.failures.is_empty());
    assert_eq!(out.results, expect);
    for (e, want) in batch.queries().iter().zip(&expect) {
        assert_eq!(&dev.fc_read(e).unwrap().0, want, "fc_read diverged on {e}");
    }
    let ticket = dev.submit_async(&batch).unwrap();
    dev.drain().unwrap();
    assert_eq!(ticket.wait(&dev).unwrap().results, expect);
}

/// The ParaBit baseline used to keep only the *last* operand's die and
/// silently execute all stripes on one chip — wrong data, no error. It
/// now reuses the die-split machinery and must match ground truth.
#[test]
fn parabit_cross_die_regression() {
    let dev = device();
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let bits = dev.config().page_bits();
    let vs: Vec<BitVec> = (0..4).map(|_| BitVec::random(bits, &mut rng)).collect();
    // Two groups of two → two dies.
    let ids: Vec<usize> = vs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let g = if i < 2 { "left" } else { "right" };
            dev.fc_write(&format!("op{i}"), v, StoreHints::and_group(g)).unwrap().id
        })
        .collect();
    assert_ne!(
        dev.operand_dies(ids[0]).unwrap()[0],
        dev.operand_dies(ids[2]).unwrap()[0],
        "operands must sit on two dies for the regression to bite"
    );
    let and_expr = Expr::and_vars(ids.iter().copied());
    let (pb, pb_stats) = dev.parabit_read(&and_expr).unwrap();
    let expect = vs.iter().skip(1).fold(vs[0].clone(), |acc, v| acc.and(v));
    assert_eq!(pb, expect, "ParaBit must not silently mis-execute cross-die operands");
    assert_eq!(pb_stats.senses, 4, "ParaBit still senses every operand once");
    assert!(pb_stats.critical_path_us < pb_stats.chip_time_us, "two dies sense concurrently");

    let or_expr = Expr::or(vec![Expr::and_vars(ids[..2].iter().copied()), Expr::var(ids[2])]);
    let (pb, _) = dev.parabit_read(&or_expr).unwrap();
    assert_eq!(pb, vs[0].and(&vs[1]).or(&vs[2]));
}

/// Migrating operands into a shared group gathers them from several dies
/// onto one plane (die-internal moves via copyback where possible). The
/// migration keeps the cached result, and a cold `fc_read` after it is
/// back to a single sense.
#[test]
fn migration_regathers_across_dies() {
    let dev = device();
    let mut rng = StdRng::seed_from_u64(0x6A7);
    let bits = dev.config().page_bits();
    let vs: Vec<BitVec> = (0..3).map(|_| BitVec::random(bits, &mut rng)).collect();
    let ids: Vec<usize> = vs
        .iter()
        .enumerate()
        .map(|(i, v)| {
            dev.fc_write(&format!("op{i}"), v, StoreHints::and_group(&format!("s{i}"))).unwrap().id
        })
        .collect();
    let expr = Expr::and_vars(ids.iter().copied());
    let (before, before_stats) = dev.fc_read(&expr).unwrap();
    assert_eq!(before_stats.senses, 3, "three dies, one sense each");
    for i in 0..3 {
        dev.migrate_operand(&format!("op{i}"), StoreHints::and_group("gathered")).unwrap();
    }
    let dies: Vec<_> = ids.iter().map(|&id| dev.operand_dies(id).unwrap()[0]).collect();
    assert!(dies.windows(2).all(|w| w[0] == w[1]), "gathered onto one die: {dies:?}");
    let (replayed, replay_stats) = dev.fc_read(&expr).unwrap();
    assert_eq!(replayed, before, "migration preserves data");
    assert_eq!((replay_stats.senses, replay_stats.cached_units), (0, 1), "a cache hit");
    dev.clear_result_cache();
    let (after, after_stats) = dev.fc_read(&expr).unwrap();
    assert_eq!(after, before);
    assert_eq!(after_stats.senses, 1, "gathered: single intra-block MWS");
}

/// A 4-channel single-die-per-channel geometry: every die is its own
/// channel, so group spreading is channel spreading.
fn four_channel_config() -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.channels = 4;
    cfg.dies_per_channel = 1;
    cfg
}

/// A batch whose queries combine groups homed on different channels
/// answers bit-exactly, and the channel lane sees the output transfers.
#[test]
fn cross_channel_batch_is_bit_exact() {
    let dev = FlashCosmosDevice::new(four_channel_config());
    let bits = dev.config().page_bits();
    let mut rng = StdRng::seed_from_u64(0xC4A7);
    let vectors: Vec<BitVec> = (0..8).map(|_| BitVec::random(bits, &mut rng)).collect();
    // One group per operand: channel-first placement spreads them over
    // all four channels before reusing a die.
    let ids: Vec<usize> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            dev.fc_write(&format!("v{i}"), v, StoreHints::and_group(&format!("solo{i}")))
                .unwrap()
                .id
        })
        .collect();

    let mut batch = QueryBatch::new();
    // Adjacent operand indices land on different channels under the
    // channel-first rotation, so every query spans channels.
    batch.push(Expr::and(vec![Expr::var(ids[0]), Expr::var(ids[1]), Expr::var(ids[2])]));
    batch.push(Expr::or(vec![Expr::var(ids[3]), Expr::var(ids[4])]));
    batch.push(Expr::xor(Expr::var(ids[5]), Expr::var(ids[6])));
    batch.push(Expr::and(vec![Expr::var(ids[7]), Expr::not(Expr::var(ids[0]))]));

    let out = dev.submit(&batch).unwrap();
    assert!(out.failures.is_empty());
    let lookup = |i: usize| vectors[i].clone();
    for (q, expr) in batch.queries().iter().enumerate() {
        assert_eq!(out.results[q], expr.eval(&lookup), "query {q} diverged");
    }
    assert!(out.stats.busiest_channel_us > 0.0, "output transfers must occupy the channel lane");
}

/// Builds a random expression over per-operand singleton groups (so
/// operands scatter across dies as widely as possible). The XOR arm
/// pairs two distinct operands at any depth, so each such XOR spans
/// planes and merges on the controller.
fn random_expr(rng: &mut StdRng, ids: &[usize], depth: usize) -> Expr {
    let leaf = |rng: &mut StdRng| Expr::var(ids[rng.gen_range(0..ids.len())]);
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..7) {
        0 | 1 => {
            let k = rng.gen_range(2..=ids.len().min(4));
            let start = rng.gen_range(0..=ids.len() - k);
            let children: Vec<Expr> = ids[start..start + k].iter().map(|&i| Expr::var(i)).collect();
            if rng.gen_bool(0.5) {
                Expr::and(children)
            } else {
                Expr::or(children)
            }
        }
        2 => Expr::or(vec![random_expr(rng, ids, depth - 1), random_expr(rng, ids, depth - 1)]),
        3 => Expr::and(vec![random_expr(rng, ids, depth - 1), random_expr(rng, ids, depth - 1)]),
        4 => Expr::not(random_expr(rng, ids, depth - 1)),
        5 => {
            let a = rng.gen_range(0..ids.len());
            let b = (a + rng.gen_range(1..ids.len())) % ids.len();
            Expr::xor(Expr::var(ids[a]), Expr::var(ids[b]))
        }
        _ => leaf(rng),
    }
}

/// A bitmap-index batch big enough for the executor to sense each die's
/// leaves on its own host thread: daily activity vectors striped over 4
/// dies of 16 KiB pages, six AND windows of 30–48 days and two "at most 2
/// inactive days" threshold windows inside the 48-wordline block. Every
/// result is bit-exact against `Expr::eval`, through `submit`,
/// `submit_async` + `drain` + `wait`, and `fc_read`.
#[test]
fn large_bitmap_batch_fans_out_bit_exactly() {
    let config = SsdConfig {
        channels: 4,
        dies_per_channel: 2,
        blocks_per_plane: 4,
        wls_per_block: 48,
        page_bytes: 16 * 1024,
        ..SsdConfig::tiny_test()
    };
    let dev = FlashCosmosDevice::new(config);
    dev.set_result_cache_capacity(0);
    let mut rng = StdRng::seed_from_u64(0xB111);
    let stripes = 4;
    let bits = stripes * dev.config().page_bits();
    let days: Vec<BitVec> =
        (0..48).map(|_| BitVec::random_with_density(bits, 0.85, &mut rng)).collect();
    let ids: Vec<usize> = days
        .iter()
        .enumerate()
        .map(|(d, v)| {
            dev.fc_write(&format!("day{d}"), v, StoreHints::and_group("days")).unwrap().id
        })
        .collect();
    let mut batch: QueryBatch = [(0, 48), (5, 40), (18, 30), (1, 33), (10, 36), (12, 31)]
        .iter()
        .map(|&(start, len)| Expr::and_vars(ids[start..start + len].iter().copied()))
        .collect();
    for (start, len) in [(3, 24), (30, 12)] {
        batch.push(Expr::threshold_vars(len - 2, ids[start..start + len].iter().copied()));
    }
    let lookup = |id: usize| days[id].clone();
    let expect: Vec<BitVec> = batch.queries().iter().map(|e| e.eval(&lookup)).collect();

    let out = dev.submit(&batch).unwrap();
    assert_eq!(out.results, expect);
    assert!(out.stats.dies_used >= 4, "stripes spread over dies: {}", out.stats.dies_used);
    // Each sense activates at least 12 wordlines of 16 KiB, so the batch
    // senses well past the 1 MiB fan-out size.
    assert!(out.stats.senses as usize * 12 * dev.config().page_bytes >= 4 << 20);

    let ticket = dev.submit_async(&batch).unwrap();
    dev.drain().unwrap();
    assert_eq!(ticket.wait(&dev).unwrap().results, expect);
    assert_eq!(dev.fc_read(&batch.queries()[6]).unwrap().0, expect[6]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Die-aware placement preserves batch ≡ serial ≡ ground-truth
    /// equivalence for random expressions over die-scattered operands.
    #[test]
    fn die_aware_batch_matches_serial(seed in any::<u64>()) {
        let dev = device();
        // Serial-reference test: disable the result cache so repeated
        // random expressions really re-sense on the serial path.
        dev.set_result_cache_capacity(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = 300; // 2 stripes
        let vectors: Vec<BitVec> = (0..6).map(|_| BitVec::random(bits, &mut rng)).collect();
        // Every operand in its own group: maximal die scatter.
        let ids: Vec<usize> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                dev.fc_write(&format!("v{i}"), v, StoreHints::and_group(&format!("solo{i}")))
                    .unwrap()
                    .id
            })
            .collect();

        let mut queries = Vec::new();
        let mut serial_results = Vec::new();
        let mut serial_senses = 0;
        while queries.len() < 6 {
            let e = random_expr(&mut rng, &ids, 2);
            let (r, s) = dev
                .fc_read(&e)
                .map_err(|err| TestCaseError::fail(format!("query {e}: {err}")))?;
            let lookup = |i: usize| vectors[i].clone();
            prop_assert_eq!(&r, &e.eval(&lookup), "serial diverged from eval on {}", e);
            queries.push(e);
            serial_results.push(r);
            serial_senses += s.senses;
        }
        let batch: QueryBatch = queries.iter().cloned().collect();
        let out = dev.submit(&batch).unwrap();
        for (qi, serial) in serial_results.iter().enumerate() {
            prop_assert_eq!(&out.results[qi], serial, "query {} diverged from serial", qi);
        }
        prop_assert_eq!(out.stats.serial_senses, serial_senses);
        prop_assert!(out.stats.senses <= serial_senses);
    }
}
