//! The channel/cluster scale-out path, end to end: operands spread
//! channel-first across a multi-channel device answer cross-channel
//! batches bit-exactly, and the multi-shard router ([`FcCluster`])
//! preserves batch ≡ serial ≡ ground-truth equivalence for random
//! cross-shard expressions — including `fc_overwrite` interleaving
//! through the router between submissions.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::cluster::FcCluster;
use flash_cosmos::{Expr, FlashCosmosDevice, QueryBatch, StoreHints};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 4-channel single-die-per-channel geometry: every die is its own
/// channel, so group spreading is channel spreading.
fn four_channel_config() -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.channels = 4;
    cfg.dies_per_channel = 1;
    cfg
}

/// Builds a random expression over the given operand ids (cluster ids
/// and device ids share the `usize` shape). The XOR arm pairs two
/// distinct operands at any depth; every operand sits in its own group
/// on its own plane, so each such XOR spans planes or shards.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The router preserves batch ≡ serial ≡ ground truth for random
    /// cross-shard expressions, and `fc_overwrite` through the router
    /// between submissions is observed by the very next batch.
    #[test]
    fn cross_shard_batch_matches_serial_and_eval(seed in any::<u64>()) {
        let mut cluster = FcCluster::new(SsdConfig::tiny_test(), 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = 256; // one tiny-geometry stripe per shard
        let mut vectors: Vec<BitVec> = (0..8).map(|_| BitVec::random(bits, &mut rng)).collect();
        let ids: Vec<usize> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                cluster
                    .fc_write(&format!("v{i}"), v, StoreHints::and_group(&format!("solo{i}")))
                    .unwrap()
                    .id
            })
            .collect();
        // The rendezvous hash should scatter 8 names over 3 shards.
        let homes: std::collections::BTreeSet<usize> =
            (0..8).map(|i| cluster.home_shard(&format!("v{i}"))).collect();
        prop_assert!(homes.len() >= 2, "operands all homed on one shard");

        let queries: Vec<Expr> = (0..5).map(|_| random_expr(&mut rng, &ids, 2)).collect();
        let lookup = |vs: &[BitVec]| {
            let vs = vs.to_vec();
            move |i: usize| vs[i].clone()
        };

        // Serial pass: each query alone through the router.
        let mut serial = Vec::new();
        for e in &queries {
            let (r, _) = cluster.fc_read(e).unwrap();
            prop_assert_eq!(&r, &e.eval(&lookup(&vectors)), "serial diverged from eval on {}", e);
            serial.push(r);
        }

        // Batched pass: one cross-shard submission.
        let batch: QueryBatch = queries.iter().cloned().collect();
        let out = cluster.submit(&batch).unwrap();
        prop_assert!(out.failures.is_empty());
        for (qi, s) in serial.iter().enumerate() {
            prop_assert_eq!(&out.results[qi], s, "query {} diverged from serial", qi);
        }
        prop_assert_eq!(out.stats.per_query.len(), batch.len());

        // Overwrite interleaving: mutate random operands through the
        // router; the next submission must serve the fresh data.
        for _ in 0..2 {
            let victim = rng.gen_range(0..ids.len());
            let fresh = BitVec::random(bits, &mut rng);
            cluster.fc_overwrite(&format!("v{victim}"), &fresh).unwrap();
            vectors[victim] = fresh;
            let out = cluster.submit(&batch).unwrap();
            prop_assert!(out.failures.is_empty());
            for (qi, e) in batch.queries().iter().enumerate() {
                prop_assert_eq!(
                    &out.results[qi],
                    &e.eval(&lookup(&vectors)),
                    "post-overwrite query {} diverged",
                    qi
                );
            }
        }
    }
}
