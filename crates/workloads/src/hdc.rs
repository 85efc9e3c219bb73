//! Hyper-dimensional computing (HDC) — one of the application domains
//! the paper's introduction motivates (refs. [33–36]): classification
//! with long binary hypervectors, built entirely from bulk bitwise
//! operations.
//!
//! * **bind** (feature × value association): XOR of hypervectors;
//! * **bundle** (superposition of a class's examples): position-wise
//!   majority vote;
//! * **similarity** (query vs class prototypes): XNOR then popcount.
//!
//! All three map onto the Flash-Cosmos primitive set: XOR via the latch
//! XOR logic, majority via AND/OR synthesis
//! ([`flash_cosmos::ops::at_least_k_of`]), XNOR via the inverse read, and
//! popcount on the host (like BMI's bit-count step).

use fc_bits::BitVec;
use flash_cosmos::device::StoreHints;
use flash_cosmos::expr::Expr;
use flash_cosmos::{ops, WorkloadShape};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{FunctionalInstance, Query, StoredOperand};

/// Dimensionality used for paper-scale projections (HDC literature uses
/// ~10,000-bit hypervectors; we scale the stored corpus, not the math).
pub const PAPER_DIMENSIONS: u64 = 10_000;

/// Paper-scale cost shape: bundling `examples` stored hypervectors per
/// class via majority is a multi-operand bulk operation per class.
pub fn paper_shape(classes: u64, examples: u64) -> WorkloadShape {
    WorkloadShape {
        name: format!("HDC {classes}cls×{examples}ex"),
        queries: classes,
        and_operands: examples,
        or_operands: 0,
        vector_bytes: PAPER_DIMENSIONS * 1_000 / 8, // corpus of 1000 records per dim-slice
        result_popcount: true,
    }
}

/// A miniature functional HDC instance: `classes` classes × `examples`
/// noisy example hypervectors of `dims` bits each. Queries bundle each
/// class's examples with a majority vote (threshold `examples/2 + 1`),
/// which the device executes in-flash via AND/OR synthesis.
///
/// # Panics
///
/// Panics if `examples` is even (majority needs an odd vote count) or
/// greater than 7 (the synthesized threshold expression grows as
/// `C(n, k)`).
pub fn mini(classes: usize, examples: usize, dims: usize, seed: u64) -> FunctionalInstance {
    assert!(examples % 2 == 1, "majority bundling needs an odd example count");
    assert!(examples <= 7, "threshold synthesis is practical for ≤7 examples");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut operands = Vec::new();
    let mut queries = Vec::new();
    for class in 0..classes {
        // A class prototype plus per-example bit noise.
        let prototype = BitVec::random(dims, &mut rng);
        let base = operands.len();
        let examples_vec: Vec<BitVec> = (0..examples)
            .map(|e| {
                let mut v = prototype.clone();
                let flips = dims / 10; // 10% noise
                v.flip_random_bits(flips, &mut rng);
                operands.push(StoredOperand {
                    name: format!("class{class}-ex{e}"),
                    data: v.clone(),
                    hints: StoreHints::and_group(&format!("hdc-{class}")),
                });
                v
            })
            .collect();
        // Ground truth: majority vote across examples.
        let threshold = examples / 2 + 1;
        let expected = BitVec::from_fn(dims, |i| {
            examples_vec.iter().filter(|v| v.get(i)).count() >= threshold
        });
        let ids: Vec<usize> = (base..base + examples).collect();
        queries.push(Query {
            label: format!("bundle class {class} ({examples} examples, ≥{threshold})"),
            expr: ops::at_least_k_of(&ids, threshold),
            expected,
        });
    }
    FunctionalInstance { name: "HDC".to_string(), operands, queries }
}

/// Majority-bundles the stored example hypervectors of one class into a
/// prototype with the **dynamic threshold sense**: the examples live on
/// co-located wordlines of one block (store them with a shared
/// [`StoreHints::and_group`]), so the planner lowers
/// [`Expr::majority_vars`] to a single threshold-K multi-wordline sense
/// per stripe instead of the `C(n, ⌈n/2⌉)` AND/OR expansion that caps
/// [`mini`] at 7 examples — bundling 9, 11, or more examples becomes one
/// modeled sense per stripe.
///
/// Returns the bundled prototype and the read statistics.
///
/// # Errors
///
/// Propagates device failures ([`flash_cosmos::FcError`]); in particular
/// the plan falls back to the exact expansion (or fails) when the
/// examples are not co-located in one block.
///
/// # Panics
///
/// Panics if `examples` is even or smaller than 3 (ties have no
/// majority).
pub fn bundle_in_flash(
    dev: &mut flash_cosmos::FlashCosmosDevice,
    examples: &[usize],
) -> Result<(BitVec, flash_cosmos::BatchStats), flash_cosmos::FcError> {
    assert!(
        examples.len() >= 3 && examples.len() % 2 == 1,
        "majority bundling needs an odd example count of at least 3"
    );
    dev.fc_read(&Expr::majority_vars(examples.iter().copied()))
}

/// Host-side similarity: Hamming agreement between a query hypervector
/// and a bundled class prototype (higher = more similar). The in-flash
/// form computes XNOR on-chip and pops the count on the host.
pub fn similarity(query: &BitVec, prototype: &BitVec) -> usize {
    query.len() - query.hamming_distance(prototype)
}

/// Classifies `query` against bundled prototypes, returning the index of
/// the most similar class.
///
/// # Panics
///
/// Panics if `prototypes` is empty.
pub fn classify(query: &BitVec, prototypes: &[BitVec]) -> usize {
    assert!(!prototypes.is_empty(), "need at least one class prototype");
    prototypes
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| similarity(query, p))
        .map(|(i, _)| i)
        .expect("non-empty")
}

/// Binds two hypervectors (feature ⊗ value): XOR.
pub fn bind_expr(a: usize, b: usize) -> Expr {
    Expr::var(a) ^ Expr::var(b)
}

/// One similarity query per stored class prototype (XNOR against the
/// query hypervector), as a batch — classification matches the query
/// against *every* prototype, which is exactly the many-expressions-one
/// -pass shape the batched device API amortizes. Because the prototype
/// terms are generation-stamped, re-classifying the *same* stored query
/// vector replays every term from the cross-batch result cache, while
/// overwriting the query operand (`fc_overwrite`) invalidates exactly
/// those terms and re-senses.
pub fn similarity_batch(query: usize, prototypes: &[usize]) -> flash_cosmos::QueryBatch {
    prototypes.iter().map(|&p| Expr::xnor(Expr::var(query), Expr::var(p))).collect()
}

/// Classifies the stored `query` hypervector against stored class
/// prototypes entirely in-flash: one XNOR batch, host-side popcount
/// argmax (the BMI-style bit-count step). Returns the winning class index
/// and the batch statistics — repeated calls with an unchanged query
/// operand are answered from the result cache without sensing.
///
/// # Errors
///
/// Propagates device failures ([`flash_cosmos::FcError`]).
///
/// # Panics
///
/// Panics if `prototypes` is empty.
pub fn classify_in_flash(
    dev: &mut flash_cosmos::FlashCosmosDevice,
    query: usize,
    prototypes: &[usize],
) -> Result<(usize, flash_cosmos::BatchStats), flash_cosmos::FcError> {
    assert!(!prototypes.is_empty(), "need at least one class prototype");
    let out = dev.submit(&similarity_batch(query, prototypes))?;
    let best = out
        .results
        .iter()
        .enumerate()
        .max_by_key(|(_, agreement)| agreement.count_ones())
        .map(|(i, _)| i)
        .expect("non-empty");
    Ok((best, out.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundling_recovers_prototypes_under_noise() {
        let inst = mini(3, 5, 512, 0x4DC);
        assert_eq!(inst.operands.len(), 15);
        assert_eq!(inst.queries.len(), 3);
        for q in &inst.queries {
            // Majority of 5 examples with 10% noise each lands close to
            // the prototype: each example pair shares ≥ ~80% of bits.
            let ones = q.expected.count_ones();
            assert!(ones > 100 && ones < 412, "bundle looks degenerate: {ones}");
        }
    }

    #[test]
    fn classification_prefers_own_class() {
        let mut rng = StdRng::seed_from_u64(42);
        let protos: Vec<BitVec> = (0..4).map(|_| BitVec::random(2048, &mut rng)).collect();
        for (c, p) in protos.iter().enumerate() {
            let mut query = p.clone();
            query.flip_random_bits(300, &mut rng); // ~15% noise
            assert_eq!(classify(&query, &protos), c, "class {c}");
        }
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = BitVec::random(1024, &mut rng);
        let b = BitVec::random(1024, &mut rng);
        assert_eq!(similarity(&a, &b), similarity(&b, &a));
        assert_eq!(similarity(&a, &a), 1024);
        let s = similarity(&a, &b);
        assert!((400..=624).contains(&s), "random similarity {s}");
    }

    #[test]
    fn binding_is_invertible() {
        // (a ⊗ b) ⊗ b = a — the HDC unbinding identity, via XOR.
        let mut rng = StdRng::seed_from_u64(9);
        let a = BitVec::random(256, &mut rng);
        let b = BitVec::random(256, &mut rng);
        assert_eq!(a.xor(&b).xor(&b), a);
    }

    #[test]
    #[should_panic(expected = "odd example count")]
    fn even_examples_panic() {
        mini(1, 4, 64, 1);
    }

    #[test]
    fn in_flash_classification_reuses_cached_prototype_terms() {
        use fc_ssd::SsdConfig;
        use flash_cosmos::device::{FlashCosmosDevice, StoreHints};

        let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let mut rng = StdRng::seed_from_u64(0x4DC2);
        let dims = 512;
        let protos: Vec<BitVec> = (0..4).map(|_| BitVec::random(dims, &mut rng)).collect();
        let proto_ids: Vec<usize> = protos
            .iter()
            .enumerate()
            .map(|(c, p)| {
                dev.fc_write(&format!("proto{c}"), p, StoreHints::and_group(&format!("p{c}")))
                    .unwrap()
                    .id
            })
            .collect();
        let mut query = protos[2].clone();
        query.flip_random_bits(60, &mut rng);
        let qid = dev.fc_write("query", &query, StoreHints::and_group("q")).unwrap().id;

        let (class, cold) = classify_in_flash(&mut dev, qid, &proto_ids).unwrap();
        assert_eq!(class, 2, "in-flash classification matches host similarity");
        assert_eq!(class, classify(&query, &protos));
        assert!(cold.senses > 0);
        // Same stored query → every XNOR term replays from the cache.
        let (again, warm) = classify_in_flash(&mut dev, qid, &proto_ids).unwrap();
        assert_eq!(again, 2);
        assert_eq!(warm.senses, 0, "re-classification is cache-served");
        assert_eq!(warm.cached_units, 4);
        // A new query hypervector overwrites the operand: the stamped
        // terms invalidate and the classification re-senses.
        let mut query2 = protos[0].clone();
        query2.flip_random_bits(60, &mut rng);
        dev.fc_overwrite("query", &query2).unwrap();
        let (class2, fresh) = classify_in_flash(&mut dev, qid, &proto_ids).unwrap();
        assert_eq!(class2, 0);
        assert!(fresh.senses > 0, "overwritten query cannot ride stale cache entries");
    }

    #[test]
    fn bundling_nine_plus_examples_is_one_sense_per_stripe() {
        use fc_ssd::SsdConfig;
        use flash_cosmos::device::FlashCosmosDevice;

        // 11 examples need 11 co-located wordlines: deepen the blocks
        // beyond the tiny default of 8.
        let config = SsdConfig { wls_per_block: 16, ..SsdConfig::tiny_test() };
        let mut dev = FlashCosmosDevice::new(config);
        let mut rng = StdRng::seed_from_u64(0x4DC3);
        let dims = 700; // 3 stripes of the 256-bit tiny page
        let classes = 3;
        let examples = 11;
        let mut prototypes = Vec::new();
        let mut queries = Vec::new();
        let mut bundled = Vec::new();
        for class in 0..classes {
            let prototype = BitVec::random(dims, &mut rng);
            let mut ids = Vec::new();
            let mut vecs = Vec::new();
            for e in 0..examples {
                let mut v = prototype.clone();
                v.flip_random_bits(dims / 10, &mut rng);
                let h = dev
                    .fc_write(
                        &format!("c{class}e{e}"),
                        &v,
                        StoreHints::and_group(&format!("hdc{class}")),
                    )
                    .unwrap();
                ids.push(h.id);
                vecs.push(v);
            }
            let (bundle, stats) = bundle_in_flash(&mut dev, &ids).unwrap();
            // Bit-exact against the host majority vote.
            let threshold = examples / 2 + 1;
            let expect =
                BitVec::from_fn(dims, |i| vecs.iter().filter(|v| v.get(i)).count() >= threshold);
            assert_eq!(bundle, expect, "class {class} bundle must be bit-exact");
            // One dynamic threshold sense per stripe — not C(11, 6) = 462
            // expansion senses.
            assert_eq!(stats.senses, 3, "class {class}: one sense per stripe");
            let mut query = prototype.clone();
            query.flip_random_bits(dims / 8, &mut rng);
            prototypes.push(prototype);
            queries.push(query);
            bundled.push(bundle);
        }
        // The in-flash bundles classify noisy queries like host bundles.
        for (class, query) in queries.iter().enumerate() {
            assert_eq!(classify(query, &bundled), class, "query {class}");
        }
    }

    #[test]
    fn paper_shape_scales_with_examples() {
        let s = paper_shape(32, 5);
        assert_eq!(s.queries, 32);
        assert_eq!(s.and_operands, 5);
        assert!(s.result_popcount);
    }
}
