//! Derived bulk operations (§10 "Extensions to Other Applications").
//!
//! The paper notes that Flash-Cosmos's primitive set is *logically
//! complete*, so frameworks in the style of SIMDRAM / DualityCache can
//! synthesize arbitrary operations from it, and leaves such a framework
//! to future work. This module is a first cut of that layer: a
//! multi-vector vote expressed as an [`Expr`] tree that the planner then
//! lowers onto MWS commands.
//!
//! The vote is *position-wise* (bit-parallel across the vector), which
//! is exactly the class of operations processing-using-memory substrates
//! accelerate.

use crate::expr::{Expr, OperandId};
use crate::planner::{binomial, index_combinations, MAX_THRESHOLD_COMBOS};

/// At-least-`k`-of-`n` threshold over small `n` (union of all size-`k`
/// AND combinations). Practical for the small fan-ins used by
/// hyper-dimensional-computing style voting; the combination count grows
/// as `C(n, k)`.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds `ids.len()`, or if `C(n, k)` would
/// exceed 10,000 terms.
pub fn at_least_k_of(ids: &[OperandId], k: usize) -> Expr {
    let n = ids.len();
    assert!(k >= 1 && k <= n, "threshold k={k} out of range for n={n}");
    assert!(binomial(n, k) <= MAX_THRESHOLD_COMBOS, "C({n}, {k}) too large to synthesize");
    let terms = index_combinations(n, k)
        .into_iter()
        .map(|combo| Expr::and_vars(combo.into_iter().map(|i| ids[i])));
    Expr::or(terms.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_bits::BitVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| BitVec::random(bits, &mut rng)).collect()
    }

    #[test]
    fn threshold_votes() {
        let t = table(5, 400, 4);
        let lookup = |i: usize| t[i].clone();
        for k in 1..=5 {
            let out = at_least_k_of(&[0, 1, 2, 3, 4], k).eval(&lookup);
            for i in 0..400 {
                let votes = (0..5).filter(|&v| t[v].get(i)).count();
                assert_eq!(out.get(i), votes >= k, "k={k} position {i}");
            }
        }
    }

    #[test]
    fn threshold_1_is_or_and_n_is_and() {
        let t = table(3, 128, 5);
        let lookup = |i: usize| t[i].clone();
        assert_eq!(
            at_least_k_of(&[0, 1, 2], 1).eval(&lookup),
            Expr::or_vars([0, 1, 2]).eval(&lookup)
        );
        assert_eq!(
            at_least_k_of(&[0, 1, 2], 3).eval(&lookup),
            Expr::and_vars([0, 1, 2]).eval(&lookup)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_threshold_panics() {
        at_least_k_of(&[0, 1], 0);
    }

    #[test]
    #[should_panic(expected = "C(16, 8) too large")]
    fn oversized_threshold_panics() {
        // C(16, 8) = 12 870 terms, over the 10 000 cap.
        at_least_k_of(&(0..16).collect::<Vec<_>>(), 8);
    }

    /// The staged in-flash full adder: carry in one fc_read (pure
    /// AND/OR), sum via two XOR passes — the §10 synthesis pattern on the
    /// actual device.
    #[test]
    fn full_adder_in_flash() {
        use crate::device::{FlashCosmosDevice, StoreHints};
        use fc_ssd::SsdConfig;
        let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let t = table(3, 256, 6);
        for (i, v) in t.iter().enumerate() {
            dev.fc_write(&format!("in{i}"), v, StoreHints::and_group(&format!("g{i}"))).unwrap();
        }
        // Carry = majority, (t0 & t1) | (t0 & t2) | (t1 & t2) — a single
        // AND/OR expression.
        let majority =
            Expr::or(vec![Expr::and_vars([0, 1]), Expr::and_vars([0, 2]), Expr::and_vars([1, 2])]);
        let (carry, _) = dev.fc_read(&majority).unwrap();
        // Sum stage 1: t0 ^ t1 (in-flash XOR), stored back as operand 3.
        let (ab, _) = dev.fc_read(&Expr::xor(Expr::var(0), Expr::var(1))).unwrap();
        dev.fc_write("ab", &ab, StoreHints::and_group("g-ab")).unwrap();
        let ab_id = dev.operand("ab").unwrap().id;
        // Sum stage 2: (t0 ^ t1) ^ t2.
        let (sum, _) = dev.fc_read(&Expr::xor(Expr::var(ab_id), Expr::var(2))).unwrap();
        for i in 0..256 {
            let total = u8::from(t[0].get(i)) + u8::from(t[1].get(i)) + u8::from(t[2].get(i));
            assert_eq!(sum.get(i), total % 2 == 1);
            assert_eq!(carry.get(i), total >= 2);
        }
    }
}
