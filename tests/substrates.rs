//! Substrate-level property tests: BCH ECC, the randomizer, the
//! bit-vector kernel and the DES resource — invariants that everything
//! above depends on.

use fc_bits::BitVec;
use fc_nand::geometry::WlAddr;
use fc_nand::randomizer::Randomizer;
use fc_ssd::ecc::{BchCode, DecodeOutcome};
use fc_ssd::sim::Resource;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BCH corrects any pattern of up to t errors, anywhere.
    #[test]
    fn bch_corrects_any_t_errors(
        payload_seed in any::<u64>(),
        positions in prop::collection::btree_set(0usize..63, 0..=3),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let code = BchCode::new(6, 3);
        let mut rng = StdRng::seed_from_u64(payload_seed);
        let payload = BitVec::random(code.k(), &mut rng);
        let mut cw = code.encode(&payload);
        for &p in &positions {
            cw.flip(p);
        }
        match code.decode(&cw) {
            DecodeOutcome::Corrected { data, errors } => {
                prop_assert_eq!(data, payload);
                prop_assert_eq!(errors, positions.len());
            }
            DecodeOutcome::Uncorrectable => {
                return Err(TestCaseError::fail("≤t errors must always decode"));
            }
        }
    }

    /// Codewords are closed under XOR (linearity of the code).
    #[test]
    fn bch_is_linear(a_seed in any::<u64>(), b_seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let code = BchCode::new(5, 2);
        let mut ra = StdRng::seed_from_u64(a_seed);
        let mut rb = StdRng::seed_from_u64(b_seed);
        let pa = BitVec::random(code.k(), &mut ra);
        let pb = BitVec::random(code.k(), &mut rb);
        let sum_cw = code.encode(&pa).xor(&code.encode(&pb));
        match code.decode(&sum_cw) {
            DecodeOutcome::Corrected { data, errors } => {
                prop_assert_eq!(errors, 0, "XOR of codewords is a codeword");
                prop_assert_eq!(data, pa.xor(&pb));
            }
            DecodeOutcome::Uncorrectable => {
                return Err(TestCaseError::fail("linearity violated"));
            }
        }
    }

    /// Randomization is an involution and preserves Hamming distance
    /// (i.e. bit errors survive descrambling — why ECC still works after
    /// the scrambler, §2.2).
    #[test]
    fn randomizer_involution_and_error_transparency(
        seed in any::<u64>(),
        plane in 0u32..2,
        block in 0u32..64,
        wl in 0u32..48,
        flips in 0usize..32,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let r = Randomizer::new(seed ^ 0x5EED);
        let addr = WlAddr::new(plane, block, wl);
        let data = BitVec::random(1024, &mut rng);
        let scrambled = r.randomize(addr, &data);
        prop_assert_eq!(&r.derandomize(addr, &scrambled), &data);
        let mut corrupted = scrambled.clone();
        corrupted.flip_random_bits(flips, &mut rng);
        let descrambled = r.derandomize(addr, &corrupted);
        prop_assert_eq!(descrambled.hamming_distance(&data), flips);
    }

    /// Bulk ops distribute over slicing: slice(a AND b) == slice(a) AND
    /// slice(b) — the property the striped device layout depends on.
    #[test]
    fn bitvec_ops_commute_with_slicing(
        seed in any::<u64>(),
        len in 64usize..512,
        cut in 1usize..64,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BitVec::random(len, &mut rng);
        let b = BitVec::random(len, &mut rng);
        let start = cut.min(len - 1);
        let n = (len - start).min(100);
        prop_assert_eq!(
            a.and(&b).slice(start, n),
            a.slice(start, n).and(&b.slice(start, n))
        );
        prop_assert_eq!(
            a.or(&b).slice(start, n),
            a.slice(start, n).or(&b.slice(start, n))
        );
    }

    /// Resources never overlap reservations and never travel back in
    /// time.
    #[test]
    fn resource_reservations_are_monotone(
        requests in prop::collection::vec((0u64..1000, 1u64..100), 1..32),
    ) {
        let mut r = Resource::new();
        let mut last_end = 0u64;
        let mut total = 0u64;
        for (ready, dur) in requests {
            let (start, end) = r.reserve(ready, dur);
            prop_assert!(start >= ready);
            prop_assert!(start >= last_end, "FIFO: no overlap");
            prop_assert_eq!(end - start, dur);
            last_end = end;
            total += dur;
        }
        prop_assert_eq!(r.busy_time(), total);
    }
}
