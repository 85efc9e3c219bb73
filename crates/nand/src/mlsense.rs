//! Dynamic-sensing arithmetic and multi-level page codes (the `mlsense`
//! subsystem's device half).
//!
//! Flash-Cosmos senses a multi-WL activation at a single fixed Vref, so a
//! bitline can only answer AND (intra-block) or OR (inter-block). MCFlash
//! observes that the *same* activation sensed at an intermediate reference
//! answers a richer question: "did at least K of the activated cells
//! conduct?" — a per-bitline threshold/majority vote. This module supplies
//! the two pieces of device-side machinery that turn that observation into
//! a compute primitive:
//!
//! * **Vote counting** — [`threshold_ge_into`], a word-parallel counter
//!   that works through the pages in L1-sized chunks: saturating unary
//!   rows on the minority side of `k` when those are cheap, else a
//!   bit-sliced ripple-carry population counter plus an MSB-down `≥ k`
//!   comparator, with [`threshold_ge_serial`] as the bit-exact scalar
//!   oracle (the same kernel/oracle pairing as `ispp::pulse_rounds`).
//! * **Multi-level page codes** — Gray-code level maps for MLC/TLC cells
//!   ([`gray_codes`]), cell-level encoding of 2–3 logical pages into one
//!   physical page ([`encode_levels`]), and the read-side transition model
//!   ([`transition_levels`], [`page_from_senses`]) that recovers one logical
//!   page from conduction senses at the Gray transitions — exactly the
//!   per-state read levels a real controller issues.

use fc_bits::BitVec;

use crate::geometry::CellMode;

/// Words per chunk of the bit-sliced counter: 4 096 bitlines, so a
/// chunk's counter planes (≤ 7 × 512 B) stay in L1 while every vote page
/// streams through once.
const CHUNK_WORDS: usize = 64;

/// Most rows a unary counter may take; wider votes count bit-sliced.
const MAX_UNARY_ROWS: usize = 8;

/// Words the unary counter keeps in registers at a time.
const UNARY_LANES: usize = 4;

/// Reusable buffers for [`threshold_ge_into`]: one chunk's counter planes
/// and carry. Create once per chip/plane and reuse across senses — same
/// pattern as `sense::SenseScratch`.
#[derive(Debug, Default, Clone)]
pub struct ThresholdScratch {
    /// Bit-sliced per-bitline vote counts of one chunk: `planes[p]` (the
    /// `p`-th run of `CHUNK_WORDS` words) holds bit `p` of every count.
    planes: Vec<u64>,
    /// Ripple carry of the bit-sliced counter, one chunk wide.
    carry: Vec<u64>,
}

/// How [`threshold_ge_into`] counts an `n`-page vote against `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counter {
    /// Bit-sliced ripple-carry counter with `width` planes, then an
    /// MSB-down `≥ k` comparator: about `3 · width` word ops per vote.
    Sliced { width: usize },
    /// `rows` saturating unary rows — row `j` means "at least `j + 1`
    /// counted votes" — over the set votes (`zeros: false`, answer = last
    /// row) or the clear ones (`zeros: true`, answer = its complement,
    /// since ≥ k ones ⇔ fewer than n − k + 1 zeros): `2 · rows` word ops
    /// per vote, all in registers.
    Unary { rows: usize, zeros: bool },
}

impl Counter {
    /// The cheaper counter for `1 ≤ k ≤ n`: unary rows on the minority
    /// side when they take fewer word ops than the bit-sliced counter.
    fn for_vote(n: usize, k: usize) -> Self {
        let width = usize::BITS as usize - n.leading_zeros() as usize;
        let minority = k.min(n - k + 1);
        if minority <= MAX_UNARY_ROWS && 2 * minority <= 3 * width {
            Counter::Unary { rows: minority, zeros: minority < k }
        } else {
            Counter::Sliced { width }
        }
    }
}

/// Word-parallel threshold vote: sets bit `i` of `out` iff at least `k` of
/// the `votes` pages have bit `i` set.
///
/// Small minorities count with saturating unary rows held in registers —
/// `min(k, n − k + 1)` rows, 3 for a `k = n − 2` vote — reading every
/// vote word exactly once. Otherwise a bit-sliced ripple-carry counter
/// (`O(log n)` ops per vote) works through the pages in L1-sized chunks
/// and compares the counts against `k` MSB-down.
///
/// # Panics
///
/// Panics if `votes` is empty or the vote pages have mismatched lengths.
pub fn threshold_ge_into(
    votes: &[&BitVec],
    k: usize,
    scratch: &mut ThresholdScratch,
    out: &mut BitVec,
) {
    assert!(!votes.is_empty(), "threshold vote needs at least one page");
    let len = votes[0].len();
    for vote in votes {
        assert_eq!(vote.len(), len, "threshold vote pages must share a length");
    }
    let n = votes.len();
    if k == 0 || k > n {
        // Every count is ≥ 0; no count exceeds n.
        out.reset(len, k == 0);
        return;
    }
    let pages: Vec<&[u64]> = votes.iter().map(|v| v.words()).collect();
    let mut result = vec![0u64; pages[0].len()];
    match Counter::for_vote(n, k) {
        Counter::Unary { rows, zeros } => {
            let flip = if zeros { u64::MAX } else { 0 };
            match rows {
                1 => unary_count::<1>(&pages, flip, &mut result),
                2 => unary_count::<2>(&pages, flip, &mut result),
                3 => unary_count::<3>(&pages, flip, &mut result),
                4 => unary_count::<4>(&pages, flip, &mut result),
                5 => unary_count::<5>(&pages, flip, &mut result),
                6 => unary_count::<6>(&pages, flip, &mut result),
                7 => unary_count::<7>(&pages, flip, &mut result),
                8 => unary_count::<8>(&pages, flip, &mut result),
                _ => unreachable!("unary counters take at most {MAX_UNARY_ROWS} rows"),
            }
        }
        Counter::Sliced { width } => sliced_count(&pages, k, width, scratch, &mut result),
    }
    *out = BitVec::from_words(result, len);
}

/// Unary counting with `M` rows, `UNARY_LANES` words at a time.
fn unary_count<const M: usize>(pages: &[&[u64]], flip: u64, out: &mut [u64]) {
    let mut blocks = out.chunks_exact_mut(UNARY_LANES);
    let mut w = 0;
    for block in &mut blocks {
        block.copy_from_slice(&unary_block::<M, UNARY_LANES>(pages, w, flip));
        w += UNARY_LANES;
    }
    for o in blocks.into_remainder() {
        *o = unary_block::<M, 1>(pages, w, flip)[0];
        w += 1;
    }
}

/// Counts words `w..w + L` of every page into `M` saturating rows kept in
/// registers and returns the answer words (`flip` complements the votes
/// and the answer for zeros-side counting).
#[inline(always)]
fn unary_block<const M: usize, const L: usize>(pages: &[&[u64]], w: usize, flip: u64) -> [u64; L] {
    let mut rows = [[0u64; L]; M];
    for page in pages {
        let x: &[u64; L] = page[w..w + L].try_into().expect("L words");
        // Top row first, so each vote advances a bitline by one row.
        for j in (1..M).rev() {
            for l in 0..L {
                rows[j][l] |= rows[j - 1][l] & (x[l] ^ flip);
            }
        }
        for l in 0..L {
            rows[0][l] |= x[l] ^ flip;
        }
    }
    rows[M - 1].map(|r| r ^ flip)
}

/// Bit-sliced counting, chunk by chunk, then the `≥ k` comparison.
fn sliced_count(
    pages: &[&[u64]],
    k: usize,
    width: usize,
    scratch: &mut ThresholdScratch,
    out: &mut [u64],
) {
    let ThresholdScratch { planes, carry } = scratch;
    carry.resize(CHUNK_WORDS, 0);
    for (c, out_chunk) in out.chunks_mut(CHUNK_WORDS).enumerate() {
        let start = c * CHUNK_WORDS;
        let cw = out_chunk.len();
        planes.clear();
        planes.resize(width * CHUNK_WORDS, 0);
        for page in pages {
            // Add 1 where the vote is set: (plane, carry) ->
            // (plane ^ carry, plane & carry), plane by plane.
            carry[..cw].copy_from_slice(&page[start..start + cw]);
            for plane in planes.chunks_exact_mut(CHUNK_WORDS) {
                for (p, c) in plane[..cw].iter_mut().zip(&mut carry[..cw]) {
                    let t = *p & *c;
                    *p ^= *c;
                    *c = t;
                }
            }
        }
        // Compare count >= k MSB-down (k ≤ n fits the counter's width):
        //   gt |= eq & count_bit & !k_bit;   eq &= !(count_bit ^ k_bit)
        for (i, o) in out_chunk.iter_mut().enumerate() {
            let (mut gt, mut eq) = (0u64, u64::MAX);
            for bit in (0..width).rev() {
                let count_bit = planes[bit * CHUNK_WORDS + i];
                if (k >> bit) & 1 == 1 {
                    eq &= count_bit;
                } else {
                    gt |= eq & count_bit;
                    eq &= !count_bit;
                }
            }
            *o = gt | eq;
        }
    }
}

/// Scalar oracle for [`threshold_ge_into`]: per-bitline `filter().count()`,
/// no word tricks. Property tests pin the packed kernel against this.
///
/// # Panics
///
/// Panics if `votes` is empty.
pub fn threshold_ge_serial(votes: &[&BitVec], k: usize) -> BitVec {
    assert!(!votes.is_empty(), "threshold vote needs at least one page");
    BitVec::from_fn(votes[0].len(), |i| votes.iter().filter(|v| v.get(i)).count() >= k)
}

/// The Gray code assigned to each V_TH level, lowest (erased) level first.
/// Adjacent levels differ in exactly one bit and the erased level is
/// all-ones (an erased cell reads 1 on every logical page, matching the
/// SLC convention where erased = 1).
pub fn gray_codes(mode: CellMode) -> &'static [u8] {
    match mode {
        CellMode::Slc => &[0b1, 0b0],
        // LSB page (bit 0) needs 1 read level, MSB page (bit 1) needs 2.
        CellMode::Mlc => &[0b11, 0b01, 0b00, 0b10],
        // 1-2-4 read-level split across LSB/CSB/MSB (bits 2/1/0).
        CellMode::Tlc => &[0b111, 0b110, 0b100, 0b101, 0b001, 0b000, 0b010, 0b011],
    }
}

/// Packs per-cell logical page bits into V_TH level indices. `pages[b]`
/// carries logical bit `b` of every cell; cell `i` lands on the unique
/// level whose Gray code matches its bits.
///
/// # Panics
///
/// Panics if `pages` does not hold exactly [`CellMode::bits_per_cell`]
/// pages of equal length.
pub fn encode_levels(pages: &[BitVec], mode: CellMode) -> Vec<u8> {
    let bits = mode.bits_per_cell() as usize;
    assert_eq!(pages.len(), bits, "{mode} packs exactly {bits} logical pages per cell");
    let len = pages[0].len();
    assert!(pages.iter().all(|p| p.len() == len), "logical pages must share a length");
    let codes = gray_codes(mode);
    (0..len)
        .map(|i| {
            let code: u8 = (0..bits).map(|b| (pages[b].get(i) as u8) << b).sum();
            codes.iter().position(|&c| c == code).expect("gray code covers all bit patterns") as u8
        })
        .collect()
}

/// Recovers logical page `page` directly from per-cell levels (the
/// functional-mode decode; the sense-based path goes through
/// [`transition_levels`] + [`page_from_senses`]).
///
/// # Panics
///
/// Panics if `page` is out of range for the mode.
pub fn decode_page(levels: &[u8], mode: CellMode, page: usize) -> BitVec {
    let codes = gray_codes(mode);
    assert!(page < mode.bits_per_cell() as usize, "{mode} has no logical page {page}");
    BitVec::from_fn(levels.len(), |i| (codes[levels[i] as usize] >> page) & 1 == 1)
}

/// The read levels needed to recover logical page `page`: every adjacent
/// level boundary `t` (a conduction sense "level ≤ t", i.e. a Vref between
/// states `t` and `t + 1`) where the Gray code flips bit `page`.
///
/// # Panics
///
/// Panics if `page` is out of range for the mode.
pub fn transition_levels(mode: CellMode, page: usize) -> Vec<u8> {
    let codes = gray_codes(mode);
    assert!(page < mode.bits_per_cell() as usize, "{mode} has no logical page {page}");
    (0..codes.len() - 1)
        .filter(|&t| (codes[t] ^ codes[t + 1]) >> page & 1 == 1)
        .map(|t| t as u8)
        .collect()
}

/// Number of read levels (sense operations) needed to recover logical page
/// `page` — the per-page read cost of the density trade.
pub fn senses_for_page(mode: CellMode, page: usize) -> usize {
    transition_levels(mode, page).len()
}

/// Combines conduction senses at the page's [`transition_levels`] back
/// into the logical page. Walking levels top-down, bit `page` of the Gray
/// code flips once per transition at or above the cell's level, so
/// `bit = bit(top code) XOR (XOR over the conduction senses)`.
///
/// # Panics
///
/// Panics if the sense count does not match [`senses_for_page`] or the
/// senses have mismatched lengths.
pub fn page_from_senses(senses: &[BitVec], mode: CellMode, page: usize) -> BitVec {
    let codes = gray_codes(mode);
    assert_eq!(
        senses.len(),
        senses_for_page(mode, page),
        "{mode} page {page} decodes from exactly {} senses",
        senses_for_page(mode, page)
    );
    let top = (codes[codes.len() - 1] >> page) & 1 == 1;
    let mut out = BitVec::default();
    out.reset(senses[0].len(), top);
    for sense in senses {
        out.xor_assign(sense);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vote_pages(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let density = rng.gen::<f64>();
                BitVec::random_with_density(bits, density, &mut rng)
            })
            .collect()
    }

    #[test]
    fn packed_threshold_matches_serial_oracle() {
        let mut scratch = ThresholdScratch::default();
        let mut out = BitVec::default();
        // 515 bits fit one chunk; 8 269 span three, the last one partial.
        for bits in [515, 8269] {
            for n in [1, 2, 3, 5, 9, 17, 24, 33, 48, 64] {
                let votes = vote_pages(n, bits, (n * bits) as u64);
                let refs: Vec<&BitVec> = votes.iter().collect();
                let ks =
                    [0, 1, 2, n / 2, n.div_ceil(2), n.saturating_sub(2), n - 1, n, n + 1, n + 40];
                for k in ks {
                    threshold_ge_into(&refs, k, &mut scratch, &mut out);
                    assert_eq!(out, threshold_ge_serial(&refs, k), "bits={bits} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn both_counters_are_exercised() {
        // Majority of 64 is the bit-sliced counter's case (32 unary rows
        // would cost more), a `k = n − 2` vote the unary counter's.
        assert_eq!(Counter::for_vote(64, 32), Counter::Sliced { width: 7 });
        assert_eq!(Counter::for_vote(64, 62), Counter::Unary { rows: 3, zeros: true });
        assert_eq!(Counter::for_vote(24, 2), Counter::Unary { rows: 2, zeros: false });
        let votes = vote_pages(64, 300, 5);
        let refs: Vec<&BitVec> = votes.iter().collect();
        let mut scratch = ThresholdScratch::default();
        let mut out = BitVec::default();
        for k in [32, 62] {
            threshold_ge_into(&refs, k, &mut scratch, &mut out);
            assert_eq!(out, threshold_ge_serial(&refs, k), "k={k}");
        }
    }

    #[test]
    fn threshold_extremes_are_or_and_and() {
        let votes = vote_pages(7, 256, 99);
        let refs: Vec<&BitVec> = votes.iter().collect();
        let mut scratch = ThresholdScratch::default();
        let mut out = BitVec::default();
        threshold_ge_into(&refs, 1, &mut scratch, &mut out);
        assert_eq!(out, BitVec::or_fold(&refs));
        threshold_ge_into(&refs, 7, &mut scratch, &mut out);
        assert_eq!(out, BitVec::and_fold(&refs));
        threshold_ge_into(&refs, 8, &mut scratch, &mut out);
        assert!(out.is_all_zeros(), "k > n is never satisfied");
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let mut scratch = ThresholdScratch::default();
        let mut out = BitVec::default();
        // A big first call must not leak counts into a smaller second call.
        let big = vote_pages(33, 512, 7);
        let refs: Vec<&BitVec> = big.iter().collect();
        threshold_ge_into(&refs, 17, &mut scratch, &mut out);
        let small = vote_pages(3, 130, 8);
        let refs: Vec<&BitVec> = small.iter().collect();
        threshold_ge_into(&refs, 2, &mut scratch, &mut out);
        assert_eq!(out, threshold_ge_serial(&refs, 2));
    }

    #[test]
    fn gray_codes_are_gray_and_erased_is_all_ones() {
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let codes = gray_codes(mode);
            assert_eq!(codes.len(), mode.states() as usize);
            let bits = mode.bits_per_cell();
            assert_eq!(codes[0], (1u8 << bits) - 1, "{mode} erased level reads all-ones");
            for t in 0..codes.len() - 1 {
                assert_eq!(
                    (codes[t] ^ codes[t + 1]).count_ones(),
                    1,
                    "{mode} levels {t}/{} differ in one bit",
                    t + 1
                );
            }
            // All codes distinct => every bit pattern maps to one level.
            let mut sorted: Vec<u8> = codes.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), codes.len());
        }
    }

    #[test]
    fn per_page_sense_counts_sum_to_state_boundaries() {
        // Every one of the states−1 level boundaries is a transition for
        // exactly one logical page.
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let total: usize =
                (0..mode.bits_per_cell() as usize).map(|p| senses_for_page(mode, p)).sum();
            assert_eq!(total, mode.states() as usize - 1, "{mode}");
        }
        assert_eq!(senses_for_page(CellMode::Mlc, 0), 1);
        assert_eq!(senses_for_page(CellMode::Mlc, 1), 2);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut rng = StdRng::seed_from_u64(42);
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let bits = mode.bits_per_cell() as usize;
            let pages: Vec<BitVec> = (0..bits).map(|_| BitVec::random(300, &mut rng)).collect();
            let levels = encode_levels(&pages, mode);
            for (b, page) in pages.iter().enumerate() {
                assert_eq!(&decode_page(&levels, mode, b), page, "{mode} page {b}");
            }
        }
    }

    #[test]
    fn sense_based_decode_matches_direct_decode() {
        let mut rng = StdRng::seed_from_u64(43);
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let bits = mode.bits_per_cell() as usize;
            let pages: Vec<BitVec> = (0..bits).map(|_| BitVec::random(256, &mut rng)).collect();
            let levels = encode_levels(&pages, mode);
            for (b, page) in pages.iter().enumerate() {
                // Model each read level as a conduction sense: 1 iff the
                // cell's level is at or below the boundary.
                let senses: Vec<BitVec> = transition_levels(mode, b)
                    .into_iter()
                    .map(|t| BitVec::from_fn(levels.len(), |i| levels[i] <= t))
                    .collect();
                assert_eq!(&page_from_senses(&senses, mode, b), page, "{mode} page {b}");
            }
        }
    }
}
