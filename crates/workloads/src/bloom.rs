//! Partitioned Bloom-filter membership as an in-flash threshold query.
//!
//! A partitioned Bloom filter hashes every key into one bit per
//! partition (H hash functions → H disjoint bit arrays); membership is
//! "all H probed bits set". Probing bits one key at a time is the
//! classic pointer-chasing lookup — the shape in-flash processing cannot
//! help. What it *can* accelerate is the batched form: for a fixed
//! candidate set (the keys an application repeatedly screens — a
//! working set, a block cache, a routing table), the filter maintains H
//! **host-side indicator vectors**, one bit per candidate:
//!
//! ```text
//! A_i[j] = partition_i[h_i(candidate_j)]
//! ```
//!
//! Insertion updates the affected indicator bits (the host knows which
//! candidates collide into the touched bucket); the vectors live
//! co-located in flash, and screening the *entire* candidate set is one
//! threshold query:
//!
//! * `k = H` — exact Bloom semantics (AND of all probes; false-positive
//!   rate from hash collisions, never false negatives);
//! * `k = H − 1` — erasure-tolerant membership: one partition may be
//!   lost or stale and every true member still passes (at a higher
//!   false-positive rate).
//!
//! Interior `k` lowers to a single dynamic threshold sense per stripe;
//! `k = H` is the classic intra-block AND — either way the whole batch
//! costs senses independent of the candidate count.

use fc_bits::BitVec;
use flash_cosmos::device::{FcError, FlashCosmosDevice, StoreHints};
use flash_cosmos::expr::Expr;
use flash_cosmos::BatchStats;

/// A partitioned Bloom filter over a fixed candidate set, maintaining
/// the per-hash indicator vectors the in-flash membership query senses.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// Bits per partition (the classic Bloom `m / H`).
    buckets: usize,
    /// Tracked candidate keys, in indicator-bit order.
    candidates: Vec<u64>,
    /// `partitions[i]` — partition `i`'s raw bit array.
    partitions: Vec<BitVec>,
    /// `indicators[i][j] = partitions[i][bucket(i, candidates[j])]`.
    indicators: Vec<BitVec>,
}

/// SplitMix64 — a deterministic hash family: `mix(key, i)` is hash
/// function `i`.
fn mix(key: u64, i: u64) -> u64 {
    let mut z = key ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// An empty filter with `hashes` partitions of `buckets` bits each,
    /// screening the given candidate keys.
    ///
    /// # Panics
    ///
    /// Panics on zero hashes, zero buckets, or an empty candidate set.
    pub fn new(hashes: usize, buckets: usize, candidates: &[u64]) -> Self {
        assert!(hashes >= 1, "a Bloom filter needs at least one hash");
        assert!(buckets >= 1, "a partition needs at least one bucket");
        assert!(!candidates.is_empty(), "the batched query screens a fixed candidate set");
        Self {
            buckets,
            candidates: candidates.to_vec(),
            partitions: vec![BitVec::zeros(buckets); hashes],
            indicators: vec![BitVec::zeros(candidates.len()); hashes],
        }
    }

    /// Hash functions in the filter.
    pub fn hashes(&self) -> usize {
        self.partitions.len()
    }

    fn bucket(&self, hash: usize, key: u64) -> usize {
        (mix(key, hash as u64) % self.buckets as u64) as usize
    }

    /// Inserts a key: sets one bucket per partition and refreshes the
    /// indicator bit of every candidate colliding into that bucket.
    pub fn insert(&mut self, key: u64) {
        for i in 0..self.partitions.len() {
            let b = self.bucket(i, key);
            if self.partitions[i].get(b) {
                continue; // bucket already set — indicators already true
            }
            self.partitions[i].set(b, true);
            for (j, &c) in self.candidates.iter().enumerate() {
                if self.bucket(i, c) == b {
                    self.indicators[i].set(j, true);
                }
            }
        }
    }

    /// Host-side membership of one key (the reference the in-flash
    /// result is checked against). False positives possible, false
    /// negatives not.
    pub fn contains(&self, key: u64) -> bool {
        (0..self.partitions.len()).all(|i| self.partitions[i].get(self.bucket(i, key)))
    }

    /// The indicator vectors (candidate-indexed), for loading or
    /// inspection.
    pub fn indicators(&self) -> &[BitVec] {
        &self.indicators
    }

    /// Writes the indicator vectors into the device as one co-located
    /// group (`name` prefixes the operand names), returning the operand
    /// ids [`contains_batch`] queries. Call after the inserts — the
    /// vectors are a snapshot ([`flash_cosmos::FlashCosmosDevice::fc_overwrite`]
    /// refreshes one after further inserts).
    ///
    /// # Errors
    ///
    /// Propagates device failures (duplicate names, allocation errors).
    pub fn load(&self, dev: &mut FlashCosmosDevice, name: &str) -> Result<Vec<usize>, FcError> {
        self.indicators
            .iter()
            .enumerate()
            .map(|(i, v)| {
                Ok(dev.fc_write(&format!("{name}-h{i}"), v, StoreHints::and_group(name))?.id)
            })
            .collect()
    }
}

/// The membership query over loaded indicator operands: candidate `j` is
/// (probably) a member iff at least `k` of the H probed bits are set.
/// `k = H` is exact Bloom membership; lower `k` tolerates `H − k` lost
/// or stale partitions.
///
/// # Panics
///
/// Panics if `k` is zero, exceeds the hash count, or `hash_ids` is
/// empty (the [`Expr::threshold`] contract).
pub fn contains_batch_expr(hash_ids: &[usize], k: usize) -> Expr {
    Expr::threshold_vars(k, hash_ids.iter().copied())
}

/// Executes the batched membership screen in-flash: one bit per
/// candidate, `1` = at least `k` of the H probes hit. With the
/// indicators co-located (one [`BloomFilter::load`] group), interior `k`
/// is a single dynamic threshold sense per stripe.
///
/// # Errors
///
/// Propagates device failures ([`FcError`]).
pub fn contains_batch(
    dev: &mut FlashCosmosDevice,
    hash_ids: &[usize],
    k: usize,
) -> Result<(BitVec, BatchStats), FcError> {
    dev.fc_read(&contains_batch_expr(hash_ids, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_ssd::SsdConfig;

    fn loaded_filter(
        hashes: usize,
        inserted: &[u64],
    ) -> (FlashCosmosDevice, BloomFilter, Vec<usize>, Vec<u64>) {
        let candidates: Vec<u64> = (0..300).map(|j| 1000 + j * 7).collect();
        let mut filter = BloomFilter::new(hashes, 1024, &candidates);
        for &key in inserted {
            filter.insert(key);
        }
        let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let ids = filter.load(&mut dev, "bloom").unwrap();
        (dev, filter, ids, candidates)
    }

    #[test]
    fn indicator_vectors_mirror_the_partitions() {
        let candidates: Vec<u64> = (0..64).collect();
        let mut f = BloomFilter::new(4, 256, &candidates);
        for k in [3, 17, 40, 63, 900] {
            f.insert(k);
        }
        for (j, &c) in candidates.iter().enumerate() {
            for i in 0..f.hashes() {
                assert_eq!(
                    f.indicators()[i].get(j),
                    f.partitions[i].get(f.bucket(i, c)),
                    "indicator ({i}, {j}) out of sync"
                );
            }
        }
    }

    #[test]
    fn batched_membership_is_one_threshold_sense() {
        // Insert a subset of the candidates plus outside noise.
        let inserted: Vec<u64> = (0..40u64).map(|j| 1000 + j * 21).collect();
        let noise: Vec<u64> = (0..200u64).map(|j| 5_000_000 + j).collect();
        let all: Vec<u64> = inserted.iter().chain(&noise).copied().collect();
        let (mut dev, filter, ids, candidates) = loaded_filter(3, &all);
        let k = filter.hashes(); // exact Bloom semantics
        let (members, stats) = contains_batch(&mut dev, &ids, k).unwrap();
        // Bit-exact against host-side probing: inserted candidates all
        // pass (no false negatives), misses only on hash collisions.
        let mut false_positives = 0;
        for (j, &c) in candidates.iter().enumerate() {
            assert_eq!(members.get(j), filter.contains(c), "candidate {c}");
            if members.get(j) && !inserted.contains(&c) {
                false_positives += 1;
            }
        }
        assert!(inserted.iter().all(|&c| filter.contains(c)), "every inserted candidate must pass");
        assert!(false_positives < 30, "collision rate looks broken: {false_positives}");
        // k = H over a co-located group: one intra-block AND per stripe
        // (2 stripes of 300 candidate bits here).
        assert_eq!(stats.senses, 2);
    }

    #[test]
    fn relaxed_threshold_survives_a_lost_partition() {
        let inserted: Vec<u64> = (0..50u64).map(|j| 1000 + j * 14).collect();
        let (mut dev, filter, ids, candidates) = loaded_filter(4, &inserted);
        // Partition 2's indicator goes stale (all-zero, as after losing
        // the partition array): exact membership now under-reports...
        dev.fc_overwrite("bloom-h2", &BitVec::zeros(candidates.len())).unwrap();
        let (exact, _) = contains_batch(&mut dev, &ids, 4).unwrap();
        let dropped =
            candidates.iter().enumerate().filter(|&(j, &c)| filter.contains(c) && !exact.get(j));
        assert!(dropped.count() > 0, "a zeroed partition must break exact membership");
        // ...while the H−1 threshold keeps every true member, in one
        // dynamic sense per stripe.
        let (relaxed, stats) = contains_batch(&mut dev, &ids, 3).unwrap();
        for (j, &c) in candidates.iter().enumerate() {
            if filter.contains(c) {
                assert!(relaxed.get(j), "member candidate {c} must survive the lost partition");
            }
        }
        assert_eq!(stats.senses, 2, "threshold-(H−1) is one sense per stripe");
    }

    #[test]
    fn no_false_negatives_ever() {
        let inserted: Vec<u64> = (0..100u64).map(|j| 1000 + j * 7).collect(); // all candidates 0..100
        let (mut dev, _filter, ids, _) = loaded_filter(2, &inserted);
        let (members, _) = contains_batch(&mut dev, &ids, 2).unwrap();
        for j in 0..100 {
            assert!(members.get(j as usize), "inserted candidate index {j} reported absent");
        }
    }
}
