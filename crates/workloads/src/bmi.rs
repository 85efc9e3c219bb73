//! Bitmap Index (BMI, §7): daily login-activity vectors; the query ANDs
//! the past `m` months of days and counts the surviving users.

use fc_bits::BitVec;
use flash_cosmos::batch::{BatchStats, QueryBatch};
use flash_cosmos::device::{FcError, StoreHints};
use flash_cosmos::expr::Expr;
use flash_cosmos::WorkloadShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{FunctionalInstance, Query, StoredOperand};

/// Users tracked by the paper's database (§7: 800 million).
pub const PAPER_USERS: u64 = 800_000_000;

/// Days covered by `m` months (§7 sweeps m = 1..36; 36 months = 1095
/// days, matching the paper's "30 to 1,095 operands").
pub fn days_for_months(months: u32) -> u32 {
    (months * 365) / 12
}

/// The Fig. 17a / 18a month sweep as one batch of shapes, for
/// [`flash_cosmos::Engines::evaluate_batch`].
pub fn paper_shapes(months: &[u32]) -> Vec<WorkloadShape> {
    months.iter().map(|&m| paper_shape(m)).collect()
}

/// Paper-scale cost shape for Fig. 17a / 18a.
pub fn paper_shape(months: u32) -> WorkloadShape {
    WorkloadShape {
        name: format!("BMI m={months}"),
        queries: 1,
        and_operands: days_for_months(months) as u64,
        or_operands: 0,
        vector_bytes: PAPER_USERS / 8,
        result_popcount: true,
    }
}

/// A miniature functional BMI instance: `days` daily vectors over `users`
/// users, with a login-probability model that keeps some users active
/// every single day (so the query result is non-trivial).
pub fn mini(days: u32, users: usize, seed: u64) -> FunctionalInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every user logs in with their own daily probability; a slice of
    // power users is active (almost) every day.
    let user_prob: Vec<f64> =
        (0..users).map(|u| if u % 7 == 0 { 0.995 } else { rng.gen_range(0.3..0.9) }).collect();
    let day_vectors: Vec<BitVec> =
        (0..days).map(|_| BitVec::from_fn(users, |u| rng.gen_bool(user_prob[u]))).collect();

    let operands: Vec<StoredOperand> = day_vectors
        .iter()
        .enumerate()
        .map(|(d, v)| StoredOperand {
            name: format!("day{d}"),
            data: v.clone(),
            // All daily vectors are AND-ed → co-locate in one group.
            hints: StoreHints::and_group("bmi-days"),
        })
        .collect();

    let expected = day_vectors.iter().skip(1).fold(day_vectors[0].clone(), |acc, v| acc.and(v));
    let queries = vec![Query {
        label: format!("active every day for {days} days"),
        expr: Expr::and_vars(0..days as usize),
        expected,
    }];
    FunctionalInstance { name: "BMI".to_string(), operands, queries }
}

/// A batch of month-window filters over the same daily vectors: query
/// `m` ANDs the most recent `days_for_months(m)` daily operands (clamped
/// to the stored history). This is the §7 sweep as one submission — and
/// because a bitmap-index front end re-runs the same windows batch after
/// batch, the device's cross-batch result cache answers repeated windows
/// without re-sensing (only windows whose operands were overwritten since
/// re-execute).
///
/// # Panics
///
/// Panics if `day_ids` is empty.
pub fn month_filter_batch(day_ids: &[usize], months: &[u32]) -> flash_cosmos::QueryBatch {
    assert!(!day_ids.is_empty(), "month filters need at least one daily vector");
    months
        .iter()
        .map(|&m| {
            let days = (days_for_months(m).max(1) as usize).min(day_ids.len());
            Expr::and_vars(day_ids[day_ids.len() - days..].iter().copied())
        })
        .collect()
}

/// The query's final step: counting active users in the result vector.
pub fn count_active(result: &BitVec) -> usize {
    result.count_ones()
}

/// Users active on at least `k` of the stored days — the threshold-K
/// relaxation of the all-days AND filter. With the daily vectors
/// co-located in one `and_group`, every interior `k` (`1 < k < n`)
/// lowers to a **single dynamic threshold sense per stripe**; `k = n`
/// is the classic intra-block AND and `k = 1` the OR fallback.
///
/// # Errors
///
/// Propagates device failures ([`flash_cosmos::device::FcError`]).
pub fn active_at_least(
    dev: &mut flash_cosmos::FlashCosmosDevice,
    day_ids: &[usize],
    k: usize,
) -> Result<(u64, BatchStats), FcError> {
    let (v, stats) = dev.fc_read(&Expr::threshold_vars(k, day_ids.iter().copied()))?;
    Ok((count_active(&v) as u64, stats))
}

/// Exact total activity — the number of (user, day) active pairs —
/// computed entirely in-flash via the threshold staircase identity:
///
/// ```text
/// Σ_u days_active(u) = Σ_{k=1..n} |TH_k(day vectors)|
/// ```
///
/// (each user active on `d` days is counted by exactly the thresholds
/// `k ≤ d`). One threshold query per `k`; the interior ones are one
/// dynamic sense each.
///
/// # Errors
///
/// Propagates device failures ([`flash_cosmos::device::FcError`]).
///
/// # Panics
///
/// Panics if `day_ids` is empty.
pub fn total_activity_in_flash(
    dev: &mut flash_cosmos::FlashCosmosDevice,
    day_ids: &[usize],
) -> Result<(u64, BatchStats), FcError> {
    assert!(!day_ids.is_empty(), "the staircase needs at least one daily vector");
    let batch: QueryBatch =
        (1..=day_ids.len()).map(|k| Expr::threshold_vars(k, day_ids.iter().copied())).collect();
    let out = dev.submit(&batch)?;
    Ok((out.results.iter().map(|r| count_active(r) as u64).sum(), out.stats))
}

/// Approximate total activity: probes the staircase `c_k = |TH_k|` at
/// `probes` evenly spaced thresholds (always including `k = 1` and
/// `k = n`) and integrates the rest by linear interpolation — `c_k` is
/// monotone non-increasing in `k`, so the interpolation error is bounded
/// by the staircase's curvature between probes. Senses scale with
/// `probes`, not `n`.
///
/// # Errors
///
/// Propagates device failures ([`flash_cosmos::device::FcError`]).
///
/// # Panics
///
/// Panics if `probes < 2` or `day_ids.len() < 2`.
pub fn estimate_total_activity(
    dev: &mut flash_cosmos::FlashCosmosDevice,
    day_ids: &[usize],
    probes: usize,
) -> Result<(u64, BatchStats), FcError> {
    let n = day_ids.len();
    assert!(probes >= 2, "interpolation needs at least the two endpoint probes");
    assert!(n >= 2, "estimating over fewer than two days is just counting");
    let mut ks: Vec<usize> = (0..probes).map(|i| 1 + i * (n - 1) / (probes - 1)).collect();
    ks.dedup();
    let batch: QueryBatch =
        ks.iter().map(|&k| Expr::threshold_vars(k, day_ids.iter().copied())).collect();
    let out = dev.submit(&batch)?;
    let counts: Vec<f64> = out.results.iter().map(|r| count_active(r) as f64).collect();
    let mut total = 0.0;
    for w in 0..ks.len() - 1 {
        let (ka, kb) = (ks[w], ks[w + 1]);
        let (ca, cb) = (counts[w], counts[w + 1]);
        let span = (kb - ka) as f64;
        for k in ka..kb {
            let t = (k - ka) as f64 / span;
            total += ca + (cb - ca) * t;
        }
    }
    total += counts[ks.len() - 1]; // the k = n term closes the staircase
    Ok((total.round() as u64, out.stats))
}

/// Probability that the query result is bit-exact when each of `d`
/// operands carries independent bit errors at `rber` — the §7 argument
/// that BMI is error-intolerant ("Assuming a best-case RBER of 8.6×10⁻⁴
/// and m = 36, the probability of a correct output is 0.42").
pub fn correct_output_probability(users: u64, days: u32, rber: f64) -> f64 {
    // A single bit error in any operand position corrupts the output.
    // P(all correct) = (1 - rber)^(users × days) — evaluated in log space
    // because the exponent reaches ~10^12.
    let trials = users as f64 * days as f64;
    (trials * (1.0 - rber).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operand_counts() {
        assert_eq!(days_for_months(1), 30);
        assert_eq!(days_for_months(36), 1095);
        let s = paper_shape(36);
        assert_eq!(s.and_operands, 1095);
        assert_eq!(s.vector_bytes, 100_000_000);
        assert!(s.result_popcount);
    }

    #[test]
    fn mini_instance_is_consistent() {
        let inst = mini(10, 128, 1);
        assert_eq!(inst.operands.len(), 10);
        assert_eq!(inst.queries.len(), 1);
        let q = &inst.queries[0];
        // Ground truth really is the AND of all days.
        let manual =
            inst.operands.iter().skip(1).fold(inst.operands[0].data.clone(), |a, o| a.and(&o.data));
        assert_eq!(q.expected, manual);
        // Power users guarantee a non-empty, non-full result.
        assert!(q.expected.count_ones() > 0);
        assert!(q.expected.count_ones() < 128);
    }

    #[test]
    fn error_intolerance_matches_paper_math() {
        // §7: best-case RBER 8.6e-4... the paper's 0.42 figure follows a
        // per-result-bit model: an output bit is wrong only if an error
        // lands in a *surviving* position — effectively one critical
        // operand per result bit. Reproduce that model here.
        let p_correct = correct_output_probability(1_000, 1, 8.6e-4);
        assert!(p_correct < 0.5, "even 1000 bits × 1 day is unreliable: {p_correct}");
        // The exact paper figure: 0.42 ≈ (1 - 8.6e-4)^1000 — one error-
        // critical bit per user over the final AND tree.
        assert!((correct_output_probability(1_000, 1, 8.6e-4) - 0.42).abs() < 0.02);
    }

    #[test]
    fn count_active_is_popcount() {
        let v = BitVec::from_fn(100, |i| i < 7);
        assert_eq!(count_active(&v), 7);
    }

    #[test]
    fn month_filter_batch_windows_recent_days() {
        let ids: Vec<usize> = (10..70).collect(); // 60 stored days
        let batch = month_filter_batch(&ids, &[1, 2, 36]);
        assert_eq!(batch.len(), 3);
        // m=1 → 30 most recent days; m=2 → 60; m=36 clamps to history.
        assert_eq!(batch.queries()[0], Expr::and_vars(40..70));
        assert_eq!(batch.queries()[1], Expr::and_vars(10..70));
        assert_eq!(batch.queries()[2], Expr::and_vars(10..70));
    }

    #[test]
    fn threshold_staircase_counts_activity_exactly() {
        use fc_ssd::SsdConfig;
        use flash_cosmos::device::FlashCosmosDevice;

        let inst = mini(6, 256, 0xB142);
        let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let ids: Vec<usize> = inst
            .operands
            .iter()
            .map(|op| dev.fc_write(&op.name, &op.data, op.hints.clone()).unwrap().id)
            .collect();
        let host_total: u64 = inst.operands.iter().map(|op| op.data.count_ones() as u64).sum();
        let (total, stats) = total_activity_in_flash(&mut dev, &ids).unwrap();
        assert_eq!(total, host_total, "the staircase identity is exact");
        // The interior thresholds (k = 2..5) are one dynamic sense each;
        // only the k = 1 OR fallback senses per operand.
        assert!(stats.senses < 6 + 4 + 1 + 1, "interior thresholds must single-sense");
        // A single interior threshold is one sense (1 stripe here) —
        // clear the result cache so the staircase run doesn't answer it.
        dev.clear_result_cache();
        let (_, one) = active_at_least(&mut dev, &ids, 3).unwrap();
        assert_eq!(one.senses, 1);
    }

    #[test]
    fn estimated_activity_tracks_the_exact_staircase() {
        use fc_ssd::SsdConfig;
        use flash_cosmos::device::FlashCosmosDevice;

        let inst = mini(12, 256, 0xB143);
        let mut dev = FlashCosmosDevice::new(
            // 12 co-located daily vectors need 12 wordlines in a block.
            SsdConfig { wls_per_block: 16, ..SsdConfig::tiny_test() },
        );
        let ids: Vec<usize> = inst
            .operands
            .iter()
            .map(|op| dev.fc_write(&op.name, &op.data, op.hints.clone()).unwrap().id)
            .collect();
        let (exact, exact_stats) = total_activity_in_flash(&mut dev, &ids).unwrap();
        dev.clear_result_cache();
        let (approx, approx_stats) = estimate_total_activity(&mut dev, &ids, 5).unwrap();
        let err = approx.abs_diff(exact) as f64 / exact as f64;
        assert!(err < 0.05, "5-probe estimate off by {:.1}%", err * 100.0);
        assert!(
            approx_stats.senses < exact_stats.senses,
            "probing must sense less than the full staircase ({} vs {})",
            approx_stats.senses,
            exact_stats.senses
        );
    }

    #[test]
    fn repeated_month_sweeps_ride_the_result_cache() {
        use fc_ssd::SsdConfig;
        use flash_cosmos::device::FlashCosmosDevice;

        let inst = mini(8, 256, 0xB141);
        let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let ids: Vec<usize> = inst
            .operands
            .iter()
            .map(|op| dev.fc_write(&op.name, &op.data, op.hints.clone()).unwrap().id)
            .collect();
        let batch = month_filter_batch(&ids, &[1, 2, 3]);
        let cold = dev.submit(&batch).unwrap();
        assert!(cold.stats.senses > 0);
        let warm = dev.submit(&batch).unwrap();
        assert_eq!(warm.stats.senses, 0, "the re-run sweep is answered from cache");
        assert_eq!(warm.results, cold.results);
        // A new day's data arrives (overwrite one day): only fresh work.
        let replacement = BitVec::from_fn(256, |i| i % 3 == 0);
        dev.fc_overwrite("day7", &replacement).unwrap();
        let after = dev.submit(&batch).unwrap();
        assert!(after.stats.senses > 0, "touched windows re-sense");
        let manual = |days: std::ops::Range<usize>| {
            days.map(|d| if d == 7 { replacement.clone() } else { inst.operands[d].data.clone() })
                .reduce(|a, v| a.and(&v))
                .unwrap()
        };
        assert_eq!(after.results[0], manual(0..8));
    }
}
