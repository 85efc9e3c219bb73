//! Turns a run's rounds into named metrics: the end-to-end set from the
//! untraced rounds, the per-layer set from the traced ones.

use crate::diff::quartiles;
use crate::trace::{self, Layer};
use crate::workloads::{Round, Tally};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples, in µs (0 when empty).
fn pct_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 * 1e-3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(samples: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.collect();
    v.sort_unstable();
    v
}

fn batch_ns(r: &Round) -> Vec<u64> {
    sorted(r.clients.iter().flat_map(|t| t.batch_ns.iter().copied()))
}

fn write_ns(r: &Round) -> Vec<u64> {
    sorted(r.clients.iter().flat_map(|t| t.write_ns.iter().copied()))
}

fn qps(r: &Round) -> f64 {
    ratio(r.clients.iter().map(|t| t.queries).sum::<u64>() as f64, r.wall_s)
}

/// Σ over every client of every round.
fn total(rounds: &[&Round], f: impl Fn(&Tally) -> f64) -> f64 {
    rounds.iter().flat_map(|r| &r.clients).map(f).sum()
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One round's headline numbers, with their sample counts.
pub fn round_line(k: usize, r: &Round) -> String {
    let (batches, writes) = (batch_ns(r), write_ns(r));
    format!(
        "round {k}{}: setup median {:.4} s (n={}), {:.0} queries/s, batch p50 {:.1} p90 {:.1} us \
         (n={}), write p50 {:.2} p90 {:.2} us (n={})",
        if r.traced { " (traced)" } else { "" },
        median(r.setup_s.clone()),
        r.setup_s.len(),
        qps(r),
        pct_us(&batches, 0.5),
        pct_us(&batches, 0.9),
        batches.len(),
        pct_us(&writes, 0.5),
        pct_us(&writes, 0.9),
        writes.len(),
    )
}

/// Whether every answered query matched ground truth, plus operations
/// attempted and failed, over all rounds.
pub fn outcome(rounds: &[Round]) -> (bool, u64, u64) {
    let all: Vec<&Round> = rounds.iter().collect();
    let wrong = total(&all, |t| t.wrong as f64);
    let attempted = total(&all, |t| (t.queries + t.writes + t.failed) as f64);
    let failed = total(&all, |t| t.failed as f64);
    (wrong == 0.0, attempted as u64, failed as u64)
}

/// The quartile of the rounds' values on the better side: the third of a
/// higher-is-better metric, the first otherwise (Python's exclusive
/// method). Other load on the machine only ever slows a round, so the
/// faster rounds are the closer to the code's own speed; a quartile
/// rather than the extreme keeps the estimate steady.
fn better_quartile(rounds: &[&Round], higher: bool, f: impl Fn(&Round) -> f64) -> f64 {
    let values: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
    match values.len() {
        0 => 0.0,
        1 => values[0],
        _ => quartiles(&values)[if higher { 2 } else { 0 }],
    }
}

/// The end-to-end metrics, from untraced rounds: `setup_s` is the median
/// of every set-up in the run, every other wall time the better quartile
/// over rounds, and modeled time is pooled over all rounds.
pub fn end_to_end(rounds: &[&Round]) -> Vec<Metric> {
    let faster = |f: fn(&Round) -> f64| better_quartile(rounds, false, f);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(rounds.iter().flat_map(|r| r.setup_s.iter().copied()).collect())),
        m("qps", "queries/s", better_quartile(rounds, true, qps)),
        m("batch_p50_us", "us", faster(|r| pct_us(&batch_ns(r), 0.5))),
        m("batch_p90_us", "us", faster(|r| pct_us(&batch_ns(r), 0.9))),
        m("write_p50_us", "us", faster(|r| pct_us(&write_ns(r), 0.5))),
        m("write_p90_us", "us", faster(|r| pct_us(&write_ns(r), 0.9))),
        m(
            "modeled_us_per_query",
            "us",
            ratio(total(rounds, |t| t.modeled_us), total(rounds, |t| t.queries as f64)),
        ),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

/// The per-layer metrics, pooled over the traced rounds; the untraced
/// rounds give the baseline of `trace.overhead_ratio`.
pub fn per_layer(traced: &[&Round], untraced: &[&Round]) -> Vec<Metric> {
    let layers = trace::aggregate(traced.iter().flat_map(|r| r.spans.iter().map(Vec::as_slice)));
    let none = Layer::default();
    let layer = |name: &str| layers.get(name).unwrap_or(&none);
    let p = |name: &str, q: f64| pct_us(&layer(name).durs_ns, q);
    let request_ns = layer("client.request").durs_ns.iter().sum::<u64>() as f64;
    let self_share = |prefix: &str| {
        let own: u64 = layers
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(prefix))
            .map(|(_, l)| l.self_ns)
            .sum();
        ratio(own as f64, request_ns)
    };
    let sum = |f: fn(&Tally) -> f64| total(traced, f);
    let queries = sum(|t| t.queries as f64);
    let batches = sum(|t| t.batches as f64);
    let passes = sum(|t| t.passes as f64);
    let rounds = traced.len().max(1) as f64;
    let per_round = |f: fn(&Tally) -> f64| sum(f) / rounds;
    let cache = |f: fn(&Round) -> u64| traced.iter().map(|r| f(r) as f64).sum::<f64>();
    let (hits, misses) = (cache(|r| r.cache.hits), cache(|r| r.cache.misses));
    let setup_writes = sorted(traced.iter().flat_map(|r| r.setup_write_ns.iter().copied()));
    let all_batches = sorted(traced.iter().flat_map(|r| batch_ns(r)));
    let scheduled = sum(|t| t.jobs_scheduled as f64);
    let executed = sum(|t| t.jobs_executed as f64);
    let everything: Vec<&Round> = traced.iter().chain(untraced).copied().collect();
    let failed = total(&everything, |t| t.failed as f64);
    let attempted = total(&everything, |t| (t.queries + t.writes + t.failed) as f64);
    let client_wall_ns = sum(|t| t.wall_ns as f64);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("session.submit_async_us_p50", "us", p("session.submit_async", 0.5)),
        m("session.submit_async_us_p99", "us", p("session.submit_async", 0.99)),
        m("session.drain_us_p50", "us", p("session.drain", 0.5)),
        m("session.drain_us_p99", "us", p("session.drain", 0.99)),
        m("session.wait_us_p50", "us", p("session.wait", 0.5)),
        m("session.wait_us_p99", "us", p("session.wait", 0.99)),
        m("session.overloaded_per_batch", "1/batch", ratio(sum(|t| t.overloaded as f64), batches)),
        m(
            "session.batches_per_drain",
            "batches",
            ratio(sum(|t| t.drained_batches as f64), sum(|t| t.drains as f64)),
        ),
        m("session.self_share", "ratio", self_share("session")),
        m("session.cache_hit_ratio", "ratio", ratio(hits, hits + misses)),
        m(
            "session.cache_evictions_per_kq",
            "1/kq",
            ratio(1e3 * cache(|r| r.cache.evictions), queries),
        ),
        m(
            "session.cache_rejections_per_kq",
            "1/kq",
            ratio(1e3 * cache(|r| r.cache.rejections), queries),
        ),
        m("batch.submit_us_p50", "us", p("batch.submit", 0.5)),
        m("batch.submit_us_p99", "us", p("batch.submit", 0.99)),
        m("batch.merge_wall_us_per_query", "us", ratio(sum(|t| t.merge_us), queries)),
        m("batch.self_share", "ratio", self_share("batch")),
        m("batch.senses_per_query", "senses", ratio(sum(|t| t.senses as f64), queries)),
        m("batch.senses_saved_ratio", "ratio", {
            let serial = sum(|t| t.serial_senses as f64);
            ratio(serial - sum(|t| t.senses as f64), serial)
        }),
        m("batch.dedup_ratio", "ratio", ratio(sum(|t| t.deduped as f64), queries)),
        m("batch.cached_units_per_query", "units", ratio(sum(|t| t.cached_units as f64), queries)),
        m("batch.dies_used_mean", "dies", ratio(sum(|t| t.dies_used as f64), batches)),
        m("pipeline.busiest_die_us_per_query", "us", ratio(sum(|t| t.busiest_die_us), queries)),
        m(
            "pipeline.busiest_channel_us_per_query",
            "us",
            ratio(sum(|t| t.busiest_channel_us), queries),
        ),
        m("pipeline.channel_bound_ratio", "ratio", ratio(sum(|t| t.channel_bound as f64), passes)),
        m(
            "pipeline.overlap_saved_ratio",
            "ratio",
            ratio(sum(|t| t.overlap_saved_us), sum(|t| t.serial_path_us)),
        ),
        m(
            "pipeline.die_load_imbalance",
            "ratio",
            median(traced.iter().map(|r| r.die_imbalance).collect()),
        ),
        m("device.fc_overwrite_us_p50", "us", p("device.fc_overwrite", 0.5)),
        m("device.fc_overwrite_us_p99", "us", p("device.fc_overwrite", 0.99)),
        m("device.fc_write_us_p50", "us", pct_us(&setup_writes, 0.5)),
        m("device.self_share", "ratio", self_share("device")),
        m("maintenance.schedule_us_p50", "us", p("maintenance.schedule", 0.5)),
        m("maintenance.jobs_scheduled", "1/round", scheduled / rounds),
        m("maintenance.jobs_executed", "1/round", executed / rounds),
        m("maintenance.jobs_deferred", "1/round", per_round(|t| t.jobs_deferred as f64)),
        m("maintenance.jobs_retired", "1/round", per_round(|t| t.jobs_retired as f64)),
        m("maintenance.applied_ratio", "ratio", ratio(executed, scheduled)),
        m("maintenance.pages_moved", "1/round", per_round(|t| t.pages_moved as f64)),
        m("maintenance.self_share", "ratio", self_share("maintenance")),
        m(
            "recovery.lost_pages",
            "pages",
            traced.iter().map(|r| r.lost_pages as f64).fold(0.0, f64::max),
        ),
        m("client.batch_p99_us", "us", pct_us(&all_batches, 0.99)),
        m("client.self_share", "ratio", self_share("client")),
        m("client.coverage", "ratio", ratio(request_ns, client_wall_ns)),
        m("client.fail_ratio", "ratio", ratio(failed, attempted)),
        m(
            "trace.overhead_ratio",
            "ratio",
            1.0 - ratio(better_quartile(traced, true, qps), better_quartile(untraced, true, qps)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_nearest_rank_percentiles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(pct_us(&ns, 0.5), 50.0);
        assert_eq!(pct_us(&ns, 0.9), 90.0);
        assert_eq!(pct_us(&ns, 0.99), 99.0);
        assert_eq!(pct_us(&[], 0.5), 0.0);
    }
}
