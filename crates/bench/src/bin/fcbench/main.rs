//! # fcbench — the serving benchmark
//!
//! Measures the Flash-Cosmos serving stack end to end (host wall time, as
//! a user of the device sees it) and layer by layer (where that wall time
//! goes), on three workloads that stress different layers. Modeled device
//! time — the simulated critical path — is reported beside wall time as
//! its own metric and never mixed into it. Every query result is checked
//! against ground truth; a mismatch fails the run.
//!
//! The benchmark only calls the device's public API from outside and
//! times those calls; it adds no probes inside the program.
//!
//! ## Running
//!
//! ```text
//! cargo run --release -p fc-bench --bin fcbench -- run [--workload W] [--seed S]
//!     [--seconds N] [--trace 0|1] [--trace-out FILE] [--json FILE]
//! cargo run --release -p fc-bench --bin fcbench -- diff A.json B.json
//! ```
//!
//! The package also builds on its own, from the repository root:
//! `cargo run --release --manifest-path crates/bench/src/bin/fcbench/Cargo.toml -- run …`.
//!
//! Without `--workload`, `run` runs every workload, each in its own
//! process. A run is a fixed number of *rounds*; each round builds a fresh
//! device, preloads it, generates its population and ground truth, warms
//! up untimed, then measures a fixed operation count. The number of rounds
//! is `--seconds` (default 12) over the workload's nominal round time, at
//! least eight: it depends on the flag alone, never on the machine's
//! speed, so two commits measured with the same flag do the same work.
//! Round `k` draws its inputs from a seed derived from `--seed` and `k`, so
//! a seed fixes the inputs.
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! `--json FILE` also appends that object, tagged with workload and seed,
//! as one line of `FILE`. No operation of these workloads may fail: the
//! exit code is non-zero when any result differs from ground truth or any
//! query or write failed. A failed query is not counted in `qps`.
//!
//! `--trace 0` (the default) reports the end-to-end metrics. `--trace 1`
//! alternates untraced and traced rounds and reports the per-layer
//! metrics. The traced rounds record a span around each public call;
//! `--trace-out FILE` appends those spans to `FILE` as JSON lines. The
//! untraced rounds are the baseline for `trace.overhead_ratio`.
//!
//! `diff` reads two `--json` files of at least five runs per workload
//! each and refuses a file holding a run with a wrong result or a failed
//! operation. For every workload × metric it prints each side's median and
//! quartiles. Each end-to-end metric gets a verdict against its bound in
//! `BENCHMARK.json`. It is *unresolved* when either side's quartile
//! spread, as a share of its median, exceeds the bound. It is a
//! *regression* when B's median is worse than A's by more than the
//! bound. `diff` exits non-zero on any regression or unresolved metric.
//!
//! ## Workloads
//!
//! All clients are closed loops: a client sends its next request only
//! after the previous one returned, and nothing sleeps to emulate device
//! dwell. Clients draw traffic from the seed inside their loop, outside
//! the per-operation timers, so latency samples are the only per-op
//! storage and `peak_rss_mb` measures the device, not pre-drawn traffic.
//!
//! * **`hot_serve`** — the hot read path under contention. Two client
//!   threads share one device and loop `submit_async` → `drain` →
//!   `Ticket::wait`, draining and retrying on `Overloaded`. The geometry is
//!   `tiny_test` widened to 8 channels × 4 dies with 64 blocks per plane
//!   and 32-byte pages. `CoQueryWorkload::scattered` writes 256 operands
//!   (one placement group each) and ranks 4 096 four-operand AND sets,
//!   drawn Zipf θ = 0.9, 4 queries per batch. The result cache keeps its
//!   default of 256 entries, about half the hot working set. Warm-up is
//!   2 000 batches per client, then 5 000 measured batches per client per
//!   round; a 12 s run makes 18 rounds.
//!   *Why:* the pages are tiny, so chip work is negligible and the cost
//!   is compile, session, lock and cache work under contention. It shows
//!   whether serving scales with clients.
//! * **`bmi_scan`** — the chip-heavy bitmap-index scan of §7. One client
//!   calls synchronous `submit`. The geometry is 4 channels × 2 dies × 2
//!   planes, 32 blocks per plane, 48-wordline strings and 16 KiB pages.
//!   The data are 365 daily vectors of 1 Mi users (8 stripes) in one
//!   `and_group`. The population is 2 048 queries: three quarters AND
//!   windows of 30–48 consecutive days, one quarter
//!   `threshold_vars(L − 2, …)` windows of 12–24 days inside one 48-day
//!   block. Each batch is 8 queries drawn uniformly. Warm-up is 25
//!   batches, then 200 measured batches per round; a 12 s run makes the
//!   minimum of 8 rounds, about 15 s.
//!   Ground truth is folded word-parallel at set-up and kept as one 64-bit
//!   digest per query, so the population does not hold 2 048 result
//!   vectors.
//!   *Why:* MWS and threshold sensing, the `fc_bits` folds and the
//!   cross-block merge dominate; the async session and maintenance are
//!   bypassed and compile is minor. SIMD and timing-model work show here
//!   and not in `hot_serve`.
//! * **`overwrite_mix`** — writes beside reads. One client; each step is
//!   an `fc_overwrite` of fresh data (25 %, operand drawn Zipf θ = 0.8) or
//!   a 4-query batch through `submit_async` → `drain` → `wait` (75 %), and
//!   every 256th step also calls `schedule_maintenance()`. The geometry is
//!   4 channels × 2 dies × 2 planes, 4 096 blocks per plane, 8-wordline
//!   strings and 512-byte pages. Traffic is `CoQueryWorkload::scattered`
//!   with 512 operands and 4 096 three-operand AND sets drawn Zipf θ = 1.0.
//!   Warm-up is 10 000 steps, then 20 000 measured steps per round (8
//!   rounds in a 12 s run); a round stays far below the page budget, which
//!   matters because the FTL never erases.
//!   *Why:* it exercises the write path, generation invalidation of the
//!   cache, stale recompiles and the maintenance layer, so a read-path
//!   gain that costs writes or invalidation shows here. Garbage
//!   collection and a metadata journal would be measured here too.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | device build, preload writes, population and ground truth |
//! | `qps` | queries/s | queries answered ÷ measured-phase wall time |
//! | `batch_p50_us`, `batch_p90_us` | µs | wall time from submit to results in hand, per batch |
//! | `write_p50_us`, `write_p90_us` | µs | wall time per `fc_overwrite` of fresh data: the measured phase's on `overwrite_mix`; on the read-only workloads, a write probe after the measured phase (4 096 overwrites on `hot_serve`, 128 on `bmi_scan`, operands drawn uniformly), because every end-to-end metric is reported, non-zero, on every workload |
//! | `modeled_us_per_query` | modeled µs | Σ modeled critical path per device pass (`DrainStats::combined_critical_path_us`, or `BatchStats::critical_path_us` for a synchronous submit) ÷ queries answered |
//! | `peak_rss_mb` | MiB | `VmHWM` of the workload's process |
//!
//! Each round repeats its set-up a fixed number of times (20 on
//! `hot_serve`, 1 on `bmi_scan`, 5 on `overwrite_mix`; every repetition
//! draws the same inputs), and `setup_s` is the median of every set-up of
//! the run. Every other wall time is taken per round and reported as the
//! quartile of the run's rounds on the better side: the third quartile of
//! `qps`, the first of each latency. Other load on
//! the machine only ever slows a round, so the faster rounds are the
//! closer to the code's own speed, and a quartile rather than the fastest
//! round keeps the estimate steady. `modeled_us_per_query` pools every
//! round; `peak_rss_mb` is the process peak. Failed operations are counted
//! in the result's `failed` field and in the per-layer `client.fail_ratio`,
//! and fail the run; a failure ratio cannot be an end-to-end metric here,
//! because on these workloads it is always zero.
//!
//! The bounds in `BENCHMARK.json` are 3 % for `modeled_us_per_query`,
//! 10 % for `peak_rss_mb` and 25 % for every wall time. The wall-time
//! bounds are that wide because of the machine the benchmark was
//! calibrated on, a 2-vCPU KVM guest on a Xeon host whose 300 MiB L3 is
//! shared with other tenants. Its speed drifts by 10–35 % over seconds to
//! minutes, and CPU time drifts with wall time, so the slowdown is not
//! preemption. The drift moves every workload alike: runs made one after
//! another read alike, whatever their workload and seed. No estimator over
//! rounds cancels it, and longer runs make it worse, because ten runs then
//! span more of it: over four alternating blocks of ten consecutive
//! `overwrite_mix` runs, 12 s runs gave a `qps` quartile spread of 7.0–10.7 %
//! of the median and 25 s runs 8.3–15.4 % (`write_p90_us` 8.5–17.8 %
//! against 11.2–23.7 %). Hence runs are 12 s. Measured spreads of ten 12 s
//! runs per workload, in two alternating sets, while the host was busy:
//! `hot_serve` 5–22 % on wall times and `overwrite_mix` 10–24 %, both
//! within the bounds. `bmi_scan` reached 21–31 % on `qps`, batch latency
//! and `setup_s` (its 46 MB of vectors live in the shared L3), so
//! `fcbench diff` called those unresolved, though the two sets' medians
//! agreed within 4.1 % (10.4 % for `setup_s`). `modeled_us_per_query`
//! stayed within 0.9 % and `peak_rss_mb` within 1.7 %. On a quieter host,
//! wall-time spreads were 2–13 %. A 10 % bound on a wall time would leave
//! most comparisons unresolved on this machine.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Names are `<module>.<metric>`. Self time is a span's duration minus the
//! part its child spans cover; `<module>.self_share` is that module's
//! self time over the summed `client.request` time. Spans are
//! `client.request` (the root: traffic generation, the calls below, and
//! verification) with children `session.submit_async`, `session.drain`,
//! `session.wait`, `batch.submit`, `device.fc_overwrite` and
//! `maintenance.schedule`. Counts are per round. Each row says which
//! end-to-end metric the layer should move, and on which workload it
//! does most of the work (▲) or almost none (▽):
//!
//! | metrics | should move | where |
//! |---|---|---|
//! | `session.{submit_async,drain,wait}_us_{p50,p99}`, `session.overloaded_per_batch`, `session.batches_per_drain`, `session.self_share` | `qps`, `batch_p50_us` | ▲ `hot_serve`, ▽ `bmi_scan` |
//! | `session.cache_hit_ratio`, `session.cache_{evictions,rejections}_per_kq` | `qps`, `modeled_us_per_query` | ▲ `hot_serve`, lower on `overwrite_mix`, ▽ `bmi_scan` |
//! | `batch.submit_us_{p50,p99}`, `batch.merge_wall_us_per_query` (host wall), `batch.self_share` | `qps`, `batch_p50_us` | ▲ `bmi_scan`, ▽ `hot_serve` |
//! | `batch.{senses_per_query,senses_saved_ratio,dedup_ratio,cached_units_per_query,dies_used_mean}` | `modeled_us_per_query` | all |
//! | `pipeline.{busiest_die_us_per_query,busiest_channel_us_per_query,channel_bound_ratio,overlap_saved_ratio,die_load_imbalance}` | `modeled_us_per_query` | ▲ `bmi_scan` |
//! | `device.fc_overwrite_us_{p50,p99}`, `device.fc_write_us_p50` (preload), `device.self_share` | `write_p*_us`, `setup_s` | ▲ `overwrite_mix`, ▽ others |
//! | `maintenance.{schedule_us_p50,jobs_scheduled,jobs_executed,jobs_deferred,jobs_retired,applied_ratio,pages_moved,self_share}` | `batch_p90_us`, `modeled_us_per_query` | ▲ `overwrite_mix`, ▽ others |
//! | `recovery.lost_pages` (`health().uncorrectable_after_recovery`) | failures | all |
//! | `client.batch_p99_us`, `client.self_share`, `client.coverage`, `client.fail_ratio`, `trace.overhead_ratio` | — | all |
//!
//! `client.coverage` is the summed `client.request` time over the
//! clients' measured wall time: the share of wall time the per-layer self
//! times account for. `trace.overhead_ratio` is
//! `1 − traced qps ÷ untraced qps` (each the third quartile over its
//! rounds). Batch p99 is
//! per-layer rather than end-to-end because it swings too much between
//! runs to gate on.
//!
//! ## Open questions (left to later work)
//!
//! First seen while prototyping this benchmark and reproduced with it on a
//! 2-vCPU KVM guest (Xeon host):
//!
//! 1. `hot_serve` does not scale with clients: one client served about
//!    86 k queries/s, two served 79–91 k.
//! 2. On `overwrite_mix`, scheduling maintenance every 256 steps cuts the
//!    result-cache hit ratio from 0.54 to 0.19, raises modeled µs per query
//!    from 10.6 to 14.9, and lowers qps from about 98 k to 63 k.
//! 3. `overwrite_mix` is single-threaded, yet runs with the same seed
//!    differ: `modeled_us_per_query` ranged from 14.73 to 14.82 µs over five
//!    runs, because the maintenance counts differ. The likely cause is that
//!    `AffinityTracker`'s coldest-entry eviction breaks ties in `HashMap`
//!    iteration order.

mod diff;
mod json;
mod report;
mod trace;
mod workloads;

use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::process::{Command, ExitCode};

use report::Metric;
use workloads::{mix, Params, Round, Workload};

const USAGE: &str = "usage:
  fcbench run [--workload hot_serve|bmi_scan|overwrite_mix] [--seed S] [--seconds N]
              [--trace 0|1] [--trace-out FILE] [--json FILE]
  fcbench diff A.json B.json";

/// Rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 8;

/// Rounds a run of `seconds` makes: `seconds` over the workload's nominal
/// round time, at least [`MIN_ROUNDS`]. The count depends on the flag
/// alone, never on how fast the machine runs, so two commits measured with
/// the same flag do the same work.
fn rounds_for(w: Workload, seconds: u64) -> usize {
    let rounds = seconds.saturating_mul(1000) / w.nominal_round_ms();
    usize::try_from(rounds).unwrap_or(usize::MAX).max(MIN_ROUNDS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("diff") => diff::main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
    json: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a =
        RunArgs { workload: None, seed: 1, seconds: 12, trace: false, trace_out: None, json: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?,
            "--trace" => match value.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--trace-out" => {
                a.trace = true;
                a.trace_out = Some(value.clone());
            }
            "--json" => a.json = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> ExitCode {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = a.workload else {
        // One process per workload, one after another.
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("fcbench: cannot find own executable: {e}");
                return ExitCode::FAILURE;
            }
        };
        for w in Workload::ALL {
            let status =
                Command::new(&exe).arg("run").args(args).args(["--workload", w.name()]).status();
            if !status.is_ok_and(|s| s.success()) {
                eprintln!("fcbench: workload {} failed", w.name());
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    };

    let rounds = measure(&Params::full(workload), a.seed, rounds_for(workload, a.seconds), a.trace);
    let (correct, attempted, failed) = report::outcome(&rounds);
    let (traced, untraced): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let metrics =
        if a.trace { report::per_layer(&traced, &untraced) } else { report::end_to_end(&untraced) };

    let batches: usize = rounds.iter().flat_map(|r| &r.clients).map(|t| t.batch_ns.len()).sum();
    let writes: usize = rounds.iter().flat_map(|r| &r.clients).map(|t| t.write_ns.len()).sum();
    println!(
        "fcbench {}: seed {}, {} rounds ({} traced), {batches} batches and {writes} writes timed, \
         {attempted} operations, {failed} failed, results {}",
        workload.name(),
        a.seed,
        rounds.len(),
        traced.len(),
        if correct { "exact" } else { "WRONG" },
    );
    for (k, r) in rounds.iter().enumerate() {
        println!("  {}", report::round_line(k, r));
    }
    for m in &metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let result = result_json(correct, attempted, failed, &metrics);
    if let Err(e) = write_outputs(&a, workload, &rounds, &result) {
        eprintln!("fcbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{result}");
    // No operation of these workloads may fail: a failed query is neither
    // answered nor counted in `qps`, and it fails the run.
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `rounds` rounds; round `k` draws its inputs from `mix(seed, k)`. A
/// traced run alternates untraced and traced rounds.
fn measure(params: &Params, seed: u64, rounds: usize, trace: bool) -> Vec<Round> {
    (0..rounds).map(|k| params.round(mix(seed, k as u64), trace && k % 2 == 1)).collect()
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

/// Appends the run record (`--json`) and the spans (`--trace-out`).
fn write_outputs(a: &RunArgs, w: Workload, rounds: &[Round], result: &str) -> std::io::Result<()> {
    let append =
        |path: &str| OpenOptions::new().create(true).append(true).open(path).map(BufWriter::new);
    if let Some(path) = &a.json {
        let mut out = append(path)?;
        let tag = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},",
            w.name(),
            a.seed,
            u8::from(a.trace)
        );
        writeln!(out, "{tag}{}", &result[1..])?;
        out.flush()?;
    }
    if let Some(path) = &a.trace_out {
        let mut out = append(path)?;
        for (k, r) in rounds.iter().enumerate().filter(|(_, r)| r.traced) {
            for (thread, spans) in r.spans.iter().enumerate() {
                trace::write_jsonl(&mut out, w.name(), k, thread, spans)?;
            }
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at about a hundred operations (debug build, audit
    /// armed): results exact, nothing failed, and exactly the metrics
    /// `BENCHMARK.json` names are emitted.
    #[test]
    fn smoke_every_workload_is_exact_and_emits_the_declared_metrics() {
        let (end_to_end, per_layer) = diff::declared().expect("BENCHMARK.json parses");
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        for w in Workload::ALL {
            let rounds = measure(&Params::smoke(w), 7, 2, true);
            let (correct, attempted, failed) = report::outcome(&rounds);
            assert!(correct, "{}: a result differs from ground truth", w.name());
            assert!(attempted >= 100, "{}: only {attempted} operations", w.name());
            assert_eq!(failed, 0, "{}", w.name());
            let (traced, untraced): (Vec<&Round>, Vec<&Round>) =
                rounds.iter().partition(|r| r.traced);
            let e2e = report::end_to_end(&untraced);
            let layers = report::per_layer(&traced, &untraced);
            assert_eq!(names(&e2e), end_to_end.iter().map(|d| d.name.clone()).collect::<Vec<_>>());
            assert_eq!(
                names(&layers),
                per_layer.iter().map(|d| d.name.clone()).collect::<Vec<_>>()
            );
            for m in &e2e {
                assert!(m.value > 0.0, "{}: end-to-end {} is {}", w.name(), m.name, m.value);
            }
            let fail_ratio = layers.iter().find(|m| m.name == "client.fail_ratio").unwrap();
            assert_eq!(fail_ratio.value, 0.0);
            let json = result_json(correct, attempted, failed, &e2e);
            assert!(json::parse(&json).is_ok(), "result line is JSON: {json}");
        }
    }

    /// The standalone package builds with its own `[profile.release]`; it
    /// must stay the workspace's, or a change to the workspace's build
    /// settings would not be measured as built.
    #[test]
    fn release_profile_matches_the_workspace() {
        fn release(manifest: &str) -> Vec<&str> {
            let lines = manifest.lines().skip_while(|l| l.trim() != "[profile.release]").skip(1);
            lines
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let own = release(include_str!("Cargo.toml"));
        assert!(!own.is_empty(), "the package sets its release profile");
        assert_eq!(own, release(include_str!("../../../../../Cargo.toml")));
    }
}
