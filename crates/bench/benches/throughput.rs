//! Sustained multi-threaded serving throughput: N worker threads drive
//! Zipf-skewed AND co-query traffic (`fc_workloads::skew`) at one shared
//! `Arc<FlashCosmosDevice>` through the bounded async session —
//! `submit_async` with drain-and-retry on `FcError::Overloaded`, then
//! `wait` — and the bench reports queries/second per worker count plus
//! the p50/p99 *modeled* batch latency (per-batch die-parallel critical
//! path, µs) of the exact same traffic.
//!
//! Each worker paces its loop by **emulated device dwell**: after a
//! batch's results return, the worker parks for the batch's modeled
//! critical path before issuing its next request, the way a host thread
//! on a real Flash-Cosmos SSD would spend that wall time waiting on the
//! device. Served wall time is therefore software serving cost plus
//! modeled device time — and scaling across workers measures exactly
//! what the concurrent serving core is for: overlapping many in-flight
//! batches' device dwell (and, on multi-core hosts, the software path
//! too). A serving layer that serialized submit→drain→wait behind one
//! exclusive lock would show no scaling here regardless of core count.
//!
//! The result cache is disabled, so every batch pays the full compile +
//! simulated-sensing cost: the numbers measure the serving core's
//! scaling, not cache recurrence on the hot ranks. No maintenance runs
//! either: the bench never plans regroup jobs, so drains have none to
//! execute.

use std::sync::Arc;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fc_ssd::SsdConfig;
use fc_workloads::skew::CoQueryWorkload;
use flash_cosmos::{FcError, FlashCosmosDevice, QueryBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OPERANDS: usize = 32;
const SETS: usize = 64;
const SET_SIZE: usize = 4;
const THETA: f64 = 1.1;
/// Batches served per epoch, split evenly across the workers.
const BATCHES: usize = 32;
const QUERIES_PER_BATCH: usize = 4;
const SEED: u64 = 0x05EE_D707;

/// The multi-die serving config: the tiny functional geometry widened
/// to 8 channels × 4 dies (32 dies), so scattered operands land on
/// mostly disjoint dies and concurrent batches overlap in the device
/// model. Small pages keep the simulator's software cost per batch well
/// under the modeled device time the workers emulate.
fn serving_config() -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.channels = 8;
    cfg.dies_per_channel = 4;
    cfg
}

/// The pre-loaded shared device plus each worker's pre-drawn batch
/// sequence (drawn once, outside the timed region, so every epoch and
/// every worker count serves identical traffic per worker slot).
struct Serving {
    dev: Arc<FlashCosmosDevice>,
    per_worker: Vec<Vec<QueryBatch>>,
}

fn setup(workers: usize) -> Serving {
    let wl = CoQueryWorkload::scattered(serving_config(), OPERANDS, SETS, SET_SIZE, THETA, SEED)
        .expect("workload setup");
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xD1E5);
    let share = BATCHES / workers;
    let per_worker = (0..workers)
        .map(|_| (0..share).map(|_| wl.zipf_batch(QUERIES_PER_BATCH, &mut rng).0).collect())
        .collect();

    let dev = wl.dev;
    dev.set_result_cache_capacity(0);
    Serving { dev: Arc::new(dev), per_worker }
}

/// Serves one epoch: every worker submits its batch sequence in program
/// order (drain-and-retry on backpressure), waits each ticket, then
/// parks for the batch's modeled critical path (the emulated device
/// dwell). Returns all modeled latencies; wall time is what the harness
/// measures around the call.
fn serve_epoch(serving: &Serving) -> Vec<f64> {
    let lat = Mutex::new(Vec::with_capacity(BATCHES));
    thread::scope(|scope| {
        for batches in &serving.per_worker {
            let dev = Arc::clone(&serving.dev);
            let lat = &lat;
            scope.spawn(move || {
                let mut own = Vec::with_capacity(batches.len());
                for batch in batches {
                    let ticket = loop {
                        match dev.submit_async(batch) {
                            Ok(t) => break t,
                            Err(FcError::Overloaded { .. }) => {
                                dev.drain().expect("drain under load");
                            }
                            Err(e) => panic!("submit_async: {e}"),
                        }
                    };
                    let results = ticket.wait(&dev).expect("wait");
                    assert!(results.failures.is_empty());
                    let dwell_us = results.stats.critical_path_us;
                    own.push(dwell_us);
                    thread::sleep(Duration::from_micros(dwell_us as u64));
                }
                lat.lock().unwrap().extend(own);
            });
        }
    });
    lat.into_inner().unwrap()
}

/// Like [`serve_epoch`], but workers pace against a cumulative dwell
/// *deadline* (`epoch start + Σ dwell so far`) instead of sleeping each
/// batch's dwell separately. A bare `thread::sleep` overshoots by up to
/// a scheduler quantum; per-batch sleeps accumulate that overshoot (~8
/// batches × ~1 ms), which would swamp the smaller dwell points of the
/// channel sweep. Deadline pacing self-corrects — an overshoot eats
/// into the next batch's park — so epoch wall time tracks
/// `max(software cost, modeled dwell)` per worker, the way a host
/// keeping a real device busy would behave.
fn serve_epoch_paced(serving: &Serving) -> Vec<f64> {
    let lat = Mutex::new(Vec::with_capacity(BATCHES));
    thread::scope(|scope| {
        for batches in &serving.per_worker {
            let dev = Arc::clone(&serving.dev);
            let lat = &lat;
            scope.spawn(move || {
                let start = std::time::Instant::now();
                let mut own = Vec::with_capacity(batches.len());
                let mut dwell_total = 0.0f64;
                for batch in batches {
                    let ticket = loop {
                        match dev.submit_async(batch) {
                            Ok(t) => break t,
                            Err(FcError::Overloaded { .. }) => {
                                dev.drain().expect("drain under load");
                            }
                            Err(e) => panic!("submit_async: {e}"),
                        }
                    };
                    let results = ticket.wait(&dev).expect("wait");
                    assert!(results.failures.is_empty());
                    let dwell_us = results.stats.critical_path_us;
                    own.push(dwell_us);
                    dwell_total += dwell_us;
                    let deadline = start + Duration::from_micros(dwell_total as u64);
                    let now = std::time::Instant::now();
                    if deadline > now {
                        thread::sleep(deadline - now);
                    }
                }
                lat.lock().unwrap().extend(own);
            });
        }
    });
    lat.into_inner().unwrap()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The channel-scaling sweep geometry: a fixed 8-die SSD whose dies are
/// shared by 1, 2, 4 or 8 channels. Die parallelism is constant across
/// the sweep — the only variable is how many channel buses the output
/// transfers share. The bus is deliberately slow (32 B page at 50 KB/s
/// → 640 µs per transfer vs 25 µs per MWS sense split 8 ways): on the
/// 32-byte test pages this reproduces the transfer pressure a real
/// 16 KiB-page geometry sees with 8-way die interleaving per channel,
/// and it keeps the modeled device dwell far above the simulator's
/// software cost per epoch — so wall-clock qps tracks the model and
/// adding channels is what buys throughput.
fn channel_config(channels: usize) -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.channels = channels;
    cfg.dies_per_channel = 8 / channels;
    cfg.channel_gbps = 0.000_05;
    cfg
}

/// Queries per channel-sweep batch: wide enough that one batch's leaf
/// transfers land on every channel of the widest geometry, so the
/// per-batch critical path — what the workers pace by — shrinks with
/// channel count the way the overlapped drain does.
const SCALING_QUERIES: usize = 16;

/// Sustained batch throughput vs channel count on transfer-heavy
/// traffic. Workers pace by modeled critical path exactly as
/// `zipf_serving` does, so wall-clock qps tracks the device model:
/// near-linear scaling while the channel bus is the bottleneck, then
/// saturation once the busiest die (or the controller merge) takes over
/// — the printed `DrainStats` attribution names the limiting resource
/// at each point of the sweep.
///
/// Batches sweep the co-query working set round-robin (rank `i`, then
/// `i+1`, …, wrapping) rather than drawing from the Zipf sampler: a
/// scaling sweep should measure how the bus divides *evenly spread*
/// transfer load, not how popularity skew concentrates it on hot
/// channels — `zipf_serving` is the skew benchmark.
fn channel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements((BATCHES * SCALING_QUERIES) as u64));
    const WORKERS: usize = 4;
    for channels in [1usize, 2, 4, 8] {
        let wl = CoQueryWorkload::scattered(
            channel_config(channels),
            OPERANDS,
            SETS,
            SET_SIZE,
            THETA,
            SEED,
        )
        .expect("workload setup");
        let share = BATCHES / WORKERS;
        let per_worker: Vec<Vec<QueryBatch>> = (0..WORKERS)
            .map(|w| {
                (0..share)
                    .map(|b| {
                        let base = (w * share + b) * SCALING_QUERIES;
                        (0..SCALING_QUERIES).map(|q| wl.expr((base + q) % SETS)).collect()
                    })
                    .collect()
            })
            .collect();
        let dev = wl.dev;
        dev.set_result_cache_capacity(0);
        let serving = Serving { dev: Arc::new(dev), per_worker };

        // Attribution pass: queue one worker's traffic and drain it in
        // one pass, so `DrainStats` reports where the modeled time went
        // (die vs channel vs merge) for this channel count.
        for batch in &serving.per_worker[0] {
            let ticket = loop {
                match serving.dev.submit_async(batch) {
                    Ok(t) => break t,
                    Err(FcError::Overloaded { .. }) => {
                        serving.dev.drain().expect("drain under load");
                    }
                    Err(e) => panic!("submit_async: {e}"),
                }
            };
            std::hint::black_box(ticket);
        }
        let drain = serving.dev.drain().expect("attribution drain");
        let (die_us, chan_us) = (drain.busiest_die_us, drain.busiest_channel_us);
        let (merge_us, crit_us) = (drain.merge_us, drain.combined_critical_path_us);
        let (bottleneck, merge_share) = (drain.bottleneck(), drain.merge_share());
        serving.dev.discard_retired();
        println!(
            "throughput/channel_scaling/{channels}: modeled critical path {crit_us:.1} µs \
             (busiest die {die_us:.1} µs, busiest channel {chan_us:.1} µs, merge {merge_us:.1} µs) \
             — bottleneck {bottleneck:?}, merge share {:.1}%",
            merge_share * 100.0,
        );

        group.bench_with_input(
            BenchmarkId::new("channel_scaling", channels),
            &channels,
            |bench, _| {
                bench.iter(|| std::hint::black_box(serve_epoch_paced(&serving)));
            },
        );
    }
    group.finish();
}

fn zipf_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements((BATCHES * QUERIES_PER_BATCH) as u64));
    for workers in [1usize, 2, 4, 8] {
        let serving = setup(workers);
        // Modeled latency distribution of this worker count's traffic
        // (identical every epoch — the schedule is pinned), printed once
        // so the ROADMAP baselines can quote p50/p99 next to the rate.
        let mut lats = serve_epoch(&serving);
        lats.sort_by(|a, b| a.total_cmp(b));
        println!(
            "throughput/zipf_serving/{workers}: modeled batch latency p50 {:.1} µs, p99 {:.1} µs \
             ({} batches × {} queries)",
            percentile(&lats, 0.50),
            percentile(&lats, 0.99),
            BATCHES,
            QUERIES_PER_BATCH,
        );
        group.bench_with_input(BenchmarkId::new("zipf_serving", workers), &workers, |bench, _| {
            bench.iter(|| std::hint::black_box(serve_epoch(&serving)));
        });
    }
    group.finish();
}

criterion_group!(benches, zipf_serving, channel_scaling);
criterion_main!(benches);
