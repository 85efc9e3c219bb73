//! The three workloads. One *round* of a workload builds and preloads a
//! fresh device, generates its query population and ground truth (all
//! timed as set-up), runs an untimed warm-up, then a measured phase of a
//! fixed operation count. Clients are closed loops: each sends its next
//! request only after the previous one returned. They draw their traffic
//! from the seed inside the loop (outside the per-operation timers) and
//! check every result against ground truth.

use std::ops::Range;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use fc_workloads::skew::{CoQueryWorkload, ZipfSampler};
use flash_cosmos::{
    BatchResults, BatchStats, CacheStats, DrainStats, Expr, FcError, FlashCosmosDevice, QueryBatch,
    StoreHints,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Recorder, Span};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotServe,
    BmiScan,
    OverwriteMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotServe, Workload::BmiScan, Workload::OverwriteMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotServe => "hot_serve",
            Workload::BmiScan => "bmi_scan",
            Workload::OverwriteMix => "overwrite_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// About how long one round of [`Params::full`] takes, set-up included,
    /// on the machine the benchmark was calibrated on (a 2-vCPU KVM guest
    /// on a Xeon host). It only sizes the fixed round count of a run.
    pub fn nominal_round_ms(self) -> u64 {
        match self {
            Workload::HotServe => 650,
            Workload::BmiScan => 1800,
            Workload::OverwriteMix => 1500,
        }
    }
}

/// `hot_serve`: concurrent clients on a tiny-page device whose hot working
/// set is about twice the result cache.
pub struct HotServe {
    config: SsdConfig,
    /// Set-ups per round.
    setups: usize,
    operands: usize,
    sets: usize,
    set_size: usize,
    theta: f64,
    queries_per_batch: usize,
    clients: usize,
    warmup_batches: usize,
    /// Measured batches per client.
    batches: usize,
    probe_writes: usize,
}

/// `bmi_scan`: the §7 bitmap index, chip-heavy, synchronous submits.
pub struct BmiScan {
    config: SsdConfig,
    setups: usize,
    days: usize,
    /// Stripe pages per daily vector (users = stripes × page bits).
    stripes: usize,
    population: usize,
    queries_per_batch: usize,
    warmup_batches: usize,
    batches: usize,
    probe_writes: usize,
}

/// `overwrite_mix`: overwrites beside async query batches, with
/// maintenance scheduled periodically.
pub struct OverwriteMix {
    config: SsdConfig,
    setups: usize,
    operands: usize,
    sets: usize,
    set_size: usize,
    query_theta: f64,
    write_theta: f64,
    write_share: f64,
    queries_per_batch: usize,
    maintenance_every: usize,
    warmup_steps: usize,
    steps: usize,
}

/// One workload at one size.
pub enum Params {
    Hot(HotServe),
    Bmi(BmiScan),
    Mix(OverwriteMix),
}

impl Params {
    /// The sizes `fcbench run` measures.
    pub fn full(w: Workload) -> Self {
        match w {
            Workload::HotServe => Params::Hot(HotServe {
                config: SsdConfig {
                    channels: 8,
                    dies_per_channel: 4,
                    blocks_per_plane: 64,
                    ..SsdConfig::tiny_test()
                },
                setups: 20,
                operands: 256,
                sets: 4096,
                set_size: 4,
                theta: 0.9,
                queries_per_batch: 4,
                clients: 2,
                warmup_batches: 2_000,
                batches: 5_000,
                probe_writes: 4096,
            }),
            Workload::BmiScan => Params::Bmi(BmiScan {
                config: bmi_config(16 * 1024),
                setups: 1,
                days: 365,
                stripes: 8,
                population: 2048,
                queries_per_batch: 8,
                warmup_batches: 25,
                batches: 200,
                probe_writes: 128,
            }),
            Workload::OverwriteMix => Params::Mix(OverwriteMix {
                config: mix_config(4096),
                setups: 5,
                operands: 512,
                sets: 4096,
                set_size: 3,
                query_theta: 1.0,
                write_theta: 0.8,
                write_share: 0.25,
                queries_per_batch: 4,
                maintenance_every: 256,
                warmup_steps: 10_000,
                steps: 20_000,
            }),
        }
    }

    /// About a hundred measured operations on small geometry: the
    /// debug-build smoke test.
    #[cfg(test)]
    pub fn smoke(w: Workload) -> Self {
        match Self::full(w) {
            Params::Hot(p) => Params::Hot(HotServe {
                operands: 32,
                sets: 64,
                warmup_batches: 10,
                batches: 50,
                probe_writes: 16,
                ..p
            }),
            Params::Bmi(p) => Params::Bmi(BmiScan {
                config: bmi_config(64),
                population: 64,
                warmup_batches: 2,
                batches: 12,
                probe_writes: 16,
                ..p
            }),
            Params::Mix(p) => Params::Mix(OverwriteMix {
                config: mix_config(64),
                operands: 32,
                sets: 64,
                maintenance_every: 16,
                warmup_steps: 20,
                steps: 100,
                ..p
            }),
        }
    }

    /// Runs one round: set-up, warm-up, measured phase.
    pub fn round(&self, seed: u64, traced: bool) -> Round {
        match self {
            Params::Hot(p) => p.round(seed, traced),
            Params::Bmi(p) => p.round(seed, traced),
            Params::Mix(p) => p.round(seed, traced),
        }
    }
}

fn bmi_config(page_bytes: usize) -> SsdConfig {
    SsdConfig {
        channels: 4,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: 32,
        wls_per_block: 48,
        page_bytes,
        ..SsdConfig::paper_table1()
    }
}

fn mix_config(blocks_per_plane: usize) -> SsdConfig {
    SsdConfig {
        channels: 4,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane,
        wls_per_block: 8,
        page_bytes: 512,
        ..SsdConfig::tiny_test()
    }
}

/// What one client counted over a round's measured phase.
#[derive(Default)]
pub struct Tally {
    /// Queries answered; the failed ones count in `failed` only.
    pub queries: u64,
    pub batches: u64,
    /// Writes that succeeded; the failed ones count in `failed` only.
    pub writes: u64,
    /// Queries the device did not answer plus writes that failed.
    pub failed: u64,
    /// Answered queries whose result differed from ground truth.
    pub wrong: u64,
    /// Wall time of each batch, submit to results in hand.
    pub batch_ns: Vec<u64>,
    /// Wall time of each timed `fc_overwrite`: the measured phase's on
    /// `overwrite_mix`, the write probe's on the read-only workloads.
    pub write_ns: Vec<u64>,
    /// This client's measured-phase wall time.
    pub wall_ns: u64,
    /// Σ modeled critical path per device pass.
    pub modeled_us: f64,
    pub overloaded: u64,
    pub drains: u64,
    pub drained_batches: u64,
    pub senses: u64,
    pub serial_senses: u64,
    pub deduped: u64,
    pub cached_units: u64,
    pub dies_used: u64,
    pub merge_us: f64,
    /// Device passes (non-empty drains, or synchronous submits).
    pub passes: u64,
    pub busiest_die_us: f64,
    pub busiest_channel_us: f64,
    /// Passes whose busiest channel exceeded their busiest die.
    pub channel_bound: u64,
    pub overlap_saved_us: f64,
    pub serial_path_us: f64,
    pub jobs_scheduled: u64,
    pub jobs_executed: u64,
    pub jobs_deferred: u64,
    pub jobs_retired: u64,
    pub pages_moved: u64,
    errors: u64,
}

impl Tally {
    fn pass(&mut self, modeled_us: f64, die_us: f64, channel_us: f64) {
        self.passes += 1;
        self.modeled_us += modeled_us;
        self.busiest_die_us += die_us;
        self.busiest_channel_us += channel_us;
        self.channel_bound += u64::from(channel_us > die_us);
    }

    fn drained(&mut self, d: &DrainStats) {
        self.drains += 1;
        if d.batches > 0 {
            self.drained_batches += d.batches as u64;
            self.pass(d.combined_critical_path_us, d.busiest_die_us, d.busiest_channel_us);
            self.overlap_saved_us += d.overlap_saved_us();
            self.serial_path_us += d.serial_critical_path_us;
        }
        let m = &d.maintenance;
        self.jobs_executed += m.jobs_executed as u64;
        self.jobs_deferred += m.jobs_deferred as u64;
        self.jobs_retired += m.jobs_retired as u64;
        self.pages_moved += m.pages_moved;
    }

    fn batch_stats(&mut self, s: &BatchStats) {
        self.senses += s.senses;
        self.serial_senses += s.serial_senses;
        self.deduped += s.deduped_queries as u64;
        self.cached_units += s.cached_units as u64;
        self.dies_used += s.dies_used as u64;
        self.merge_us += s.merge_us;
    }

    /// Accounts one batch of `n` queries and checks every answered query
    /// with `right(query index, result)`.
    fn check(
        &mut self,
        out: Result<BatchResults, FcError>,
        n: usize,
        right: impl Fn(usize, &BitVec) -> bool,
    ) {
        self.batches += 1;
        match out {
            Ok(res) => {
                self.batch_stats(&res.stats);
                self.wrong += u64::from(res.results.len() != n);
                for (i, got) in res.results.iter().enumerate() {
                    if res.failures.iter().any(|f| f.query == i) {
                        self.failed += 1;
                    } else {
                        self.queries += 1;
                        self.wrong += u64::from(!right(i, got));
                    }
                }
            }
            Err(e) => {
                self.failed += n as u64;
                self.error(&e);
            }
        }
    }

    fn error(&mut self, e: &FcError) {
        self.errors += 1;
        if self.errors == 1 {
            eprintln!("fcbench: operation failed: {e}");
        }
    }
}

/// One round's measurements.
pub struct Round {
    pub traced: bool,
    /// Time of each set-up the round made: device build, preload writes,
    /// population and ground truth.
    pub setup_s: Vec<f64>,
    /// Wall time of the measured phase (all clients).
    pub wall_s: f64,
    /// Wall time of each preload `fc_write` (`bmi_scan` only; the other
    /// workloads preload through `CoQueryWorkload::scattered`).
    pub setup_write_ns: Vec<u64>,
    pub clients: Vec<Tally>,
    /// Span buffers, one per client (empty unless traced).
    pub spans: Vec<Vec<Span>>,
    /// Result-cache counter deltas over the measured phase.
    pub cache: CacheStats,
    /// Busiest die's lifetime occupancy over the mean die's.
    pub die_imbalance: f64,
    pub lost_pages: u64,
}

impl Round {
    fn finish(
        dev: &FlashCosmosDevice,
        before: &CacheStats,
        traced: bool,
        setup_s: Vec<f64>,
        wall_s: f64,
        setup_write_ns: Vec<u64>,
        per_client: Vec<(Tally, Vec<Span>)>,
    ) -> Self {
        let after = dev.session().cache_stats();
        let cache = CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            rejections: after.rejections - before.rejections,
            ..after
        };
        let occupancy = dev.die_occupancy();
        let occ = occupancy.occupancy_us();
        let mean = occ.iter().sum::<f64>() / occ.len().max(1) as f64;
        let die_imbalance =
            if mean > 0.0 { occ.iter().copied().fold(0.0, f64::max) / mean } else { 0.0 };
        let (clients, spans) = per_client.into_iter().unzip();
        Round {
            traced,
            setup_s,
            wall_s,
            setup_write_ns,
            clients,
            spans,
            cache,
            die_imbalance,
            lost_pages: dev.health().uncorrectable_after_recovery,
        }
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Calls `setup` `n` times (at least once) and returns the last result with
/// the time of each call. `setup` draws its inputs from its own seed, so
/// every call does the same work. A set-up of a few milliseconds is
/// repeated many times so that `setup_s`, their median, is steady.
fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    loop {
        let t = Instant::now();
        let out = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= n {
            return (out, times);
        }
    }
}

/// The names `CoQueryWorkload::scattered` writes its operands under.
fn operand_names(operands: usize) -> Vec<String> {
    (0..operands).map(|i| format!("op{i}")).collect()
}

/// SplitMix64 step: derives independent seeds for rounds and clients.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `submit_async` → `drain` → `wait`, retrying `drain` on `Overloaded`.
fn serve_async(
    dev: &FlashCosmosDevice,
    batch: &QueryBatch,
    rec: &mut Recorder,
    req: u64,
    tally: &mut Tally,
) -> Result<BatchResults, FcError> {
    let ticket = loop {
        let span = rec.open("session.submit_async", req);
        let submitted = dev.submit_async(batch);
        rec.close(span);
        match submitted {
            Ok(ticket) => break ticket,
            Err(FcError::Overloaded { .. }) => {
                tally.overloaded += 1;
                drain(dev, rec, req, tally)?;
            }
            Err(e) => return Err(e),
        }
    };
    drain(dev, rec, req, tally)?;
    let span = rec.open("session.wait", req);
    let out = ticket.wait(dev);
    rec.close(span);
    out
}

fn drain(
    dev: &FlashCosmosDevice,
    rec: &mut Recorder,
    req: u64,
    tally: &mut Tally,
) -> Result<(), FcError> {
    let span = rec.open("session.drain", req);
    let stats = dev.drain();
    rec.close(span);
    tally.drained(&stats?);
    Ok(())
}

/// Times one `fc_overwrite` of `name` with `fresh` and accounts it;
/// whether it succeeded.
fn overwrite(dev: &FlashCosmosDevice, name: &str, fresh: &BitVec, tally: &mut Tally) -> bool {
    let t = Instant::now();
    let written = dev.fc_overwrite(name, fresh);
    tally.write_ns.push(ns(t));
    match written {
        Ok(_) => {
            tally.writes += 1;
            true
        }
        Err(e) => {
            tally.failed += 1;
            tally.error(&e);
            false
        }
    }
}

/// Times `n` `fc_overwrite`s of uniformly drawn operands with fresh data,
/// after the measured phase so it cannot disturb it. The read-only
/// workloads report their `write_p*_us` from this probe, because every
/// end-to-end metric is reported on every workload.
fn write_probe(
    dev: &FlashCosmosDevice,
    names: &[String],
    bits: usize,
    n: usize,
    rng: &mut StdRng,
    tally: &mut Tally,
) {
    for _ in 0..n {
        let name = &names[rng.gen_range(0..names.len())];
        let fresh = BitVec::random(bits, rng);
        overwrite(dev, name, &fresh, tally);
    }
}

/// One closed-loop client on the calling thread over `state`: `warmup`
/// untimed steps, then `steps` measured ones (`step` gets the running step
/// index). Returns the cache counters of `dev(state)` at the start of the
/// measured phase and the measured tally.
#[allow(clippy::too_many_arguments)]
fn run_client<S>(
    state: &mut S,
    dev: fn(&S) -> &FlashCosmosDevice,
    rng: &mut StdRng,
    rec: &mut Recorder,
    warmup: usize,
    steps: usize,
    traced: bool,
    mut step: impl FnMut(&mut S, &mut Tally, &mut Recorder, &mut StdRng, usize),
) -> (CacheStats, Tally) {
    let mut warm = Tally::default();
    for i in 0..warmup {
        step(state, &mut warm, rec, rng, i);
    }
    let before = dev(state).session().cache_stats();
    rec.enable(traced);
    let mut tally = Tally::default();
    let t = Instant::now();
    for i in warmup..warmup + steps {
        step(state, &mut tally, rec, rng, i);
    }
    tally.wall_ns = ns(t);
    (before, tally)
}

impl HotServe {
    fn round(&self, seed: u64, traced: bool) -> Round {
        let epoch = Instant::now();
        let ((w, truth), setup_s) = repeat_setup(self.setups, || {
            let (c, n, sets, size) = (self.config.clone(), self.operands, self.sets, self.set_size);
            let w = CoQueryWorkload::scattered(c, n, sets, size, self.theta, seed)
                .expect("preload writes");
            let truth: Vec<BitVec> = (0..sets).map(|r| w.expected(r)).collect();
            (w, truth)
        });
        let (dev, names) = (&w.dev, operand_names(self.operands));

        let q = self.queries_per_batch;
        let step = |tally: &mut Tally, rec: &mut Recorder, rng: &mut StdRng, req: u64| {
            let root = rec.open("client.request", req);
            let (batch, ranks) = w.zipf_batch(q, rng);
            let t = Instant::now();
            let out = serve_async(dev, &batch, rec, req, tally);
            tally.batch_ns.push(ns(t));
            tally.check(out, q, |i, got| *got == truth[ranks[i]]);
            rec.close(root);
        };
        // Clients finish warm-up, the main thread snapshots the cache
        // counters, then every client starts its measured phase together.
        // Client 0 runs the write probe once every client has finished.
        let gate = Barrier::new(self.clients + 1);
        let (before, wall_s, per_client) = thread::scope(|s| {
            let clients: Vec<_> = (0..self.clients)
                .map(|c| {
                    let (step, gate, names) = (&step, &gate, &names);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(mix(seed, 1 + c as u64));
                        let mut rec = Recorder::new(epoch);
                        let mut warm = Tally::default();
                        for _ in 0..self.warmup_batches {
                            step(&mut warm, &mut rec, &mut rng, 0);
                        }
                        gate.wait();
                        gate.wait();
                        rec.enable(traced);
                        let mut tally = Tally::default();
                        let t = Instant::now();
                        for b in 0..self.batches {
                            step(&mut tally, &mut rec, &mut rng, ((c as u64) << 32) | b as u64);
                        }
                        tally.wall_ns = ns(t);
                        gate.wait();
                        if c == 0 {
                            let bits = self.config.page_bits();
                            write_probe(dev, names, bits, self.probe_writes, &mut rng, &mut tally);
                        }
                        (tally, rec.into_spans())
                    })
                })
                .collect();
            gate.wait();
            let before = dev.session().cache_stats();
            let start = Instant::now();
            gate.wait();
            gate.wait();
            let wall_s = start.elapsed().as_secs_f64();
            let per_client: Vec<(Tally, Vec<Span>)> =
                clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            (before, wall_s, per_client)
        });
        Round::finish(dev, &before, traced, setup_s, wall_s, Vec::new(), per_client)
    }
}

/// One query of the bitmap-index population, with its ground truth kept
/// as a digest so the population does not hold 2 048 result vectors.
struct BmiQuery {
    expr: Expr,
    digest: u64,
}

impl BmiScan {
    fn users(&self) -> usize {
        self.stripes * self.config.page_bits()
    }

    /// Builds the device, writes the daily vectors and generates the query
    /// population with its ground truth.
    fn setup(&self, seed: u64) -> (FlashCosmosDevice, Vec<BmiQuery>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dev = FlashCosmosDevice::new(self.config.clone());
        let users = self.users();
        // A slice of power users (1 in 8) is active every day; everyone
        // else logs in on about three days in four.
        let power = BitVec::from_fn_words(users, |_| {
            rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>()
        });
        let mut days = Vec::with_capacity(self.days);
        let mut ids = Vec::with_capacity(self.days);
        let mut setup_write_ns = Vec::with_capacity(self.days);
        for d in 0..self.days {
            let v = BitVec::from_fn_words(users, |w| {
                rng.gen::<u64>() | rng.gen::<u64>() | power.words()[w]
            });
            let t = Instant::now();
            let h = dev
                .fc_write(&format!("day{d}"), &v, StoreHints::and_group("bmi-days"))
                .expect("preload write");
            setup_write_ns.push(ns(t));
            ids.push(h.id);
            days.push(v);
        }
        // Each query is a day window and the zeros a user may have in it:
        // 0 for an AND window of 30–48 days, 2 for a threshold L − 2 window
        // of 12–24 days inside one wordline block.
        let wls = self.config.wls_per_block;
        let windows: Vec<(Range<usize>, usize)> = (0..self.population)
            .map(|q| {
                if q % 4 == 3 {
                    let len = rng.gen_range(12..=24usize);
                    let start =
                        rng.gen_range(0..self.days / wls) * wls + rng.gen_range(0..=wls - len);
                    (start..start + len, 2)
                } else {
                    let len = rng.gen_range(30..=48usize);
                    let start = rng.gen_range(0..=self.days - len);
                    (start..start + len, 0)
                }
            })
            .collect();
        let mut population: Vec<BmiQuery> = windows
            .iter()
            .map(|(w, zeros)| {
                let vars = ids[w.clone()].iter().copied();
                let expr = match zeros {
                    0 => Expr::and_vars(vars),
                    z => Expr::threshold_vars(w.len() - z, vars),
                };
                BmiQuery { expr, digest: digest_init(users) }
            })
            .collect();
        // Ground truth a chunk of words at a time, so every query's window
        // of that chunk is read from cache, not memory.
        assert_eq!(users % 64, 0, "users fill whole words (no tail to mask)");
        let mut planes = vec![Vec::new(); 3];
        let words = users / 64;
        for c in (0..words).step_by(TRUTH_CHUNK_WORDS) {
            let range = c..(c + TRUTH_CHUNK_WORDS).min(words);
            for (query, (w, zeros)) in population.iter_mut().zip(&windows) {
                let truth = at_most_zeros(&days[w.clone()], *zeros, range.clone(), &mut planes);
                query.digest = absorb(query.digest, truth);
            }
        }
        (dev, population, setup_write_ns)
    }

    fn round(&self, seed: u64, traced: bool) -> Round {
        let epoch = Instant::now();
        let ((mut dev, population, setup_write_ns), setup_s) =
            repeat_setup(self.setups, || self.setup(seed));
        let users = self.users();
        let names: Vec<String> = (0..self.days).map(|d| format!("day{d}")).collect();

        let q = self.queries_per_batch;
        let step = |dev: &mut FlashCosmosDevice,
                    tally: &mut Tally,
                    rec: &mut Recorder,
                    rng: &mut StdRng,
                    i: usize| {
            let req = i as u64;
            let root = rec.open("client.request", req);
            let picks: Vec<usize> = (0..q).map(|_| rng.gen_range(0..population.len())).collect();
            let batch: QueryBatch = picks.iter().map(|&i| population[i].expr.clone()).collect();
            let t = Instant::now();
            let span = rec.open("batch.submit", req);
            let out = dev.submit(&batch);
            rec.close(span);
            tally.batch_ns.push(ns(t));
            if let Ok(res) = &out {
                let s = &res.stats;
                tally.pass(s.critical_path_us, s.busiest_die_us, s.busiest_channel_us);
            }
            tally.check(out, q, |i, got| {
                got.len() == users
                    && absorb(digest_init(users), got.words()) == population[picks[i]].digest
            });
            rec.close(root);
        };
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        let mut rec = Recorder::new(epoch);
        let (warmup, batches) = (self.warmup_batches, self.batches);
        let (before, mut tally) =
            run_client(&mut dev, |d| d, &mut rng, &mut rec, warmup, batches, traced, step);
        let wall_s = tally.wall_ns as f64 * 1e-9;
        write_probe(&dev, &names, users, self.probe_writes, &mut rng, &mut tally);
        let per_client = vec![(tally, rec.into_spans())];
        Round::finish(&dev, &before, traced, setup_s, wall_s, setup_write_ns, per_client)
    }
}

impl OverwriteMix {
    fn round(&self, seed: u64, traced: bool) -> Round {
        let epoch = Instant::now();
        let (mut w, setup_s) = repeat_setup(self.setups, || {
            let (c, n, sets, size) = (self.config.clone(), self.operands, self.sets, self.set_size);
            CoQueryWorkload::scattered(c, n, sets, size, self.query_theta, seed)
                .expect("preload writes")
        });
        let names = operand_names(self.operands);
        let write_zipf = ZipfSampler::new(self.operands, self.write_theta);
        let bits = self.config.page_bits();

        let q = self.queries_per_batch;
        // Ground truth follows the overwrites: `w.data` is the shadow copy.
        let step = |w: &mut CoQueryWorkload,
                    tally: &mut Tally,
                    rec: &mut Recorder,
                    rng: &mut StdRng,
                    i: usize| {
            let req = i as u64;
            let root = rec.open("client.request", req);
            if i % self.maintenance_every == self.maintenance_every - 1 {
                let span = rec.open("maintenance.schedule", req);
                let jobs = w.dev.schedule_maintenance();
                rec.close(span);
                tally.jobs_scheduled += jobs as u64;
            }
            if rng.gen_bool(self.write_share) {
                let k = write_zipf.sample(rng);
                let fresh = BitVec::random(bits, rng);
                let span = rec.open("device.fc_overwrite", req);
                let written = overwrite(&w.dev, &names[k], &fresh, tally);
                rec.close(span);
                if written {
                    w.data[k] = fresh;
                }
            } else {
                let (batch, ranks) = w.zipf_batch(q, rng);
                let t = Instant::now();
                let out = serve_async(&w.dev, &batch, rec, req, tally);
                tally.batch_ns.push(ns(t));
                tally.check(out, q, |i, got| *got == w.expected(ranks[i]));
            }
            rec.close(root);
        };
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        let mut rec = Recorder::new(epoch);
        let (warmup, steps) = (self.warmup_steps, self.steps);
        let (before, tally) =
            run_client(&mut w, |w| &w.dev, &mut rng, &mut rec, warmup, steps, traced, step);
        let wall_s = tally.wall_ns as f64 * 1e-9;
        let per_client = vec![(tally, rec.into_spans())];
        Round::finish(&w.dev, &before, traced, setup_s, wall_s, Vec::new(), per_client)
    }
}

/// Words per chunk of the `bmi_scan` ground-truth folds: a chunk of all
/// 365 daily vectors (4 KiB each) stays in cache while every query reads it.
const TRUTH_CHUNK_WORDS: usize = 512;

/// Words `range` of the users with at most `z` zero bits across `days`:
/// the ground truth of `threshold_vars(days.len() − z, …)`, and of the AND
/// for `z = 0`, from saturating bit-sliced zero counters. `planes` is
/// scratch with at least `z + 1` rows; row `j` marks users with more than
/// `j` zeros so far.
fn at_most_zeros<'p>(
    days: &[BitVec],
    z: usize,
    range: Range<usize>,
    planes: &'p mut [Vec<u64>],
) -> &'p [u64] {
    for row in &mut planes[..=z] {
        row.clear();
        row.resize(range.len(), 0);
    }
    for d in days {
        let x = &d.words()[range.clone()];
        for j in (1..=z).rev() {
            let (lower, upper) = planes.split_at_mut(j);
            for ((hi, &lo), &x) in upper[0].iter_mut().zip(&lower[j - 1]).zip(x) {
                *hi |= lo & !x;
            }
        }
        for (row, &x) in planes[0].iter_mut().zip(x) {
            *row |= !x;
        }
    }
    let out = &mut planes[z];
    for w in out.iter_mut() {
        *w = !*w;
    }
    out
}

/// Starting state of a result digest over `len` bits.
fn digest_init(len: usize) -> u64 {
    len as u64 ^ 0x9E37_79B9_7F4A_7C15
}

/// Folds result words into a digest; absorbing a vector's words in order,
/// in any chunking, gives the same digest.
fn absorb(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, &w| (h.rotate_left(23) ^ w).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_sliced_threshold_matches_per_user_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        let days: Vec<BitVec> = (0..9).map(|_| BitVec::random(320, &mut rng)).collect();
        let mut planes = vec![Vec::new(); 4];
        for z in 0..4 {
            // Words 1..5 (users 64..320), as one chunk and as two.
            let whole = at_most_zeros(&days, z, 1..5, &mut planes).to_vec();
            let mut split = at_most_zeros(&days, z, 1..3, &mut planes).to_vec();
            split.extend_from_slice(at_most_zeros(&days, z, 3..5, &mut planes));
            assert_eq!(whole, split);
            let got = BitVec::from_words(whole, 256);
            for u in 0..256 {
                let zeros = days.iter().filter(|d| !d.get(64 + u)).count();
                assert_eq!(got.get(u), zeros <= z, "user {u}, z {z}");
            }
        }
    }
}
