//! Execution-pipeline model: turns per-die job lists into end-to-end
//! makespan and energy (the engine behind Figs. 7, 17 and 18).
//!
//! The model captures the three-stage pipeline of §3.1:
//!
//! 1. **Sensing** — each die executes its sense jobs back-to-back (the
//!    cache latch lets the next sense overlap the previous transfer).
//! 2. **Internal I/O** — a die's output chunk moves over its channel; the
//!    channel is a FIFO resource shared by the channel's dies.
//! 3. **External I/O** — chunks bound for the host move over the shared
//!    external link (FIFO), in data-ready order.
//!
//! Host-side consumption (bitwise combine for OSP, bit-count for BMI, …)
//! streams concurrently with external transfers and adds a tail if the
//! host is slower than the link.
//!
//! Each platform (OSP / ISP / ParaBit / Flash-Cosmos) is expressed purely
//! as a different job list — see `flash_cosmos::engines` — so the timing
//! model itself stays platform-agnostic, exactly like the paper's extended
//! MQSim.
//!
//! The serving path uses the additive [`DieQueues`] instead: per-die and
//! per-channel occupancy sums, always built for one [`SsdConfig`]'s
//! topology. Every served batch reports one, the device merges it into
//! its one lifetime tracker, and background work fills its idle slack.

use serde::{Deserialize, Serialize};

use crate::config::SsdConfig;
use crate::energy::{Component, EnergyMeter};
use crate::sim::{self, Resource, SimTime};

/// One die-level operation: a sense followed by optional internal and
/// external transfers of its output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SenseJob {
    /// Sense latency, µs (`tR` for a regular read, `tMWS` for MWS, 0 for
    /// pure transfer jobs).
    pub latency_us: f64,
    /// Bytes to move die → controller after the sense (0 = stays in the
    /// latches / no output).
    pub dma_bytes: u64,
    /// Bytes to move controller → host once the DMA lands (0 = consumed
    /// inside the SSD).
    pub ext_bytes: u64,
    /// Chip power during the sense, normalized to a regular read
    /// (Fig. 14 scale) — drives NAND energy accounting.
    pub norm_power: f64,
}

impl SenseJob {
    /// A regular page read whose output goes all the way to the host.
    pub fn read_to_host(config: &SsdConfig) -> Self {
        let bytes = (config.page_bytes * config.planes_per_die) as u64;
        Self { latency_us: config.tr_us, dma_bytes: bytes, ext_bytes: bytes, norm_power: 1.0 }
    }

    /// A regular page read consumed inside the SSD (ISP operand fetch).
    pub fn read_to_controller(config: &SsdConfig) -> Self {
        let bytes = (config.page_bytes * config.planes_per_die) as u64;
        Self { latency_us: config.tr_us, dma_bytes: bytes, ext_bytes: 0, norm_power: 1.0 }
    }

    /// A sense whose result stays in the latches (ParaBit accumulation
    /// step / non-final MWS).
    pub fn sense_only(latency_us: f64, norm_power: f64) -> Self {
        Self { latency_us, dma_bytes: 0, ext_bytes: 0, norm_power }
    }
}

/// Host-side work fed by the external stream.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostWork {
    /// Bytes the host CPU must process.
    pub cpu_bytes: u64,
    /// Host CPU streaming throughput over those bytes, GB/s.
    pub cpu_gbps: f64,
    /// Host CPU energy, pJ per byte processed.
    pub cpu_pj_per_byte: f64,
    /// Bytes moved through host DRAM (typically 2× the stream: write on
    /// arrival + read for processing).
    pub dram_bytes: u64,
    /// DRAM energy, pJ per byte.
    pub dram_pj_per_byte: f64,
}

impl HostWork {
    /// Folds another host workload into this one, for batched pipeline
    /// runs that execute several workloads' job lists back to back.
    ///
    /// Byte counts add; the merged throughput preserves total CPU time
    /// (byte-weighted harmonic combination), and the merged energy rate
    /// preserves total energy (byte-weighted average), so a merged run
    /// models the same host work as running the parts separately.
    pub fn merge(&mut self, other: &HostWork) {
        let total = self.cpu_bytes + other.cpu_bytes;
        if total > 0 {
            let time = |w: &HostWork| {
                if w.cpu_gbps > 0.0 {
                    w.cpu_bytes as f64 / w.cpu_gbps
                } else {
                    0.0
                }
            };
            let total_time = time(self) + time(other);
            self.cpu_gbps = if total_time > 0.0 { total as f64 / total_time } else { 0.0 };
            self.cpu_pj_per_byte = (self.cpu_bytes as f64 * self.cpu_pj_per_byte
                + other.cpu_bytes as f64 * other.cpu_pj_per_byte)
                / total as f64;
        }
        self.cpu_bytes = total;
        let dram_total = self.dram_bytes + other.dram_bytes;
        if dram_total > 0 {
            self.dram_pj_per_byte = (self.dram_bytes as f64 * self.dram_pj_per_byte
                + other.dram_bytes as f64 * other.dram_pj_per_byte)
                / dram_total as f64;
        }
        self.dram_bytes = dram_total;
    }
}

/// Appends one run's per-die job lists onto an accumulated batch, so a
/// single pipeline run executes many workloads back to back. Runs with
/// different die counts compose (missing dies simply contribute no jobs).
pub fn append_die_jobs(batch: &mut Vec<Vec<SenseJob>>, jobs: Vec<Vec<SenseJob>>) {
    if batch.len() < jobs.len() {
        batch.resize(jobs.len(), Vec::new());
    }
    for (acc, die_jobs) in batch.iter_mut().zip(jobs) {
        acc.extend(die_jobs);
    }
}

/// Per-die occupancy of queued sense work: how much latency each die has
/// accumulated in its work queue.
///
/// A drain on the async submission path (`flash_cosmos::session`)
/// compiles each queued batch into per-die command queues; this tracker
/// models their timeline.
/// Dies execute their queues independently and concurrently, so the
/// completion time of everything queued is the **busiest** die
/// ([`DieQueues::busiest_us`]), not the sum — two batches whose busy dies
/// differ overlap on the idle ones: the [`DieQueues::critical_path_us`]
/// of their [`DieQueues::merge`] is at most the sum of their own.
#[derive(Debug, Clone, PartialEq)]
pub struct DieQueues {
    busy_us: Vec<f64>,
    /// Per-channel bus occupancy, µs: output transfers queued via
    /// [`DieQueues::push_transfer`]. Senses/programs occupy only the die;
    /// transfers occupy only the channel, so the two lanes overlap and
    /// the modeled completion time is [`DieQueues::critical_path_us`] —
    /// max(busiest die, busiest channel).
    chan_us: Vec<f64>,
    /// Dies sharing each channel bus (flat die `d` transfers over channel
    /// `d / dies_per_channel`).
    dies_per_channel: usize,
}

impl DieQueues {
    /// An empty tracker with the channel topology of `config`: transfers
    /// pushed for die `d` occupy channel `d / dies_per_channel`.
    pub fn for_config(config: &SsdConfig) -> Self {
        Self {
            busy_us: vec![0.0; config.total_dies()],
            chan_us: vec![0.0; config.channels],
            dies_per_channel: config.dies_per_channel,
        }
    }

    /// Queues `latency_us` of work on a die (flat index).
    pub fn push(&mut self, die: usize, latency_us: f64) {
        self.busy_us[die] += latency_us;
    }

    /// Queues `latency_us` of output transfer on the channel bus serving
    /// `die` (flat index). The die itself stays free — the cache latch
    /// lets the next sense overlap the outgoing transfer (§3.1).
    pub fn push_transfer(&mut self, die: usize, latency_us: f64) {
        self.chan_us[die / self.dies_per_channel] += latency_us;
    }

    /// Folds another tracker's queues into this one (per-die and
    /// per-channel sums) — the combined occupancy of several batches
    /// draining together. Both trackers describe the same SSD.
    pub fn merge(&mut self, other: &DieQueues) {
        debug_assert_eq!(
            (self.busy_us.len(), self.chan_us.len()),
            (other.busy_us.len(), other.chan_us.len()),
            "merged trackers must share one topology"
        );
        for (acc, &b) in self.busy_us.iter_mut().zip(&other.busy_us) {
            *acc += b;
        }
        for (acc, &b) in self.chan_us.iter_mut().zip(&other.chan_us) {
            *acc += b;
        }
    }

    /// Idle time left on a die before its queue reaches `budget_us` —
    /// the slack a background task can fill without pushing the drain's
    /// critical path past the budget.
    ///
    /// # Panics
    ///
    /// Panics if `die` is not a die of the tracker's SSD.
    pub fn slack_us(&self, die: usize, budget_us: f64) -> f64 {
        (budget_us - self.busy_us[die]).max(0.0)
    }

    /// Attempts to schedule fill-in work — `(die, latency_us)` pieces that
    /// must all run — into the queues' idle slack. All-or-nothing: the
    /// work is accepted (and queued) only when **every** touched die stays
    /// at or below `budget_us` afterwards, so accepted fill-in can never
    /// extend the critical path beyond the budget. Returns whether the
    /// work was accepted.
    ///
    /// # Panics
    ///
    /// Panics in the fit check, before anything is booked, when a piece
    /// names a die the tracker's SSD does not have.
    pub fn try_fill(&mut self, work: &[(usize, f64)], budget_us: f64) -> bool {
        // Aggregate per-die first: two pieces on one die must jointly fit.
        let mut needed: Vec<(usize, f64)> = Vec::with_capacity(work.len());
        for &(die, us) in work {
            match needed.iter_mut().find(|(d, _)| *d == die) {
                Some((_, acc)) => *acc += us,
                None => needed.push((die, us)),
            }
        }
        if needed.iter().any(|&(die, us)| us > self.slack_us(die, budget_us)) {
            return false;
        }
        for &(die, us) in &needed {
            self.push(die, us);
        }
        true
    }

    /// The busiest die's total queued latency, µs — the modeled critical
    /// path of draining every die queue concurrently (die lanes only; see
    /// [`DieQueues::critical_path_us`] for the channel-aware path).
    pub fn busiest_us(&self) -> f64 {
        self.busy_us.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// The busiest channel bus's total transfer time, µs.
    pub fn busiest_channel_us(&self) -> f64 {
        self.chan_us.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// The modeled completion time of draining everything queued: dies
    /// sense concurrently while channels stream concurrently, so the
    /// critical path is max(busiest die, busiest channel).
    pub fn critical_path_us(&self) -> f64 {
        self.busiest_us().max(self.busiest_channel_us())
    }

    /// Whether the channel bus (not die sensing) bounds the critical path.
    pub fn channel_bound(&self) -> bool {
        self.busiest_channel_us() > self.busiest_us()
    }

    /// Total queued latency across all dies, µs (the serial-equivalent
    /// chip time).
    pub fn total_us(&self) -> f64 {
        self.busy_us.iter().sum()
    }

    /// Number of dies with non-empty queues.
    pub fn dies_busy(&self) -> usize {
        self.busy_us.iter().filter(|&&b| b > 0.0).count()
    }

    /// Per-die occupancy, µs, indexed by flat die id.
    pub fn occupancy_us(&self) -> &[f64] {
        &self.busy_us
    }

    /// Empties every queue.
    pub fn clear(&mut self) {
        self.busy_us.iter_mut().for_each(|b| *b = 0.0);
        self.chan_us.iter_mut().for_each(|b| *b = 0.0);
    }
}

/// A per-die trace entry (used to print Fig. 7-style timelines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Flat die index.
    pub die: usize,
    /// Pipeline stage.
    pub stage: Stage,
    /// Job index on the die.
    pub job: usize,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

/// Pipeline stage of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// NAND array sensing.
    Sense,
    /// Channel DMA (die → controller).
    Dma,
    /// External transfer (controller → host).
    Ext,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Sense => write!(f, "sense"),
            Stage::Dma => write!(f, "dma"),
            Stage::Ext => write!(f, "ext"),
        }
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// End-to-end execution time, µs.
    pub makespan_us: f64,
    /// Per-component energy.
    pub energy: EnergyMeter,
    /// Latest sensing completion across dies, µs.
    pub sense_end_us: f64,
    /// Latest channel-DMA completion, µs.
    pub dma_end_us: f64,
    /// Latest external-transfer completion, µs.
    pub ext_end_us: f64,
    /// Host-compute completion, µs.
    pub host_end_us: f64,
    /// Longest per-die total sensing time, µs.
    pub sense_busy_us: f64,
    /// Busiest channel's total DMA time, µs.
    pub dma_busy_us: f64,
    /// External link total busy time, µs.
    pub ext_busy_us: f64,
    /// Per-die traces (only when tracing was requested).
    pub trace: Vec<TraceEvent>,
}

impl ExecutionReport {
    /// Which stage bounds the execution (the paper's "Bottleneck" labels
    /// in Fig. 7): the stage with the largest total busy time. Host
    /// compute rides the external stream and is attributed to Ext.
    pub fn bottleneck(&self) -> Stage {
        let ext = self.ext_busy_us.max(self.host_end_us - self.ext_end_us + self.ext_busy_us);
        if self.sense_busy_us >= self.dma_busy_us && self.sense_busy_us >= ext {
            Stage::Sense
        } else if self.dma_busy_us >= ext {
            Stage::Dma
        } else {
            Stage::Ext
        }
    }

    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// The platform-agnostic pipeline model.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    config: SsdConfig,
}

impl PipelineModel {
    /// Creates a model for an SSD configuration.
    pub fn new(config: SsdConfig) -> Self {
        Self { config }
    }

    /// The SSD configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Runs the pipeline for `die_jobs` (indexed by flat die id; shorter
    /// vectors leave the remaining dies idle) and `host` work.
    pub fn run(&self, die_jobs: &[Vec<SenseJob>], host: HostWork) -> ExecutionReport {
        self.run_inner(die_jobs, host, false)
    }

    /// Like [`Self::run`] but also records per-die traces (for timeline
    /// rendering; costs memory proportional to the job count).
    pub fn run_traced(&self, die_jobs: &[Vec<SenseJob>], host: HostWork) -> ExecutionReport {
        self.run_inner(die_jobs, host, true)
    }

    fn run_inner(
        &self,
        die_jobs: &[Vec<SenseJob>],
        host: HostWork,
        traced: bool,
    ) -> ExecutionReport {
        let cfg = &self.config;
        assert!(
            die_jobs.len() <= cfg.total_dies(),
            "job list names {} dies but the SSD has {}",
            die_jobs.len(),
            cfg.total_dies()
        );
        let mut energy = EnergyMeter::new();
        let mut trace = Vec::new();

        // Stage 1: senses run back-to-back per die.
        // (sense_end, die, job index, job) for every job, in die order.
        let mut dma_requests: Vec<(SimTime, usize, usize, SenseJob)> = Vec::new();
        let mut sense_end_max: SimTime = 0;
        let mut sense_busy_max: SimTime = 0;
        for (die, jobs) in die_jobs.iter().enumerate() {
            let mut t: SimTime = 0;
            for (j, job) in jobs.iter().enumerate() {
                let dur = sim::us(job.latency_us);
                let start = t;
                t += dur;
                if traced && dur > 0 {
                    trace.push(TraceEvent {
                        die,
                        stage: Stage::Sense,
                        job: j,
                        start_us: sim::to_us(start),
                        end_us: sim::to_us(t),
                    });
                }
                if job.latency_us > 0.0 {
                    // Multi-plane op: every plane's array is active.
                    let planes = cfg.planes_per_die as f64;
                    energy.add(
                        Component::NandSense,
                        planes * fc_nand::power::energy_uj(job.norm_power, job.latency_us),
                    );
                }
                if job.dma_bytes > 0 || job.ext_bytes > 0 {
                    dma_requests.push((t, die, j, *job));
                }
            }
            sense_end_max = sense_end_max.max(t);
            sense_busy_max = sense_busy_max.max(t);
        }

        // Stage 2: channel FIFO arbitration in data-ready order.
        let mut channels = vec![Resource::new(); cfg.channels];
        let mut ext_requests: Vec<(SimTime, usize, usize, u64)> = Vec::new();
        let mut dma_end_max: SimTime = 0;
        dma_requests.sort_by_key(|&(ready, die, j, _)| (ready, die, j));
        for &(ready, die, j, job) in &dma_requests {
            let mut data_at_controller = ready;
            if job.dma_bytes > 0 {
                let ch = die / cfg.dies_per_channel;
                let dur = sim::transfer_ns(job.dma_bytes, cfg.channel_gbps);
                let (start, end) = channels[ch].reserve(ready, dur);
                energy.add_channel_bytes(job.dma_bytes);
                dma_end_max = dma_end_max.max(end);
                data_at_controller = end;
                if traced {
                    trace.push(TraceEvent {
                        die,
                        stage: Stage::Dma,
                        job: j,
                        start_us: sim::to_us(start),
                        end_us: sim::to_us(end),
                    });
                }
            }
            if job.ext_bytes > 0 {
                ext_requests.push((data_at_controller, die, j, job.ext_bytes));
            }
        }

        // Stage 3: external link, FIFO in data-ready order.
        let mut ext = Resource::new();
        let mut ext_end_max: SimTime = 0;
        let mut first_ext_end: Option<SimTime> = None;
        ext_requests.sort_by_key(|&(ready, die, j, _)| (ready, die, j));
        for &(ready, die, j, bytes) in &ext_requests {
            let dur = sim::transfer_ns(bytes, cfg.external_gbps);
            let (start, end) = ext.reserve(ready, dur);
            energy.add_external_bytes(bytes);
            ext_end_max = ext_end_max.max(end);
            first_ext_end.get_or_insert(end);
            if traced {
                trace.push(TraceEvent {
                    die,
                    stage: Stage::Ext,
                    job: j,
                    start_us: sim::to_us(start),
                    end_us: sim::to_us(end),
                });
            }
        }

        // Host consumption: streams behind the external link; the tail
        // beyond the last arrival is what the CPU still has to chew.
        let mut host_end: SimTime = 0;
        if host.cpu_bytes > 0 && host.cpu_gbps > 0.0 {
            let cpu_dur = sim::transfer_ns(host.cpu_bytes, host.cpu_gbps);
            let start = first_ext_end.unwrap_or(0);
            host_end = (start + cpu_dur).max(ext_end_max);
            energy.add(Component::HostCpu, host.cpu_bytes as f64 * host.cpu_pj_per_byte * 1e-6);
        }
        if host.dram_bytes > 0 {
            energy.add(Component::HostDram, host.dram_bytes as f64 * host.dram_pj_per_byte * 1e-6);
        }

        let makespan = sense_end_max.max(dma_end_max).max(ext_end_max).max(host_end);
        let dma_busy_max = channels.iter().map(Resource::busy_time).max().unwrap_or(0);
        ExecutionReport {
            makespan_us: sim::to_us(makespan),
            energy,
            sense_end_us: sim::to_us(sense_end_max),
            dma_end_us: sim::to_us(dma_end_max),
            ext_end_us: sim::to_us(ext_end_max),
            host_end_us: sim::to_us(host_end),
            sense_busy_us: sim::to_us(sense_busy_max),
            dma_busy_us: sim::to_us(dma_busy_max),
            ext_busy_us: sim::to_us(ext.busy_time()),
            trace,
        }
    }
}

/// Sequential-write bandwidth of the whole SSD for a program latency
/// (§8.3). Steady state per channel: all its dies program concurrently,
/// but each die's multi-plane data-in must cross the shared channel, so
/// one round takes `max(tprog, dies × tDMA)` and commits one multi-plane
/// page set per die.
///
/// The paper reports 6.4 / 4.7 / 3.87 / 2.82 GB/s for SLC / ESP / MLC /
/// TLC; this model reproduces the ordering and the ESP-vs-MLC/TLC ratios
/// (the paper's absolute SLC figure implies extra per-op overheads it
/// does not itemize — see EXPERIMENTS.md).
pub fn sequential_write_gbps(config: &SsdConfig, tprog_us: f64, _bits_per_cell: u32) -> f64 {
    let chunk = (config.page_bytes * config.planes_per_die) as f64;
    let datain_us = chunk / (config.channel_gbps * 1e9) * 1e6;
    let round_us = tprog_us.max(datain_us * config.dies_per_channel as f64);
    let per_channel = chunk * config.dies_per_channel as f64 / (round_us * 1e-6);
    per_channel * config.channels as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_work_merge_preserves_time_and_energy() {
        let mut a = HostWork {
            cpu_bytes: 1000,
            cpu_gbps: 10.0,
            cpu_pj_per_byte: 2.0,
            dram_bytes: 500,
            dram_pj_per_byte: 4.0,
        };
        let b = HostWork {
            cpu_bytes: 3000,
            cpu_gbps: 30.0,
            cpu_pj_per_byte: 6.0,
            dram_bytes: 1500,
            dram_pj_per_byte: 8.0,
        };
        let time_a = a.cpu_bytes as f64 / a.cpu_gbps;
        let time_b = b.cpu_bytes as f64 / b.cpu_gbps;
        let energy =
            a.cpu_bytes as f64 * a.cpu_pj_per_byte + b.cpu_bytes as f64 * b.cpu_pj_per_byte;
        let dram_energy =
            a.dram_bytes as f64 * a.dram_pj_per_byte + b.dram_bytes as f64 * b.dram_pj_per_byte;
        a.merge(&b);
        assert_eq!(a.cpu_bytes, 4000);
        assert!((a.cpu_bytes as f64 / a.cpu_gbps - (time_a + time_b)).abs() < 1e-9);
        assert!((a.cpu_bytes as f64 * a.cpu_pj_per_byte - energy).abs() < 1e-9);
        assert!((a.dram_bytes as f64 * a.dram_pj_per_byte - dram_energy).abs() < 1e-9);
        // Merging empty work is a no-op.
        let before = a;
        a.merge(&HostWork::default());
        assert_eq!(a, before);
    }

    #[test]
    fn die_queues_track_occupancy_and_overlap() {
        let cfg = SsdConfig::tiny_test(); // 4 dies
        let mut a = DieQueues::for_config(&cfg);
        a.push(0, 30.0);
        a.push(1, 10.0);
        assert_eq!(a.busiest_us(), 30.0);
        assert_eq!(a.total_us(), 40.0);
        assert_eq!(a.dies_busy(), 2);
        // A second batch busy on the dies the first left idle.
        let mut b = DieQueues::for_config(&cfg);
        b.push(2, 25.0);
        b.push(3, 5.0);
        assert_eq!(a.critical_path_us() + b.critical_path_us(), 55.0, "30 + 25 back to back");
        let mut combined = a.clone();
        combined.merge(&b);
        assert_eq!(combined.critical_path_us(), 30.0, "disjoint dies fully overlap");
        // Same-die contention degrades gracefully to the serial sum.
        let mut twice = a.clone();
        twice.merge(&a);
        assert_eq!(twice.critical_path_us(), 60.0);
        assert_eq!(a.critical_path_us() * 2.0, 60.0);
        // merge sums per die; clear empties.
        let mut sum = DieQueues::for_config(&cfg);
        sum.push(0, 1.0);
        sum.merge(&b);
        assert_eq!(sum.total_us(), 31.0);
        sum.clear();
        assert_eq!(sum.total_us(), 0.0);
    }

    #[test]
    fn channel_lane_tracks_bus_contention() {
        let cfg = SsdConfig::tiny_test(); // 2 channels × 2 dies
        let mut q = DieQueues::for_config(&cfg);
        // Senses occupy dies only; the channel lane stays empty.
        q.push(0, 25.0);
        q.push(2, 25.0);
        assert_eq!(q.busiest_us(), 25.0);
        assert_eq!(q.busiest_channel_us(), 0.0);
        assert_eq!(q.critical_path_us(), 25.0);
        assert!(!q.channel_bound());
        // Dies 0 and 1 share channel 0: their transfers serialize on the
        // bus while the dies themselves stay free.
        q.push_transfer(0, 20.0);
        q.push_transfer(1, 20.0);
        q.push_transfer(2, 20.0); // channel 1, no contention
        assert_eq!(q.busiest_us(), 25.0, "transfers do not occupy dies");
        assert_eq!(q.busiest_channel_us(), 40.0);
        assert_eq!(q.chan_us, [40.0, 20.0]);
        assert_eq!(q.critical_path_us(), 40.0, "channel bus bounds the drain");
        assert!(q.channel_bound());
        // merge folds channel lanes, so the combined path sees bus
        // contention.
        let mut other = DieQueues::for_config(&cfg);
        other.push_transfer(3, 15.0); // channel 1
        assert_eq!(q.critical_path_us() + other.critical_path_us(), 55.0, "40 + 15 back to back");
        q.merge(&other);
        assert_eq!(q.critical_path_us(), 40.0, "disjoint channels overlap");
        assert_eq!(q.chan_us, [40.0, 35.0]);
        q.clear();
        assert_eq!(q.busiest_channel_us(), 0.0);
        assert_eq!(q.chan_us, [0.0, 0.0]);
    }

    #[test]
    fn fill_in_work_respects_the_budget() {
        let cfg = SsdConfig::tiny_test(); // 4 dies
        let mut q = DieQueues::for_config(&cfg);
        q.push(0, 80.0);
        q.push(1, 20.0);
        // Slack against a 100 µs budget: 20 on die 0, 80 on die 1, full
        // budget on the idle dies.
        assert_eq!(q.slack_us(0, 100.0), 20.0);
        assert_eq!(q.slack_us(1, 100.0), 80.0);
        assert_eq!(q.slack_us(3, 100.0), 100.0);
        // A two-die job that fits goes in; the occupancy reflects it.
        assert!(q.try_fill(&[(1, 30.0), (2, 50.0)], 100.0));
        assert_eq!(q.occupancy_us()[1], 50.0);
        assert_eq!(q.occupancy_us()[2], 50.0);
        // All-or-nothing: one overfull die rejects the whole job, and the
        // fitting piece must not have been applied.
        assert!(!q.try_fill(&[(3, 10.0), (0, 30.0)], 100.0));
        assert_eq!(q.occupancy_us()[3], 0.0, "rejected job left no residue");
        // Two pieces on one die must jointly fit, not just individually.
        assert!(!q.try_fill(&[(3, 60.0), (3, 60.0)], 100.0));
        assert!(q.try_fill(&[(3, 60.0), (3, 40.0)], 100.0));
        assert_eq!(q.busiest_us(), 100.0, "fill-in never exceeds the budget");
    }

    #[test]
    fn fill_in_work_on_a_missing_die_panics_before_booking() {
        let cfg = SsdConfig::tiny_test(); // 4 dies
        let mut q = DieQueues::for_config(&cfg);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.try_fill(&[(0, 1.0), (9, 1.0)], 100.0)
        }));
        assert!(outcome.is_err(), "die 9 does not exist");
        assert_eq!(q.occupancy_us()[0], 0.0, "nothing booked on die 0");
    }

    #[test]
    fn append_die_jobs_concatenates_per_die() {
        let job = SenseJob::sense_only(1.0, 1.0);
        let mut batch: Vec<Vec<SenseJob>> = vec![vec![job; 2], vec![job; 1]];
        append_die_jobs(&mut batch, vec![vec![job; 1], vec![job; 3], vec![job; 2]]);
        assert_eq!(batch.len(), 3, "batch widens to the larger die count");
        assert_eq!(batch[0].len(), 3);
        assert_eq!(batch[1].len(), 4);
        assert_eq!(batch[2].len(), 2);
    }

    /// Builds the Fig. 7 job lists: 3 operands × 1 MiB striped over all
    /// planes → one 32 KiB multi-plane read per die per operand.
    fn fig7_jobs(kind: &str) -> (SsdConfig, Vec<Vec<SenseJob>>) {
        let cfg = SsdConfig::fig7_example();
        let dies = cfg.total_dies();
        let chunk = (cfg.page_bytes * cfg.planes_per_die) as u64;
        let jobs: Vec<Vec<SenseJob>> = (0..dies)
            .map(|_| match kind {
                "osp" => vec![SenseJob::read_to_host(&cfg); 3],
                "isp" => {
                    // Operands stay inside the SSD; the accelerator emits
                    // the result chunk after the last operand arrives.
                    let mut v = vec![SenseJob::read_to_controller(&cfg); 2];
                    v.push(SenseJob {
                        latency_us: cfg.tr_us,
                        dma_bytes: chunk,
                        ext_bytes: chunk,
                        norm_power: 1.0,
                    });
                    v
                }
                "ifp" => {
                    // ParaBit: three serial senses accumulate in the latch;
                    // only the result moves.
                    let mut v = vec![SenseJob::sense_only(cfg.tr_us, 1.0); 2];
                    v.push(SenseJob {
                        latency_us: cfg.tr_us,
                        dma_bytes: chunk,
                        ext_bytes: chunk,
                        norm_power: 1.0,
                    });
                    v
                }
                _ => unreachable!(),
            })
            .collect();
        (cfg, jobs)
    }

    #[test]
    fn fig7_osp_timeline() {
        let (cfg, jobs) = fig7_jobs("osp");
        let r = PipelineModel::new(cfg).run(&jobs, HostWork::default());
        // Paper: 471 µs, external-I/O bound.
        assert!(
            (r.makespan_us - 471.0).abs() < 30.0,
            "OSP makespan {} µs (paper: 471)",
            r.makespan_us
        );
        assert_eq!(r.bottleneck(), Stage::Ext);
    }

    #[test]
    fn fig7_isp_timeline() {
        let (cfg, jobs) = fig7_jobs("isp");
        let r = PipelineModel::new(cfg).run(&jobs, HostWork::default());
        // Paper: 431 µs, internal-I/O bound.
        assert!(
            (r.makespan_us - 431.0).abs() < 30.0,
            "ISP makespan {} µs (paper: 431)",
            r.makespan_us
        );
        assert_eq!(r.bottleneck(), Stage::Dma);
    }

    #[test]
    fn fig7_ifp_timeline() {
        let (cfg, jobs) = fig7_jobs("ifp");
        let r = PipelineModel::new(cfg).run(&jobs, HostWork::default());
        // Paper: 335 µs, sensing bound.
        assert!(
            (r.makespan_us - 335.0).abs() < 30.0,
            "IFP makespan {} µs (paper: 335)",
            r.makespan_us
        );
        // Sensing dominates per the paper's narrative; with only a result
        // DMA+ext tail the bottleneck label sits at Sense or the short
        // Ext tail depending on rounding — accept either but require the
        // ordering IFP < ISP < OSP.
        let (c2, j2) = fig7_jobs("isp");
        let isp = PipelineModel::new(c2).run(&j2, HostWork::default());
        let (c3, j3) = fig7_jobs("osp");
        let osp = PipelineModel::new(c3).run(&j3, HostWork::default());
        assert!(r.makespan_us < isp.makespan_us && isp.makespan_us < osp.makespan_us);
    }

    #[test]
    fn tracing_produces_ordered_events() {
        let (cfg, jobs) = fig7_jobs("osp");
        let r = PipelineModel::new(cfg).run_traced(&jobs, HostWork::default());
        assert!(!r.trace.is_empty());
        for e in &r.trace {
            assert!(e.end_us > e.start_us);
        }
        // Channel DMAs never overlap within one channel.
        let cfg = SsdConfig::fig7_example();
        for ch in 0..cfg.channels {
            let mut dmas: Vec<_> = r
                .trace
                .iter()
                .filter(|e| e.stage == Stage::Dma && e.die / cfg.dies_per_channel == ch)
                .collect();
            dmas.sort_by(|a, b| a.start_us.partial_cmp(&b.start_us).unwrap());
            for w in dmas.windows(2) {
                assert!(w[1].start_us >= w[0].end_us - 1e-9, "overlap on channel {ch}");
            }
        }
    }

    #[test]
    fn host_tail_extends_makespan() {
        let cfg = SsdConfig::fig7_example();
        let jobs = vec![vec![SenseJob::read_to_host(&cfg)]; 4];
        let fast_host = PipelineModel::new(cfg.clone()).run(
            &jobs,
            HostWork {
                cpu_bytes: 1 << 20,
                cpu_gbps: 100.0,
                cpu_pj_per_byte: 1.0,
                ..Default::default()
            },
        );
        let slow_host = PipelineModel::new(cfg).run(
            &jobs,
            HostWork {
                cpu_bytes: 1 << 20,
                cpu_gbps: 0.05,
                cpu_pj_per_byte: 1.0,
                ..Default::default()
            },
        );
        assert!(slow_host.makespan_us > fast_host.makespan_us * 5.0);
        assert!(slow_host.host_end_us > slow_host.ext_end_us);
    }

    #[test]
    fn energy_components_accumulate() {
        let (cfg, jobs) = fig7_jobs("osp");
        let r = PipelineModel::new(cfg).run(&jobs, HostWork::default());
        assert!(r.energy.component_uj(Component::NandSense) > 0.0);
        assert!(r.energy.component_uj(Component::Channel) > 0.0);
        assert!(r.energy.component_uj(Component::External) > 0.0);
        assert!(r.energy_j() > 0.0);
    }

    #[test]
    fn sec83_write_bandwidths() {
        // §8.3: SLC 6.4, ESP 4.7, MLC 3.87, TLC 2.82 GB/s.
        let cfg = SsdConfig::paper_table1();
        let slc = sequential_write_gbps(&cfg, cfg.tprog_slc_us, 1);
        let esp = sequential_write_gbps(&cfg, cfg.tesp_us, 1);
        let mlc = sequential_write_gbps(&cfg, cfg.tprog_mlc_us, 2);
        let tlc = sequential_write_gbps(&cfg, cfg.tprog_tlc_us, 3);
        // The §8.3 ordering claim: ESP between SLC and MLC, TLC slowest.
        assert!(esp < slc && esp > mlc && mlc > tlc, "{slc}/{esp}/{mlc}/{tlc}");
        // Shape checks against the paper's 6.4/4.7/3.87/2.82 GB/s: the
        // ESP-vs-MLC and ESP-vs-TLC ratios hold within ~15%.
        assert!(((esp / mlc) - 4.7 / 3.87).abs() < 0.2, "ESP/MLC {}", esp / mlc);
        assert!(((esp / tlc) - 4.7 / 2.82).abs() < 0.3, "ESP/TLC {}", esp / tlc);
        // Absolute values land in the right regime (GB/s, single digits).
        assert!((4.0..11.0).contains(&slc), "SLC {slc}");
        assert!((3.5..6.5).contains(&esp), "ESP {esp}");
        assert!((3.0..5.0).contains(&mlc), "MLC {mlc}");
        assert!((2.2..3.6).contains(&tlc), "TLC {tlc}");
    }

    #[test]
    #[should_panic(expected = "job list names")]
    fn too_many_dies_panics() {
        let cfg = SsdConfig::tiny_test();
        let jobs = vec![Vec::new(); cfg.total_dies() + 1];
        PipelineModel::new(cfg).run(&jobs, HostWork::default());
    }
}
