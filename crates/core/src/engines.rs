//! The four evaluated platforms (§7): OSP, ISP, ParaBit and Flash-Cosmos,
//! expressed as job-list builders for the SSD pipeline model.
//!
//! A workload is summarized by its [`WorkloadShape`] — how many operand
//! vectors of what size are combined per query, and what the host does
//! with the result. Each platform lowers the shape differently:
//!
//! * **OSP** — every operand page crosses channel + external link; the
//!   host combines (hidden behind the stream) — Fig. 7b.
//! * **ISP** — operands stop at the controller's accelerator; only
//!   results cross the external link — Fig. 7c.
//! * **ParaBit** — one sensing operation *per operand*, accumulating in
//!   the latches; only results move — Fig. 7d.
//! * **Flash-Cosmos** — the MWS operations the planner emits per result
//!   page; only results move (§6).
//!
//! The in-flash platforms are priced from compiled programs: one query of
//! the shape, laid out on a plane as the FTL places it, is compiled with
//! [`planner::compile`] or [`parabit::compile`], so the figures count the
//! senses the device runs (and panic on a shape they cannot lower).
//!
//! Every evaluation returns the pipeline model's own [`ExecutionReport`]
//! (makespan, energy, stage bottleneck); [`Engines::evaluate_all`] pairs
//! each report with its [`Platform`], like
//! [`crate::timeline::Fig7Scenario::run_all`] pairs it with its approach.

use fc_host::HostCpu;
use fc_nand::command::Command;
use fc_nand::geometry::WlAddr;
use fc_nand::power::mws_power_norm;
use fc_ssd::pipeline::{HostWork, PipelineModel, SenseJob};
use fc_ssd::{ExecutionReport, SsdConfig};
use serde::{Deserialize, Serialize};

use crate::expr::Expr;
use crate::parabit;
use crate::planner::{self, PlacementMap, PlannerCaps};

/// The four evaluated computing platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Outside-storage processing (host CPU).
    Osp,
    /// In-storage processing (controller accelerator).
    Isp,
    /// ParaBit in-flash processing.
    ParaBit,
    /// Flash-Cosmos in-flash processing.
    FlashCosmos,
}

impl Platform {
    /// All platforms in the paper's presentation order.
    pub const ALL: [Platform; 4] =
        [Platform::Osp, Platform::Isp, Platform::ParaBit, Platform::FlashCosmos];
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Platform::Osp => write!(f, "OSP"),
            Platform::Isp => write!(f, "ISP"),
            Platform::ParaBit => write!(f, "PB"),
            Platform::FlashCosmos => write!(f, "FC"),
        }
    }
}

/// Cost-model summary of a bulk bitwise workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadShape {
    /// Workload name (display).
    pub name: String,
    /// Independent queries (e.g. one per k-clique).
    pub queries: u64,
    /// Operands AND-ed per query.
    pub and_operands: u64,
    /// Extra operands OR-ed onto each query's result (KCS: the clique
    /// vector).
    pub or_operands: u64,
    /// Bytes per operand vector (= bytes per per-query result).
    pub vector_bytes: u64,
    /// Whether the host bit-counts the result (BMI's final step).
    pub result_popcount: bool,
}

impl WorkloadShape {
    /// Total operand bytes read by operand-moving platforms.
    pub fn total_operand_bytes(&self) -> u64 {
        self.queries * (self.and_operands + self.or_operands) * self.vector_bytes
    }

    /// Total result bytes leaving the SSD.
    pub fn total_result_bytes(&self) -> u64 {
        self.queries * self.vector_bytes
    }

    /// Operands per query (the paper's "number of operands").
    pub fn operands_per_query(&self) -> u64 {
        self.and_operands + self.or_operands
    }
}

/// Evaluates workload shapes on the four platforms.
#[derive(Debug, Clone)]
pub struct Engines {
    config: SsdConfig,
    host: HostCpu,
}

impl Engines {
    /// Creates the evaluation engines for an SSD and host.
    pub fn new(config: SsdConfig, host: HostCpu) -> Self {
        Self { config, host }
    }

    /// The paper's evaluated system (Table 1).
    pub fn paper() -> Self {
        Self::new(SsdConfig::paper_table1(), HostCpu::paper_host())
    }

    /// The SSD configuration in use.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Evaluates one platform on one workload shape.
    pub fn evaluate(&self, platform: Platform, shape: &WorkloadShape) -> ExecutionReport {
        self.evaluate_batch(platform, std::slice::from_ref(shape))
    }

    /// Evaluates one platform on a whole batch of workload shapes in a
    /// single pipeline run — the cost-model counterpart of the device's
    /// `submit`: per-die job lists are concatenated and host work merged,
    /// so the batch pays the pipeline fill/drain once instead of once per
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty. ParaBit and Flash-Cosmos compile one
    /// query per shape, so they also panic on a shape with no AND operand
    /// or one whose query the platform's compiler cannot lower.
    pub fn evaluate_batch(&self, platform: Platform, shapes: &[WorkloadShape]) -> ExecutionReport {
        assert!(!shapes.is_empty(), "a batch needs at least one workload shape");
        let mut jobs: Vec<Vec<SenseJob>> = Vec::new();
        let mut host = HostWork::default();
        let mut isp_bytes = 0u64;
        for shape in shapes {
            let (shape_jobs, shape_host, shape_isp) = self.build(platform, shape);
            fc_ssd::pipeline::append_die_jobs(&mut jobs, shape_jobs);
            host.merge(&shape_host);
            isp_bytes += shape_isp;
        }
        let model = PipelineModel::new(self.config.clone());
        let mut report = model.run(&jobs, host);
        if isp_bytes > 0 {
            report.energy.add_isp_bytes(isp_bytes);
        }
        report
    }

    /// Evaluates all four platforms, in [`Platform::ALL`] order.
    pub fn evaluate_all(&self, shape: &WorkloadShape) -> Vec<(Platform, ExecutionReport)> {
        Platform::ALL.iter().map(|&p| (p, self.evaluate(p, shape))).collect()
    }

    /// Speedups over OSP for ISP/PB/FC (the Fig. 17 rows).
    pub fn speedups_over_osp(&self, shape: &WorkloadShape) -> Vec<(Platform, f64)> {
        let reports = self.evaluate_all(shape);
        let osp_time = reports[0].1.makespan_us;
        reports.into_iter().skip(1).map(|(p, r)| (p, osp_time / r.makespan_us)).collect()
    }

    /// Energy-efficiency gains over OSP (the Fig. 18 rows: bits/energy
    /// normalized to OSP = energy ratio for identical output bits).
    pub fn energy_gains_over_osp(&self, shape: &WorkloadShape) -> Vec<(Platform, f64)> {
        let reports = self.evaluate_all(shape);
        let osp_energy = reports[0].1.energy_j();
        reports.into_iter().skip(1).map(|(p, r)| (p, osp_energy / r.energy_j())).collect()
    }

    /// Builds (die jobs, host work, ISP accelerator bytes).
    fn build(
        &self,
        platform: Platform,
        shape: &WorkloadShape,
    ) -> (Vec<Vec<SenseJob>>, HostWork, u64) {
        let cfg = &self.config;
        let pages_per_vector = shape.vector_bytes.div_ceil(cfg.page_bytes as u64);
        // Die-steps per vector: each step is one multi-plane sense
        // covering `planes_per_die` stripes. Vectors stripe round-robin
        // over all planes (Fig. 7a), so the busiest plane holds this many
        // of a vector's pages.
        let steps = pages_per_vector.div_ceil(cfg.total_planes() as u64).max(1);
        let chunk = (cfg.page_bytes * cfg.planes_per_die) as u64;
        let ops = shape.operands_per_query();
        let dies = cfg.total_dies();

        // Batching: coalesce identical per-die steps so huge sweeps stay
        // tractable; latency/bytes scale with the batch, so makespan and
        // energy are unchanged (uniform pipelines are time-invariant).
        let total_units = shape.queries * steps;
        let batch = total_units.div_ceil(2_000).max(1);
        let batches = total_units.div_ceil(batch);
        let scale = |b: u64| b * batch.min(total_units);

        let host;
        let mut isp_bytes = 0u64;
        let per_die: Vec<SenseJob> = match platform {
            Platform::Osp => {
                host = self.host_work(shape, true);
                let job = SenseJob {
                    latency_us: cfg.tr_us * (batch * ops) as f64,
                    dma_bytes: scale(ops) * chunk,
                    ext_bytes: scale(ops) * chunk,
                    norm_power: 1.0,
                };
                vec![job; batches as usize]
            }
            Platform::Isp => {
                host = self.host_work(shape, false);
                isp_bytes = shape.total_operand_bytes();
                let job = SenseJob {
                    latency_us: cfg.tr_us * (batch * ops) as f64,
                    dma_bytes: scale(ops) * chunk,
                    // The accelerator emits the result chunk once a
                    // query-step's operands have all arrived.
                    ext_bytes: scale(1) * chunk,
                    norm_power: 1.0,
                };
                vec![job; batches as usize]
            }
            Platform::ParaBit => {
                host = self.host_work(shape, false);
                let (senses, _) = self.query_step(platform, shape);
                let job = SenseJob {
                    latency_us: cfg.tr_us * (batch * senses) as f64,
                    dma_bytes: scale(1) * chunk,
                    ext_bytes: scale(1) * chunk,
                    norm_power: 1.0,
                };
                vec![job; batches as usize]
            }
            Platform::FlashCosmos => {
                host = self.host_work(shape, false);
                let (senses, power) = self.query_step(platform, shape);
                let job = SenseJob {
                    latency_us: cfg.tmws_us * (batch * senses) as f64,
                    dma_bytes: scale(1) * chunk,
                    ext_bytes: scale(1) * chunk,
                    norm_power: power,
                };
                vec![job; batches as usize]
            }
        };
        (vec![per_die; dies], host, isp_bytes)
    }

    /// Sensing operations Flash-Cosmos needs per query-step: the sense
    /// count of the program [`planner::compile`] emits for one query of
    /// `shape`, laid out as a device places it.
    ///
    /// # Panics
    ///
    /// Panics if the shape has no AND operand or the planner cannot lower
    /// its query on the configured chip.
    pub fn fc_senses_per_query(&self, shape: &WorkloadShape) -> u64 {
        self.query_step(Platform::FlashCosmos, shape).0
    }

    /// Senses and mean normalized chip power (Fig. 14, per `Mws` command)
    /// of one ParaBit or Flash-Cosmos query-step: the program the
    /// platform's compiler emits for the AND of the shape's AND operands
    /// OR-ed with each OR operand, laid out on one plane by the FTL group
    /// cursor's two rules: the AND operands fill blocks one string at a
    /// time, and each OR operand gets a block of its own.
    fn query_step(&self, platform: Platform, shape: &WorkloadShape) -> (u64, f64) {
        assert!(shape.and_operands > 0, "{}: a query needs at least one AND operand", shape.name);
        let per_block = self.config.wls_per_block;
        let (ands, ors) = (shape.and_operands as usize, shape.or_operands as usize);
        let mut map = PlacementMap::new();
        for i in 0..ands {
            map.insert(i, WlAddr::new(0, (i / per_block) as u32, (i % per_block) as u32), false);
        }
        let or_blocks = ands.div_ceil(per_block);
        for j in 0..ors {
            map.insert(ands + j, WlAddr::new(0, (or_blocks + j) as u32, 0), false);
        }
        let terms =
            std::iter::once(Expr::and_vars(0..ands)).chain((ands..ands + ors).map(Expr::var));
        let nnf = Expr::or(terms.collect()).to_nnf();
        let program = match platform {
            Platform::FlashCosmos => {
                planner::compile(&nnf, &map, PlannerCaps::for_config(&self.config))
            }
            _ => parabit::compile(&nnf, &map),
        }
        .unwrap_or_else(|e| panic!("{}: {platform} cannot lower the query: {e}", shape.name));
        let (mut power, mut mws) = (0.0, 0u32);
        for command in &program.commands {
            if let Command::Mws { targets, .. } = command {
                power += mws_power_norm(targets.len());
                mws += 1;
            }
        }
        (program.sense_count() as u64, power / f64::from(mws))
    }

    fn host_work(&self, shape: &WorkloadShape, osp: bool) -> HostWork {
        let result = shape.total_result_bytes();
        let operands = if osp { shape.total_operand_bytes() } else { 0 };
        let popcount = if shape.result_popcount { result } else { 0 };
        let cpu_bytes = operands + popcount;
        // OSP streams at the bitwise-combine rate; pure post-processing
        // runs at popcount rate.
        let cpu_gbps = if osp { self.host.bitwise_gbps } else { self.host.popcount_gbps };
        HostWork {
            cpu_bytes,
            cpu_gbps,
            cpu_pj_per_byte: self.host.pj_per_byte,
            dram_bytes: 2 * (operands + result),
            dram_pj_per_byte: self.host.dram.pj_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bmi_shape(months: u64) -> WorkloadShape {
        WorkloadShape {
            name: format!("BMI m={months}"),
            queries: 1,
            and_operands: months * 30,
            or_operands: 0,
            vector_bytes: 100_000_000,
            result_popcount: true,
        }
    }

    #[test]
    fn ordering_matches_fig17() {
        let engines = Engines::paper();
        let shape = bmi_shape(12);
        let r = engines.evaluate_all(&shape);
        let t = |p: usize| r[p].1.makespan_us;
        // OSP slowest, then ISP, then PB, then FC.
        assert!(t(0) > t(1), "ISP beats OSP");
        assert!(t(1) > t(2), "PB beats ISP");
        assert!(t(2) > t(3), "FC beats PB");
    }

    #[test]
    fn bmi_speedups_land_in_paper_regime() {
        let engines = Engines::paper();
        // m = 36 → 1080 operands; paper: FC ≈ 198× over OSP, PB ≈ 14×.
        let s = engines.speedups_over_osp(&bmi_shape(36));
        let fc = s.iter().find(|(p, _)| *p == Platform::FlashCosmos).unwrap().1;
        let pb = s.iter().find(|(p, _)| *p == Platform::ParaBit).unwrap().1;
        assert!(fc > 80.0 && fc < 500.0, "FC speedup {fc} (paper: 198.4)");
        assert!(pb > 6.0 && pb < 40.0, "PB speedup {pb} (paper: 14)");
        assert!(fc / pb > 3.0, "FC/PB ratio {} (paper: ~14)", fc / pb);
    }

    #[test]
    fn fc_sense_count_model() {
        let engines = Engines::paper();
        assert_eq!(engines.fc_senses_per_query(&bmi_shape(1)), 1); // 30 ops
        assert_eq!(engines.fc_senses_per_query(&bmi_shape(36)), 23); // 1080
        let kcs = WorkloadShape {
            name: "KCS".into(),
            queries: 1024,
            and_operands: 32,
            or_operands: 1,
            vector_bytes: 4_000_000,
            result_popcount: false,
        };
        assert_eq!(engines.fc_senses_per_query(&kcs), 1, "AND+OR fuse into one MWS");
        // Past one string the AND spans two blocks, accumulating in the
        // S-latch over two senses; the planner ORs the clique vector's
        // block in with a third.
        let kcs64 = WorkloadShape { and_operands: 64, ..kcs };
        assert_eq!(engines.fc_senses_per_query(&kcs64), 3);
    }

    #[test]
    fn ims_is_transfer_bound_so_fc_equals_pb() {
        let engines = Engines::paper();
        let ims = WorkloadShape {
            name: "IMS".into(),
            queries: 1,
            and_operands: 3,
            or_operands: 0,
            vector_bytes: 10_000 * 800 * 600 * 4 / 8,
            result_popcount: false,
        };
        let s = engines.speedups_over_osp(&ims);
        let fc = s.iter().find(|(p, _)| *p == Platform::FlashCosmos).unwrap().1;
        let pb = s.iter().find(|(p, _)| *p == Platform::ParaBit).unwrap().1;
        // §8.1 observation six: FC ≈ PB on IMS (both result-transfer
        // bound), both ≈ 3× over OSP.
        assert!((fc / pb - 1.0).abs() < 0.25, "FC {fc} vs PB {pb}");
        assert!(fc > 2.0 && fc < 5.0, "IMS FC speedup {fc} (paper ~3)");
    }

    #[test]
    fn energy_gains_exceed_speedups_for_fc() {
        // §8.2: FC's energy benefits (95× avg) exceed its performance
        // benefits (32× avg) because sensing energy also drops.
        let engines = Engines::paper();
        let shape = bmi_shape(24);
        let speed = engines.speedups_over_osp(&shape);
        let energy = engines.energy_gains_over_osp(&shape);
        let fc_speed = speed.iter().find(|(p, _)| *p == Platform::FlashCosmos).unwrap().1;
        let fc_energy = energy.iter().find(|(p, _)| *p == Platform::FlashCosmos).unwrap().1;
        assert!(fc_energy > fc_speed, "energy gain {fc_energy} vs speedup {fc_speed}");
    }

    #[test]
    fn isp_beats_osp_modestly() {
        // §8.1: ISP ≈ 1.28× over OSP.
        let engines = Engines::paper();
        let s = engines.speedups_over_osp(&bmi_shape(6));
        let isp = s.iter().find(|(p, _)| *p == Platform::Isp).unwrap().1;
        assert!(isp > 1.05 && isp < 2.0, "ISP speedup {isp} (paper ~1.28)");
    }

    #[test]
    fn batched_evaluation_amortizes_pipeline_overheads() {
        let engines = Engines::paper();
        let shapes: Vec<WorkloadShape> = [3u64, 6, 12].iter().map(|&m| bmi_shape(m)).collect();
        for platform in Platform::ALL {
            let merged = engines.evaluate_batch(platform, &shapes);
            let serial: f64 =
                shapes.iter().map(|s| engines.evaluate(platform, s).makespan_us).sum();
            let batched = merged.makespan_us;
            assert!(
                batched <= serial * 1.0001,
                "{platform}: batched {batched} µs must not exceed serial {serial} µs"
            );
            // Energy is workload-determined, not schedule-determined.
            let serial_energy: f64 =
                shapes.iter().map(|s| engines.evaluate(platform, s).energy_j()).sum();
            let e = merged.energy_j();
            assert!(
                (e - serial_energy).abs() / serial_energy < 0.01,
                "{platform}: batched energy {e} vs serial {serial_energy}"
            );
        }
    }

    #[test]
    fn single_shape_batch_matches_evaluate() {
        let engines = Engines::paper();
        let shape = bmi_shape(6);
        let a = engines.evaluate(Platform::FlashCosmos, &shape);
        let b = engines.evaluate_batch(Platform::FlashCosmos, std::slice::from_ref(&shape));
        assert_eq!(a.makespan_us, b.makespan_us);
    }

    #[test]
    fn shape_helpers() {
        let s = bmi_shape(1);
        assert_eq!(s.operands_per_query(), 30);
        assert_eq!(s.total_operand_bytes(), 30 * 100_000_000);
        assert_eq!(s.total_result_bytes(), 100_000_000);
    }
}
