//! The Fig. 7 scenario: OSP vs ISP vs IFP timelines for bulk bitwise OR
//! over three 1-MiB bit vectors on the illustrative SSD.

use fc_ssd::pipeline::{HostWork, PipelineModel, SenseJob, Stage};
use fc_ssd::{ExecutionReport, SsdConfig};
use serde::{Deserialize, Serialize};

/// The three processing approaches compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// Outside-storage processing (Fig. 7b).
    Osp,
    /// In-storage processing (Fig. 7c).
    Isp,
    /// In-flash processing, ParaBit-style (Fig. 7d).
    Ifp,
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Approach::Osp => write!(f, "OSP"),
            Approach::Isp => write!(f, "ISP"),
            Approach::Ifp => write!(f, "IFP"),
        }
    }
}

/// The Fig. 7 scenario: bulk bitwise OR of three operand vectors (A, B
/// and C in the figure) on the illustrative SSD of Fig. 7a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fig7Scenario;

/// Operand vectors the scenario combines.
const OPERANDS: usize = 3;

impl Fig7Scenario {
    /// The SSD organization (Fig. 7a).
    pub fn config(&self) -> SsdConfig {
        SsdConfig::fig7_example()
    }

    /// Builds the per-die job list for one approach.
    pub fn jobs(&self, approach: Approach) -> Vec<Vec<SenseJob>> {
        let cfg = self.config();
        let chunk = (cfg.page_bytes * cfg.planes_per_die) as u64;
        let result_pass =
            SenseJob { latency_us: cfg.tr_us, dma_bytes: chunk, ext_bytes: chunk, norm_power: 1.0 };
        let per_die: Vec<SenseJob> = match approach {
            Approach::Osp => vec![SenseJob::read_to_host(&cfg); OPERANDS],
            Approach::Isp => {
                let mut v = vec![SenseJob::read_to_controller(&cfg); OPERANDS - 1];
                v.push(result_pass);
                v
            }
            Approach::Ifp => {
                let mut v = vec![SenseJob::sense_only(cfg.tr_us, 1.0); OPERANDS - 1];
                v.push(result_pass);
                v
            }
        };
        vec![per_die; cfg.total_dies()]
    }

    /// Runs one approach with tracing (for timeline rendering).
    pub fn run(&self, approach: Approach) -> ExecutionReport {
        PipelineModel::new(self.config()).run_traced(&self.jobs(approach), HostWork::default())
    }

    /// Runs all three approaches.
    pub fn run_all(&self) -> Vec<(Approach, ExecutionReport)> {
        [Approach::Osp, Approach::Isp, Approach::Ifp]
            .into_iter()
            .map(|a| (a, self.run(a)))
            .collect()
    }
}

/// Renders channel 0's trace as an ASCII timeline (one row per die and
/// stage), the textual equivalent of Fig. 7's boxes.
pub fn render_channel_timeline(
    report: &ExecutionReport,
    config: &SsdConfig,
    width: usize,
) -> String {
    let horizon = report.makespan_us.max(1.0);
    let scale = |t: f64| ((t / horizon) * (width as f64 - 1.0)).round() as usize;
    let mut out = String::new();
    for die in 0..config.dies_per_channel {
        for (stage, glyph) in [(Stage::Sense, 'S'), (Stage::Dma, 'D'), (Stage::Ext, 'E')] {
            let mut row = vec![' '; width];
            for e in report.trace.iter().filter(|e| e.die == die && e.stage == stage) {
                let a = scale(e.start_us);
                let b = scale(e.end_us).max(a + 1).min(width);
                for c in row.iter_mut().take(b).skip(a) {
                    *c = glyph;
                }
            }
            let line: String = row.into_iter().collect();
            out.push_str(&format!("die{die} {} |{line}|\n", stage_label(stage)));
        }
    }
    out.push_str(&format!(
        "0 µs {:>width$.0} µs  (bottleneck: {})\n",
        horizon,
        report.bottleneck(),
        width = width.saturating_sub(9)
    ));
    out
}

fn stage_label(stage: Stage) -> &'static str {
    match stage {
        Stage::Sense => "sense",
        Stage::Dma => "dma  ",
        Stage::Ext => "ext  ",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_numbers() {
        let all = Fig7Scenario.run_all();
        let t = |a: Approach| all.iter().find(|(x, _)| *x == a).unwrap().1.makespan_us;
        // Paper: OSP 471 µs, ISP 431 µs, IFP 335 µs.
        assert!((t(Approach::Osp) - 471.0).abs() < 30.0, "OSP {}", t(Approach::Osp));
        assert!((t(Approach::Isp) - 431.0).abs() < 30.0, "ISP {}", t(Approach::Isp));
        assert!((t(Approach::Ifp) - 335.0).abs() < 30.0, "IFP {}", t(Approach::Ifp));
    }

    #[test]
    fn fig7_bottlenecks() {
        let s = Fig7Scenario;
        assert_eq!(s.run(Approach::Osp).bottleneck(), Stage::Ext);
        assert_eq!(s.run(Approach::Isp).bottleneck(), Stage::Dma);
        assert_eq!(s.run(Approach::Ifp).bottleneck(), Stage::Sense);
    }

    #[test]
    fn timeline_renders_all_stages() {
        let s = Fig7Scenario;
        let r = s.run(Approach::Osp);
        let text = render_channel_timeline(&r, &s.config(), 72);
        assert!(text.contains('S') && text.contains('D') && text.contains('E'));
        assert!(text.lines().count() >= 3 * s.config().dies_per_channel);
    }
}
