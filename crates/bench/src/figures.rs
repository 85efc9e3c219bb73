//! One harness per table/figure of the paper's evaluation.

use fc_nand::ispp::ProgramScheme;
use fc_nand::rber::BlockGrade;
use fc_ssd::pipeline::sequential_write_gbps;
use fc_ssd::SsdConfig;
use fc_workloads::{bmi, ims, kcs};
use flash_cosmos::engines::{Engines, Platform};
use flash_cosmos::reliability;
use flash_cosmos::timeline::{render_channel_timeline, Approach, Fig7Scenario};

use crate::table::{fnum, Table};

/// Fig. 7: OSP/ISP/IFP execution timelines on the illustrative SSD.
pub fn fig07_timeline() -> Vec<Table> {
    let scenario = Fig7Scenario;
    let mut summary = Table::new(
        "Fig. 7 — channel timelines: bulk bitwise OR of three 1 MiB vectors",
        &["approach", "exec time (µs)", "paper (µs)", "bottleneck", "paper bottleneck"],
    );
    let paper = [
        (Approach::Osp, 471.0, "ext"),
        (Approach::Isp, 431.0, "dma"),
        (Approach::Ifp, 335.0, "sense"),
    ];
    let mut timelines = Vec::new();
    for (approach, paper_us, paper_bn) in paper {
        let report = scenario.run(approach);
        summary.row(vec![
            approach.to_string(),
            fnum(report.makespan_us),
            fnum(paper_us),
            report.bottleneck().to_string(),
            paper_bn.to_string(),
        ]);
        let mut t = Table::new(
            format!("Fig. 7 — {approach} timeline, channel 0 (S=sense D=dma E=ext)"),
            &["timeline"],
        );
        for line in render_channel_timeline(&report, &scenario.config(), 76).lines() {
            t.row(vec![line.to_string()]);
        }
        timelines.push(t);
    }
    summary.note("OSP is external-I/O bound, ISP internal-I/O bound, IFP sensing bound (§3.1).");
    let mut out = vec![summary];
    out.append(&mut timelines);
    out
}

/// Fig. 8: RBER vs retention age × P/E cycles, SLC/MLC × randomization.
pub fn fig08_rber() -> Vec<Table> {
    let points = reliability::fig8_sweep();
    let mut out = Vec::new();
    for (scheme, label) in [(ProgramScheme::Slc, "SLC"), (ProgramScheme::Mlc, "MLC")] {
        for randomized in [true, false] {
            let rand_label = if randomized { "with" } else { "without" };
            let mut t = Table::new(
                format!("Fig. 8 — avg RBER, {label}-mode programming, {rand_label} randomization"),
                &["PEC \\ months", "0", "1", "2", "3", "6", "12"],
            );
            for pec in [0u32, 1_000, 2_000, 3_000, 6_000, 10_000] {
                let mut row = vec![format!("{}K", pec / 1000)];
                for months in [0.0, 1.0, 2.0, 3.0, 6.0, 12.0] {
                    let p = points
                        .iter()
                        .find(|p| {
                            p.scheme == scheme
                                && p.randomized == randomized
                                && p.pec == pec
                                && p.retention_months == months
                        })
                        .expect("full grid");
                    row.push(fnum(p.rber));
                }
                t.row(row);
            }
            t.note(match (label, randomized) {
                ("MLC", true) => "paper anchor: best case 8.6e-4 (§7)",
                ("MLC", false) => "paper anchor: worst case 1.6e-2; no-randomization ×4.92 (§3.2)",
                ("SLC", false) => "paper anchor: no-randomization penalty ×1.91 (§3.2)",
                _ => "paper: ~12 orders of magnitude above the 1e-15 UBER requirement (§3.2)",
            });
            out.push(t);
        }
    }
    out
}

/// Fig. 11: RBER vs `tESP` for worst/median/best blocks.
pub fn fig11_esp() -> Table {
    let points = reliability::fig11_sweep();
    let mut t = Table::new(
        "Fig. 11 — RBER vs tESP (10K PEC, 1-year retention, no randomization)",
        &["tESP/tPROG", "worst block", "median block", "best block"],
    );
    for step in 0..=10 {
        let ratio = 1.0 + 0.1 * step as f64;
        let get = |g: BlockGrade| {
            points
                .iter()
                .find(|p| (p.tesp_ratio - ratio).abs() < 1e-9 && p.grade == g)
                .map(|p| fnum(p.rber))
                .unwrap_or_default()
        };
        t.row(vec![
            format!("{ratio:.1}"),
            get(BlockGrade::Worst),
            get(BlockGrade::Median),
            get(BlockGrade::Best),
        ]);
    }
    t.note("paper: one decade of improvement at +60% latency; zero errors for tESP ≥ 1.9×tPROG");
    t.note("(statistical RBER < 2.07e-12 across 4.83e11 validated bits, §5.2)");
    t
}

/// Fig. 12: intra-block MWS latency vs number of read wordlines.
pub fn fig12_intra_mws() -> Table {
    let mut t = Table::new(
        "Fig. 12 — intra-block MWS latency (tMWS / tR) vs simultaneously read WLs",
        &["WLs", "tMWS/tR", "paper"],
    );
    for (n, f) in reliability::fig12_sweep() {
        let paper = match n {
            1 => "1.000",
            8 => "<1.01",
            48 => "1.033",
            _ => "-",
        };
        t.row(vec![n.to_string(), format!("{f:.4}"), paper.to_string()]);
    }
    t.note("§5.2: ≤8 WLs under +1%; all 48 WLs only +3.3% over tR");
    t
}

/// Fig. 13: inter-block MWS latency vs number of activated blocks.
pub fn fig13_inter_mws() -> Table {
    let mut t = Table::new(
        "Fig. 13 — inter-block MWS latency (tMWS / tR) vs activated blocks",
        &["blocks", "tMWS/tR", "paper"],
    );
    for (n, f) in reliability::fig13_sweep() {
        let paper = match n {
            1 => "1.000",
            32 => "1.363",
            _ => "-",
        };
        t.row(vec![n.to_string(), format!("{f:.4}"), paper.to_string()]);
    }
    t.note("§5.2: +36.3% at 32 blocks; WL precharge hidden by BL precharge until ~8 blocks");
    t
}

/// Fig. 14: normalized chip power vs activated blocks.
pub fn fig14_power() -> Table {
    let data = reliability::fig14_sweep();
    let mut t = Table::new(
        "Fig. 14 — normalized chip power of inter-block MWS (worst case: one WL per block)",
        &["blocks", "power (× read)", "paper"],
    );
    for (n, p) in &data.mws_power {
        let paper = match n {
            1 => "1.00",
            2 => "1.34 (+34%)",
            4 => "~1.8 (< erase)",
            5 => "> erase",
            _ => "-",
        };
        t.row(vec![n.to_string(), format!("{p:.2}"), paper.to_string()]);
    }
    t.note(format!(
        "references — read: {:.2}, program: {:.2}, erase: {:.2} (× read)",
        data.read, data.program, data.erase
    ));
    t.note("§5.2: 4-block MWS stays below erase power → Table 1 caps inter-block MWS at 4");
    t
}

/// Table 1: evaluated system configurations.
pub fn table1_config() -> Table {
    let c = SsdConfig::paper_table1();
    let host = fc_host::HostCpu::paper_host();
    let mut t = Table::new("Table 1 — evaluated system configurations", &["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("host CPU", format!("{} cores @ {} GHz (i7-11700K class)", host.cores, host.freq_ghz)),
        (
            "host DRAM",
            format!(
                "DDR4-3600, {} channels, {:.1} GB/s peak",
                host.dram.channels,
                host.dram.peak_gbps()
            ),
        ),
        ("SSD capacity (TLC)", format!("{:.1} TB", c.capacity_bytes(3) as f64 / 1e12)),
        ("external bandwidth", format!("{} GB/s (4-lane PCIe Gen4)", c.external_gbps)),
        ("channel I/O rate", format!("{} GB/s × {} channels", c.channel_gbps, c.channels)),
        (
            "NAND organization",
            format!(
                "{} channels × {} dies × {} planes",
                c.channels, c.dies_per_channel, c.planes_per_die
            ),
        ),
        (
            "blocks/plane",
            format!("{} sub-blocks ({} physical × 4)", c.blocks_per_plane, c.blocks_per_plane / 4),
        ),
        ("WLs/block", format!("{} per sub-block (192 = 4×48 per physical block)", c.wls_per_block)),
        ("page size", format!("{} KiB", c.page_bytes / 1024)),
        ("tR (SLC)", format!("{} µs", c.tr_us)),
        ("tMWS", format!("{} µs (max {} blocks)", c.tmws_us, c.max_inter_blocks)),
        (
            "tPROG SLC/MLC/TLC",
            format!("{}/{}/{} µs", c.tprog_slc_us, c.tprog_mlc_us, c.tprog_tlc_us),
        ),
        ("tESP", format!("{} µs", c.tesp_us)),
        ("ISP accelerator", "bitwise logic + 256 KiB SRAM, 93 pJ / 64 B op".to_string()),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

/// The Fig. 17 / Fig. 18 parameter sweeps.
fn sweep_shapes() -> Vec<(String, Vec<fc_workloads::WorkloadShape>)> {
    vec![
        (
            "BMI (m = months)".to_string(),
            [1u32, 3, 6, 12, 24, 36].iter().map(|&m| bmi::paper_shape(m)).collect(),
        ),
        (
            "IMS (I = images ×1000)".to_string(),
            [10_000u64, 50_000, 100_000, 200_000].iter().map(|&i| ims::paper_shape(i)).collect(),
        ),
        (
            "KCS (k = clique size)".to_string(),
            [8u32, 16, 24, 32, 48, 64].iter().map(|&k| kcs::paper_shape(k)).collect(),
        ),
    ]
}

/// Fig. 17: speedup over OSP for ISP / PB / FC across all three
/// workloads' sweeps.
pub fn fig17_speedup() -> Vec<Table> {
    let engines = Engines::paper();
    let mut out = Vec::new();
    for (title, shapes) in sweep_shapes() {
        let mut t = Table::new(
            format!("Fig. 17 — speedup over OSP: {title}"),
            &["config", "ISP", "PB", "FC", "FC/PB"],
        );
        for shape in &shapes {
            let s = engines.speedups_over_osp(shape);
            let get = |p: Platform| s.iter().find(|(q, _)| *q == p).map(|(_, v)| *v).unwrap();
            let (isp, pb, fc) =
                (get(Platform::Isp), get(Platform::ParaBit), get(Platform::FlashCosmos));
            t.row(vec![shape.name.clone(), fnum(isp), fnum(pb), fnum(fc), fnum(fc / pb)]);
        }
        t.note(
            "paper averages across all workloads: FC = 32× over OSP, 25× over ISP, 3.5× over PB",
        );
        if title.starts_with("BMI") {
            t.note("paper BMI anchors: FC up to 198.4× over OSP; PB 14× over OSP");
        }
        if title.starts_with("IMS") {
            t.note("paper: FC ≈ PB on IMS (result transfer dominates); both ~3× over OSP");
        }
        if title.starts_with("KCS") {
            t.note("paper: PB stops scaling beyond k=16 (serial sensing); FC keeps scaling");
        }
        out.push(t);
    }
    out
}

/// Fig. 18: energy-efficiency gain over OSP (bits per energy, normalized)
/// for ISP / PB / FC.
pub fn fig18_energy() -> Vec<Table> {
    let engines = Engines::paper();
    let mut out = Vec::new();
    for (title, shapes) in sweep_shapes() {
        let mut t = Table::new(
            format!("Fig. 18 — energy efficiency vs OSP: {title}"),
            &["config", "ISP", "PB", "FC", "FC energy (J)"],
        );
        for shape in &shapes {
            let reports = engines.evaluate_all(shape);
            let osp = reports[0].1.energy_j();
            let get = |p: Platform| {
                reports.iter().find(|(rp, _)| *rp == p).map(|(_, r)| r.energy_j()).unwrap()
            };
            t.row(vec![
                shape.name.clone(),
                fnum(osp / get(Platform::Isp)),
                fnum(osp / get(Platform::ParaBit)),
                fnum(osp / get(Platform::FlashCosmos)),
                fnum(get(Platform::FlashCosmos)),
            ]);
        }
        t.note("paper averages: FC = 95× over OSP, 13.4× over ISP, 3.3× over PB");
        if title.starts_with("BMI") {
            t.note("paper BMI m=36 maxima: 1839×/222×/35.5× over OSP/ISP/PB");
        }
        out.push(t);
    }
    out
}

/// §8.3: sequential write bandwidth of ESP vs regular programming.
pub fn sec83_write_bw() -> Table {
    let c = SsdConfig::paper_table1();
    let slc = sequential_write_gbps(&c, c.tprog_slc_us, 1);
    let esp = sequential_write_gbps(&c, c.tesp_us, 1);
    let mlc = sequential_write_gbps(&c, c.tprog_mlc_us, 2);
    let tlc = sequential_write_gbps(&c, c.tprog_tlc_us, 3);
    let mut t = Table::new(
        "§8.3 — sequential write bandwidth by programming scheme",
        &["scheme", "model (GB/s)", "paper (GB/s)", "vs ESP (model)", "vs ESP (paper)"],
    );
    let paper = [("SLC", slc, 6.4), ("ESP", esp, 4.7), ("MLC", mlc, 3.87), ("TLC", tlc, 2.82)];
    for (name, model, paper_v) in paper {
        t.row(vec![
            name.to_string(),
            fnum(model),
            fnum(paper_v),
            format!("{:.1}%", esp / model * 100.0),
            format!("{:.1}%", 4.7 / paper_v * 100.0),
        ]);
    }
    t.note("paper: ESP = 73.4%/121.4%/166.7% of SLC/MLC/TLC write bandwidth (§8.3)");
    t.note("the model reproduces the ordering and the ESP-vs-MLC/TLC ratios; see EXPERIMENTS.md");
    t
}

/// §5.2: the zero-error validation campaign (scaled down).
pub fn sec52_validation(bits: u64) -> Table {
    let esp = reliability::validate_zero_errors(bits, 0x5_EC52);
    let slc = reliability::validate_slc_baseline(bits, 0x5_EC52);
    let mut t = Table::new(
        "§5.2 — MWS result validation at worst-case stress (10K PEC, 1-year retention)",
        &["campaign", "bits checked", "MWS ops", "bit errors", "RBER"],
    );
    t.row(vec![
        "ESP (Flash-Cosmos)".to_string(),
        esp.bits_checked.to_string(),
        esp.mws_ops.to_string(),
        esp.bit_errors.to_string(),
        fnum(esp.bit_errors as f64 / esp.bits_checked as f64),
    ]);
    t.row(vec![
        "regular SLC (ParaBit-style)".to_string(),
        slc.bits_checked.to_string(),
        slc.mws_ops.to_string(),
        slc.bit_errors.to_string(),
        fnum(slc.bit_errors as f64 / slc.bits_checked as f64),
    ]);
    t.note("paper: zero bit errors across >4.83e11 bits with ESP (§5.2); plain SLC cannot");
    t
}

/// Runs every harness and returns all tables (what `cargo bench --bench
/// figures` prints).
pub fn all_figures(validation_bits: u64) -> Vec<Table> {
    let mut out = Vec::new();
    out.push(table1_config());
    out.extend(fig07_timeline());
    out.extend(fig08_rber());
    out.push(fig11_esp());
    out.push(fig12_intra_mws());
    out.push(fig13_inter_mws());
    out.push(fig14_power());
    out.extend(fig17_speedup());
    out.extend(fig18_energy());
    out.push(sec83_write_bw());
    out.push(sec52_validation(validation_bits));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_renders_nonempty() {
        for t in all_figures(100_000) {
            let s = t.render();
            assert!(s.contains("=="), "missing title: {s}");
            assert!(s.lines().count() >= 3, "too short: {s}");
        }
    }

    #[test]
    fn fig17_fc_dominates_pb_on_bmi() {
        let tables = fig17_speedup();
        let bmi = &tables[0];
        // Last sweep point (m=36): FC/PB column > 3.
        let last = bmi.rows.last().unwrap();
        let ratio: f64 = last[4].parse().unwrap();
        assert!(ratio > 3.0, "FC/PB at m=36 is {ratio}");
    }

    #[test]
    fn sec52_esp_shows_zero_errors() {
        let t = sec52_validation(200_000);
        assert_eq!(t.rows[0][3], "0", "ESP row must have zero errors");
        let slc_errors: u64 = t.rows[1][3].parse().unwrap();
        assert!(slc_errors > 0, "SLC row must show errors");
    }
}
