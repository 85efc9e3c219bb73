//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! These go beyond the paper's figures: each isolates one mechanism and
//! measures it on the functional chip model (not just the analytic cost
//! model), so the numbers are execution-backed.

use fc_bits::BitVec;
use fc_nand::chip::NandChip;
use fc_nand::command::Command;
use fc_nand::config::ChipConfig;
use fc_nand::geometry::{ChipGeometry, WlAddr};
use fc_nand::ispp::ProgramScheme;
use fc_nand::rber::RberModel;
use fc_nand::stress::StressState;
use fc_ssd::pipeline::sequential_write_gbps;
use fc_ssd::SsdConfig;
use fc_workloads::bmi;
use flash_cosmos::planner::{self, PlacementMap, PlannerCaps};
use flash_cosmos::{Expr, Nnf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fnum, Table};

/// A 48-layer single-plane chip with small pages for fast execution-backed
/// ablations.
fn ablation_chip() -> NandChip {
    let mut cfg = ChipConfig::tiny_test();
    cfg.geometry = ChipGeometry {
        planes: 1,
        blocks_per_plane: 64,
        wls_per_block: 48,
        page_bytes: 128,
        subblocks_per_physical_block: 4,
    };
    NandChip::new(cfg)
}

/// MWS fan-in ablation: one-shot multi-operand sensing vs ParaBit's
/// serial sensing, executed on the chip model for 2..=48 operands.
pub fn ablation_mws_fanin() -> Table {
    let mut t = Table::new(
        "Ablation — MWS fan-in: one-shot sensing vs ParaBit serial sensing (executed)",
        &["operands", "FC senses", "FC µs", "PB senses", "PB µs", "PB/FC time"],
    );
    for n in [2u32, 4, 8, 16, 24, 32, 48] {
        let mut chip = ablation_chip();
        let page_bits = chip.config().geometry.page_bits();
        let blk = fc_nand::geometry::BlockAddr::new(0, 0);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut placements = PlacementMap::new();
        let vectors: Vec<BitVec> = (0..n)
            .map(|wl| {
                let v = BitVec::random(page_bits, &mut rng);
                chip.execute(Command::esp_program(blk.wordline(wl), v.clone())).unwrap();
                placements.insert(wl as usize, WlAddr::new(0, 0, wl), false);
                v
            })
            .collect();
        let expr = Expr::and_vars(0..n as usize);
        let nnf = expr.to_nnf();
        let caps = PlannerCaps { max_inter_blocks: 4, wls_per_block: 48 };
        let expect = vectors.iter().skip(1).fold(vectors[0].clone(), |a, v| a.and(v));

        let run = |chip: &mut NandChip, program: &flash_cosmos::MwsProgram| -> (usize, f64) {
            let mut us = 0.0;
            let mut out = None;
            for cmd in &program.commands {
                let o = chip.execute(cmd.clone()).unwrap();
                us += o.latency_us;
                out = o.into_page().or(out);
            }
            assert_eq!(out.as_ref(), Some(&expect), "fan-in {n}");
            (program.sense_count(), us)
        };
        let fc_prog = planner::compile(&nnf, &placements, caps).unwrap();
        let (fc_senses, fc_us) = run(&mut chip, &fc_prog);
        let pb_prog = flash_cosmos::parabit::compile(&nnf, &placements).unwrap();
        let (pb_senses, pb_us) = run(&mut chip, &pb_prog);
        t.row(vec![
            n.to_string(),
            fc_senses.to_string(),
            fnum(fc_us),
            pb_senses.to_string(),
            fnum(pb_us),
            format!("{:.1}×", pb_us / fc_us),
        ]);
    }
    t.note("FC's single sense costs ≤ +3.3% over tR at 48 operands; PB pays one tR per operand");
    t
}

/// OR-strategy ablation (§6.1): inter-block MWS under different power
/// caps vs storing the operands inverted in one block.
pub fn ablation_or_strategy() -> Table {
    let mut t = Table::new(
        "Ablation — OR of N operands: inter-block MWS (by power cap) vs inverse storage",
        &["operands", "cap=2 senses", "cap=4 senses", "cap=8 senses", "inverted senses"],
    );
    for n in [2usize, 4, 8, 16, 32, 48] {
        // Scattered placement: one operand per block (inter-block OR).
        let mut scattered = PlacementMap::new();
        for i in 0..n {
            scattered.insert(i, WlAddr::new(0, i as u32, 0), false);
        }
        // Inverse placement: all operands inverted in one block.
        let mut inverted = PlacementMap::new();
        for i in 0..n {
            inverted.insert(i, WlAddr::new(0, 0, i as u32), true);
        }
        let nnf = Expr::or_vars(0..n).to_nnf();
        let senses = |caps: PlannerCaps, map: &PlacementMap| -> String {
            planner::compile(&nnf, map, caps)
                .map(|p| p.sense_count().to_string())
                .unwrap_or_else(|_| "-".to_string())
        };
        let caps = |c: usize| PlannerCaps { max_inter_blocks: c, wls_per_block: 48 };
        t.row(vec![
            n.to_string(),
            senses(caps(2), &scattered),
            senses(caps(4), &scattered),
            senses(caps(8), &scattered),
            senses(caps(4), &inverted),
        ]);
    }
    t.note("§6.1: 48-operand OR = 12 inter-block MWS at cap 4, but a single intra-block");
    t.note("inverse MWS when stored inverted — the motivation for inverse storage");
    t
}

/// ESP latency-budget ablation: program latency, write bandwidth, RBER
/// and BMI-query correctness probability across `tESP/tPROG`.
pub fn ablation_esp_ratio() -> Table {
    let cfg = SsdConfig::paper_table1();
    let model = RberModel::paper();
    let stress = StressState::worst_case();
    let mut t = Table::new(
        "Ablation — ESP latency budget: reliability vs write cost",
        &[
            "tESP/tPROG",
            "tPROG (µs)",
            "write BW (GB/s)",
            "RBER (worst case)",
            "P(correct BMI m=36)",
        ],
    );
    for step in 0..=5 {
        let ratio = 1.0 + 0.2 * step as f64;
        let scheme = ProgramScheme::Esp { ratio };
        let latency = scheme.program_latency_us();
        let bw = sequential_write_gbps(&cfg, latency, 1);
        let rber = model.rber(scheme, false, stress);
        let p_correct = bmi::correct_output_probability(bmi::PAPER_USERS, 1095, rber);
        t.row(vec![
            format!("{ratio:.1}"),
            fnum(latency),
            fnum(bw),
            fnum(rber),
            if p_correct < 1e-12 { "~0".to_string() } else { format!("{p_correct:.4}") },
        ]);
    }
    t.note("zero RBER at tESP ≥ 1.9×tPROG is what makes the m=36 query answerable at all");
    t
}

/// Quantifies the §3.2 incompatibility: how wrong is an in-flash AND over
/// ECC-encoded or randomized data (Monte-Carlo over pages).
pub fn ablation_ecc_randomization() -> Table {
    use fc_nand::randomizer::Randomizer;
    use fc_ssd::ecc::{EccConfig, PageCodec, PageDecode};

    let mut t = Table::new(
        "Ablation — in-flash AND over protected data (fraction of wrong result bits)",
        &["storage path", "trials", "uncorrectable", "avg wrong bits", "verdict"],
    );
    let trials = 50;
    let bits = 504; // 8 codewords of the (63,45) code → 360 payload bits
    let codec = PageCodec::new(EccConfig::small());
    let payload_bits = bits / codec.code().n() * codec.code().k();
    let mut rng = StdRng::seed_from_u64(0xAB1A);

    // ECC path.
    let mut uncorrectable = 0usize;
    let mut wrong_bits = 0usize;
    for _ in 0..trials {
        let a = BitVec::random(payload_bits, &mut rng);
        let b = BitVec::random(payload_bits, &mut rng);
        let combined = codec.encode_page(&a).and(&codec.encode_page(&b));
        match codec.decode_page(&combined, payload_bits) {
            PageDecode::Uncorrectable => uncorrectable += 1,
            PageDecode::Corrected { data, .. } => {
                wrong_bits += data.hamming_distance(&a.and(&b));
            }
        }
    }
    t.row(vec![
        "ECC-encoded (BCH 63,45)".to_string(),
        trials.to_string(),
        uncorrectable.to_string(),
        fnum(wrong_bits as f64 / trials as f64),
        "unusable".to_string(),
    ]);

    // Randomized path.
    let r = Randomizer::new(3);
    let mut wrong = 0usize;
    for i in 0..trials {
        let a = BitVec::random(1024, &mut rng);
        let b = BitVec::random(1024, &mut rng);
        let a0 = WlAddr::new(0, 0, (2 * i) as u32 % 48);
        let a1 = WlAddr::new(0, 1, (2 * i + 1) as u32 % 48);
        let in_flash = r.randomize(a0, &a).and(&r.randomize(a1, &b));
        wrong += r.derandomize(a0, &in_flash).hamming_distance(&a.and(&b));
    }
    t.row(vec![
        "randomized (LFSR scrambler)".to_string(),
        trials.to_string(),
        "-".to_string(),
        fnum(wrong as f64 / trials as f64),
        "unusable".to_string(),
    ]);

    // The Flash-Cosmos path for reference.
    t.row(vec![
        "raw + ESP (Flash-Cosmos)".to_string(),
        trials.to_string(),
        "0".to_string(),
        "0".to_string(),
        "exact".to_string(),
    ]);
    t.note("§3.2: neither ECC nor randomization commutes with in-flash AND/OR — ESP replaces both");
    t
}

/// ParaBit accumulation beyond 48 operands (§6.1): Flash-Cosmos chains
/// intra-block MWS results through the S-latch; cost grows with blocks,
/// not operands.
pub fn ablation_accumulation() -> Table {
    let mut t = Table::new(
        "Ablation — accumulating beyond one block (§6.1): senses vs operand count",
        &["operands", "blocks", "FC senses", "PB senses"],
    );
    for n in [48usize, 96, 192, 480, 1095] {
        let blocks = n.div_ceil(48);
        let mut map = PlacementMap::new();
        for i in 0..n {
            map.insert(i, WlAddr::new(0, (i / 48) as u32, (i % 48) as u32), false);
        }
        let nnf = Expr::and_vars(0..n).to_nnf();
        let caps = PlannerCaps { max_inter_blocks: 4, wls_per_block: 48 };
        let fc = planner::compile(&nnf, &map, caps).unwrap().sense_count();
        let pb = flash_cosmos::parabit::compile(&nnf, &map).unwrap().sense_count();
        t.row(vec![n.to_string(), blocks.to_string(), fc.to_string(), pb.to_string()]);
    }
    t.note("BMI m=36's 1095 operands: 23 MWS senses for FC vs 1095 serial senses for PB");
    t
}

/// Checks an expression's NNF can be costed (helper for tests).
pub fn plannable(nnf: &Nnf, map: &PlacementMap, caps: PlannerCaps) -> bool {
    planner::compile(nnf, map, caps).is_ok()
}

/// All ablation tables.
pub fn all_ablations() -> Vec<Table> {
    vec![
        ablation_mws_fanin(),
        ablation_or_strategy(),
        ablation_esp_ratio(),
        ablation_ecc_randomization(),
        ablation_accumulation(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_table_shows_constant_fc_cost() {
        let t = ablation_mws_fanin();
        // FC senses stay at 1 for every fan-in ≤ 48.
        for row in &t.rows {
            assert_eq!(row[1], "1", "fan-in {} needs 1 sense", row[0]);
        }
        // PB senses equal the operand count.
        assert_eq!(t.rows.last().unwrap()[3], "48");
    }

    #[test]
    fn or_strategy_inverse_storage_wins() {
        let t = ablation_or_strategy();
        let last = t.rows.last().unwrap(); // 48 operands
        assert_eq!(last[4], "1", "inverted storage → single sense");
        let cap4: usize = last[2].parse().unwrap();
        assert_eq!(cap4, 12, "48 operands at cap 4 → 12 senses (§6.3)");
    }

    #[test]
    fn esp_ratio_table_reaches_zero_rber() {
        let t = ablation_esp_ratio();
        let last = t.rows.last().unwrap(); // ratio 2.0
        assert_eq!(last[3], "0");
        let first = &t.rows[0]; // ratio 1.0
        assert_eq!(first[4], "~0", "plain SLC cannot answer BMI m=36");
    }

    #[test]
    fn accumulation_matches_bmi_headline() {
        let t = ablation_accumulation();
        let last = t.rows.last().unwrap();
        assert_eq!(last[0], "1095");
        assert_eq!(last[2], "23");
        assert_eq!(last[3], "1095");
    }

    #[test]
    fn protected_paths_are_unusable() {
        let t = ablation_ecc_randomization();
        // Randomized AND corrupts roughly half of... at least many bits.
        let rand_row = &t.rows[1];
        let avg: f64 = rand_row[3].parse().unwrap_or(1e9);
        assert!(avg > 100.0, "randomized AND must corrupt many bits: {avg}");
    }
}
