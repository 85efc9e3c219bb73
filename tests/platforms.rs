//! Platform-model integration: Fig. 7 timelines, Fig. 17/18 orderings and
//! headline ratios, §8.3 write bandwidths — the quantitative claims the
//! reproduction must preserve in *shape*.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use fc_workloads::{bmi, ims, kcs};
use flash_cosmos::engines::{Engines, Platform};
use flash_cosmos::timeline::{Approach, Fig7Scenario};
use flash_cosmos::{Expr, FlashCosmosDevice, StoreHints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn get(v: &[(Platform, f64)], p: Platform) -> f64 {
    v.iter().find(|(q, _)| *q == p).map(|(_, x)| *x).unwrap()
}

#[test]
fn fig7_execution_times_within_tolerance() {
    let s = Fig7Scenario;
    let osp = s.run(Approach::Osp).makespan_us;
    let isp = s.run(Approach::Isp).makespan_us;
    let ifp = s.run(Approach::Ifp).makespan_us;
    // Paper: 471 / 431 / 335 µs.
    assert!((osp - 471.0).abs() / 471.0 < 0.07, "OSP {osp}");
    assert!((isp - 431.0).abs() / 431.0 < 0.07, "ISP {isp}");
    assert!((ifp - 335.0).abs() / 335.0 < 0.07, "IFP {ifp}");
}

#[test]
fn average_speedups_match_headline_shape() {
    // §8.1: FC = 32× over OSP, 25× over ISP, 3.5× over PB on average
    // across all workloads and inputs. Geometric means over our sweeps
    // must land in the same regime.
    let engines = Engines::paper();
    let mut shapes = Vec::new();
    shapes.extend([1u32, 3, 6, 12, 24, 36].iter().map(|&m| bmi::paper_shape(m)));
    shapes.extend([10_000u64, 50_000, 100_000, 200_000].iter().map(|&i| ims::paper_shape(i)));
    shapes.extend([8u32, 16, 24, 32, 48, 64].iter().map(|&k| kcs::paper_shape(k)));

    let mut fc_over_osp = 1.0f64;
    let mut fc_over_pb = 1.0f64;
    let mut fc_over_isp = 1.0f64;
    for shape in &shapes {
        let s = engines.speedups_over_osp(shape);
        let fc = get(&s, Platform::FlashCosmos);
        fc_over_osp *= fc;
        fc_over_pb *= fc / get(&s, Platform::ParaBit);
        fc_over_isp *= fc / get(&s, Platform::Isp);
    }
    let n = shapes.len() as f64;
    let (g_osp, g_pb, g_isp) =
        (fc_over_osp.powf(1.0 / n), fc_over_pb.powf(1.0 / n), fc_over_isp.powf(1.0 / n));
    // Paper-headline regime (arithmetic-vs-geometric means and substrate
    // differences leave a factor ~2 band).
    assert!(g_osp > 8.0 && g_osp < 80.0, "FC over OSP geomean {g_osp} (paper avg 32)");
    assert!(g_pb > 1.5 && g_pb < 8.0, "FC over PB geomean {g_pb} (paper avg 3.5)");
    assert!(g_isp > 6.0 && g_isp < 70.0, "FC over ISP geomean {g_isp} (paper avg 25)");
}

#[test]
fn device_senses_what_the_figures_price() {
    // One query per Fig. 17/18 shape, stored as a device places it: the
    // AND operands in one placement group (filling 48-wordline blocks),
    // each OR operand in a group of its own, all on one plane.
    let engines = Engines::paper();
    let cfg = SsdConfig { wls_per_block: 48, blocks_per_plane: 16, ..SsdConfig::tiny_test() };
    let mut shapes = vec![bmi::paper_shape(1), bmi::paper_shape(3), ims::paper_shape(10_000)];
    shapes.extend([8u32, 16, 48, 64].iter().map(|&k| kcs::paper_shape(k)));
    let mut rng = StdRng::seed_from_u64(17);
    for shape in &shapes {
        let dev = FlashCosmosDevice::new(cfg.clone());
        let (ands, ors) = (shape.and_operands as usize, shape.or_operands as usize);
        // Dense vectors, so the AND of 91 of them keeps some ones.
        let vectors: Vec<BitVec> = (0..ands + ors)
            .map(|_| BitVec::from_fn(cfg.page_bits(), |_| rng.gen_bool(0.97)))
            .collect();
        for (i, v) in vectors.iter().enumerate() {
            let group = if i < ands { "and".to_string() } else { format!("or{i}") };
            let hints = StoreHints::and_group(&group).colocated("query");
            dev.fc_write(&format!("v{i}"), v, hints).unwrap();
        }
        let terms =
            std::iter::once(Expr::and_vars(0..ands)).chain((ands..ands + ors).map(Expr::var));
        let query = Expr::or(terms.collect());
        let want = query.eval(&|i| vectors[i].clone());
        let (fc, fc_stats) = dev.fc_read(&query).unwrap();
        let (pb, pb_stats) = dev.parabit_read(&query).unwrap();
        assert_eq!((fc, pb), (want.clone(), want), "{}", shape.name);
        assert_eq!(fc_stats.senses, engines.fc_senses_per_query(shape), "{}: FC", shape.name);
        assert_eq!(pb_stats.senses, shape.operands_per_query(), "{}: PB", shape.name);
    }
}

#[test]
fn bmi_benefits_grow_with_operand_count() {
    // §8.1 observation four: FC's benefits grow with the operand count,
    // while PB's do not.
    let engines = Engines::paper();
    let mut last_fc = 0.0;
    for m in [1u32, 6, 12, 24, 36] {
        let s = engines.speedups_over_osp(&bmi::paper_shape(m));
        let fc = get(&s, Platform::FlashCosmos);
        assert!(fc > last_fc, "FC speedup must grow with m (m={m}: {fc})");
        last_fc = fc;
    }
}

#[test]
fn kcs_parabit_flattens_fc_scales() {
    // §8.1: "the performance of PB does not improve as the number of
    // operands increases (e.g., for k>16 in KCS)".
    let engines = Engines::paper();
    let pb16 = get(&engines.speedups_over_osp(&kcs::paper_shape(16)), Platform::ParaBit);
    let pb64 = get(&engines.speedups_over_osp(&kcs::paper_shape(64)), Platform::ParaBit);
    let fc16 = get(&engines.speedups_over_osp(&kcs::paper_shape(16)), Platform::FlashCosmos);
    let fc64 = get(&engines.speedups_over_osp(&kcs::paper_shape(64)), Platform::FlashCosmos);
    assert!(pb64 < pb16 * 1.3, "PB flat: k16 {pb16} vs k64 {pb64}");
    assert!(fc64 > fc16 * 1.5, "FC scales: k16 {fc16} vs k64 {fc64}");
}

#[test]
fn bmi_energy_max_exceeds_perf_max() {
    // §8.2: energy gains exceed performance gains (95× vs 32× average;
    // 1839× vs 198× at the BMI m=36 maximum).
    let engines = Engines::paper();
    let shape = bmi::paper_shape(36);
    let perf = get(&engines.speedups_over_osp(&shape), Platform::FlashCosmos);
    let energy = get(&engines.energy_gains_over_osp(&shape), Platform::FlashCosmos);
    assert!(energy > perf, "m=36: energy {energy} vs perf {perf}");
    assert!(energy > 200.0, "m=36 energy gain {energy} (paper 1839)");
}

#[test]
fn ims_fc_and_pb_tie() {
    // §8.1 observation six.
    let engines = Engines::paper();
    for i in [10_000u64, 200_000] {
        let s = engines.speedups_over_osp(&ims::paper_shape(i));
        let fc = get(&s, Platform::FlashCosmos);
        let pb = get(&s, Platform::ParaBit);
        assert!((fc / pb - 1.0).abs() < 0.3, "I={i}: FC {fc} vs PB {pb}");
    }
}

#[test]
fn write_bandwidth_ordering() {
    use fc_ssd::pipeline::sequential_write_gbps;
    let c = fc_ssd::SsdConfig::paper_table1();
    let slc = sequential_write_gbps(&c, c.tprog_slc_us, 1);
    let esp = sequential_write_gbps(&c, c.tesp_us, 1);
    let mlc = sequential_write_gbps(&c, c.tprog_mlc_us, 2);
    let tlc = sequential_write_gbps(&c, c.tprog_tlc_us, 3);
    // §8.3: ESP does not degrade write performance vs MLC/TLC.
    assert!(esp > mlc && mlc > tlc && esp < slc);
}
