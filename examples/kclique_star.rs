//! K-clique star listing (KCS, §7): the workload where Flash-Cosmos
//! fuses a multi-operand AND and an OR into a *single* sensing operation
//! — the adjacency vectors live in one block (intra-block AND along the
//! NAND strings) and the clique vector in another (inter-block OR across
//! shared bitlines).
//!
//! Run with: `cargo run --example kclique_star`

use fc_ssd::SsdConfig;
use fc_workloads::kcs;
use flash_cosmos::engines::{Engines, Platform};
use flash_cosmos::FlashCosmosDevice;

fn main() {
    // --- functional mini instance --------------------------------------
    let (vertices, k, cliques) = (96, 5, 3);
    let instance = kcs::mini(vertices, k, cliques, 0xC11C);
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    instance.load(&mut dev).expect("load graph");

    println!("KCS mini: {vertices} vertices, {cliques} planted {k}-cliques");
    // All clique queries go down in one batched submission — the listing
    // workload is exactly the many-queries-one-pass shape.
    let out = dev.submit(&instance.batch()).expect("in-flash star batch");
    let mut pb_senses = 0;
    for (q, star) in instance.queries.iter().zip(&out.results) {
        assert_eq!(star, &q.expected);
        let (_, pb) = dev.parabit_read(&q.expr).expect("ParaBit star");
        pb_senses += pb.senses;
        println!("  {} → {} star members", q.label, star.count_ones());
    }
    println!("  Flash-Cosmos senses: {} (AND ∥ OR fused per stripe)", out.stats.senses);
    println!(
        "  batch critical path: {:.1} µs over {:.1} µs of chip time",
        out.stats.critical_path_us, out.stats.chip_time_us
    );
    println!("  ParaBit senses     : {pb_senses} (one per operand)");

    // --- paper-scale projection (Fig. 17c / 18c) -----------------------
    let engines = Engines::paper();
    println!("\npaper-scale KCS sweep (32M vertices, 1024 cliques), speedup over OSP:");
    println!("{:>6} {:>10} {:>10} {:>10}", "k", "ISP", "PB", "FC");
    for k in [8u32, 16, 24, 32, 48, 64] {
        let shape = kcs::paper_shape(k);
        let perf = engines.speedups_over_osp(&shape);
        let get = |p: Platform| perf.iter().find(|(q, _)| *q == p).map(|(_, x)| *x).unwrap();
        println!(
            "{:>6} {:>9.1}x {:>9.1}x {:>9.1}x",
            k,
            get(Platform::Isp),
            get(Platform::ParaBit),
            get(Platform::FlashCosmos),
        );
    }
    println!(
        "(paper: PB's benefit flattens beyond k=16 — serial sensing — while FC keeps scaling)"
    );

    // The whole sweep also evaluates as ONE batched pipeline run — the
    // cost-model analogue of the device's query-session submit.
    let shapes = kcs::paper_shapes(&[8, 16, 24, 32, 48, 64]);
    let merged = engines.evaluate_batch(Platform::FlashCosmos, &shapes);
    let serial: f64 =
        shapes.iter().map(|s| engines.evaluate(Platform::FlashCosmos, s).makespan_us).sum();
    println!(
        "\nbatched FC evaluation of the whole sweep: {:.1} ms (vs {:.1} ms run-by-run)",
        merged.makespan_us / 1e3,
        serial / 1e3
    );
}
