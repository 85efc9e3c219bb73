//! End-to-end integration: full workload instances flow through the
//! Flash-Cosmos device (FTL placement → batched planner → chip MWS →
//! result assembly) and match host ground truth, on both FC and ParaBit
//! paths. Flash-Cosmos runs go through the `submit` query-session API
//! (one jointly planned batch per instance); ParaBit stays serial.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use fc_workloads::{bmi, ims, kcs};
use flash_cosmos::{Expr, FlashCosmosDevice, StoreHints};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bmi_instance_end_to_end() {
    let instance = bmi::mini(12, 1024, 0xE2E1);
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    instance.load(&mut dev).unwrap();
    let fc = instance.run_flash_cosmos(&mut dev).unwrap();
    let pb = instance.run_parabit(&mut dev).unwrap();
    // 12 daily vectors over 8-WL blocks: FC needs ceil(12/8)=2 MWS per
    // stripe; PB needs 12 senses per stripe.
    assert_eq!(pb / fc, 6, "FC {fc} vs PB {pb}");
}

#[test]
fn ims_instance_end_to_end() {
    let instance = ims::mini(2, 24, 16, 0xE2E2);
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    instance.load(&mut dev).unwrap();
    let fc = instance.run_flash_cosmos(&mut dev).unwrap();
    let pb = instance.run_parabit(&mut dev).unwrap();
    assert_eq!(pb, 3 * fc, "3 operands → 3× the ParaBit senses");
}

#[test]
fn kcs_instance_end_to_end() {
    let instance = kcs::mini(64, 4, 3, 0xE2E3);
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    instance.load(&mut dev).unwrap();
    let fc = instance.run_flash_cosmos(&mut dev).unwrap();
    let pb = instance.run_parabit(&mut dev).unwrap();
    // Per stripe per clique: FC fuses AND(k)+OR into one sense; PB needs
    // k+1 senses.
    assert_eq!(pb, 5 * fc, "k=4 plus clique vector → 5× senses for PB");
}

#[test]
fn kcs_batch_stats_match_serial_plan() {
    // The three clique queries are all distinct, so the joint plan
    // matches the serial plan sense for sense — BatchStats must say so.
    let instance = kcs::mini(64, 4, 3, 0xE2E5);
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    // In-batch dedup is under test here, so the cross-batch result cache
    // (which would answer the second submit without sensing) is disabled.
    dev.set_result_cache_capacity(0);
    instance.load(&mut dev).unwrap();
    let stats = instance.run_batch(&mut dev).unwrap();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.senses, stats.serial_senses, "distinct queries share nothing");
    assert_eq!(stats.deduped_queries, 0);
    assert!(stats.critical_path_us <= stats.chip_time_us);
    // A duplicated query list, on the other hand, halves the senses.
    let mut batch = instance.batch();
    batch.extend(instance.queries.iter().map(|q| q.expr.clone()));
    let out = dev.submit(&batch).unwrap();
    assert_eq!(out.stats.deduped_queries, 3);
    assert_eq!(out.stats.senses, stats.senses, "duplicates ride the original passes");
    assert_eq!(out.stats.serial_senses, 2 * stats.serial_senses);
    for (qi, q) in instance.queries.iter().enumerate() {
        assert_eq!(out.results[qi], q.expected);
        assert_eq!(out.results[qi + 3], q.expected);
    }
}

#[test]
fn results_survive_worst_case_aging_with_error_injection() {
    // The paper's end-to-end reliability claim on the full stack: noisy
    // chips at worst-case stress, ESP-stored operands → exact results.
    let instance = bmi::mini(8, 512, 0xE2E4);
    let mut dev = FlashCosmosDevice::new_noisy(SsdConfig::tiny_test());
    instance.load(&mut dev).unwrap();
    dev.ssd_mut().set_retention_months(12.0);
    instance.run_flash_cosmos(&mut dev).unwrap();
}

#[test]
fn many_workloads_share_one_device() {
    // Different workloads co-reside on one SSD without interfering.
    let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let a = bmi::mini(4, 256, 1);
    let b = ims::mini(1, 8, 8, 2);
    a.load(&mut dev).unwrap();
    // IMS operand names don't clash with BMI's, but ids continue.
    let base = dev.operand("day3").unwrap().id + 1;
    for (i, op) in b.operands.iter().enumerate() {
        let h = dev.fc_write(&op.name, &op.data, op.hints.clone()).unwrap();
        assert_eq!(h.id, base + i);
    }
    a.run_flash_cosmos(&mut dev).unwrap();
}

/// The SSD the paper evaluates (Table 1: 64 dies × 2 planes × 8 192
/// blocks of 48-wordline strings, 16 KiB pages) builds as a device and
/// computes. Chips allocate a block's pages at its first program, so the
/// device costs what it stores, not its 1 Mi blocks. CI also runs this
/// test in release under a 1 GiB address-space limit.
#[test]
fn paper_table1_ssd_builds_and_answers_an_and() {
    let config = SsdConfig::paper_table1();
    let bits = 4 * config.page_bits(); // four stripes per operand
    let dev = FlashCosmosDevice::new(config);
    let mut rng = StdRng::seed_from_u64(0x7AB1);
    let data: Vec<BitVec> = (0..2).map(|_| BitVec::random(bits, &mut rng)).collect();
    let ids: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("v{i}"), v, StoreHints::and_group("g")).unwrap().id)
        .collect();
    let expr = Expr::and_vars(ids.iter().copied());
    let (result, stats) = dev.fc_read(&expr).unwrap();
    let lookup = |id| data[ids.iter().position(|&i| i == id).unwrap()].clone();
    assert_eq!(result, expr.eval(&lookup));
    assert_eq!(stats.senses, 4, "one in-flash AND per stripe");
}
