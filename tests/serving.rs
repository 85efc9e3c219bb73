//! One serving path: every sync read entry point (`submit`,
//! `submit_into`, `fc_read`, `fc_read_into`, `parabit_read`) runs the
//! same serve step and background tail as a drained batch — the same
//! results and stats, die-load accounting, and queued maintenance riding
//! sync-only traffic.

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::{Expr, FlashCosmosDevice, OperandId, QueryBatch, StoreHints};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny-geometry device holding three placement groups of three
/// two-stripe operands (groups spread over dies), plus a batch mixing
/// in-group units, a threshold, cross-group (cross-die merged) queries
/// and a duplicate. Every call builds the identical device.
fn fixture() -> (FlashCosmosDevice, QueryBatch) {
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let mut rng = StdRng::seed_from_u64(0x5E7E);
    let bits = 2 * dev.config().page_bits();
    let mut groups: Vec<Vec<OperandId>> = Vec::new();
    for g in 0..3 {
        let ids = (0..3)
            .map(|i| {
                let v = BitVec::random(bits, &mut rng);
                dev.fc_write(&format!("g{g}-{i}"), &v, StoreHints::and_group(&format!("g{g}")))
                    .unwrap()
                    .id
            })
            .collect();
        groups.push(ids);
    }
    let mut batch = QueryBatch::new();
    for g in &groups {
        batch.push(Expr::and_vars(g.iter().copied()));
    }
    batch.push(Expr::threshold_vars(2, groups[1].iter().copied()));
    batch.push(Expr::or(vec![Expr::and_vars(groups[0].clone()), Expr::var(groups[2][1])]));
    batch.push(Expr::xor(Expr::var(groups[0][2]), Expr::var(groups[1][0])));
    batch.push(Expr::and_vars(groups[0].iter().rev().copied()));
    (dev, batch)
}

fn single(expr: Expr) -> QueryBatch {
    let mut batch = QueryBatch::new();
    batch.push(expr);
    batch
}

#[test]
fn sync_submit_matches_async_submit_and_wait() {
    let (sync_dev, batch) = fixture();
    let (async_dev, _) = fixture();
    // Round 1 is cold; round 2 replays cached units; round 3 follows an
    // overwrite, so part of the batch senses the new placement.
    for round in 0..3 {
        if round == 2 {
            let v = BitVec::ones(2 * sync_dev.config().page_bits());
            sync_dev.fc_overwrite("g1-0", &v).unwrap();
            async_dev.fc_overwrite("g1-0", &v).unwrap();
        }
        let mut sync = sync_dev.submit(&batch).unwrap();
        let ticket = async_dev.submit_async(&batch).unwrap();
        let mut queued = async_dev.wait(ticket).unwrap();
        assert!(sync.failures.is_empty() && queued.failures.is_empty());
        assert_eq!(sync.results, queued.results, "round {round}: results");
        assert!(sync.stats.senses > 0 || round == 1, "round {round} executes");
        // Wall-clock merge time is the one field allowed to differ.
        sync.stats.merge_us = 0.0;
        queued.stats.merge_us = 0.0;
        assert_eq!(sync.stats, queued.stats, "round {round}: stats");
        assert_eq!(sync_dev.die_occupancy(), async_dev.die_occupancy(), "round {round}: die load");
    }
}

/// Writes `n` page-sized operands, each in its own singleton group (one
/// block each, spread over dies), and returns their ids.
fn scattered(dev: &FlashCosmosDevice, n: usize) -> Vec<OperandId> {
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    let bits = dev.config().page_bits();
    (0..n)
        .map(|i| {
            let v = BitVec::random(bits, &mut rng);
            dev.fc_write(&format!("op{i}"), &v, StoreHints::and_group(&format!("solo{i}")))
                .unwrap()
                .id
        })
        .collect()
}

#[test]
fn sync_only_traffic_runs_queued_maintenance() {
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let ids = scattered(&dev, 4);
    let batch = single(Expr::and_vars(ids.iter().copied()));
    let cold = dev.submit(&batch).unwrap();
    assert_eq!(cold.stats.senses, 4, "scattered: one sense per block");
    dev.submit(&batch).unwrap();
    assert!(dev.schedule_maintenance() > 0, "the twice-queried set is hot");
    // No drain ever runs: the next sync read's background tail executes
    // the queued migrations in its idle-die slack.
    let served = dev.submit(&batch).unwrap();
    assert_eq!(served.results, cold.results);
    assert_eq!(dev.pending_jobs(), 0, "the sync read ran every job");
    // The migrations moved placement, not data: the next read replays
    // the cached entry, and with the cache cleared it runs gathered.
    let replayed = dev.submit(&batch).unwrap();
    assert_eq!(replayed.results, cold.results, "migration preserves data");
    assert_eq!((replayed.stats.senses, replayed.stats.cached_units), (0, 1), "a cache hit");
    dev.clear_result_cache();
    let gathered = dev.submit(&batch).unwrap();
    assert_eq!(gathered.results, cold.results, "migration preserves data");
    assert_eq!(gathered.stats.senses, 1, "gathered set is one intra-block MWS");
}

#[test]
fn sync_reads_book_die_load() {
    let total = |dev: &FlashCosmosDevice| dev.die_occupancy().total_us();
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let ids = scattered(&dev, 3);
    let expr = Expr::and_vars(ids.iter().copied());
    assert_eq!(total(&dev), 0.0);
    dev.submit(&single(expr.clone())).unwrap();
    let after_submit = total(&dev);
    assert!(after_submit > 0.0, "a sync submit books its die time");
    dev.submit_into(&single(Expr::var(ids[0])), &mut [BitVec::zeros(0)]).unwrap();
    let after_into = total(&dev);
    assert!(after_into > after_submit, "submit_into books its die time");
    dev.fc_read(&Expr::var(ids[1])).unwrap();
    let after_read = total(&dev);
    assert!(after_read > after_into, "fc_read books its die time");
    dev.fc_read_into(&Expr::var(ids[2]), &mut BitVec::zeros(0)).unwrap();
    assert!(total(&dev) > after_read, "fc_read_into books its die time");
    assert!(dev.die_occupancy().busiest_channel_us() > 0.0, "sync reads book channel lanes");

    // ParaBit runs through the same serve step, without touching the
    // result cache: a Flash-Cosmos read afterwards still senses.
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let ids = scattered(&dev, 3);
    let expr = Expr::and_vars(ids.iter().copied());
    let (pb, pb_stats) = dev.parabit_read(&expr).unwrap();
    assert_eq!(pb_stats.senses, 3);
    assert_eq!(pb_stats.critical_path_us, pb_stats.busiest_die_us, "ParaBit's path is die-only");
    let after_parabit = total(&dev);
    assert!(after_parabit > 0.0, "parabit_read books its die time");
    let (fc, fc_stats) = dev.fc_read(&expr).unwrap();
    assert_eq!(fc, pb);
    assert!(fc_stats.senses > 0, "ParaBit results never enter the result cache");
    assert!(total(&dev) > after_parabit);
}
