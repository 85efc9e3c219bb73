//! Multi-threaded serving: N OS threads hammer one shared
//! `Arc<FlashCosmosDevice>` with interleaved `submit_async` / `wait` /
//! `fc_overwrite` / `drain` traffic and every thread's results must stay
//! bit-exact against (a) a software fold model and (b) a single-threaded
//! replay of the identical schedule on a fresh device — plus a
//! finding-free `fc_audit` device pass afterwards.
//!
//! Schedules are generated up front from a pinned seed
//! (`PROPTEST_SEED` env override, decimal or `0x`-hex), so a CI failure
//! reproduces with `PROPTEST_SEED=<seed> cargo test --test concurrency`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use flash_cosmos::{Expr, FcError, FlashCosmosDevice, QueryBatch, StoreHints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 6;
const ROUNDS: usize = 10;

/// Pinned default, overridable via `PROPTEST_SEED` (the same variable
/// the proptest suites replay from, so the CI jobs pin one value).
fn seed() -> u64 {
    match std::env::var("PROPTEST_SEED") {
        Ok(s) => {
            let s = s.trim();
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| s.parse())
                .unwrap_or_else(|_| panic!("unparseable PROPTEST_SEED {s:?}"))
        }
        Err(_) => 0xC0_5E_47_11,
    }
}

/// One step of a worker thread's program order. Disjoint operand sets
/// per thread mean cross-thread interleavings can reorder *device*
/// work freely without changing any thread's observable results.
enum Step {
    /// AND query batch over the thread's own operands (by local index).
    Submit(Vec<Vec<usize>>),
    /// Overwrite own operand `idx` with `data` (model updated in step).
    Overwrite(usize, BitVec),
    /// Explicit drain pass (on top of the drains `wait` issues).
    Drain,
}

/// The full deterministic schedule for one thread. Submissions always
/// complete (`wait`) before the thread's own overwrites run, so each
/// query's expected bits follow from the thread-local model alone.
fn schedule(thread: usize, seed: u64, page_bits: usize) -> Vec<Step> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(thread as u64 + 1));
    let mut steps = Vec::new();
    for round in 0..ROUNDS {
        let queries = (0..2 + round % 3)
            .map(|_| {
                let k = rng.gen_range(2..=OPS_PER_THREAD);
                let mut subset: Vec<usize> = (0..OPS_PER_THREAD).collect();
                for i in (1..subset.len()).rev() {
                    subset.swap(i, rng.gen_range(0..=i));
                }
                subset.truncate(k);
                subset
            })
            .collect();
        steps.push(Step::Submit(queries));
        if round % 3 == 1 {
            let idx = rng.gen_range(0..OPS_PER_THREAD);
            steps.push(Step::Overwrite(idx, BitVec::random(page_bits, &mut rng)));
        }
        if round % 4 == 3 {
            steps.push(Step::Drain);
        }
    }
    steps
}

/// Stores every thread's operand set (thread `t` owns AND group `t<t>`)
/// in a fixed order so the shared device and the single-threaded replay
/// device assign identical operand ids.
fn store_all(dev: &FlashCosmosDevice, seed: u64) -> Vec<(Vec<usize>, Vec<BitVec>)> {
    let bits = dev.config().page_bits();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..THREADS)
        .map(|t| {
            let mut ids = Vec::new();
            let mut data = Vec::new();
            for i in 0..OPS_PER_THREAD {
                let v = BitVec::random(bits, &mut rng);
                let hints = StoreHints::and_group(&format!("t{t}"));
                ids.push(dev.fc_write(&format!("t{t}-{i}"), &v, hints).unwrap().id);
                data.push(v);
            }
            (ids, data)
        })
        .collect()
}

/// Runs one thread's schedule against `dev`, keeping the thread-local
/// bit model current, asserting every batch result against it, and
/// returning the raw result vectors for cross-run comparison.
fn run_schedule(
    dev: &FlashCosmosDevice,
    thread: usize,
    ids: &[usize],
    model: &mut [BitVec],
    steps: &[Step],
) -> Vec<BitVec> {
    let mut observed = Vec::new();
    for step in steps {
        match step {
            Step::Submit(queries) => {
                let batch: QueryBatch = queries
                    .iter()
                    .map(|subset| Expr::and_vars(subset.iter().map(|&i| ids[i])))
                    .collect();
                let ticket = loop {
                    match dev.submit_async(&batch) {
                        Ok(t) => break t,
                        // Backpressure, not failure: drain the queue we
                        // (collectively) filled and resubmit.
                        Err(FcError::Overloaded { queued }) => {
                            assert!(queued > 0, "Overloaded with an empty queue");
                            dev.drain().unwrap();
                        }
                        Err(e) => panic!("submit_async failed: {e}"),
                    }
                };
                let got = ticket.wait(dev).unwrap();
                for (q, subset) in queries.iter().enumerate() {
                    let expect =
                        BitVec::and_fold(&subset.iter().map(|&i| &model[i]).collect::<Vec<_>>());
                    assert_eq!(
                        got.results[q], expect,
                        "thread {thread}: query {q} diverged from the bit model"
                    );
                }
                observed.extend(got.results);
            }
            Step::Overwrite(idx, data) => {
                dev.fc_overwrite(&format!("t{thread}-{idx}"), data).unwrap();
                model[*idx] = data.clone();
            }
            Step::Drain => {
                dev.drain().unwrap();
            }
        }
    }
    observed
}

/// Tentpole acceptance: 4 threads × 10 rounds of interleaved
/// submit/wait/overwrite/drain on one shared device are bit-exact
/// against the software model *and* against a single-threaded replay of
/// the same schedules, and the post-run `fc_audit` device pass is
/// finding-free (which also means every debug-build drain audit along
/// the way stayed silent — an error finding panics the worker).
#[test]
fn concurrent_serving_is_bit_exact_and_audit_clean() {
    let seed = seed();
    let dev = Arc::new(FlashCosmosDevice::new(SsdConfig::tiny_test()));
    let page_bits = dev.config().page_bits();
    let operands = store_all(&dev, seed);

    let concurrent: Vec<Vec<BitVec>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let dev = Arc::clone(&dev);
                let (ids, data) = operands[t].clone();
                scope.spawn(move || {
                    let steps = schedule(t, seed, page_bits);
                    let mut model = data;
                    run_schedule(&dev, t, &ids, &mut model, &steps)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    // Settle any still-queued work, then the full device audit: a
    // healthy device reports nothing.
    dev.drain().unwrap();
    let findings = dev.audit();
    assert!(findings.is_empty(), "device audit after concurrent serving: {findings:?}");

    // Single-threaded ground truth: identical stores + schedules on a
    // fresh device, threads replayed back to back on one thread.
    let reference = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let ref_operands = store_all(&reference, seed);
    for (t, concurrent_results) in concurrent.iter().enumerate() {
        let steps = schedule(t, seed, page_bits);
        let (ids, data) = ref_operands[t].clone();
        let mut model = data;
        let serial = run_schedule(&reference, t, &ids, &mut model, &steps);
        assert_eq!(
            concurrent_results, &serial,
            "thread {t}: concurrent results diverged from the single-threaded replay"
        );
    }
    assert!(reference.audit().is_empty());
}

/// The admission queue is bounded: past capacity `submit_async` fails
/// fast with the typed `FcError::Overloaded { queued }` load signal
/// instead of queueing without limit, and a drain reopens admission.
#[test]
fn admission_queue_is_bounded_and_reopens_after_drain() {
    let mut rng = StdRng::seed_from_u64(seed());
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let bits = dev.config().page_bits();
    let ids: Vec<usize> = (0..2)
        .map(|i| {
            let v = BitVec::random(bits, &mut rng);
            dev.fc_write(&format!("b{i}"), &v, StoreHints::and_group("b")).unwrap().id
        })
        .collect();
    let batch: QueryBatch = std::iter::once(Expr::and_vars(ids.iter().copied())).collect();

    dev.set_admission_capacity(3);
    let tickets: Vec<_> = (0..3).map(|_| dev.submit_async(&batch).unwrap()).collect();
    match dev.submit_async(&batch) {
        Err(FcError::Overloaded { queued }) => assert_eq!(queued, 3),
        other => panic!("expected Overloaded at capacity, got {other:?}"),
    }
    // Still exactly at the bound — the rejected submission queued nothing.
    assert_eq!(dev.session().in_flight(), 3);

    dev.drain().unwrap();
    let reopened = dev.submit_async(&batch).unwrap();
    for t in tickets {
        assert_eq!(t.wait(&dev).unwrap().results.len(), 1);
    }
    assert_eq!(reopened.wait(&dev).unwrap().results.len(), 1);
}

/// Contended backpressure: more threads than queue slots, each retrying
/// `Overloaded` rejections by draining. Every admitted batch retires
/// exactly once with correct bits, and the retire counter balances.
#[test]
fn overloaded_retries_never_lose_or_duplicate_batches() {
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xBEEF);
    let dev = Arc::new(FlashCosmosDevice::new(SsdConfig::tiny_test()));
    let bits = dev.config().page_bits();
    let mut data = Vec::new();
    let ids: Vec<usize> = (0..3)
        .map(|i| {
            let v = BitVec::random(bits, &mut rng);
            let id = dev.fc_write(&format!("c{i}"), &v, StoreHints::and_group("c")).unwrap().id;
            data.push(v);
            id
        })
        .collect();
    let expect = BitVec::and_fold(&data.iter().collect::<Vec<_>>());
    dev.set_admission_capacity(2);

    const PER_THREAD: usize = 8;
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let dev = Arc::clone(&dev);
            let batch: QueryBatch = std::iter::once(Expr::and_vars(ids.iter().copied())).collect();
            let expect = expect.clone();
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    let ticket = loop {
                        match dev.submit_async(&batch) {
                            Ok(t) => break t,
                            Err(FcError::Overloaded { queued }) => {
                                assert!(queued <= 2, "queue exceeded its bound: {queued}");
                                dev.drain().unwrap();
                            }
                            Err(e) => panic!("submit_async failed: {e}"),
                        }
                    };
                    let got = ticket.wait(&dev).unwrap();
                    assert_eq!(got.results, vec![expect.clone()]);
                }
            });
        }
    });
    // Every admitted batch was redeemed by exactly one wait (each loop
    // iteration above consumed its own ticket), so the session ends
    // fully settled: nothing in flight, nothing left unclaimed.
    assert_eq!(dev.session().in_flight(), 0);
    assert_eq!(dev.session().retired(), 0);
    assert!(dev.audit().is_empty());
}

/// Freshness under concurrent writes: two readers query the same AND sets
/// (sync `submit`, and `submit_async` → `wait`) while a writer overwrites
/// one of their operands. The writer logs each new value before it
/// writes and publishes the committed count after `fc_overwrite` returns;
/// a reader notes that count before it submits, and its result must be
/// the AND at some logged version at or above it — never older data from
/// a cached result or a queued compilation.
#[test]
fn readers_never_observe_data_older_than_a_committed_overwrite() {
    const READS: usize = 40;
    const WRITES: usize = 40;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xF4E5);
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let bits = dev.config().page_bits();
    let data: Vec<BitVec> = (0..4).map(|_| BitVec::random(bits, &mut rng)).collect();
    let ids: Vec<usize> = data
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("f{i}"), v, StoreHints::and_group("f")).unwrap().id)
        .collect();
    let updates: Vec<BitVec> = (0..WRITES).map(|_| BitVec::random(bits, &mut rng)).collect();
    // Versions of operand f0, in write order; version 0 is its first write.
    let log = Mutex::new(vec![data[0].clone()]);
    let committed = AtomicUsize::new(1);
    // Two queries read f0, one does not.
    let batch: QueryBatch = [
        Expr::and_vars([ids[0], ids[1]]),
        Expr::and_vars([ids[0], ids[2], ids[3]]),
        Expr::and_vars([ids[1], ids[2]]),
    ]
    .into_iter()
    .collect();
    let expect =
        |f0: &BitVec| [f0.and(&data[1]), f0.and(&data[2]).and(&data[3]), data[1].and(&data[2])];
    // All three threads start together, so the reads overlap the writes.
    let start = Barrier::new(3);

    thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for v in &updates {
                log.lock().unwrap().push(v.clone());
                dev.fc_overwrite("f0", v).unwrap();
                committed.fetch_add(1, Ordering::SeqCst);
            }
        });
        for reader in 0..2 {
            let (dev, log, committed, batch, start) = (&dev, &log, &committed, &batch, &start);
            scope.spawn(move || {
                start.wait();
                for read in 0..READS {
                    let seen = committed.load(Ordering::SeqCst);
                    let results = if (read + reader) % 2 == 0 {
                        dev.submit(batch).unwrap().results
                    } else {
                        let ticket = loop {
                            match dev.submit_async(batch) {
                                Ok(t) => break t,
                                Err(FcError::Overloaded { .. }) => {
                                    dev.drain().unwrap();
                                }
                                Err(e) => panic!("submit_async failed: {e}"),
                            }
                        };
                        ticket.wait(dev).unwrap().results
                    };
                    let log = log.lock().unwrap();
                    assert!(
                        log[seen - 1..].iter().any(|f0| results[..] == expect(f0)[..]),
                        "reader {reader} read {read}: result matches no version at or above {seen}"
                    );
                }
            });
        }
    });
    dev.drain().unwrap();
    assert!(dev.audit().is_empty());
    let (fresh, _) = dev.fc_read(&Expr::and_vars([ids[0], ids[1]])).unwrap();
    assert_eq!(fresh, updates[WRITES - 1].and(&data[1]), "the last overwrite is what reads see");
}

/// Migrations under concurrent readers: two reader threads loop
/// `submit_async` → `drain` → `wait` over AND sets while a writer thread
/// migrates their operands back and forth between two placement groups
/// pinned to different dies. A migration moves pages without changing
/// what they read as, so queued batches compile at drain against the new
/// wordlines, cached results keep answering, and every result stays
/// bit-exact against the software model. The device audit stays clean
/// (in debug builds every drain that senses audits too, and an error
/// finding panics the reader).
#[test]
fn readers_stay_bit_exact_while_their_operands_migrate() {
    const READS: usize = 40;
    const MOVES: usize = 40;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x316A);
    let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
    let bits = dev.config().page_bits();
    let data: Vec<BitVec> = (0..4).map(|_| BitVec::random(bits, &mut rng)).collect();
    let ids: Vec<usize> = data
        .iter()
        .enumerate()
        .map(|(i, v)| dev.fc_write(&format!("m{i}"), v, StoreHints::and_group("m")).unwrap().id)
        .collect();
    let batch: QueryBatch = [
        Expr::and_vars([ids[0], ids[1]]),
        Expr::and_vars([ids[0], ids[2], ids[3]]),
        Expr::and_vars(ids.iter().copied()),
    ]
    .into_iter()
    .collect();
    let expect = [
        data[0].and(&data[1]),
        data[0].and(&data[2]).and(&data[3]),
        BitVec::and_fold(&data.iter().collect::<Vec<_>>()),
    ];
    // All three threads start together, so the reads overlap the moves.
    let start = Barrier::new(3);

    thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            // Every operand in turn, to the east group and then back west.
            for m in 0..MOVES {
                let (group, die) =
                    if (m / ids.len()).is_multiple_of(2) { ("east", 0) } else { ("west", 1) };
                let hints = StoreHints::and_group(group).with_die(die);
                dev.migrate_operand(&format!("m{}", m % ids.len()), hints).unwrap();
            }
        });
        for reader in 0..2 {
            let (dev, batch, expect, start) = (&dev, &batch, &expect, &start);
            scope.spawn(move || {
                start.wait();
                for read in 0..READS {
                    let ticket = loop {
                        match dev.submit_async(batch) {
                            Ok(t) => break t,
                            Err(FcError::Overloaded { .. }) => {
                                dev.drain().unwrap();
                            }
                            Err(e) => panic!("submit_async failed: {e}"),
                        }
                    };
                    dev.drain().unwrap();
                    let results = ticket.wait(dev).unwrap().results;
                    assert_eq!(
                        results[..],
                        expect[..],
                        "reader {reader} read {read}: result diverged from the bit model"
                    );
                }
            });
        }
    });
    dev.drain().unwrap();
    let findings = dev.audit();
    assert!(findings.is_empty(), "device audit after concurrent migrations: {findings:?}");
    // The operands ended in the west group: a cold read senses it there.
    dev.clear_result_cache();
    let (cold, stats) = dev.fc_read(&Expr::and_vars(ids.iter().copied())).unwrap();
    assert_eq!(cold, expect[2]);
    assert_eq!(stats.senses, 1, "gathered in one block");
}
