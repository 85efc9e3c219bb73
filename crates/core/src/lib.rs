//! # flash-cosmos — in-flash bulk bitwise operations
//!
//! Reproduction of *Flash-Cosmos: In-Flash Bulk Bitwise Operations Using
//! Inherent Computation Capability of NAND Flash Memory* (MICRO 2022).
//!
//! Flash-Cosmos performs bulk bitwise AND/OR/NOT/NAND/NOR/XOR/XNOR
//! *inside* NAND flash chips:
//!
//! * **Multi-Wordline Sensing (MWS)** reads tens of operands with a
//!   single sensing operation — intra-block sensing computes AND along
//!   NAND strings, inter-block sensing computes OR across blocks sharing
//!   bitlines.
//! * **Enhanced SLC-mode Programming (ESP)** widens threshold-voltage
//!   margins so the computation results carry zero bit errors, without
//!   ECC or data randomization.
//!
//! This crate provides the paper's contribution end to end:
//!
//! * [`expr`] — bitwise expressions over stored operand vectors, with
//!   `&`/`|`/`^`/`!` operator sugar on expressions and operand handles.
//! * [`planner`] — compiles expressions to MWS command programs under
//!   the chip's latch-circuit rules (§6.1/Fig. 16).
//! * [`parabit`] — the ParaBit baseline compiler (serial sensing).
//! * [`device`] — the `fc_write`/`fc_read` interface (§6.3) over the
//!   functional SSD.
//! * [`batch`] — the query-session API: a [`QueryBatch`] of many
//!   expressions submitted as one jointly planned device pass, with
//!   cross-query canonical dedup and per-query cost attribution
//!   ([`BatchStats`] — the one per-pass stats record:
//!   `fc_read`, `parabit_read` and [`FcCluster`] passes return it too).
//! * [`session`] — queue-first submission on top of the batch API:
//!   [`FlashCosmosDevice::submit_async`] checks and queues batches and
//!   returns a [`Ticket`]; [`FlashCosmosDevice::drain`] compiles each
//!   queued batch into per-die work queues and retires everything in one
//!   pass whose modeled critical path overlaps batches on idle dies
//!   ([`DrainStats`]); and a cross-batch
//!   **result cache** keyed by canonical form and stamped with
//!   per-operand *data generations* replays repeated units without
//!   sensing — overwrites ([`FlashCosmosDevice::fc_overwrite`]) and
//!   raw-SSD access bump the stamps, so stale results are structurally
//!   unservable, while a migration moves only an operand's *placement
//!   generation* (which queued regroup jobs are checked against), so a
//!   regrouped query keeps its entry. The cache retains by hit
//!   frequency × senses saved and refuses inserts that score below every
//!   resident entry.
//! * [`maintenance`] — the maintenance layer: an affinity tracker
//!   records which operand sets get fused together (and what they
//!   cost), a fixed regrouping rule turns hot scattered sets into
//!   migration jobs with wear-aware target selection, and the device's
//!   one background job queue runs them, beside the scrubber's page
//!   refreshes, in each serving pass's idle-die slack (a
//!   [`drain`](FlashCosmosDevice::drain) or a sync read) under a
//!   critical-path budget. It also holds the placement rule fresh
//!   placement groups follow.
//! * [`recovery`] — the reliability tiers over the physics model's real
//!   bit errors: shifted-Vref read-retry (in the SSD device), cross-die
//!   XOR parity stripes with out-of-place rebuild, retention scrubbing
//!   of at-risk pages through that background job queue, and a
//!   deterministic typed fault-injection harness ([`FaultPlan`]) whose
//!   itemized faults bump only the touched operands' generations (both
//!   of them).
//!   [`FlashCosmosDevice::health`] snapshots which tiers fired
//!   ([`DeviceHealth`]); queries that touch a page no tier
//!   could save fail individually ([`FcError::QueryFailed`]) while the
//!   rest of their batch completes.
//! * [`crossdie`] — the one expression splitter: a query whose operands
//!   span planes splits into per-plane programs merged by the
//!   controller, so die-aware placement (see [`device`]) never turns
//!   into a `PlaneMismatch` error; keyed by home shard instead of
//!   plane, the same splitter plans [`cluster`] queries across shards.
//! * [`engines`] — the four evaluated platforms (OSP/ISP/PB/FC) as
//!   pipeline-model job builders (Figs. 17/18), including batched
//!   multi-workload evaluation; each evaluation returns the pipeline's
//!   own `ExecutionReport`. ParaBit and Flash-Cosmos are priced from the
//!   programs [`parabit`] and [`planner`] compile for one query of the
//!   workload, so the figures count the senses the device runs.
//! * [`reliability`] — the §5 characterization harness (Figs. 8, 11–14,
//!   zero-error validation).
//! * [`timeline`] — the Fig. 7 OSP/ISP/IFP timeline scenario.
//!
//! ## Die-aware placement
//!
//! Distinct placement groups spread across the SSD's dies (least block
//! pressure, ties rotating over channels, then dies; see [`maintenance`]),
//! so a batch of independent queries senses on
//! many dies concurrently — [`BatchStats::dies_used`] reports the spread
//! and [`BatchStats::critical_path_us`] is the busiest die's time, not
//! the serial sum. Groups one expression combines should share a plane
//! for MWS fusion: name a colocation domain with
//! [`StoreHints::colocated`](device::StoreHints::colocated), or pin a
//! group to a die with [`StoreHints::with_die`](device::StoreHints::with_die).
//!
//! ## Quickstart: a batched query session
//!
//! Store operand vectors once, then submit whole batches of queries —
//! the planner dedups common work across queries and reports how many
//! sensing operations the joint plan saved versus serial execution:
//!
//! ```
//! use flash_cosmos::device::{FlashCosmosDevice, StoreHints};
//! use flash_cosmos::batch::QueryBatch;
//! use fc_ssd::SsdConfig;
//! use fc_bits::BitVec;
//!
//! let mut dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
//! let a = BitVec::from_fn(1000, |i| i % 2 == 0);
//! let b = BitVec::from_fn(1000, |i| i % 3 == 0);
//! let c = BitVec::from_fn(1000, |i| i % 5 == 0);
//! let ha = dev.fc_write("a", &a, StoreHints::and_group("g")).unwrap();
//! let hb = dev.fc_write("b", &b, StoreHints::and_group("g")).unwrap();
//! let hc = dev.fc_write("c", &c, StoreHints::and_group("g")).unwrap();
//!
//! // Handles compose with operator sugar; a batch collects many queries.
//! let mut batch = QueryBatch::new();
//! let q_all = batch.push(ha & hb & hc);
//! let q_ab = batch.push(ha & hb);
//! let q_dup = batch.push(hc & hb & ha); // same function as q_all
//!
//! let out = dev.submit(&batch).unwrap();
//! assert_eq!(out.results[q_all], a.and(&b).and(&c));
//! assert_eq!(out.results[q_ab], a.and(&b));
//! assert_eq!(out.results[q_dup], out.results[q_all]);
//! // The duplicate was answered by the first query's pass: 2 queries'
//! // worth of senses for 3 queries.
//! assert_eq!(out.stats.deduped_queries, 1);
//! assert!(out.stats.senses < out.stats.serial_senses);
//! ```
//!
//! One-off queries keep the original single-expression entry point
//! ([`FlashCosmosDevice::fc_read`], now a thin wrapper over a one-query
//! batch), and [`FlashCosmosDevice::fc_read_into`] /
//! [`FlashCosmosDevice::submit_into`] write results into caller-owned
//! buffers for allocation-free steady state.

pub mod audit;
pub mod batch;
pub mod cluster;
pub mod crossdie;
pub mod device;
pub mod engines;
pub mod expr;
pub mod maintenance;
pub mod ops;
pub mod parabit;
pub mod planner;
pub mod recovery;
pub mod reliability;
pub mod session;
pub mod timeline;

pub use audit::{Finding, LintCode, Severity};
pub use batch::{
    BatchResults, BatchStats, Bottleneck, QueryBatch, QueryFailure, QueryId, QueryStats,
};
pub use cluster::FcCluster;
pub use device::{FcError, FlashCosmosDevice, OperandHandle, StoreHints};
pub use engines::{Engines, Platform, WorkloadShape};
pub use expr::{Expr, Nnf, OperandId};
pub use maintenance::{AffinityTracker, MaintenanceStats};
pub use planner::{MwsProgram, PlacementMap, PlanError, PlannerCaps};
pub use recovery::{DeviceHealth, FaultPlan, FaultReport};
pub use session::{CacheStats, DrainStats, Session, Ticket};

/// Compile-time thread-safety contract for the concurrent serving core.
///
/// The shared device handle and everything that crosses a worker-thread
/// boundary with it must stay [`Send`] + [`Sync`]: N OS threads hold one
/// `Arc<FlashCosmosDevice>` and call `submit_async`/`drain`/`wait`
/// concurrently. A future `Rc`/`RefCell`/raw-pointer regression anywhere
/// in the state these types own must fail *this build*, not a stress
/// test three PRs later.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}

    // The shared handle itself, bare and behind the Arc workers clone.
    assert_send_sync::<FlashCosmosDevice>();
    assert_send_sync::<std::sync::Arc<FlashCosmosDevice>>();
    // The session (reachable through `FlashCosmosDevice::session` from
    // any thread) and the ticket protocol's currency.
    assert_send_sync::<Session>();
    assert_send_sync::<Ticket>();
    // Batch types cross the boundary in both directions: built on worker
    // threads, results handed back through `wait`.
    assert_send_sync::<QueryBatch>();
    assert_send_sync::<BatchResults>();
    assert_send_sync::<BatchStats>();
    assert_send_sync::<DrainStats>();
    assert_send_sync::<FcError>();
};
