//! The batched query-session API: plan, dedup, and schedule many
//! expressions per device pass.
//!
//! Flash-Cosmos amortizes work *within* one expression — a single MWS
//! sense evaluates tens of operands — but a production bulk-bitwise
//! service (a bitmap index answering thousands of concurrent filters, an
//! HDC classifier matching a query against every prototype) issues many
//! expressions at once. [`QueryBatch`] collects them;
//! [`FlashCosmosDevice::submit`] compiles the whole batch **jointly**:
//!
//! * **Canonical dedup** — queries that are the same Boolean function
//!   after normalization (operand reordering, duplicated terms, XOR
//!   negation parity) share one compiled plan and one set of senses.
//!   Every canonically distinct query compiles whole, as one plan unit,
//!   exactly as a serial `fc_read` would compile it.
//! * **Cross-die execution** — a unit whose operands live on several
//!   dies (die-aware placement spreads distinct groups on purpose) is
//!   split into per-die sub-programs ([`crate::crossdie`]); the partial
//!   pages AND/OR/XOR-merge in the controller, so spanning queries
//!   execute instead of failing with `PlaneMismatch`.
//! * **Die-aware ordering** — per-stripe programs are scheduled die by
//!   die, so the reported critical path reflects cross-die parallelism
//!   ([`BatchStats::critical_path_us`] is the busiest die's time) while
//!   chip time stays the serial-equivalent sum. The host runs the dies
//!   the same way: when a batch senses enough pages to pay for threads
//!   (about 1 MiB, over at least two dies), each die's leaf queue runs on
//!   its own scoped worker thread, taking only that die's chip mutex, and
//!   one in-order pass then does all accounting — so results, stats and
//!   every chip's random draws are bit-identical to serial execution.
//!
//! Results land in caller-provided buffers ([`submit_into`] — zero
//! steady-state allocation) or freshly allocated vectors ([`submit`]),
//! together with a [`BatchStats`] that reports the senses saved versus
//! running every query through a serial [`FlashCosmosDevice::fc_read`].
//!
//! This module is the compile-and-execute half of the device's one
//! serving path: [`submit`], [`submit_into`], `fc_read`, `fc_read_into`
//! and `parabit_read` compile here and then run the same serve step and
//! background tail as every drained batch (see [`crate::session`]).
//! ParaBit differs only in its per-stripe program compiler
//! ([`crate::parabit::compile`]).
//!
//! [`submit`]: FlashCosmosDevice::submit
//! [`submit_into`]: FlashCosmosDevice::submit_into

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fc_bits::BitVec;
use fc_nand::command::{Command, MwsTarget};
use fc_ssd::device::DeviceError;
use fc_ssd::pipeline::DieQueues;

use crate::crossdie::{self, ExecPlan, Leaf, MergeTree};
use crate::device::{DeviceCore, FcError, FlashCosmosDevice};
use crate::expr::{Expr, Literal, Nnf, OperandId};
use crate::parabit;
use crate::planner::{self, PlannerCaps};
use crate::session::{CacheKey, Stamp};

/// Identifies one query inside a [`QueryBatch`] — the index of the
/// matching entry in [`BatchResults::results`] / [`BatchStats::per_query`].
pub type QueryId = usize;

/// An ordered collection of bulk bitwise queries submitted as one unit.
///
/// Build it incrementally with [`QueryBatch::push`] (which accepts
/// anything convertible to [`Expr`], including `OperandHandle`s), or
/// collect an iterator of expressions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBatch {
    queries: Vec<Expr>,
}

impl QueryBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` queries.
    pub fn with_capacity(n: usize) -> Self {
        Self { queries: Vec::with_capacity(n) }
    }

    /// Adds a query and returns its id (position in the batch).
    pub fn push(&mut self, expr: impl Into<Expr>) -> QueryId {
        self.queries.push(expr.into());
        self.queries.len() - 1
    }

    /// Number of queries collected.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The collected queries, in submission order.
    pub fn queries(&self) -> &[Expr] {
        &self.queries
    }
}

impl<E: Into<Expr>> Extend<E> for QueryBatch {
    fn extend<I: IntoIterator<Item = E>>(&mut self, iter: I) {
        self.queries.extend(iter.into_iter().map(Into::into));
    }
}

impl<E: Into<Expr>> FromIterator<E> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = E>>(iter: I) -> Self {
        Self { queries: iter.into_iter().map(Into::into).collect() }
    }
}

/// Per-query share of a batch's execution cost. Costs of plan units
/// shared by several queries are split evenly among the sharers, so the
/// per-query values sum to the batch totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Sensing operations attributed to this query (fractional when a
    /// sense served several queries).
    pub senses: f64,
    /// Chip time attributed to this query, µs.
    pub chip_time_us: f64,
    /// NAND energy attributed to this query, µJ.
    pub energy_uj: f64,
}

/// Execution statistics of one batch submission.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Sensing operations actually executed across the whole batch.
    pub senses: u64,
    /// Sensing operations N serial `fc_read` calls would have executed.
    pub serial_senses: u64,
    /// Serial-equivalent chip time (sum over all commands), µs.
    pub chip_time_us: f64,
    /// Critical path under die *and* channel parallelism: the busier of
    /// the busiest die (sense/program time) and the busiest channel bus
    /// (page output transfers), µs.
    pub critical_path_us: f64,
    /// The busiest die's sense/program time, µs — the die-parallel
    /// component of [`BatchStats::critical_path_us`].
    pub busiest_die_us: f64,
    /// The busiest channel bus's output-transfer occupancy, µs. Exceeds
    /// `busiest_die_us` when the batch is transfer-bound (many pages
    /// streamed out per sense).
    pub busiest_channel_us: f64,
    /// Wall time the controller spent merging cross-die / cross-shard
    /// partial pages, µs. When this rivals `critical_path_us`, the
    /// controller merge — not the flash — is the scaling bottleneck.
    pub merge_us: f64,
    /// Total NAND energy, µJ.
    pub energy_uj: f64,
    /// Queries answered by another query's pass (canonical duplicates).
    pub deduped_queries: usize,
    /// Plan units answered by the cross-batch result cache (no compile,
    /// no sensing — see `flash_cosmos::session`).
    pub cached_units: usize,
    /// Sensing operations the cache hits avoided (what the joint plan
    /// would have executed for those units on a cold cache). Counted in
    /// `serial_senses` but not in `senses`.
    pub cached_senses: u64,
    /// Distinct dies that executed sensing work — >1 means the batch
    /// genuinely exploited die-level parallelism (and `critical_path_us`
    /// sits below `chip_time_us`).
    pub dies_used: usize,
    /// Cost split per query, indexed by [`QueryId`].
    pub per_query: Vec<QueryStats>,
}

impl BatchStats {
    /// Senses the joint plan avoided versus serial execution.
    pub fn senses_saved(&self) -> u64 {
        self.serial_senses.saturating_sub(self.senses)
    }

    /// Which resource bounded this batch: the busiest die, the busiest
    /// channel bus, or the controller merge. Saturation attribution for
    /// the channel-scaling story — near-linear qps scaling holds while
    /// this stays [`Bottleneck::Die`]/[`Bottleneck::Channel`] and breaks
    /// when the serial controller merge takes over.
    pub fn bottleneck(&self) -> Bottleneck {
        Bottleneck::of(self.busiest_die_us, self.busiest_channel_us, self.merge_us)
    }

    /// The controller merge's share of the critical path plus merge time,
    /// in `[0, 1]` — 0 when the pass was pure flash work.
    pub fn merge_share(&self) -> f64 {
        merge_share(self.critical_path_us, self.merge_us)
    }
}

/// The resource a batch (or drain pass) saturated — see
/// [`BatchStats::bottleneck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Sense/program time on the busiest die dominates.
    Die,
    /// Output transfers on the busiest channel bus dominate.
    Channel,
    /// The controller's serial cross-die / cross-shard merge dominates.
    Merge,
}

impl Bottleneck {
    /// The one attribution rule every stats struct reports: the merge
    /// when it exceeds both flash lanes, else the busier of channel and
    /// die (ties go to the die).
    pub(crate) fn of(busiest_die_us: f64, busiest_channel_us: f64, merge_us: f64) -> Self {
        if merge_us > busiest_die_us && merge_us > busiest_channel_us {
            Bottleneck::Merge
        } else if busiest_channel_us > busiest_die_us {
            Bottleneck::Channel
        } else {
            Bottleneck::Die
        }
    }
}

/// The controller merge's share of `critical_us + merge_us`, in
/// `[0, 1]` — 0 when the pass was pure flash work.
pub(crate) fn merge_share(critical_us: f64, merge_us: f64) -> f64 {
    let total = critical_us + merge_us;
    if total <= 0.0 {
        0.0
    } else {
        merge_us / total
    }
}

/// Results of [`FlashCosmosDevice::submit`]: one vector per query, in
/// submission order, plus the batch statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResults {
    /// Per-query result vectors, indexed by [`QueryId`]. Failed queries
    /// (listed in [`BatchResults::failures`]) hold empty vectors.
    pub results: Vec<BitVec>,
    /// Batch execution statistics.
    pub stats: BatchStats,
    /// Queries that could not be answered (per-query failure isolation:
    /// the rest of the batch executed normally). Empty on full success.
    pub failures: Vec<QueryFailure>,
}

/// One query of a batch that could not be answered: a page it depends on
/// stayed unreadable after every recovery tier. The same facts surface
/// as [`FcError::QueryFailed`] on the fail-fast paths
/// ([`FlashCosmosDevice::submit_into`] / [`FlashCosmosDevice::fc_read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryFailure {
    /// The failed query.
    pub query: QueryId,
    /// The logical page that stayed unreadable.
    pub lpn: u64,
    /// Recovery tiers attempted before giving up (1 = retry ladder,
    /// 2 = + parity rebuild).
    pub tiers_tried: u32,
}

/// One canonically distinct query of a batch, as dedup builds it: the
/// first submitted form (what gets compiled), its canonical form (the
/// dedup key, shared as the cache key so the hot warm-resubmit path
/// never re-canonicalizes or clones it), its operands, its stripe count
/// and every query id it answers.
struct Unit {
    nnf: Nnf,
    canon: CacheKey,
    ids: Vec<OperandId>,
    pages: usize,
    consumers: Vec<QueryId>,
}

/// How a planned unit obtains its result vector. Each variant holds only
/// what the [`PlannedUnit`] does not: the unit's expression is its
/// `nnf`, its operands are the ids of its stamp, and an executed unit's
/// sense total is its leaf programs' ([`UnitWork::senses`]).
pub(crate) enum UnitWork {
    /// Served from the cross-batch result cache: the unit's full output,
    /// copied at compile time under the read guard the batch is served
    /// under (so the data generations in the unit's stamp still hold when
    /// it replays), plus the senses the hit saved.
    Cached {
        /// The memoized unit output (`pages × page_bits` bits).
        result: BitVec,
        /// Senses the hit saved: what the execution that computed
        /// `result` cost.
        senses: u64,
    },
    /// Controller evaluation: the unit touches a multi-level operand
    /// ([`FlashCosmosDevice::fc_write_ml`]), whose pages are Gray-coded
    /// cell levels rather than raw SLC bits — no MWS sense can combine
    /// them, so the controller reads every page of the unit's operands
    /// (2–4 senses per MLC/TLC page) and evaluates the unit expression
    /// itself. This is the density side of the §6.3 trade, priced
    /// honestly against in-flash sensing.
    Controller {
        /// Total senses the page reads cost across all stripes.
        senses: u64,
    },
    /// Compiled per-plane programs to execute on the chips.
    Execute {
        /// All stripes' leaves, in flatten order (merge trees index into
        /// this list).
        leaves: Vec<Leaf>,
        /// Stripe slot per leaf.
        slots: Vec<usize>,
        /// Controller merge per stripe slot. `None` for a stripe with a
        /// single leaf: that leaf's page *is* the stripe's result and
        /// streams straight into the unit output.
        merges: Vec<Option<MergeTree>>,
    },
}

impl UnitWork {
    /// Senses the unit costs: its leaf programs' senses when executed,
    /// its page reads' under controller evaluation, and what the hit
    /// saved when cached.
    pub(crate) fn senses(&self) -> u64 {
        match self {
            UnitWork::Cached { senses, .. } | UnitWork::Controller { senses } => *senses,
            UnitWork::Execute { leaves, .. } => {
                leaves.iter().map(|leaf| leaf.program.sense_count() as u64).sum()
            }
        }
    }
}

/// One planned unit of a compiled batch.
pub(crate) struct PlannedUnit {
    pub(crate) pages: usize,
    pub(crate) consumers: Vec<QueryId>,
    /// The unit expression as compiled (the plan lint re-derives the
    /// cross-die and threshold-lowering contracts from it — see
    /// [`crate::audit`]).
    pub(crate) nnf: Nnf,
    /// Result-cache key: the canonical form, shared with the cache.
    pub(crate) key: CacheKey,
    /// The data the unit reads: compile-time epoch and the data
    /// generation of each operand of `key`, ascending by id.
    pub(crate) stamp: Stamp,
    pub(crate) work: UnitWork,
}

/// A batch compiled against the current placement and cache state, ready
/// to execute under the read guard it was compiled under — by a sync read
/// ([`FlashCosmosDevice::submit_into`]) or by the drain that claimed it
/// ([`FlashCosmosDevice::drain`]).
pub(crate) struct CompiledBatch {
    pub(crate) q_bits: Vec<usize>,
    pub(crate) q_pages: Vec<usize>,
    pub(crate) units: Vec<PlannedUnit>,
    /// [`BatchStats::deduped_queries`]. This and the next are the stats
    /// only compilation knows; execution counts the rest, cached units
    /// included, from the units it runs.
    pub(crate) deduped_queries: usize,
    /// [`BatchStats::serial_senses`].
    pub(crate) serial_senses: u64,
    /// Whether executed unit results enter the result cache. Off for
    /// ParaBit plans: a baseline run must not turn a later Flash-Cosmos
    /// read of the same expression into a cache hit.
    pub(crate) memoize: bool,
}

impl CompiledBatch {
    /// Queries in the source batch.
    pub(crate) fn queries(&self) -> usize {
        self.q_bits.len()
    }
}

impl DeviceCore {
    /// Compiles a batch against the current placement, one plan unit per
    /// canonically distinct query, consulting the cross-batch result
    /// cache per unit — the planning half of every Flash-Cosmos read,
    /// sync or async (a drain compiles each batch it claims). Records
    /// each unit's operand set with the maintenance affinity tracker:
    /// every submission compiles once, so it is one observation.
    pub(crate) fn compile_batch(&self, batch: &QueryBatch) -> Result<CompiledBatch, FcError> {
        let n = batch.len();

        // Validate every query and capture its geometry.
        let mut q_bits = vec![0usize; n];
        let mut q_pages = vec![0usize; n];
        let mut q_nnf: Vec<Nnf> = Vec::with_capacity(n);
        for (qi, expr) in batch.queries().iter().enumerate() {
            (q_bits[qi], q_pages[qi]) = self.query_geometry(expr)?;
            q_nnf.push(expr.to_nnf());
        }

        // Canonical dedup: queries with the same normal form share one
        // unit, compiled from the first submitted form. Its canonical form
        // becomes the unit's cache key without being recomputed or cloned.
        let mut key_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut units: Vec<Unit> = Vec::new();
        let mut q_unit: Vec<usize> = Vec::with_capacity(n);
        for (qi, nnf) in q_nnf.iter().enumerate() {
            let u = *key_index.entry(Arc::new(canonicalize(nnf))).or_insert_with_key(|canon| {
                units.push(Unit {
                    nnf: nnf.clone(),
                    canon: Arc::clone(canon),
                    ids: nnf.operands().into_iter().collect(),
                    pages: q_pages[qi],
                    consumers: Vec::new(),
                });
                units.len() - 1
            });
            units[u].consumers.push(qi);
            q_unit.push(u);
        }
        let deduped_queries = n - units.len();

        let caps = PlannerCaps::for_config(self.ssd.config());

        // Compile every unit: a cache hit copies the memoized result (no
        // plans compiled, no senses queued); a miss compiles each stripe
        // into a cross-die plan whose leaves queue on their dies. Unit
        // stamps hold data generations (a cached result names bits), so a
        // migration leaves a unit's entry valid.
        let mut planned: Vec<PlannedUnit> = Vec::with_capacity(units.len());
        for unit in units {
            let gens = unit.ids.iter().map(|&id| (id, self.operand_data_generation(id))).collect();
            let stamp = Stamp { epoch: self.epoch, gens };
            let cached = self
                .session
                .cache()
                .lookup(&unit.canon, &stamp)
                .map(|e| (e.result.clone(), e.senses));
            let work = if let Some((result, senses)) = cached {
                UnitWork::Cached { result, senses }
            } else if self.touches_ml(&unit.ids) {
                // Units touching a multi-level operand bypass the
                // planner: their pages cannot join an MWS sense (see
                // [`UnitWork::Controller`]).
                UnitWork::Controller { senses: self.controller_senses(&unit.ids)? }
            } else {
                stripe_work(unit.pages, |slot| self.stripe_plan(&unit.nnf, &unit.ids, slot, caps))?
            };
            // The maintenance layer's observation stream: this set was
            // fused again (a cache hit counts too).
            self.session.affinity().record(
                &unit.ids,
                work.senses(),
                unit.pages as u64,
                unit.consumers.len() as u64,
            );
            planned.push(PlannedUnit {
                pages: unit.pages,
                consumers: unit.consumers,
                nnf: unit.nnf,
                key: unit.canon,
                stamp,
                work,
            });
        }
        // Serial reference (the paper's headline metric): what N
        // back-to-back `fc_read`s would sense — each query priced at its
        // own form's standalone cost. A query written as its unit's form
        // costs what the unit executes. A canonical duplicate written
        // differently (reordered or repeated literals) can compile to a
        // different sense count, so it is priced by its own form: one
        // stripe-0 compile per distinct form, projected across slots
        // (stripe structure is slot-invariant — placement groups fill
        // every slot the same way). (Found by the pinned-seed proptest
        // replay: pricing every consumer at its unit's cost drifted from
        // an actual serial loop.)
        let mut form_cost: HashMap<&Nnf, u64> = HashMap::new();
        let mut serial_senses = 0;
        for (qi, nnf) in q_nnf.iter().enumerate() {
            let unit = &planned[q_unit[qi]];
            serial_senses += if *nnf == unit.nnf {
                unit.work.senses()
            } else if let Some(&cost) = form_cost.get(nnf) {
                cost
            } else {
                let ids: Vec<OperandId> = nnf.operands().into_iter().collect();
                let cost = if self.touches_ml(&ids) {
                    self.controller_senses(&ids)?
                } else {
                    self.stripe_plan(nnf, &ids, 0, caps)?.sense_count() as u64 * q_pages[qi] as u64
                };
                form_cost.insert(nnf, cost);
                cost
            };
        }
        let compiled = CompiledBatch {
            q_bits,
            q_pages,
            units: planned,
            deduped_queries,
            serial_senses,
            memoize: true,
        };
        // Pass 1 of the static analyzer: lint the plan IR before any chip
        // is touched (debug builds only — release keeps the hot compile
        // path unchanged; see `crate::audit`).
        #[cfg(debug_assertions)]
        crate::audit::enforce_plan(self, &compiled);
        Ok(compiled)
    }

    /// Compiles one expression with the ParaBit baseline compiler — one
    /// single-wordline sense per operand, stripe by stripe — into a
    /// one-unit batch for the shared executor. No dedup or cache lookup
    /// (the baseline is priced as it runs), and the result is not
    /// memoized. Operands spanning dies split into per-die programs plus a
    /// controller merge, exactly like the Flash-Cosmos plans.
    pub(crate) fn compile_parabit(&self, expr: &Expr) -> Result<CompiledBatch, FcError> {
        let (bits, pages) = self.query_geometry(expr)?;
        let ids: Vec<OperandId> = expr.operands().into_iter().collect();
        let nnf = expr.to_nnf();
        let work = stripe_work(pages, |slot| {
            let map = self.stripe_map(&ids, slot)?;
            crossdie::compile_spanning(&nnf, &|id| self.operand_plane(id, slot), &mut |sub| {
                parabit::compile(sub, &map)
            })
            .map_err(FcError::Plan)
        })?;
        let serial_senses = work.senses();
        let gens = ids.iter().map(|&id| (id, self.operand_data_generation(id))).collect();
        Ok(CompiledBatch {
            q_bits: vec![bits],
            q_pages: vec![pages],
            units: vec![PlannedUnit {
                pages,
                consumers: vec![0],
                key: Arc::new(canonicalize(&nnf)),
                stamp: Stamp { epoch: self.epoch, gens },
                nnf,
                work,
            }],
            deduped_queries: 0,
            serial_senses,
            memoize: false,
        })
    }

    /// A query's vector length and stripe count, after checking that it
    /// names at least one operand and that every operand it names exists
    /// and has the same geometry — the admission check of
    /// [`FlashCosmosDevice::submit_async`], and the first step of every
    /// compile.
    pub(crate) fn query_geometry(&self, expr: &Expr) -> Result<(usize, usize), FcError> {
        let ids = expr.operands();
        let first = self.record(*ids.first().ok_or(FcError::SizeMismatch)?)?;
        let (bits, pages) = (first.bits, first.lpns.len());
        for &id in &ids {
            let r = self.record(id)?;
            if r.bits != bits || r.lpns.len() != pages {
                return Err(FcError::SizeMismatch);
            }
        }
        Ok((bits, pages))
    }

    /// Executes a compiled batch on the chips: leaves run die-major (each
    /// die's queue is contiguous), cached units replay their memoized
    /// pages, fresh unit results populate the cache (when the batch
    /// memoizes), and every unit accumulates into its consumers' outputs.
    /// Returns the batch's stats, its per-query failures and its own
    /// per-die and per-channel occupancy.
    pub(crate) fn execute_compiled(
        &self,
        compiled: &CompiledBatch,
        outs: &mut [BitVec],
    ) -> Result<(BatchStats, Vec<QueryFailure>, DieQueues), FcError> {
        self.execute_with(compiled, outs, None)
    }

    /// [`Self::execute_compiled`] with the sensing thread count forced to
    /// `workers` instead of decided from the batch (`None`) — the lever
    /// the serial-versus-parallel differential tests pull.
    fn execute_with(
        &self,
        compiled: &CompiledBatch,
        outs: &mut [BitVec],
        workers: Option<usize>,
    ) -> Result<(BatchStats, Vec<QueryFailure>, DieQueues), FcError> {
        let n = compiled.queries();
        let mut stats = BatchStats {
            queries: n,
            serial_senses: compiled.serial_senses,
            deduped_queries: compiled.deduped_queries,
            per_query: vec![QueryStats::default(); n],
            ..BatchStats::default()
        };
        for unit in &compiled.units {
            if let UnitWork::Cached { senses, .. } = unit.work {
                stats.cached_units += 1;
                stats.cached_senses += senses;
            }
        }
        let page_bits = self.ssd.config().page_bits();
        let xfer_us = self.ssd.config().page_transfer_us();

        // Per-query failure isolation: a unit that would read a page the
        // recovery layer recorded as lost (unreadable after the retry
        // ladder *and* parity rebuild) cannot produce a correct answer.
        // Its consumer queries fail individually; every other unit of the
        // batch executes normally.
        let mut unit_failed: Vec<Option<u64>> = vec![None; compiled.units.len()];
        if self.lost_page_count() > 0 {
            for (ui, unit) in compiled.units.iter().enumerate() {
                'ids: for &(id, _) in &unit.stamp.gens {
                    for &lpn in &self.operands[id].lpns {
                        if self.is_lost_page(lpn) {
                            unit_failed[ui] = Some(lpn);
                            break 'ids;
                        }
                    }
                }
            }
        }
        let mut failures: Vec<QueryFailure> = Vec::new();
        for (ui, unit) in compiled.units.iter().enumerate() {
            if let Some(lpn) = unit_failed[ui] {
                for &qi in &unit.consumers {
                    failures.push(QueryFailure { query: qi, lpn, tiers_tried: 2 });
                }
            }
        }
        failures.sort_by_key(|f| f.query);
        failures.dedup_by_key(|f| f.query);

        // Global die-major execution order over all units' leaves.
        let mut order: Vec<(usize, usize)> = Vec::new();
        for (ui, unit) in compiled.units.iter().enumerate() {
            if unit_failed[ui].is_some() {
                continue;
            }
            if let UnitWork::Execute { leaves, slots, .. } = &unit.work {
                order.extend((0..leaves.len()).map(|li| (ui, li)));
                debug_assert_eq!(leaves.len(), slots.len());
            }
        }
        order.sort_by_key(|&(ui, li)| {
            let UnitWork::Execute { leaves, slots, .. } = &compiled.units[ui].work else {
                unreachable!("order only holds executable units");
            };
            (leaves[li].plane.die, slots[li], ui, li)
        });

        let mut unit_outs: Vec<Option<BitVec>> = compiled
            .units
            .iter()
            .map(|u| match &u.work {
                UnitWork::Execute { .. } | UnitWork::Controller { .. } => {
                    Some(BitVec::zeros(u.pages * page_bits))
                }
                UnitWork::Cached { .. } => None,
            })
            .collect();
        let mut partials: Vec<Vec<Option<BitVec>>> = compiled
            .units
            .iter()
            .map(|u| match &u.work {
                UnitWork::Execute { leaves, .. } => vec![None; leaves.len()],
                UnitWork::Cached { .. } | UnitWork::Controller { .. } => Vec::new(),
            })
            .collect();

        // Sense every leaf (in parallel across dies when the batch is big
        // enough), then account for the outcomes strictly in `order`: the
        // first failing leaf in that order is the error serial execution
        // would have hit, and every f64 sum accumulates in serial order.
        let workers = workers.unwrap_or_else(|| self.leaf_workers(compiled, &order));
        let outcomes = self.run_leaves(compiled, &order, workers);
        let mut own = DieQueues::for_config(self.ssd.config());
        for (&(ui, li), outcome) in order.iter().zip(outcomes) {
            let unit = &compiled.units[ui];
            let UnitWork::Execute { leaves, slots, merges } = &unit.work else {
                unreachable!("order only holds executable units");
            };
            let leaf = &leaves[li];
            let (page, latency, energy) =
                outcome.expect("a die's run stops only after a failing leaf")?;
            let senses = leaf.program.sense_count() as u64;
            stats.senses += senses;
            stats.chip_time_us += latency;
            stats.energy_uj += energy;
            let die_flat = leaf.plane.die.flat(self.ssd.config());
            own.push(die_flat, latency);
            // The ReadOut's page streams over the die's channel bus —
            // bus occupancy, not die occupancy (the die is free to sense
            // the next leaf while the bus drains).
            own.push_transfer(die_flat, xfer_us);
            // Amortized attribution: a unit serving several queries splits
            // its cost evenly. A consumer-less unit (nothing to attribute
            // to) must not poison the stats with a division by zero.
            debug_assert!(!unit.consumers.is_empty(), "plan units always feed ≥ 1 query");
            if !unit.consumers.is_empty() {
                let share = 1.0 / unit.consumers.len() as f64;
                for &qi in &unit.consumers {
                    let qs = &mut stats.per_query[qi];
                    qs.senses += senses as f64 * share;
                    qs.chip_time_us += latency * share;
                    qs.energy_uj += energy * share;
                }
            }
            if merges[slots[li]].is_none() {
                unit_outs[ui]
                    .as_mut()
                    .expect("executable units own an output buffer")
                    .copy_from(slots[li] * page_bits, &page);
            } else {
                partials[ui][li] = Some(page);
            }
        }
        // Controller units: read every operand page (the full multi-level
        // page-read cost) and evaluate the expression in the controller.
        for (ui, unit) in compiled.units.iter().enumerate() {
            if unit_failed[ui].is_some() {
                continue;
            }
            let UnitWork::Controller { senses } = &unit.work else { continue };
            let mut latency_total = 0.0;
            let mut env: HashMap<OperandId, BitVec> = HashMap::new();
            for slot in 0..unit.pages {
                env.clear();
                for &(id, _) in &unit.stamp.gens {
                    let rec = &self.operands[id];
                    let lpn = rec.lpns[slot];
                    let die_flat = rec.planes[slot].die.flat(self.ssd.config());
                    let page = self.ssd.read(lpn)?;
                    let us = self.page_read_senses(lpn) as f64 * fc_nand::calib::timing::T_R_SLC_US;
                    own.push(die_flat, us);
                    // Controller evaluation moves every operand page off
                    // the die — each read crosses the channel bus.
                    own.push_transfer(die_flat, xfer_us);
                    latency_total += us;
                    env.insert(id, page);
                }
                let page = unit.nnf.eval(&|id| env[&id].clone());
                unit_outs[ui]
                    .as_mut()
                    .expect("controller units own an output buffer")
                    .copy_from(slot * page_bits, &page);
            }
            stats.senses += *senses;
            stats.chip_time_us += latency_total;
            debug_assert!(!unit.consumers.is_empty(), "plan units always feed ≥ 1 query");
            if !unit.consumers.is_empty() {
                let share = 1.0 / unit.consumers.len() as f64;
                for &qi in &unit.consumers {
                    let qs = &mut stats.per_query[qi];
                    qs.senses += *senses as f64 * share;
                    qs.chip_time_us += latency_total * share;
                }
            }
        }
        stats.busiest_die_us = own.busiest_us();
        stats.busiest_channel_us = own.busiest_channel_us();
        stats.critical_path_us = own.critical_path_us();
        stats.dies_used = own.dies_busy();

        // Merge each spanning unit-stripe's buffered partial pages into
        // the unit output. Measured: the merge is the one serial stage of
        // a batch (dies and channels parallelize, the controller does
        // not), so its wall time is the saturation signal the scaling
        // bench attributes against.
        let merge_start = std::time::Instant::now();
        for (ui, unit) in compiled.units.iter().enumerate() {
            if unit_failed[ui].is_some() {
                continue;
            }
            let UnitWork::Execute { merges, .. } = &unit.work else { continue };
            for (slot, tree) in merges.iter().enumerate() {
                let Some(tree) = tree else { continue };
                let page = crossdie::eval_merge(tree, &mut partials[ui]);
                unit_outs[ui]
                    .as_mut()
                    .expect("executable units own an output buffer")
                    .copy_from(slot * page_bits, &page);
            }
        }
        stats.merge_us = merge_start.elapsed().as_secs_f64() * 1e6;

        // Write each unit's result into its consumers' outputs (every
        // query has one unit and its output starts zeroed, so the OR is a
        // plain copy into the recycled buffer) and memoize fresh results
        // for future submits.
        for (qi, out) in outs.iter_mut().enumerate() {
            out.reset(compiled.q_pages[qi] * page_bits, false);
        }
        for (ui, unit) in compiled.units.iter().enumerate() {
            if unit_failed[ui].is_some() {
                continue;
            }
            let (result, fresh) = match &unit.work {
                UnitWork::Cached { result, .. } => (result, false),
                UnitWork::Execute { .. } | UnitWork::Controller { .. } => {
                    (unit_outs[ui].as_ref().expect("executable units own an output buffer"), true)
                }
            };
            for &qi in &unit.consumers {
                outs[qi].or_assign(result);
            }
            if fresh && compiled.memoize {
                self.session.cache().insert(&unit.key, &unit.stamp, result, unit.work.senses());
            }
        }
        for (qi, out) in outs.iter_mut().enumerate() {
            out.resize(compiled.q_bits[qi], false);
        }
        // A failed query must not look like an all-zeros answer: its
        // output buffer is emptied instead.
        for f in &failures {
            outs[f.query].reset(0, false);
        }
        Ok((stats, failures, own))
    }

    /// Host threads to sense a batch's leaves with: one (the caller) for
    /// small batches, else one per busy die up to the host's parallelism.
    /// Fanning out pays only when ≥ 2 dies have work and the batch senses
    /// at least [`FAN_OUT_MIN_SENSED_BYTES`] of pages (Σ activated
    /// wordlines × page size) — below that, spawning threads costs more
    /// than the dies' runs overlap.
    fn leaf_workers(&self, compiled: &CompiledBatch, order: &[(usize, usize)]) -> usize {
        let busy_dies = 1 + order
            .windows(2)
            .filter(|w| leaf_at(compiled, w[0]).plane.die != leaf_at(compiled, w[1]).plane.die)
            .count();
        if busy_dies < 2 {
            return 1;
        }
        let wordlines: usize =
            order.iter().map(|&at| activated_wordlines(&leaf_at(compiled, at).program)).sum();
        if wordlines * self.ssd.config().page_bytes < FAN_OUT_MIN_SENSED_BYTES {
            return 1;
        }
        host_threads().min(busy_dies)
    }

    /// Senses every leaf of `order` (die-major, so each die's leaves form
    /// one contiguous run) and returns each outcome at its position in
    /// `order`. A die's run always executes in order on a single thread,
    /// so every chip sees the same command sequence — and draws its
    /// random numbers in the same order — whatever `workers` is. With
    /// `workers > 1` the runs are handed out, longest first, to scoped
    /// worker threads and the calling thread; a worker holds one die's
    /// chip mutex at a time and never the device lock (the caller's read
    /// guard covers them all). A run stops at its first failing leaf and
    /// leaves the rest of its slots `None` — the in-order accounting
    /// returns that error before it reaches them.
    fn run_leaves(
        &self,
        compiled: &CompiledBatch,
        order: &[(usize, usize)],
        workers: usize,
    ) -> Vec<Option<LeafOutcome>> {
        let mut slots: Vec<Option<LeafOutcome>> = (0..order.len()).map(|_| None).collect();
        if workers <= 1 {
            self.run_die(compiled, order, &mut slots);
            return slots;
        }
        let mut runs: Vec<DieRun<'_>> = Vec::new();
        let (mut rest, mut rest_slots) = (order, &mut slots[..]);
        while let Some(&first) = rest.first() {
            let die = leaf_at(compiled, first).plane.die;
            let n = rest.iter().take_while(|&&at| leaf_at(compiled, at).plane.die == die).count();
            let (run, tail) = rest.split_at(n);
            let (run_slots, tail_slots) = std::mem::take(&mut rest_slots).split_at_mut(n);
            runs.push((run, run_slots));
            (rest, rest_slots) = (tail, tail_slots);
        }
        // `pop` hands out the longest runs first.
        runs.sort_by_key(|(run, _)| run.len());
        let workers = workers.min(runs.len());
        let queue = Mutex::new(runs);
        let work = || loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
            let Some((run, run_slots)) = next else { break };
            self.run_die(compiled, run, run_slots);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        slots
    }

    /// Senses one die's run of leaves in order into `slots`, stopping at
    /// the first failure.
    fn run_die(
        &self,
        compiled: &CompiledBatch,
        run: &[(usize, usize)],
        slots: &mut [Option<LeafOutcome>],
    ) {
        for (&at, slot) in run.iter().zip(slots) {
            let outcome = self.sense_leaf(leaf_at(compiled, at));
            let failed = outcome.is_err();
            *slot = Some(outcome);
            if failed {
                break;
            }
        }
    }

    /// Executes one leaf's program on its die and streams the result page
    /// out (complemented when the program asks the controller to).
    fn sense_leaf(&self, leaf: &Leaf) -> LeafOutcome {
        let mut chip = self.ssd.chip_exec(leaf.plane.die);
        let mut latency = 0.0;
        let mut energy = 0.0;
        for cmd in &leaf.program.commands {
            let out = chip.execute(cmd.clone()).map_err(DeviceError::Nand)?;
            latency += out.latency_us;
            energy += out.energy_uj;
        }
        let mut page = chip
            .execute(Command::ReadOut { plane: leaf.program.plane })
            .map_err(DeviceError::Nand)?
            .into_page()
            .expect("read-out streams the cache latch");
        if leaf.program.controller_not {
            page.not_assign();
        }
        Ok((page, latency, energy))
    }

    /// Whether any of `ids` is a multi-level operand, which no MWS sense
    /// can combine (see [`UnitWork::Controller`]).
    fn touches_ml(&self, ids: &[OperandId]) -> bool {
        ids.iter().any(|&id| self.operands.get(id).is_some_and(|r| r.ml))
    }

    /// Senses a controller evaluation costs: every operand page is read
    /// once, at its real page-read price ([`Self::page_read_senses`]).
    fn controller_senses(&self, ids: &[OperandId]) -> Result<u64, FcError> {
        let mut senses = 0u64;
        for &id in ids {
            for &lpn in &self.record(id)?.lpns {
                senses += self.page_read_senses(lpn) as u64;
            }
        }
        Ok(senses)
    }

    /// Senses one page read costs: 1 for an SLC/ESP page, 2–4 for an
    /// MLC/TLC logical page.
    fn page_read_senses(&self, lpn: u64) -> usize {
        let meta = self.ssd.page_meta(lpn).expect("written operands carry metadata");
        let mode = meta.scheme.cell_mode();
        if mode.bits_per_cell() > 1 {
            fc_nand::mlsense::senses_for_page(mode, meta.ml_page as usize)
        } else {
            1
        }
    }

    /// Builds one stripe's placement from the FTL and compiles the unit
    /// into a cross-die execution plan: a single program when every
    /// operand shares a plane, per-plane programs plus a controller merge
    /// when the unit spans dies.
    fn stripe_plan(
        &self,
        nnf: &Nnf,
        ids: &[OperandId],
        slot: usize,
        caps: PlannerCaps,
    ) -> Result<ExecPlan, FcError> {
        let map = self.stripe_map(ids, slot)?;
        crossdie::compile_spanning(nnf, &|id| self.operand_plane(id, slot), &mut |sub| {
            planner::compile(sub, &map, caps)
        })
        .map_err(FcError::Plan)
    }
}

/// Sensed page bytes (Σ activated wordlines × page size) from which a
/// batch's die runs fan out to host threads. Single-stripe serving batches
/// sense a few KiB and stay on the calling thread; a bitmap-index scan
/// over 16 KiB pages senses tens of MiB.
const FAN_OUT_MIN_SENSED_BYTES: usize = 1 << 20;

/// One sensed leaf: its read-out page, modeled latency (µs) and energy
/// (µJ) — or the chip error that stopped it.
type LeafOutcome = Result<(BitVec, f64, f64), FcError>;

/// One die's contiguous run of an execution order, with the outcome
/// slots it fills.
type DieRun<'a> = (&'a [(usize, usize)], &'a mut [Option<LeafOutcome>]);

/// Compiles a unit's stripes with `plan` (stripe slot → cross-die plan)
/// and flattens them into one executable leaf list.
fn stripe_work(
    pages: usize,
    mut plan: impl FnMut(usize) -> Result<ExecPlan, FcError>,
) -> Result<UnitWork, FcError> {
    let mut leaves: Vec<Leaf> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    let mut merges: Vec<Option<MergeTree>> = Vec::with_capacity(pages);
    for slot in 0..pages {
        let tree = plan(slot)?.flatten(&mut leaves);
        slots.resize(leaves.len(), slot);
        // Single-leaf plans (the common co-planar case) stream their page
        // straight into the unit output; only genuinely spanning plans
        // buffer partials for the controller merge.
        merges.push(match tree {
            MergeTree::Leaf(_) => None,
            tree => Some(tree),
        });
    }
    Ok(UnitWork::Execute { leaves, slots, merges })
}

/// The leaf at `(unit, leaf)` of an execution order.
fn leaf_at(compiled: &CompiledBatch, (ui, li): (usize, usize)) -> &Leaf {
    let UnitWork::Execute { leaves, .. } = &compiled.units[ui].work else {
        unreachable!("execution orders only hold executable units");
    };
    &leaves[li]
}

/// Wordlines a program activates across all its senses.
fn activated_wordlines(program: &planner::MwsProgram) -> usize {
    program
        .commands
        .iter()
        .map(|c| match c {
            Command::Mws { targets, .. } => targets.iter().map(MwsTarget::wl_count).sum(),
            Command::ThresholdMws { target, .. } => target.wl_count(),
            _ => 0,
        })
        .sum()
}

/// The host's available parallelism, asked once per process: the query
/// is a syscall, too slow to repeat on every batch.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The fail-fast contract of the single-result paths (`submit_into`,
/// `fc_read`, `parabit_read`): the first failed query is the error.
pub(crate) fn fail_fast(failures: &[QueryFailure]) -> Result<(), FcError> {
    match failures.first() {
        Some(f) => {
            Err(FcError::QueryFailed { query: f.query, lpn: f.lpn, tiers_tried: f.tiers_tried })
        }
        None => Ok(()),
    }
}

impl FlashCosmosDevice {
    /// Executes a batch of queries in one jointly planned device pass and
    /// returns per-query result vectors plus [`BatchStats`]. Compiles and
    /// executes under the shared device lock — concurrent submitters
    /// interleave on the per-die chip mutexes — and then runs the same
    /// background tail as a drain when it is due (see [`crate::session`]).
    ///
    /// # Errors
    ///
    /// Fails like [`FlashCosmosDevice::fc_read`] would on the offending
    /// query: unknown operands, operand size mismatches *within* a query,
    /// planner rejections, or chip errors. Queries of different vector
    /// lengths may share a batch.
    ///
    /// A query that depends on a page the recovery layer lost (unreadable
    /// after read-retry *and* parity rebuild) does **not** fail the
    /// batch: it is reported in [`BatchResults::failures`] with an empty
    /// result vector, while every other query completes normally.
    pub fn submit(&self, batch: &QueryBatch) -> Result<BatchResults, FcError> {
        let mut results: Vec<BitVec> = (0..batch.len()).map(|_| BitVec::zeros(0)).collect();
        if batch.is_empty() {
            return Ok(BatchResults { results, stats: BatchStats::default(), failures: vec![] });
        }
        let (stats, failures) = self.serve_now(&mut results, |core| core.compile_batch(batch))?;
        Ok(BatchResults { results, stats, failures })
    }

    /// Like [`FlashCosmosDevice::submit`], but writes each query's result
    /// into the caller's buffers (`outs[i]` receives query `i`, resized in
    /// place) — the zero-copy output mode for callers that recycle
    /// vectors across submissions.
    ///
    /// # Errors
    ///
    /// [`FcError::OutputSlots`] when `outs.len() != batch.len()`, plus
    /// everything [`FlashCosmosDevice::submit`] can return. Unlike
    /// [`FlashCosmosDevice::submit`], this path fails fast: the first
    /// query touching a lost page surfaces as [`FcError::QueryFailed`]
    /// (use [`FlashCosmosDevice::submit`] for partial results).
    pub fn submit_into(
        &self,
        batch: &QueryBatch,
        outs: &mut [BitVec],
    ) -> Result<BatchStats, FcError> {
        if outs.len() != batch.len() {
            return Err(FcError::OutputSlots { got: outs.len(), expected: batch.len() });
        }
        if batch.is_empty() {
            return Ok(BatchStats::default());
        }
        let (stats, failures) = self.serve_now(outs, |core| core.compile_batch(batch))?;
        fail_fast(&failures)?;
        Ok(stats)
    }
}

/// Canonical form used as the dedup and result-cache key. Key equality
/// implies semantic equality: AND/OR children are sorted and deduplicated
/// (commutativity + idempotence), XOR is commutative, and literal-literal
/// XOR folds its negations into one parity bit (`!a ^ b == a ^ !b`).
/// The *original* NNF is what gets compiled — the canonical form never
/// reaches the planner.
pub(crate) fn canonicalize(nnf: &Nnf) -> Nnf {
    match nnf {
        Nnf::Literal(_) => nnf.clone(),
        Nnf::And(cs) => canonical_nary(cs, Nnf::And),
        Nnf::Or(cs) => canonical_nary(cs, Nnf::Or),
        Nnf::Xor(a, b) => {
            let ca = canonicalize(a);
            let cb = canonicalize(b);
            if let (Nnf::Literal(la), Nnf::Literal(lb)) = (&ca, &cb) {
                let parity = la.negated ^ lb.negated;
                let (lo, hi) = (la.id.min(lb.id), la.id.max(lb.id));
                return Nnf::Xor(
                    Box::new(Nnf::Literal(Literal { id: lo, negated: false })),
                    Box::new(Nnf::Literal(Literal { id: hi, negated: parity })),
                );
            }
            if ca > cb {
                Nnf::Xor(Box::new(cb), Box::new(ca))
            } else {
                Nnf::Xor(Box::new(ca), Box::new(cb))
            }
        }
        // Votes commute, so children sort — but they do NOT dedup: a
        // child appearing twice casts two votes (TH2(a,a,b) ≡ a, not
        // TH2(a,b)). Degenerate k never appears here (`to_nnf` collapses
        // k = 1 to OR and k = n to AND before batching).
        Nnf::Threshold { k, children } => {
            let mut canon: Vec<Nnf> = children.iter().map(canonicalize).collect();
            canon.sort();
            Nnf::Threshold { k: *k, children: canon }
        }
    }
}

fn canonical_nary(children: &[Nnf], build: fn(Vec<Nnf>) -> Nnf) -> Nnf {
    let mut canon: Vec<Nnf> = children.iter().map(canonicalize).collect();
    canon.sort();
    canon.dedup();
    if canon.len() == 1 {
        canon.pop().expect("non-empty")
    } else {
        build(canon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StoreHints;
    use crate::recovery::FaultPlan;
    use fc_nand::ispp::ProgramScheme;
    use fc_ssd::SsdConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device() -> FlashCosmosDevice {
        FlashCosmosDevice::new(SsdConfig::tiny_test())
    }

    fn vectors(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| BitVec::random(bits, &mut rng)).collect()
    }

    fn store_group(dev: &mut FlashCosmosDevice, vs: &[BitVec], group: &str) -> Vec<OperandId> {
        vs.iter()
            .enumerate()
            .map(|(i, v)| {
                dev.fc_write(&format!("{group}-{i}"), v, StoreHints::and_group(group)).unwrap().id
            })
            .collect()
    }

    #[test]
    fn canonical_key_identifies_reordered_queries() {
        let a = Expr::and_vars([0, 1, 2]).to_nnf();
        let b = Expr::and_vars([2, 0, 1]).to_nnf();
        assert_eq!(canonicalize(&a), canonicalize(&b));
        let c = Expr::and_vars([0, 1]).to_nnf();
        assert_ne!(canonicalize(&a), canonicalize(&c));
        // Duplicate terms collapse (idempotence)...
        let d = Expr::and_vars([0, 1, 2, 2, 0]).to_nnf();
        assert_eq!(canonicalize(&a), canonicalize(&d));
        // ...and XOR negation parity folds onto one side.
        let x = Expr::xor(Expr::not(Expr::var(3)), Expr::var(1)).to_nnf();
        let y = Expr::xor(Expr::var(1), Expr::not(Expr::var(3))).to_nnf();
        assert_eq!(canonicalize(&x), canonicalize(&y));
        let z = Expr::xor(Expr::var(1), Expr::var(3)).to_nnf();
        assert_ne!(canonicalize(&x), canonicalize(&z));
    }

    #[test]
    fn batch_of_duplicate_queries_senses_once() {
        let mut dev = device();
        let vs = vectors(5, 700, 1);
        let ids = store_group(&mut dev, &vs, "g");
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(ids.iter().copied()));
        batch.push(Expr::and_vars(ids.iter().rev().copied()));
        batch.push(Expr::and_vars(ids.iter().copied()));
        let BatchResults { results, stats, .. } = dev.submit(&batch).unwrap();
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
        for r in &results {
            assert_eq!(r, &expect);
        }
        // 3 stripes of 700 bits at 256-bit pages, one MWS each — once,
        // not three times.
        assert_eq!(stats.senses, 3);
        assert_eq!(stats.serial_senses, 9);
        assert_eq!(stats.senses_saved(), 6);
        assert_eq!(stats.deduped_queries, 2);
        // Amortized attribution: each query pays a third of each sense.
        let total: f64 = stats.per_query.iter().map(|q| q.senses).sum();
        assert!((total - stats.senses as f64).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_sizes_share_a_batch() {
        let mut dev = device();
        let long = vectors(2, 600, 2);
        let short = vectors(2, 100, 3);
        let la = store_group(&mut dev, &long, "long");
        let sa = store_group(&mut dev, &short, "short");
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(la.iter().copied()));
        batch.push(Expr::or_vars(sa.iter().copied()));
        let BatchResults { results, .. } = dev.submit(&batch).unwrap();
        assert_eq!(results[0], long[0].and(&long[1]));
        assert_eq!(results[0].len(), 600);
        assert_eq!(results[1], short[0].or(&short[1]));
        assert_eq!(results[1].len(), 100);
    }

    #[test]
    fn queries_sharing_an_or_term_each_compile_whole() {
        // A 12-operand AND term (2 senses on 8-WL blocks) shared by two
        // queries, each OR-ing in its own extra operand. The queries are
        // canonically distinct, so each compiles whole, as its serial
        // `fc_read` does: the term (2) plus its own literal (1) → 6, the
        // same as the serial loop. The shared term is not sensed once
        // for both.
        let mut dev = device();
        dev.set_result_cache_capacity(0);
        let big = vectors(12, 256, 4);
        let extras = vectors(2, 256, 5);
        let big_ids = store_group(&mut dev, &big, "big");
        let e0 = store_group(&mut dev, &extras[..1], "extra0")[0];
        let e1 = store_group(&mut dev, &extras[1..], "extra1")[0];
        let term = Expr::and_vars(big_ids.iter().copied());
        let q0 = Expr::or(vec![term.clone(), Expr::var(e0)]);
        let q1 = Expr::or(vec![term.clone(), Expr::var(e1)]);
        let (serial0, s0) = dev.fc_read(&q0).unwrap();
        let (serial1, s1) = dev.fc_read(&q1).unwrap();
        let mut batch = QueryBatch::new();
        batch.push(q0);
        batch.push(q1);
        let BatchResults { results, stats, .. } = dev.submit(&batch).unwrap();
        assert_eq!(results[0], serial0);
        assert_eq!(results[1], serial1);
        assert_eq!(stats.serial_senses, s0.senses + s1.senses);
        assert_eq!(stats.serial_senses, 6);
        assert_eq!(stats.senses, stats.serial_senses);
    }

    #[test]
    fn sharing_is_rejected_when_it_would_cost_extra_senses() {
        // Two 2-term OR queries over single-block operands (colocated on
        // one plane so the whole query fuses) share one term, but each
        // whole query is a single inter-block MWS (1 sense). Sensing the
        // shared term on its own would need 3 senses for 2 queries; each
        // query compiles whole, so the batch costs the serial 2.
        let mut dev = device();
        let vs = vectors(3, 256, 6);
        let colocated = |dev: &mut FlashCosmosDevice, i: usize, g: &str| {
            dev.fc_write(&format!("{g}-0"), &vs[i], StoreHints::and_group(g).colocated("fuse"))
                .unwrap()
                .id
        };
        let a = colocated(&mut dev, 0, "ga");
        let b = colocated(&mut dev, 1, "gb");
        let c = colocated(&mut dev, 2, "gc");
        let mut batch = QueryBatch::new();
        batch.push(Expr::or_vars([a, b]));
        batch.push(Expr::or_vars([a, c]));
        let BatchResults { results, stats, .. } = dev.submit(&batch).unwrap();
        assert_eq!(results[0], vs[0].or(&vs[1]));
        assert_eq!(results[1], vs[0].or(&vs[2]));
        assert_eq!(stats.senses, stats.serial_senses);
    }

    #[test]
    fn empty_batch_and_output_slot_mismatch() {
        let mut dev = device();
        let r = dev.submit(&QueryBatch::new()).unwrap();
        assert!(r.results.is_empty());
        assert_eq!(r.stats.senses, 0);
        let vs = vectors(1, 64, 7);
        let id = store_group(&mut dev, &vs, "g")[0];
        let mut batch = QueryBatch::new();
        batch.push(Expr::var(id));
        let mut outs: Vec<BitVec> = Vec::new();
        assert!(matches!(
            dev.submit_into(&batch, &mut outs).unwrap_err(),
            FcError::OutputSlots { got: 0, expected: 1 }
        ));
    }

    /// A physics-fidelity device (4 dies) holding 4 placement groups of
    /// 4 three-stripe operands, and a batch mixing in-group AND/OR/
    /// threshold units with cross-group (cross-die merged) queries. Every
    /// call builds the identical device: same writes, same chip seeds.
    /// `worn` stores the operands as plain SLC on blocks aged to 15k P/E
    /// cycles and 6 months of retention, so senses flip bits — and which
    /// bits flip depends on each chip's random draws, in order.
    fn physics_fixture(worn: bool) -> (FlashCosmosDevice, QueryBatch, Vec<BitVec>) {
        let dev = FlashCosmosDevice::new_physics(SsdConfig::tiny_test());
        dev.set_result_cache_capacity(0);
        let bits = 3 * dev.config().page_bits();
        let vs = vectors(16, bits, 0xD1FF);
        let mut groups: Vec<Vec<OperandId>> = Vec::new();
        let mut aging = FaultPlan::new().retention(6.0);
        for (g, chunk) in vs.chunks(4).enumerate() {
            let mut hints = StoreHints::and_group(&format!("p{g}"));
            if worn {
                hints = hints.with_scheme(ProgramScheme::Slc);
            }
            let mut ids = Vec::new();
            for (i, v) in chunk.iter().enumerate() {
                let name = format!("p{g}-{i}");
                ids.push(dev.fc_write(&name, v, hints.clone()).unwrap().id);
                aging = aging.age(&name, 15_000);
            }
            groups.push(ids);
        }
        if worn {
            dev.inject_faults(&aging).unwrap();
        }
        let mut batch = QueryBatch::new();
        for g in &groups {
            batch.push(Expr::and_vars(g.iter().copied()));
            batch.push(Expr::threshold_vars(3, g.iter().copied()));
        }
        batch.push(Expr::or_vars(groups[1].iter().copied()));
        batch.push(Expr::and_vars([groups[0][0], groups[2][1], groups[3][2]]));
        batch.push(Expr::not(Expr::and_vars([groups[1][3], groups[3][0]])));
        (dev, batch, vs)
    }

    fn execute_forced(
        dev: &FlashCosmosDevice,
        batch: &QueryBatch,
        workers: usize,
    ) -> Result<(Vec<BitVec>, BatchStats), FcError> {
        let core = dev.core();
        let compiled = core.compile_batch(batch)?;
        let mut outs: Vec<BitVec> = (0..batch.len()).map(|_| BitVec::zeros(0)).collect();
        let (mut stats, failures, _) = core.execute_with(&compiled, &mut outs, Some(workers))?;
        assert!(failures.is_empty());
        // Wall-clock merge time is the one field allowed to differ.
        stats.merge_us = 0.0;
        Ok((outs, stats))
    }

    #[test]
    fn parallel_leaves_match_serial_execution() {
        for worn in [false, true] {
            let (serial_dev, batch, vs) = physics_fixture(worn);
            let (parallel_dev, _, _) = physics_fixture(worn);
            let lookup = |id: OperandId| vs[id].clone();
            let mut flipped = 0;
            // Several rounds, so each chip's random draws and read-disturb
            // counters carry over from round to round.
            for round in 0..3 {
                let (serial, s_stats) = execute_forced(&serial_dev, &batch, 1).unwrap();
                let (parallel, p_stats) = execute_forced(&parallel_dev, &batch, 4).unwrap();
                assert!(s_stats.dies_used >= 3, "the batch spans dies: {}", s_stats.dies_used);
                assert_eq!(serial, parallel, "worn {worn} round {round}: results");
                assert_eq!(s_stats, p_stats, "worn {worn} round {round}: stats");
                for (q, expr) in batch.queries().iter().enumerate() {
                    let d = serial[q].hamming_distance(&expr.eval(&lookup));
                    assert!(worn || d == 0, "round {round}: query {q} differs from eval");
                    flipped += d;
                }
            }
            assert_eq!(flipped > 0, worn, "only worn SLC blocks flip bits");
        }
        // Tiny pages stay far below the fan-out size.
        let (dev, batch, _) = physics_fixture(false);
        let core = dev.core();
        let compiled = core.compile_batch(&batch).unwrap();
        let mut order = Vec::new();
        for (ui, unit) in compiled.units.iter().enumerate() {
            if let UnitWork::Execute { leaves, .. } = &unit.work {
                order.extend((0..leaves.len()).map(|li| (ui, li)));
            }
        }
        assert_eq!(core.leaf_workers(&compiled, &order), 1);
    }

    #[test]
    fn parallel_leaf_error_is_the_first_serial_error() {
        // Point one leaf on each of two dies at a block the chip does not
        // have, each at a different block so the errors are told apart.
        // Serial order is die-major, so the lower die's error comes first.
        let broken = |dev: &FlashCosmosDevice, batch: &QueryBatch, workers: usize| {
            let core = dev.core();
            let mut compiled = core.compile_batch(batch).unwrap();
            let mut broken_dies = Vec::new();
            for unit in &mut compiled.units {
                let UnitWork::Execute { leaves, .. } = &mut unit.work else { continue };
                for leaf in leaves {
                    let Some(Command::Mws { targets, .. }) = leaf.program.commands.first_mut()
                    else {
                        continue;
                    };
                    if broken_dies.len() < 2 && !broken_dies.contains(&leaf.plane.die) {
                        targets[0].block.block = 900 + broken_dies.len() as u32;
                        broken_dies.push(leaf.plane.die);
                    }
                }
            }
            assert_eq!(broken_dies.len(), 2, "two dies carry a broken leaf");
            let mut outs: Vec<BitVec> = (0..batch.len()).map(|_| BitVec::zeros(0)).collect();
            let err = core.execute_with(&compiled, &mut outs, Some(workers)).unwrap_err();
            format!("{err:?}")
        };
        let (serial_dev, batch, _) = physics_fixture(false);
        let (parallel_dev, _, _) = physics_fixture(false);
        let serial = broken(&serial_dev, &batch, 1);
        assert!(serial.contains("block: 90"), "a chip address error: {serial}");
        assert_eq!(serial, broken(&parallel_dev, &batch, 4));
    }

    #[test]
    fn submit_into_recycles_buffers() {
        let mut dev = device();
        let vs = vectors(2, 300, 8);
        let ids = store_group(&mut dev, &vs, "g");
        let mut batch = QueryBatch::new();
        batch.push(Expr::and_vars(ids.iter().copied()));
        let mut outs = vec![BitVec::ones(9999)];
        dev.submit_into(&batch, &mut outs).unwrap();
        assert_eq!(outs[0], vs[0].and(&vs[1]));
        // Second submission reuses the (now correctly sized) buffer.
        dev.submit_into(&batch, &mut outs).unwrap();
        assert_eq!(outs[0], vs[0].and(&vs[1]));
    }
}
