//! The end-to-end Flash-Cosmos device: the `fc_write` / `fc_read` library
//! interface of §6.3 on top of the functional SSD.
//!
//! * [`FlashCosmosDevice::fc_write`] stores an operand vector for in-flash
//!   computation: striped across planes, co-located with its *placement
//!   group* (operands that will be combined by intra-block MWS), optionally
//!   inverted (§6.1), always ESP-programmed without randomization or ECC.
//! * [`FlashCosmosDevice::fc_read`] takes a bitwise [`Expr`] over stored
//!   operands, compiles one MWS program per plane-stripe, executes it on
//!   the owning chips, and assembles the result vector.
//! * [`FlashCosmosDevice::parabit_read`] runs the same expression through
//!   the ParaBit baseline compiler for comparison.
//!
//! Both reads are single-query batches on the device's one serving path
//! ([`crate::session`]): compile, serve (execute and book die load), then
//! the background tail that drained batches end in too.
//!
//! ## Die-aware placement
//!
//! Distinct placement groups spread across **dies**: each group's block
//! is pinned to a base plane chosen die-first by block pressure (least
//! loaded, rotating across dies on ties), and a multi-page operand's
//! stripe slots rotate across dies so one vector's stripes sense in
//! parallel. Within a group the co-residency invariant holds — every
//! operand of a (group, stripe-slot) pair shares one block, overflow
//! blocks stay on the group's plane — so intra-block MWS still combines
//! any subset in one sense. Two escape hatches on [`StoreHints`]:
//!
//! * [`StoreHints::colocated`] names a *plane-colocation domain* — groups
//!   sharing a domain land on the same plane so the planner can fuse
//!   them into inter-block MWS commands (Eq. 1 / Fig. 16);
//! * [`StoreHints::with_die`] pins a group to one die (all stripe slots
//!   stay on that die, rotating its planes).
//!
//! A query whose operands end up on several dies still executes: the
//! batch compiler splits it into per-die programs and merges the partial
//! pages in the controller (see `crate::crossdie`).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use fc_bits::BitVec;
use fc_nand::error::NandError;
use fc_nand::ispp::ProgramScheme;
use fc_ssd::device::{wl_addr, DeviceError, SsdDevice, WriteOptions};
use fc_ssd::ftl::{GroupKey, PageMeta, PlacementHint};
use fc_ssd::pipeline::DieQueues;
use fc_ssd::topology::{DieId, PlaneId};
use fc_ssd::SsdConfig;

use crate::batch::BatchStats;
use crate::expr::{Expr, OperandId};
use crate::maintenance::{channel_first_die, channel_first_step, spread_plane, Job, RetiredJob};
use crate::planner::{PlacementMap, PlanError};

/// Handle to a stored operand vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandHandle {
    /// The operand id to use in expressions.
    pub id: OperandId,
}

/// How to store an operand (the application-level choices of §6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreHints {
    /// Placement group: operands sharing a group land in the same blocks,
    /// stripe by stripe, so intra-block MWS can combine them.
    pub group: String,
    /// Store the inverse of the data (turns OR over the group into a
    /// single intra-block inverse MWS, §6.1).
    pub inverted: bool,
    /// Explicit die affinity (flat die index): the group's blocks stay on
    /// this die across all stripe slots. `None` (default) lets the device
    /// spread groups across dies.
    pub die: Option<usize>,
    /// Plane-colocation domain: groups naming the same domain share a
    /// plane (and its stripe rotation), so inter-block MWS can fuse
    /// across their blocks — use it for groups one expression combines
    /// (Eq. 1 / Fig. 16). `None` (default) spreads groups across dies.
    pub colocate: Option<String>,
    /// Programming scheme override. `None` (default) keeps the ESP
    /// computation path. A single-bit scheme ([`ProgramScheme::Slc`] /
    /// [`ProgramScheme::Esp`]) trades program latency against V_TH margin
    /// per operand; multi-bit schemes ([`ProgramScheme::Mlc`] /
    /// [`ProgramScheme::Tlc`]) are only valid through
    /// [`FlashCosmosDevice::fc_write_ml`], which packs 2–3 operands per
    /// physical page.
    pub scheme: Option<ProgramScheme>,
}

impl StoreHints {
    /// Operands that will be AND-ed together.
    pub fn and_group(name: &str) -> Self {
        Self { group: name.to_string(), inverted: false, die: None, colocate: None, scheme: None }
    }

    /// Operands that will be OR-ed together (stored inverted, §6.1).
    pub fn or_group(name: &str) -> Self {
        Self { group: name.to_string(), inverted: true, die: None, colocate: None, scheme: None }
    }

    /// Pins the placement group to one die (all stripe slots stay on it).
    #[must_use]
    pub fn with_die(mut self, die: usize) -> Self {
        self.die = Some(die);
        self
    }

    /// Joins a plane-colocation domain so this group can fuse with the
    /// domain's other groups in one inter-block MWS. If the domain was
    /// created by an earlier write, its plane (and any die pin) wins.
    #[must_use]
    pub fn colocated(mut self, domain: &str) -> Self {
        self.colocate = Some(domain.to_string());
        self
    }

    /// Overrides the programming scheme (density/latency/margin choice,
    /// §6.3 — see [`StoreHints::scheme`]).
    #[must_use]
    pub fn with_scheme(mut self, scheme: ProgramScheme) -> Self {
        self.scheme = Some(scheme);
        self
    }
}

/// The unified error of the device API: every failure of the `fc_write` /
/// `fc_read` / `submit` surface is an `FcError`, wrapping the SSD, chip
/// and planner error types with full [`std::error::Error::source`]
/// chains.
#[derive(Debug)]
#[non_exhaustive]
pub enum FcError {
    /// Propagated SSD/chip error.
    Device(DeviceError),
    /// Planner failure. Only the ParaBit baseline
    /// ([`FlashCosmosDevice::parabit_read`]) returns it: a Flash-Cosmos
    /// read evaluates a unit the planner refuses in the controller.
    Plan(PlanError),
    /// Operands referenced by the expression have different sizes.
    SizeMismatch,
    /// The expression references an unknown operand id.
    UnknownOperand(OperandId),
    /// An operation named an operand that was never written.
    UnknownName(String),
    /// A store hint pinned a die the SSD does not have.
    DieOutOfRange {
        /// The requested flat die index.
        die: usize,
        /// Dies in the SSD.
        dies: usize,
    },
    /// An operand name was written twice.
    DuplicateName(String),
    /// A batched submission supplied the wrong number of output buffers.
    OutputSlots {
        /// Buffers supplied.
        got: usize,
        /// Queries in the batch.
        expected: usize,
    },
    /// A ticket was waited on twice (or belongs to another device).
    UnknownTicket(u64),
    /// The bounded async admission queue is full: the submitter is
    /// outrunning the drain side. Back off and retry (or drain) — the
    /// queue never grows without limit. See
    /// [`FlashCosmosDevice::submit_async`]'s backpressure contract.
    Overloaded {
        /// Batches already queued (= the configured admission capacity).
        queued: usize,
    },
    /// One query of a batch could not be answered correctly: a page it
    /// depends on stayed unreadable after every recovery tier. Other
    /// queries of the same batch are unaffected (per-query failure
    /// isolation; [`crate::batch::BatchResults::failures`] carries the
    /// same facts for the partial-result path).
    QueryFailed {
        /// Index of the failed query within its batch.
        query: usize,
        /// The logical page that stayed unreadable.
        lpn: u64,
        /// Recovery tiers attempted before giving up (1 = retry ladder,
        /// 2 = + parity rebuild).
        tiers_tried: u32,
    },
}

impl std::fmt::Display for FcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FcError::Device(e) => write!(f, "device: {e}"),
            FcError::Plan(e) => write!(f, "planner: {e}"),
            FcError::SizeMismatch => write!(f, "operand vectors have different lengths"),
            FcError::UnknownOperand(id) => write!(f, "unknown operand v{id}"),
            FcError::UnknownName(n) => write!(f, "no operand named {n:?}"),
            FcError::DieOutOfRange { die, dies } => {
                write!(f, "die affinity {die} out of range (SSD has {dies} dies)")
            }
            FcError::DuplicateName(n) => write!(f, "operand name {n:?} already stored"),
            FcError::OutputSlots { got, expected } => {
                write!(f, "batch of {expected} queries given {got} output buffers")
            }
            FcError::UnknownTicket(seq) => {
                write!(f, "ticket #{seq} has no queued or retired batch (already waited on?)")
            }
            FcError::Overloaded { queued } => {
                write!(
                    f,
                    "admission queue full ({queued} batches queued); drain or retry after backoff"
                )
            }
            FcError::QueryFailed { query, lpn, tiers_tried } => {
                write!(
                    f,
                    "query #{query} failed: logical page {lpn} unreadable after \
                     {tiers_tried} recovery tier(s)"
                )
            }
        }
    }
}

impl std::error::Error for FcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FcError::Device(e) => Some(e),
            FcError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for FcError {
    fn from(e: DeviceError) -> Self {
        FcError::Device(e)
    }
}

impl From<PlanError> for FcError {
    fn from(e: PlanError) -> Self {
        FcError::Plan(e)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct OperandRecord {
    /// The registered name.
    pub(crate) name: String,
    pub(crate) bits: usize,
    pub(crate) lpns: Vec<u64>,
    /// Plane of each stripe page (slot-indexed) — cached from the FTL so
    /// the die splitter resolves placement with an array lookup on the
    /// hot compile path. A slot's die is its plane's die.
    pub(crate) planes: Vec<PlaneId>,
    pub(crate) group_index: u64,
    /// Placement generation: bumped by every mutation of the operand's
    /// data or placement (`fc_overwrite`, `migrate_operand`, parity
    /// rebuilds, fault injection). A regroup job is stamped with it, so a
    /// job planned against old wordlines is retired (see
    /// [`crate::maintenance`]). Queued async batches need no stamp: the
    /// drain that claims one compiles it against current placement (see
    /// [`crate::session`]).
    pub(crate) generation: u64,
    /// Data generation: taken from the same counter as `generation`, by
    /// every one of its bumps except a migration's, which moves pages
    /// without changing what they read as. Result-cache stamps carry
    /// it, so an entry stamped with an older data generation is never
    /// served, and a regrouped query keeps answering from its entry.
    pub(crate) data_generation: u64,
    /// Multi-level operand ([`FlashCosmosDevice::fc_write_ml`]): its pages
    /// are Gray-coded cell levels, not raw SLC bits, so it cannot join an
    /// MWS sense, be overwritten in place, or migrate — queries touching
    /// it read pages through the controller.
    pub(crate) ml: bool,
}

/// Where a placement group's blocks live: the base plane its stripe
/// rotation starts from, and whether the caller pinned it to one die.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupPlace {
    pub(crate) base_plane: usize,
    pub(crate) pinned_die: Option<usize>,
}

/// The single-owner state of the Flash-Cosmos device: operand and
/// placement tables, the functional SSD, the background job queue, the
/// recovery state, and the epoch/generation counters.
///
/// Everything here is guarded by the `RwLock` inside
/// [`FlashCosmosDevice`]: the hot serving path (batch compile and the
/// serve step, for sync reads and drains alike) runs under the **read**
/// lock — chip-level
/// mutual exclusion comes from the per-die locks inside [`SsdDevice`]
/// and the session's own mutexes — while structural mutations
/// (writes, migrations, background jobs, fault injection, the device
/// audit) take the **write** lock.
pub(crate) struct DeviceCore {
    pub(crate) ssd: SsdDevice,
    pub(crate) operands: Vec<OperandRecord>,
    pub(crate) names: HashMap<String, OperandId>,
    pub(crate) groups: HashMap<String, u64>,
    /// Base plane per placement group (by group index).
    pub(crate) group_place: HashMap<u64, GroupPlace>,
    /// Base plane per colocation domain (groups in a domain share it).
    pub(crate) domain_place: HashMap<String, GroupPlace>,
    /// The channel-first step where the next fresh placement group's
    /// search for the least-pressure plane starts (see
    /// [`crate::maintenance`]), so pressure ties rotate across dies.
    spread_cursor: usize,
    /// The background job queue, oldest first: regroup jobs (see
    /// [`crate::maintenance`]) and scrub refreshes (see
    /// [`crate::recovery`]), run in each serving pass's idle-die slack.
    pub(crate) jobs: VecDeque<Job>,
    /// Bounded log of regroup jobs retired on a generation mismatch.
    pub(crate) retired_jobs: VecDeque<RetiredJob>,
    /// Regroup jobs ever retired (the log itself is bounded).
    pub(crate) jobs_retired_total: u64,
    /// Background jobs that ever failed.
    pub(crate) jobs_failed_total: u64,
    pub(crate) next_lpn: u64,
    /// Async submission queues + cross-batch result cache (see
    /// [`crate::session`]). Shared with the [`FlashCosmosDevice`]
    /// wrapper so tickets can park on the session's condvars without
    /// holding the device lock.
    pub(crate) session: Arc<crate::session::Session>,
    /// Device-lifetime die and channel occupancy: a leaf mutex every
    /// served batch takes once, to merge its own [`DieQueues`].
    pub(crate) die_load: Mutex<DieQueues>,
    /// Reliability state: parity stripes, durable records, fault
    /// bookkeeping and recovery counters (see [`crate::recovery`]).
    pub(crate) recovery: crate::recovery::RecoveryState,
    /// Device epoch: bumped by any hazard the per-operand generations
    /// cannot see (raw [`Self::ssd_mut`] access — reliability-mode
    /// changes, fault injection, erases). Part of every result-cache stamp,
    /// so an epoch bump structurally invalidates all cached results.
    pub(crate) epoch: u64,
    /// Monotonic source of placement and data generations — never
    /// reused, even across operands, so an (operand, generation) pair
    /// identifies one immutable snapshot of that operand's placement (or
    /// of its data).
    generation_counter: u64,
}

impl std::fmt::Debug for DeviceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceCore")
            .field("operands", &self.operands.len())
            .field("config", self.ssd.config())
            .finish_non_exhaustive()
    }
}

impl DeviceCore {
    fn over(ssd: SsdDevice) -> Self {
        assert!(
            ssd.config().total_planes().is_power_of_two(),
            "plane count must be a power of two"
        );
        let die_load = Mutex::new(DieQueues::for_config(ssd.config()));
        Self {
            ssd,
            operands: Vec::new(),
            names: HashMap::new(),
            groups: HashMap::new(),
            group_place: HashMap::new(),
            domain_place: HashMap::new(),
            spread_cursor: 0,
            jobs: VecDeque::new(),
            retired_jobs: VecDeque::new(),
            jobs_retired_total: 0,
            jobs_failed_total: 0,
            next_lpn: 0,
            session: Arc::new(crate::session::Session::default()),
            die_load,
            recovery: crate::recovery::RecoveryState::default(),
            epoch: 0,
            generation_counter: 0,
        }
    }

    /// The underlying SSD, mutably (inspection / fault injection /
    /// reliability-mode changes in tests and studies).
    ///
    /// Raw mutable access can change anything the result cache depends on
    /// (retention age, block wear, even stored bits), so taking it bumps
    /// the device epoch: every cached result is structurally
    /// invalidated — same hazard discipline as the
    /// per-operand generations, applied to mutations the device cannot
    /// itemize.
    pub fn ssd_mut(&mut self) -> &mut SsdDevice {
        self.bump_epoch();
        &mut self.ssd
    }

    /// Bumps the device epoch, invalidating the result cache.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.session.cache().clear();
    }

    /// The placement generation of an operand (0 for ids never written —
    /// unknown operands fail query validation before generations matter).
    pub(crate) fn operand_generation(&self, id: OperandId) -> u64 {
        self.operands.get(id).map_or(0, |r| r.generation)
    }

    /// The data generation of an operand (0 for ids never written).
    pub(crate) fn operand_data_generation(&self, id: OperandId) -> u64 {
        self.operands.get(id).map_or(0, |r| r.data_generation)
    }

    /// Stamps a fresh, never-reused generation on an operand after a
    /// mutation that may change what its pages read as: its placement and
    /// data generations both take it.
    pub(crate) fn bump_generation(&mut self, id: OperandId) {
        self.bump_placement_generation(id);
        let rec = &mut self.operands[id];
        rec.data_generation = rec.generation;
    }

    /// Stamps a fresh, never-reused placement generation on an operand
    /// whose pages moved but read as the same bits (a migration); its
    /// data generation stays.
    fn bump_placement_generation(&mut self, id: OperandId) {
        self.generation_counter += 1;
        self.operands[id].generation = self.generation_counter;
    }

    /// Allocates a fresh logical page number. Operand pages, durable
    /// records, parity pages and rebuild rewrites all share one LPN
    /// space, so recovery can reason about any page uniformly.
    pub(crate) fn alloc_lpn(&mut self) -> u64 {
        let lpn = self.next_lpn;
        self.next_lpn += 1;
        lpn
    }

    /// The SSD configuration.
    pub fn config(&self) -> &SsdConfig {
        self.ssd.config()
    }

    /// Looks up an operand written earlier by name.
    pub(crate) fn operand(&self, name: &str) -> Option<OperandHandle> {
        self.names.get(name).map(|&id| OperandHandle { id })
    }

    /// Whether an operand or a durable record already holds `name`: the
    /// two share one namespace, so a name reaches one record (a fault
    /// plan aging it, say).
    pub(crate) fn name_taken(&self, name: &str) -> bool {
        self.names.contains_key(name) || self.recovery.durables.contains_key(name)
    }

    /// Resolves (creating on first sight) the index and plane placement
    /// of the named placement group. New groups spread across dies; a
    /// colocation domain or die pin on the hints overrides the spread.
    ///
    /// Die pins are validated *before* anything is cached, so a rejected
    /// hint never poisons the group or its colocation domain.
    fn group_placement(&mut self, hints: &StoreHints) -> Result<(u64, GroupPlace), FcError> {
        if let Some(d) = hints.die {
            let dies = self.ssd.config().total_dies();
            if d >= dies {
                return Err(FcError::DieOutOfRange { die: d, dies });
            }
        }
        let next_index = self.groups.len() as u64;
        let group_index = *self.groups.entry(hints.group.clone()).or_insert(next_index);
        if let Some(place) = self.group_place.get(&group_index) {
            return Ok((group_index, *place));
        }
        let place = match &hints.colocate {
            Some(domain) => match self.domain_place.get(domain) {
                Some(p) => *p,
                None => {
                    let p = GroupPlace {
                        base_plane: self.choose_plane(hints.die),
                        pinned_die: hints.die,
                    };
                    self.domain_place.insert(domain.clone(), p);
                    p
                }
            },
            None => GroupPlace { base_plane: self.choose_plane(hints.die), pinned_die: hints.die },
        };
        self.group_place.insert(group_index, place);
        Ok((group_index, place))
    }

    /// Picks the base plane for a fresh group by the spread rule over
    /// the FTL's block pressures. A die pin (validated by
    /// [`Self::group_placement`]) restricts the choice to that die's
    /// planes.
    fn choose_plane(&mut self, die: Option<usize>) -> usize {
        let pressures = self.ssd.ftl().plane_pressures();
        spread_plane(self.ssd.config(), pressures, die, &mut self.spread_cursor)
    }

    /// Summed per-block P/E-cycle counts per flat plane — the wear signal
    /// the regrouping planner's target-die selection consumes. Each chip
    /// keeps its planes' sums as blocks age, so this reads one counter
    /// per plane instead of scanning blocks (the device audit checks the
    /// counters against a block scan, `FC107`).
    pub(crate) fn plane_wear(&self) -> Vec<u64> {
        let cfg = self.ssd.config();
        (0..cfg.total_planes())
            .map(|plane| {
                let pid = PlaneId::from_flat(plane, cfg);
                self.ssd.chip(pid.die).plane_pec(pid.plane).expect("a flat plane lies on its die")
            })
            .collect()
    }

    /// The plane a group's stripe slot lives on. Unpinned groups rotate
    /// dies slot by slot in channel-first order — consecutive stripes of
    /// one vector hop channel buses before doubling up within one, so
    /// parallel stripe senses also stream out in parallel; pinned groups
    /// rotate the pinned die's planes instead.
    fn plane_for_slot(&self, place: GroupPlace, slot: u64) -> usize {
        let cfg = self.ssd.config();
        let ppd = cfg.planes_per_die;
        let base_die = place.base_plane / ppd;
        let base_pid = place.base_plane % ppd;
        if place.pinned_die.is_some() {
            base_die * ppd + (base_pid + slot as usize) % ppd
        } else {
            let step = channel_first_step(cfg, base_die) + slot as usize;
            channel_first_die(cfg, step) * ppd + base_pid
        }
    }

    /// Programs `data` one stripe page per slot into placement group
    /// `group` (each slot on [`Self::plane_for_slot`]) with page metadata
    /// `meta`, returning the fresh pages' LPNs and planes (slot-indexed).
    /// `fc_write` passes the hints' metadata and `fc_overwrite` the
    /// replaced pages', so an overwrite keeps the operand's polarity *and*
    /// programming scheme.
    fn write_stripes(
        &mut self,
        group: u64,
        place: GroupPlace,
        data: &BitVec,
        meta: PageMeta,
    ) -> Result<(Vec<u64>, Vec<PlaneId>), FcError> {
        let page_bits = self.ssd.config().page_bits();
        let pages = data.len().div_ceil(page_bits).max(1);
        let mut lpns = Vec::with_capacity(pages);
        let mut planes = Vec::with_capacity(pages);
        for slot in 0..pages as u64 {
            let plane = self.plane_for_slot(place, slot);
            let page = stripe_page(data, slot as usize, page_bits);
            let lpn = self.alloc_lpn();
            let placement = PlacementHint::Grouped { group: GroupKey::new(group, slot), plane };
            let ppa = self.ssd.write(lpn, &page, WriteOptions { placement, meta })?;
            lpns.push(lpn);
            planes.push(ppa.plane);
        }
        Ok((lpns, planes))
    }

    /// Stores an operand vector for in-flash computation.
    ///
    /// # Errors
    ///
    /// [`FcError::DuplicateName`] when an operand or a durable record
    /// already holds `name`, plus SSD allocation/programming errors.
    pub fn fc_write(
        &mut self,
        name: &str,
        data: &BitVec,
        hints: StoreHints,
    ) -> Result<OperandHandle, FcError> {
        if self.name_taken(name) {
            return Err(FcError::DuplicateName(name.to_string()));
        }
        if hints.scheme.is_some_and(|s| s.cell_mode().bits_per_cell() > 1) {
            return Err(FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(
                "multi-bit schemes pack several operands per page; use fc_write_ml".to_string(),
            ))));
        }
        let (group_index, place) = self.group_placement(&hints)?;
        let mut meta = PageMeta::flash_cosmos(hints.inverted);
        if let Some(scheme) = hints.scheme {
            meta.scheme = scheme;
        }
        let (lpns, planes) = self.write_stripes(group_index, place, data, meta)?;
        let id = self.operands.len();
        self.generation_counter += 1;
        self.operands.push(OperandRecord {
            name: name.to_string(),
            bits: data.len(),
            lpns,
            planes,
            group_index,
            generation: self.generation_counter,
            data_generation: self.generation_counter,
            ml: false,
        });
        self.names.insert(name.to_string(), id);
        let member_lpns = self.operands[id].lpns.clone();
        self.parity_protect_lpns(&member_lpns)?;
        Ok(OperandHandle { id })
    }

    /// Stores 2–3 operand vectors **multi-level**: each stripe slot packs
    /// all of them onto one physical wordline as MLC/TLC cell levels
    /// (`names[b]` on Gray-code page `b`), so the group costs one
    /// wordline where SLC storage costs two or three — the §6.3 density
    /// choice, surfaced per operand set.
    ///
    /// The trade: ML operands are **storage, not compute** — their pages
    /// are cell levels, not raw SLC bits, so an expression touching them
    /// reads the pages through the controller (2–4 senses per MLC/TLC
    /// page read) and evaluates there instead of fusing into an MWS
    /// sense. They also cannot be overwritten in place or migrated.
    ///
    /// ## Protection contract
    ///
    /// Multi-level pages sit **outside every recovery tier beyond the
    /// read-retry ladder**: they join no cross-die parity stripe (parity
    /// rebuilds XOR raw SLC payloads, which an ML page does not have) and
    /// the retention scrubber skips them (a refresh would have to rewrite
    /// the whole Gray-packed wordline, invalidating the co-stored
    /// aliases). A lost ML page is therefore unrecoverable: every query
    /// touching it fails with [`FcError::QueryFailed`]. Callers choosing
    /// the density side of the §6.3 trade accept this exposure for the
    /// packed operands; keep anything that must survive die loss in
    /// SLC/ESP storage (`fc_write`) with parity enabled. When parity is
    /// enabled and ML operands exist, [`FlashCosmosDevice::audit`]
    /// reports the gap as the warn-level finding `FC104` — an honest
    /// flag, not an error, because the gap is this documented contract.
    ///
    /// `hints.scheme` picks the density ([`ProgramScheme::Mlc`] for 2
    /// operands, [`ProgramScheme::Tlc`] for 3); `None` infers it from
    /// `names.len()`.
    ///
    /// # Errors
    ///
    /// Fails on a name an operand or a durable record already holds, or
    /// one repeated within `names` ([`FcError::DuplicateName`]),
    /// operand-count/scheme mismatches ([`NandError::InvalidMlsense`]),
    /// size mismatches between the vectors, or SSD errors.
    pub fn fc_write_ml(
        &mut self,
        names: &[&str],
        datas: &[&BitVec],
        hints: StoreHints,
    ) -> Result<Vec<OperandHandle>, FcError> {
        let scheme = hints.scheme.unwrap_or(match names.len() {
            2 => ProgramScheme::Mlc,
            _ => ProgramScheme::Tlc,
        });
        let bpc = scheme.cell_mode().bits_per_cell() as usize;
        if bpc < 2 || names.len() != bpc || datas.len() != bpc {
            return Err(FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(format!(
                "multi-level write needs a multi-bit scheme with exactly bits-per-cell \
                 operands (scheme {scheme:?}, {} names, {} vectors)",
                names.len(),
                datas.len()
            )))));
        }
        for (i, name) in names.iter().enumerate() {
            if self.name_taken(name) || names[..i].contains(name) {
                return Err(FcError::DuplicateName((*name).to_string()));
            }
        }
        let bits = datas[0].len();
        if datas.iter().any(|d| d.len() != bits) {
            return Err(FcError::SizeMismatch);
        }
        let (group_index, place) = self.group_placement(&hints)?;
        let page_bits = self.ssd.config().page_bits();
        let pages = bits.div_ceil(page_bits).max(1);
        let mut lpns: Vec<Vec<u64>> = vec![Vec::with_capacity(pages); bpc];
        let mut planes = Vec::with_capacity(pages);
        for slot in 0..pages as u64 {
            let plane = self.plane_for_slot(place, slot);
            let mut slot_lpns = Vec::with_capacity(bpc);
            let mut slot_pages = Vec::with_capacity(bpc);
            for data in datas {
                slot_lpns.push(self.next_lpn);
                self.next_lpn += 1;
                slot_pages.push(stripe_page(data, slot as usize, page_bits));
            }
            let ppa = self.ssd.write_ml(
                &slot_lpns,
                &slot_pages,
                PlacementHint::Grouped { group: GroupKey::new(group_index, slot), plane },
                scheme,
                hints.inverted,
            )?;
            for (b, &lpn) in slot_lpns.iter().enumerate() {
                lpns[b].push(lpn);
            }
            planes.push(ppa.plane);
        }
        let mut handles = Vec::with_capacity(bpc);
        for (name, operand_lpns) in names.iter().zip(lpns) {
            let id = self.operands.len();
            self.generation_counter += 1;
            self.operands.push(OperandRecord {
                name: (*name).to_string(),
                bits,
                lpns: operand_lpns,
                planes: planes.clone(),
                group_index,
                generation: self.generation_counter,
                data_generation: self.generation_counter,
                ml: true,
            });
            self.names.insert((*name).to_string(), id);
            handles.push(OperandHandle { id });
        }
        Ok(handles)
    }

    /// Overwrites a stored operand's data in place (same name, same
    /// handle, same placement group, polarity and programming scheme):
    /// the new pages are written out-of-place into the group's blocks —
    /// flash cannot program a wordline twice — and the old pages are
    /// trimmed.
    ///
    /// The operand's placement and data **generations** are bumped, so
    /// every result-cache entry that observed the old data is
    /// structurally invalidated, and every queued regroup job over the
    /// operand is retired (see [`crate::session`]). Queries submitted
    /// after the overwrite, and async batches drained after it (a drain
    /// compiles the batches it claims), observe the new data.
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`] if the name was never written and
    /// [`FcError::SizeMismatch`] if `data` is not the stored length
    /// (in-place overwrite keeps the operand's geometry); plus SSD
    /// allocation/programming errors.
    pub fn fc_overwrite(&mut self, name: &str, data: &BitVec) -> Result<OperandHandle, FcError> {
        let id = *self.names.get(name).ok_or_else(|| FcError::UnknownName(name.to_string()))?;
        if self.operands[id].ml {
            return Err(FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(
                "multi-level operands share a wordline with their aliases and cannot be \
                 overwritten in place; rewrite the whole operand group"
                    .to_string(),
            ))));
        }
        if data.len() != self.operands[id].bits {
            return Err(FcError::SizeMismatch);
        }
        let group_index = self.operands[id].group_index;
        let place = *self
            .group_place
            .get(&group_index)
            .expect("stored operands always have a placed group");
        let old_lpns = self.operands[id].lpns.clone();
        let meta = self.ssd.page_meta(old_lpns[0]).expect("written operands carry metadata");
        let (lpns, planes) = self.write_stripes(group_index, place, data, meta)?;
        self.parity_unprotect_lpns(&old_lpns);
        for &lpn in &old_lpns {
            self.ssd.trim(lpn);
        }
        let new_lpns = lpns.clone();
        let rec = &mut self.operands[id];
        rec.lpns = lpns;
        rec.planes = planes;
        self.bump_generation(id);
        self.parity_protect_lpns(&new_lpns)?;
        Ok(OperandHandle { id })
    }

    /// Builds one stripe's placement map (wordlines + polarity) from the
    /// FTL.
    pub(crate) fn stripe_map(
        &self,
        ids: &[OperandId],
        slot: usize,
    ) -> Result<PlacementMap, FcError> {
        let mut map = PlacementMap::new();
        for &id in ids {
            let lpn = self.record(id)?.lpns[slot];
            let (ppa, meta) = self.ssd.lookup(lpn).expect("written operands are always mapped");
            map.insert(id, wl_addr(ppa), meta.inverted);
        }
        Ok(map)
    }

    /// The plane an operand's stripe page lives on (the die splitter's
    /// placement oracle).
    pub(crate) fn operand_plane(&self, id: OperandId, slot: usize) -> Option<PlaneId> {
        self.operands.get(id).and_then(|r| r.planes.get(slot)).copied()
    }

    pub(crate) fn record(&self, id: OperandId) -> Result<&OperandRecord, FcError> {
        self.operands.get(id).ok_or(FcError::UnknownOperand(id))
    }

    /// The index of a placement group by name, if any write or migration
    /// created it.
    pub(crate) fn group_index_by_name(&self, group: &str) -> Option<u64> {
        self.groups.get(group).copied()
    }

    /// The die a named placement group's base plane sits on, if the
    /// group has been placed. Replanned gather jobs must target this die
    /// — the FTL joins the cached group placement, wherever today's
    /// least-worn die is.
    pub(crate) fn group_base_die(&self, group: &str) -> Option<usize> {
        let index = self.groups.get(group)?;
        self.group_place.get(index).map(|p| p.base_plane / self.ssd.config().planes_per_die)
    }

    /// Whether an operand's pages are stored inverted (§6.1 polarity) —
    /// the maintenance planner only gathers polarity-uniform sets.
    pub(crate) fn operand_inverted(&self, id: OperandId) -> Option<bool> {
        let rec = self.operands.get(id)?;
        self.ssd.page_meta(*rec.lpns.first()?).map(|m| m.inverted)
    }

    /// Migrates the stored operand `name` to new placement hints — see
    /// [`Self::migrate_operand_id`].
    ///
    /// # Errors
    ///
    /// Fails on unknown names ([`FcError::UnknownName`]) or SSD migration
    /// errors.
    pub(crate) fn migrate_operand(
        &mut self,
        name: &str,
        hints: StoreHints,
    ) -> Result<u64, FcError> {
        let id = *self.names.get(name).ok_or_else(|| FcError::UnknownName(name.to_string()))?;
        self.migrate_operand_id(id, hints)
    }

    /// Migrates operand `id` to new placement hints — the §10
    /// background gathering: operands written at different times (or with
    /// the wrong polarity) move into a shared block so a later `fc_read`
    /// needs fewer MWS commands. Each page keeps its programming scheme
    /// and takes its polarity from `hints`. Returns how many pages moved
    /// via the chip's copyback fast path (vs controller rewrite). Bumps
    /// the operand's placement generation only; its data generation, and
    /// so every cached result over it, stays valid.
    ///
    /// # Errors
    ///
    /// Fails on multi-level operands or SSD migration errors.
    pub(crate) fn migrate_operand_id(
        &mut self,
        id: OperandId,
        hints: StoreHints,
    ) -> Result<u64, FcError> {
        if self.operands[id].ml {
            return Err(FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(
                "multi-level operands cannot migrate; rewrite the operand group".to_string(),
            ))));
        }
        let (group_index, place) = self.group_placement(&hints)?;
        let lpns = self.operands[id].lpns.clone();
        let mut copybacks = 0;
        let mut planes = Vec::with_capacity(lpns.len());
        for (slot, &lpn) in lpns.iter().enumerate() {
            let slot = slot as u64;
            let placement = PlacementHint::Grouped {
                group: GroupKey::new(group_index, slot),
                plane: self.plane_for_slot(place, slot),
            };
            let meta = PageMeta {
                inverted: hints.inverted,
                ..self.ssd.page_meta(lpn).expect("written operands carry metadata")
            };
            copybacks += u64::from(self.ssd.migrate(lpn, placement, meta)?);
            planes.push(self.ssd.translate(lpn).expect("migrated pages stay mapped").plane);
        }
        self.operands[id].group_index = group_index;
        self.operands[id].planes = planes;
        // Placement moved but the data did not: a fresh placement
        // generation retires every regroup job planned against the old
        // wordlines (the same hazard class as the poisoned placement
        // cache, fixed structurally via generation stamping), while the
        // data generation, and with it every cached result over this
        // operand, stays valid.
        self.bump_placement_generation(id);
        // Stripe geometry followed the pages: re-chunk the parity so the
        // die-disjointness invariant holds on the new placement.
        self.parity_unprotect_lpns(&lpns);
        self.parity_protect_lpns(&lpns)?;
        Ok(copybacks)
    }
}

/// The Flash-Cosmos-enabled SSD: a concurrency-safe handle over the
/// device state.
///
/// The device is `Sync`: wrap it in an [`Arc`] and N OS threads can
/// call [`Self::submit_async`] / [`Self::drain`] / [`Self::wait`] /
/// [`Self::fc_read`] / [`Self::fc_overwrite`] concurrently. Internally
/// the serving path (compile + the serve step, sync or drained) runs
/// under a read lock — per-die chip mutexes and the session's mutexes
/// provide the fine-grained exclusion — while structural mutations
/// (writes, migrations, background jobs, fault injection, the
/// debug-build device audit) take the write lock. The
/// FTL has no lock of its own: [`SsdDevice`]'s FTL-changing methods take
/// `&mut self`, reachable only through the write lock or `&mut self`.
///
/// ## Lock order
///
/// Device `RwLock` → session ticket table → per-die chip mutex → leaf
/// mutexes (scratch, energy, die load). The session's condvar waits in
/// [`Self::wait`] happen **outside** the device lock, so parked waiters
/// never starve a writer. A read drops its read guard before its
/// background tail takes the write guard — no thread ever holds both.
///
/// The single-threaded API is source-compatible: `&mut self` callers
/// hit the same methods (a `&mut` coerces to `&`), and methods that
/// genuinely require exclusivity ([`Self::ssd_mut`]) still take
/// `&mut self`, bypassing the lock entirely via `get_mut`.
pub struct FlashCosmosDevice {
    /// Shared with [`DeviceCore`] so tickets park on the session's
    /// condvars without holding `inner`.
    pub(crate) session: Arc<crate::session::Session>,
    inner: RwLock<DeviceCore>,
    /// Immutable copy of the SSD geometry, readable without the lock.
    config: SsdConfig,
}

impl std::fmt::Debug for FlashCosmosDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlashCosmosDevice")
            .field("config", &self.config)
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl FlashCosmosDevice {
    /// Creates a device over a fresh functional SSD.
    ///
    /// # Panics
    ///
    /// Panics if the plane count is not a power of two (the placement
    /// group encoding relies on it).
    pub fn new(config: SsdConfig) -> Self {
        Self::wrap(DeviceCore::over(SsdDevice::new(config)))
    }

    /// Creates a device with error injection enabled (reliability
    /// studies; ESP-stored operands still read back error-free).
    pub fn new_noisy(config: SsdConfig) -> Self {
        Self::wrap(DeviceCore::over(SsdDevice::new_noisy(config)))
    }

    /// Creates a device over physics-fidelity chips (per-cell threshold
    /// voltages): aged pages genuinely fail the nominal sense level and
    /// recover at shifted ones — the regime the recovery tiers (retry
    /// ladder, parity rebuild, scrubbing) are exercised in.
    pub fn new_physics(config: SsdConfig) -> Self {
        Self::wrap(DeviceCore::over(SsdDevice::new_physics(config)))
    }

    fn wrap(core: DeviceCore) -> Self {
        Self {
            session: Arc::clone(&core.session),
            config: core.config().clone(),
            inner: RwLock::new(core),
        }
    }

    /// Shared (read) access to the core — the hot serving path. A
    /// poisoned lock is recovered: every invariant the core maintains
    /// is re-checked by the audit pass, so a panicked writer cannot
    /// silently corrupt readers.
    pub(crate) fn core(&self) -> RwLockReadGuard<'_, DeviceCore> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive (write) access to the core — structural mutations.
    pub(crate) fn core_write(&self) -> RwLockWriteGuard<'_, DeviceCore> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock-free exclusive access through `&mut self` (single-threaded
    /// callers and in-crate tests poking fields directly).
    pub(crate) fn core_mut(&mut self) -> &mut DeviceCore {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The underlying SSD, mutably (inspection / fault injection /
    /// reliability-mode changes in tests and studies).
    ///
    /// Raw mutable access can change anything the result cache depends on
    /// (retention age, block wear, even stored bits), so taking it bumps
    /// the device epoch: every cached result is structurally
    /// invalidated — same hazard discipline as the
    /// per-operand generations, applied to mutations the device cannot
    /// itemize. Requires `&mut self`: raw SSD access is exclusive by
    /// construction and never contends with the serving path.
    pub fn ssd_mut(&mut self) -> &mut SsdDevice {
        self.core_mut().ssd_mut()
    }

    /// The SSD configuration (lock-free: geometry never changes).
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Looks up an operand written earlier by name.
    pub fn operand(&self, name: &str) -> Option<OperandHandle> {
        self.core().operand(name)
    }

    /// Summed per-block P/E-cycle counts per flat plane — the wear signal
    /// the regrouping planner's target-die selection consumes (see
    /// [`crate::maintenance`]; fresh placement groups ignore wear).
    pub fn plane_wear(&self) -> Vec<u64> {
        self.core().plane_wear()
    }

    /// Stores an operand vector for in-flash computation.
    ///
    /// # Errors
    ///
    /// [`FcError::DuplicateName`] when an operand or a durable record
    /// already holds `name`, plus SSD allocation/programming errors.
    pub fn fc_write(
        &self,
        name: &str,
        data: &BitVec,
        hints: StoreHints,
    ) -> Result<OperandHandle, FcError> {
        self.core_write().fc_write(name, data, hints)
    }

    /// Stores 2–3 operand vectors **multi-level**: each stripe slot
    /// packs all of them onto one physical wordline as MLC/TLC cell
    /// levels — the §6.3 density choice. The trade: ML operands are
    /// storage, not compute (queries touching them read pages through
    /// the controller), they sit outside parity and scrubbing, and they
    /// cannot be overwritten in place or migrated. When parity is
    /// enabled and ML operands exist, [`Self::audit`] reports the
    /// protection gap as the warn-level finding `FC104`.
    ///
    /// # Errors
    ///
    /// Fails on a name an operand or a durable record already holds, or
    /// one repeated within `names` ([`FcError::DuplicateName`]),
    /// operand-count/scheme mismatches, size mismatches between the
    /// vectors, or SSD errors.
    pub fn fc_write_ml(
        &self,
        names: &[&str],
        datas: &[&BitVec],
        hints: StoreHints,
    ) -> Result<Vec<OperandHandle>, FcError> {
        self.core_write().fc_write_ml(names, datas, hints)
    }

    /// Overwrites a stored operand's data in place (same name, same
    /// handle, same placement group, polarity and programming scheme).
    /// Takes the device write lock; the operand's placement and data
    /// generations are bumped, so cached results that observed the old
    /// data are structurally invalidated — concurrent submitters racing
    /// this overwrite observe either the old or the new data, never a
    /// mix, and a queued async batch observes whatever its drain compiles
    /// against (see [`crate::session`]).
    ///
    /// # Errors
    ///
    /// [`FcError::UnknownName`], [`FcError::SizeMismatch`], plus SSD
    /// allocation/programming errors.
    pub fn fc_overwrite(&self, name: &str, data: &BitVec) -> Result<OperandHandle, FcError> {
        self.core_write().fc_overwrite(name, data)
    }

    /// Executes a bulk bitwise expression in-flash with Flash-Cosmos and
    /// returns the result vector plus execution statistics.
    ///
    /// This is the batched [`submit_into`](Self::submit_into) path with a
    /// single-query batch; callers with several queries in flight should
    /// batch them so the planner can amortize senses across them. Runs
    /// under the shared (read) lock: concurrent readers proceed in
    /// parallel, serialized only at the per-die chip mutexes and the
    /// result-cache mutex.
    ///
    /// # Errors
    ///
    /// Fails if operands mismatch, on an execution error (a chip error,
    /// or a controller page read that ECC cannot correct), or with
    /// [`FcError::QueryFailed`] when the query depends on a lost page.
    /// A query the planner cannot lower on the current placement is
    /// evaluated in the controller.
    pub fn fc_read(&self, expr: &Expr) -> Result<(BitVec, BatchStats), FcError> {
        let mut result = BitVec::zeros(0);
        let stats = self.fc_read_into(expr, &mut result)?;
        Ok((result, stats))
    }

    /// Zero-copy variant of [`Self::fc_read`]: writes the result into
    /// `out` (resized in place), reusing its allocation across calls.
    ///
    /// # Errors
    ///
    /// Same as [`Self::fc_read`].
    pub fn fc_read_into(&self, expr: &Expr, out: &mut BitVec) -> Result<BatchStats, FcError> {
        let mut batch = crate::batch::QueryBatch::new();
        batch.push(expr.clone());
        self.submit_into(&batch, std::slice::from_mut(out))
    }

    /// Executes the expression with the ParaBit baseline (serial
    /// single-wordline senses). The plan comes from the ParaBit compiler
    /// and runs through the same serving path as [`Self::fc_read`], but
    /// skips the result cache in both directions, and its
    /// `critical_path_us` is the busiest die's sense time (ParaBit's
    /// model has no channel lane).
    ///
    /// # Errors
    ///
    /// Same as [`Self::fc_read`], plus [`FcError::Plan`] when the ParaBit
    /// compiler cannot lower the expression.
    pub fn parabit_read(&self, expr: &Expr) -> Result<(BitVec, BatchStats), FcError> {
        let mut result = BitVec::zeros(0);
        let (mut stats, failures) =
            self.serve_now(std::slice::from_mut(&mut result), |core| core.compile_parabit(expr))?;
        crate::batch::fail_fast(&failures)?;
        stats.critical_path_us = stats.busiest_die_us;
        Ok((result, stats))
    }

    /// Migrates a stored operand to new placement hints — the §10
    /// background gathering. Returns how many pages moved via the
    /// chip's copyback fast path (vs controller rewrite).
    ///
    /// The operand's pages read as the same bits afterwards, so only its
    /// placement generation is bumped: regroup jobs planned against the
    /// old wordlines retire, while result-cache entries over the operand
    /// (stamped with its unchanged data generation, see
    /// [`crate::session`]) keep answering. Async batches queued before
    /// the move compile at drain, against the new wordlines.
    ///
    /// # Errors
    ///
    /// Fails on unknown names ([`FcError::UnknownName`]) or SSD migration
    /// errors.
    pub fn migrate_operand(&self, name: &str, hints: StoreHints) -> Result<u64, FcError> {
        self.core_write().migrate_operand(name, hints)
    }

    /// The placement-group index an operand landed in (for tests).
    pub fn group_index_of(&self, id: OperandId) -> Option<u64> {
        self.core().operands.get(id).map(|r| r.group_index)
    }

    /// The die of every stripe page of an operand (slot-indexed) — the
    /// placement layout, for asserting die-aware spreading in tests and
    /// benches.
    pub fn operand_dies(&self, id: OperandId) -> Option<Vec<DieId>> {
        self.core().operands.get(id).map(|r| r.planes.iter().map(|p| p.die).collect())
    }

    /// Device-lifetime die and channel occupancy accumulated by every
    /// served batch — sync reads and drained batches alike — µs by flat
    /// die id and by channel: the load-balance picture across the whole
    /// run.
    pub fn die_occupancy(&self) -> DieQueues {
        self.core().die_load.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// `OperandHandle`s convert straight into leaf expressions, so handles
/// compose with the `&`/`|`/`^`/`!` operator sugar: `ha & hb | !hc`.
impl From<OperandHandle> for Expr {
    fn from(h: OperandHandle) -> Expr {
        Expr::var(h.id)
    }
}

macro_rules! handle_binop {
    ($trait:ident, $method:ident) => {
        impl std::ops::$trait for OperandHandle {
            type Output = Expr;

            fn $method(self, rhs: OperandHandle) -> Expr {
                std::ops::$trait::$method(Expr::from(self), Expr::from(rhs))
            }
        }

        impl std::ops::$trait<Expr> for OperandHandle {
            type Output = Expr;

            fn $method(self, rhs: Expr) -> Expr {
                std::ops::$trait::$method(Expr::from(self), rhs)
            }
        }

        impl std::ops::$trait<OperandHandle> for Expr {
            type Output = Expr;

            fn $method(self, rhs: OperandHandle) -> Expr {
                std::ops::$trait::$method(self, Expr::from(rhs))
            }
        }
    };
}

handle_binop!(BitAnd, bitand);
handle_binop!(BitOr, bitor);
handle_binop!(BitXor, bitxor);

impl std::ops::Not for OperandHandle {
    type Output = Expr;

    fn not(self) -> Expr {
        !Expr::from(self)
    }
}

/// Stripe slot `slot` of `data` as one `page_bits`-bit page: the slot's
/// bits, zero-padded past the end of the vector.
pub(crate) fn stripe_page(data: &BitVec, slot: usize, page_bits: usize) -> BitVec {
    let start = slot * page_bits;
    let len = page_bits.min(data.len().saturating_sub(start));
    let mut page = BitVec::zeros(page_bits);
    if len > 0 {
        page.copy_from(0, &data.slice(start, len));
    }
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device() -> FlashCosmosDevice {
        FlashCosmosDevice::new(SsdConfig::tiny_test())
    }

    fn vectors(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| BitVec::random(bits, &mut rng)).collect()
    }

    #[test]
    fn multi_operand_and_in_one_sense_per_stripe() {
        let dev = device();
        // 5 operands, 3 pages each (tiny page = 256 bits).
        let vs = vectors(5, 700, 1);
        let handles: Vec<OperandHandle> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
            .collect();
        let expr = Expr::and_vars(handles.iter().map(|h| h.id));
        let (result, stats) = dev.fc_read(&expr).unwrap();
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
        assert_eq!(result, expect);
        // One MWS per stripe (3 stripes), not one per operand.
        assert_eq!(stats.senses, 3);
        assert!(stats.critical_path_us <= stats.chip_time_us);
    }

    #[test]
    fn or_group_via_inverse_storage() {
        let dev = device();
        let vs = vectors(4, 300, 2);
        let handles: Vec<OperandHandle> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::or_group("g")).unwrap())
            .collect();
        let expr = Expr::or_vars(handles.iter().map(|h| h.id));
        let (result, stats) = dev.fc_read(&expr).unwrap();
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.or(v));
        assert_eq!(result, expect);
        assert_eq!(stats.senses, 2, "2 stripes, one inverse MWS each");
    }

    #[test]
    fn ml_operands_pack_one_wordline_and_answer_via_controller() {
        let dev = device();
        let vs = vectors(3, 700, 21);
        let refs: Vec<&BitVec> = vs.iter().collect();
        let handles = dev.fc_write_ml(&["a", "b", "c"], &refs, StoreHints::and_group("g")).unwrap();
        assert_eq!(handles.len(), 3);
        // All three operands share the physical wordlines (TLC density:
        // one WL per stripe where SLC would burn three).
        let dies_a = dev.operand_dies(handles[0].id).unwrap().to_vec();
        assert_eq!(dev.operand_dies(handles[1].id).unwrap(), &dies_a[..]);
        let core = dev.core();
        let lpn_a = core.operands[handles[0].id].lpns[0];
        let lpn_c = core.operands[handles[2].id].lpns[0];
        assert_eq!(core.ssd.translate(lpn_a), core.ssd.translate(lpn_c));
        drop(core);
        // Expressions over ML operands evaluate in the controller,
        // bit-exactly, at the real multi-level page-read cost.
        let expr = Expr::and(vec![
            Expr::var(handles[0].id),
            Expr::or(vec![Expr::var(handles[1].id), Expr::not(Expr::var(handles[2].id))]),
        ]);
        let (result, stats) = dev.fc_read(&expr).unwrap();
        let expect = vs[0].and(&vs[1].or(&vs[2].not()));
        assert_eq!(result, expect);
        // 3 stripes × (TLC pages 0/1/2 cost 4+2+1 senses) = 21.
        assert_eq!(stats.senses, 21);
    }

    #[test]
    fn ml_operands_reject_in_place_mutation() {
        let dev = device();
        let vs = vectors(2, 256, 22);
        let refs: Vec<&BitVec> = vs.iter().collect();
        dev.fc_write_ml(&["a", "b"], &refs, StoreHints::and_group("g")).unwrap();
        assert!(matches!(
            dev.fc_overwrite("a", &vs[1]).unwrap_err(),
            FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(_)))
        ));
        assert!(matches!(
            dev.migrate_operand("b", StoreHints::and_group("h")).unwrap_err(),
            FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(_)))
        ));
        // Single-operand writes refuse multi-bit schemes up front.
        assert!(matches!(
            dev.fc_write("c", &vs[0], StoreHints::and_group("g").with_scheme(ProgramScheme::Mlc))
                .unwrap_err(),
            FcError::Device(DeviceError::Nand(NandError::InvalidMlsense(_)))
        ));
    }

    #[test]
    fn ml_and_slc_operands_mix_in_one_query() {
        let dev = device();
        let vs = vectors(3, 300, 23);
        let ml = dev
            .fc_write_ml(&["m0", "m1"], &[&vs[0], &vs[1]], StoreHints::and_group("mlg"))
            .unwrap();
        let s = dev.fc_write("s", &vs[2], StoreHints::and_group("slc")).unwrap();
        let expr = Expr::and(vec![Expr::var(ml[0].id), Expr::var(ml[1].id), Expr::var(s.id)]);
        let (result, stats) = dev.fc_read(&expr).unwrap();
        assert_eq!(result, vs[0].and(&vs[1]).and(&vs[2]));
        // 2 stripes × (MLC pages 0/1 cost 1+2 senses, SLC costs 1).
        assert_eq!(stats.senses, 8);
    }

    #[test]
    fn parabit_matches_fc_but_costs_more_senses() {
        let dev = device();
        let vs = vectors(6, 256, 3);
        let handles: Vec<OperandHandle> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
            .collect();
        let expr = Expr::and_vars(handles.iter().map(|h| h.id));
        let (fc, fc_stats) = dev.fc_read(&expr).unwrap();
        let (pb, pb_stats) = dev.parabit_read(&expr).unwrap();
        assert_eq!(fc, pb, "both techniques compute the same function");
        assert_eq!(fc_stats.senses, 1);
        assert_eq!(pb_stats.senses, 6, "ParaBit senses every operand");
        assert!(pb_stats.chip_time_us > 5.0 * fc_stats.chip_time_us);
    }

    #[test]
    fn kcs_shape_single_sense() {
        // Colocating the two groups on one plane keeps the paper's §7
        // observation: AND ∥ OR fuse into one inter-block MWS.
        let dev = device();
        let vs = vectors(4, 256, 4);
        let mut ids = Vec::new();
        for (i, v) in vs.iter().take(3).enumerate() {
            let hints = StoreHints::and_group("verts").colocated("kcs");
            ids.push(dev.fc_write(&format!("v{i}"), v, hints).unwrap().id);
        }
        let clique = dev
            .fc_write("clique", &vs[3], StoreHints::and_group("clique").colocated("kcs"))
            .unwrap()
            .id;
        assert_eq!(
            dev.operand_dies(ids[0]),
            dev.operand_dies(clique),
            "colocated groups share a plane (hence a die)"
        );
        let expr = Expr::or(vec![Expr::and_vars(ids.clone()), Expr::var(clique)]);
        let (result, stats) = dev.fc_read(&expr).unwrap();
        let expect = vs[0].and(&vs[1]).and(&vs[2]).or(&vs[3]);
        assert_eq!(result, expect);
        assert_eq!(stats.senses, 1, "AND + OR fused into one inter-block MWS");
    }

    #[test]
    fn uncolocated_groups_spread_and_still_answer_cross_die() {
        // Without a colocation domain the two groups land on different
        // dies; the query still answers exactly via the die-split path
        // (one sense per die, OR-merged in the controller) instead of
        // returning `PlanError::PlaneMismatch`.
        let dev = device();
        let vs = vectors(4, 256, 4);
        let mut ids = Vec::new();
        for (i, v) in vs.iter().take(3).enumerate() {
            ids.push(dev.fc_write(&format!("v{i}"), v, StoreHints::and_group("verts")).unwrap().id);
        }
        let clique = dev.fc_write("clique", &vs[3], StoreHints::and_group("clique")).unwrap().id;
        assert_ne!(
            dev.operand_dies(ids[0]),
            dev.operand_dies(clique),
            "distinct groups must spread across dies"
        );
        let expr = Expr::or(vec![Expr::and_vars(ids.clone()), Expr::var(clique)]);
        let (result, stats) = dev.fc_read(&expr).unwrap();
        let expect = vs[0].and(&vs[1]).and(&vs[2]).or(&vs[3]);
        assert_eq!(result, expect, "cross-die split must stay bit-exact");
        assert_eq!(stats.senses, 2, "one sense per die");
        assert!(
            stats.critical_path_us < stats.chip_time_us,
            "two dies sense concurrently: critical {} vs chip {}",
            stats.critical_path_us,
            stats.chip_time_us
        );
    }

    #[test]
    fn die_pin_keeps_all_stripes_on_one_die() {
        let dev = device();
        let vs = vectors(2, 1200, 40); // 5 stripes at 256-bit pages
        let a = dev.fc_write("a", &vs[0], StoreHints::and_group("g").with_die(2)).unwrap();
        let b = dev.fc_write("b", &vs[1], StoreHints::and_group("g").with_die(2)).unwrap();
        let cfg = SsdConfig::tiny_test();
        for h in [a, b] {
            let dies = dev.operand_dies(h.id).unwrap();
            assert_eq!(dies.len(), 5);
            assert!(dies.iter().all(|d| d.flat(&cfg) == 2), "pinned to die 2: {dies:?}");
        }
        let (result, _) = dev.fc_read(&(a & b)).unwrap();
        assert_eq!(result, vs[0].and(&vs[1]));
    }

    #[test]
    fn invalid_die_pin_is_rejected_without_poisoning_the_group() {
        let dev = device();
        let vs = vectors(1, 256, 42);
        let err = dev.fc_write("a", &vs[0], StoreHints::and_group("g").with_die(99)).unwrap_err();
        assert!(matches!(err, FcError::DieOutOfRange { die: 99, dies: 4 }), "got {err:?}");
        let err = dev
            .fc_write("b", &vs[0], StoreHints::and_group("h").with_die(4).colocated("dom"))
            .unwrap_err();
        assert!(matches!(err, FcError::DieOutOfRange { die: 4, dies: 4 }));
        // The rejected hints must not have cached a bad placement: the
        // same group and domain work fine with valid hints afterwards.
        dev.fc_write("a", &vs[0], StoreHints::and_group("g")).unwrap();
        dev.fc_write("b", &vs[0], StoreHints::and_group("h").colocated("dom")).unwrap();
    }

    #[test]
    fn unpinned_stripes_rotate_across_dies() {
        let dev = device();
        let v = vectors(1, 1200, 41).remove(0); // 5 stripes
        let h = dev.fc_write("a", &v, StoreHints::and_group("g")).unwrap();
        let cfg = SsdConfig::tiny_test();
        let dies: Vec<usize> =
            dev.operand_dies(h.id).unwrap().iter().map(|d| d.flat(&cfg)).collect();
        let distinct: std::collections::HashSet<usize> = dies.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "stripes cover all 4 dies: {dies:?}");
        let (result, stats) = dev.fc_read(&Expr::var(h.id)).unwrap();
        assert_eq!(result, v);
        assert!(stats.critical_path_us < stats.chip_time_us, "stripes sense in parallel");
    }

    #[test]
    fn overflow_beyond_block_capacity_accumulates() {
        // tiny geometry: 8 wordlines per block; 12 operands overflow into
        // a second block and the planner AND-accumulates across them.
        let dev = device();
        let vs = vectors(12, 256, 5);
        let handles: Vec<OperandHandle> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
            .collect();
        let expr = Expr::and_vars(handles.iter().map(|h| h.id));
        let (result, stats) = dev.fc_read(&expr).unwrap();
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
        assert_eq!(result, expect);
        assert_eq!(stats.senses, 2, "12 operands over 8-WL blocks → 2 MWS");
    }

    #[test]
    fn xor_and_xnor_roundtrip() {
        let dev = device();
        let vs = vectors(2, 256, 6);
        let a = dev.fc_write("a", &vs[0], StoreHints::and_group("g")).unwrap().id;
        let b = dev.fc_write("b", &vs[1], StoreHints::and_group("g")).unwrap().id;
        let (x, _) = dev.fc_read(&Expr::xor(Expr::var(a), Expr::var(b))).unwrap();
        assert_eq!(x, vs[0].xor(&vs[1]));
        let (xn, _) = dev.fc_read(&Expr::xnor(Expr::var(a), Expr::var(b))).unwrap();
        assert_eq!(xn, vs[0].xor(&vs[1]).not());
    }

    #[test]
    fn nand_nor_not() {
        let dev = device();
        let vs = vectors(3, 256, 7);
        let ids: Vec<usize> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("x{i}"), v, StoreHints::and_group("g")).unwrap().id)
            .collect();
        let (nand, _) =
            dev.fc_read(&Expr::nand(ids.iter().map(|&i| Expr::var(i)).collect())).unwrap();
        assert_eq!(nand, vs[0].and(&vs[1]).and(&vs[2]).not());
        let (not, _) = dev.fc_read(&Expr::not(Expr::var(ids[0]))).unwrap();
        assert_eq!(not, vs[0].not());
        // NOR over operands in different groups (different blocks).
        let dev2 = device();
        let ids2: Vec<usize> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                dev2.fc_write(&format!("y{i}"), v, StoreHints::and_group(&format!("g{i}")))
                    .unwrap()
                    .id
            })
            .collect();
        let (nor, _) =
            dev2.fc_read(&Expr::nor(ids2.iter().map(|&i| Expr::var(i)).collect())).unwrap();
        assert_eq!(nor, vs[0].or(&vs[1]).or(&vs[2]).not());
    }

    #[test]
    fn duplicate_names_and_size_mismatch_are_rejected() {
        let dev = device();
        let vs = vectors(2, 256, 8);
        dev.fc_write("a", &vs[0], StoreHints::and_group("g")).unwrap();
        assert!(matches!(
            dev.fc_write("a", &vs[1], StoreHints::and_group("g")).unwrap_err(),
            FcError::DuplicateName(_)
        ));
        let short = BitVec::zeros(100);
        let b = dev.fc_write("b", &short, StoreHints::and_group("g")).unwrap();
        let a = dev.operand("a").unwrap();
        assert!(matches!(
            dev.fc_read(&Expr::and_vars([a.id, b.id])).unwrap_err(),
            FcError::SizeMismatch
        ));
    }

    #[test]
    fn migration_gathers_scattered_operands() {
        // Operands written into separate groups (scattered blocks) need
        // one MWS per operand-block; migrating them into a shared group
        // restores the single-sense AND (§10).
        let dev = device();
        let vs = vectors(4, 256, 20);
        let ids: Vec<usize> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                dev.fc_write(&format!("op{i}"), v, StoreHints::and_group(&format!("s{i}")))
                    .unwrap()
                    .id
            })
            .collect();
        let expr = Expr::and_vars(ids.iter().copied());
        let (_, before) = dev.fc_read(&expr).unwrap();
        assert_eq!(before.senses, 4, "scattered: one sense per block");
        let mut copybacks = 0;
        for i in 0..4 {
            copybacks +=
                dev.migrate_operand(&format!("op{i}"), StoreHints::and_group("gathered")).unwrap();
        }
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
        // The cached result survives the move (placement changed, data
        // did not); a cold read senses the gathered layout.
        let (replayed, replay) = dev.fc_read(&expr).unwrap();
        assert_eq!(replayed, expect, "migration must preserve data");
        assert_eq!((replay.senses, replay.cached_units), (0, 1), "a cache hit");
        dev.clear_result_cache();
        let (result, after) = dev.fc_read(&expr).unwrap();
        assert_eq!(result, expect, "migration must preserve data");
        assert_eq!(after.senses, 1, "gathered: single intra-block MWS");
        assert!(copybacks > 0, "same-polarity moves use copyback");
    }

    #[test]
    fn overwrite_and_migration_keep_the_programming_scheme() {
        let dev = device();
        let vs = vectors(2, 300, 25); // 2 stripes
        let hints = StoreHints::and_group("g").with_scheme(ProgramScheme::Slc);
        let h = dev.fc_write("a", &vs[0], hints).unwrap();
        let metas = |dev: &FlashCosmosDevice| {
            let core = dev.core();
            let lpns = &core.operands[h.id].lpns;
            lpns.iter().map(|&lpn| core.ssd.page_meta(lpn).unwrap()).collect::<Vec<_>>()
        };
        let schemes =
            |dev: &FlashCosmosDevice| metas(dev).iter().map(|m| m.scheme).collect::<Vec<_>>();
        assert_eq!(schemes(&dev), [ProgramScheme::Slc; 2], "as written");
        dev.fc_overwrite("a", &vs[1]).unwrap();
        assert_eq!(schemes(&dev), [ProgramScheme::Slc; 2], "after an overwrite");
        // Same polarity: the stored metadata is unchanged, so the move may
        // use copyback; a polarity change rewrites through the controller.
        dev.migrate_operand("a", StoreHints::and_group("h")).unwrap();
        assert_eq!(schemes(&dev), [ProgramScheme::Slc; 2], "after a migration");
        dev.migrate_operand("a", StoreHints::or_group("o")).unwrap();
        assert_eq!(schemes(&dev), [ProgramScheme::Slc; 2], "after a polarity change");
        assert!(metas(&dev).iter().all(|m| m.inverted), "polarity follows the target group");
        let (result, _) = dev.fc_read(&Expr::var(h.id)).unwrap();
        assert_eq!(result, vs[1]);
    }

    #[test]
    fn migrating_an_unknown_name_reports_unknown_name() {
        let dev = device();
        let err = dev.migrate_operand("nonexistent", StoreHints::and_group("g")).unwrap_err();
        match err {
            FcError::UnknownName(n) => assert_eq!(n, "nonexistent"),
            other => panic!("expected UnknownName, got {other:?}"),
        }
        // Regression: this used to surface as a bogus DuplicateName.
        assert!(!matches!(
            dev.migrate_operand("nope", StoreHints::and_group("g")).unwrap_err(),
            FcError::DuplicateName(_)
        ));
    }

    #[test]
    fn migration_with_polarity_change_rewrites() {
        // AND-group → OR-group migration flips the stored polarity, so
        // the controller rewrite path runs (copyback would copy raw bits
        // with the wrong polarity).
        let dev = device();
        let vs = vectors(3, 256, 21);
        for (i, v) in vs.iter().enumerate() {
            dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("flat")).unwrap();
        }
        let mut copybacks = 0;
        for i in 0..3 {
            copybacks +=
                dev.migrate_operand(&format!("op{i}"), StoreHints::or_group("ors")).unwrap();
        }
        assert_eq!(copybacks, 0, "polarity change forces rewrite");
        let ids = [0usize, 1, 2];
        let (result, stats) = dev.fc_read(&Expr::or_vars(ids)).unwrap();
        let expect = vs[0].or(&vs[1]).or(&vs[2]);
        assert_eq!(result, expect);
        assert_eq!(stats.senses, 1, "inverted co-located OR is one inverse MWS");
    }

    #[test]
    fn handle_operators_and_read_into() {
        let dev = device();
        let vs = vectors(3, 300, 30);
        let a = dev.fc_write("a", &vs[0], StoreHints::and_group("g")).unwrap();
        let b = dev.fc_write("b", &vs[1], StoreHints::and_group("g")).unwrap();
        let c = dev.fc_write("c", &vs[2], StoreHints::and_group("h")).unwrap();
        // Handles compose with operator sugar straight into expressions.
        let expr = a & b | c;
        let (result, _) = dev.fc_read(&expr).unwrap();
        let expect = vs[0].and(&vs[1]).or(&vs[2]);
        assert_eq!(result, expect);
        // Zero-copy output mode reuses the caller's buffer — and the
        // repeated expression is answered by the cross-batch result cache
        // (no senses), bit-identically.
        let mut out = BitVec::zeros(0);
        let stats = dev.fc_read_into(&expr, &mut out).unwrap();
        assert_eq!(out, expect);
        assert_eq!(stats.senses, 0, "identical re-read is a cache hit");
        let (x, _) = dev.fc_read(&(a ^ b)).unwrap();
        assert_eq!(x, vs[0].xor(&vs[1]));
        let (n, _) = dev.fc_read(&!a).unwrap();
        assert_eq!(n, vs[0].not());
    }

    #[test]
    fn fc_error_sources_chain() {
        use std::error::Error;
        let dev = device();
        let v = BitVec::zeros(64);
        dev.fc_write("a", &v, StoreHints::and_group("g")).unwrap();
        let plan_err = FcError::Plan(PlanError::NoPlacement(3));
        assert!(plan_err.source().is_some(), "planner errors expose a source");
        assert!(plan_err.source().unwrap().to_string().contains("v3"));
        let bare = dev.fc_read(&Expr::var(99)).unwrap_err();
        assert!(matches!(bare, FcError::UnknownOperand(99)));
        assert!(bare.source().is_none());
    }

    #[test]
    fn noisy_device_with_esp_still_exact() {
        // The paper's reliability claim end-to-end: with error injection
        // enabled and worst-case aging, ESP-stored operands still produce
        // bit-exact results.
        let dev = FlashCosmosDevice::new_noisy(SsdConfig::tiny_test());
        dev.inject_faults(&crate::recovery::FaultPlan::new().retention(12.0)).unwrap();
        let vs = vectors(4, 512, 9);
        let handles: Vec<OperandHandle> = vs
            .iter()
            .enumerate()
            .map(|(i, v)| dev.fc_write(&format!("op{i}"), v, StoreHints::and_group("g")).unwrap())
            .collect();
        let expr = Expr::and_vars(handles.iter().map(|h| h.id));
        let (result, _) = dev.fc_read(&expr).unwrap();
        let expect = vs.iter().skip(1).fold(vs[0].clone(), |a, v| a.and(v));
        assert_eq!(result, expect, "ESP keeps in-flash results error-free");
    }
}
