//! A functional SSD: NAND chips + FTL + ECC + randomization behind a
//! logical-page API.
//!
//! Two storage paths, matching §6.3:
//!
//! * **Conventional** — data is ECC-encoded, randomized and SLC-programmed.
//!   Reliable for storage, but *incompatible* with in-flash computation
//!   (§3.2) — the integration tests demonstrate both properties.
//! * **Flash-Cosmos** — raw data (optionally inverted, §6.1) is
//!   ESP-programmed into placement groups so intra-block MWS can combine
//!   operands in one sensing operation.
//!
//! With ECC enabled a logical page carries fewer payload bits than the
//! physical page (the parity lives in what real drives call the spare
//! area): see [`SsdDevice::logical_page_bits`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fc_bits::BitVec;
use fc_nand::chip::NandChip;
use fc_nand::command::Command;
use fc_nand::config::{ChipConfig, Fidelity};
use fc_nand::error::NandError;
use fc_nand::geometry::{CellMode, WlAddr};
use fc_nand::ispp::ProgramScheme;
use fc_nand::mlsense;

use crate::config::SsdConfig;
use crate::ecc::{EccConfig, EccScratch, PageCodec, PageDecode};
use crate::energy::EnergyMeter;
use crate::ftl::{Ftl, FtlError, PageMeta, PlacementHint};
use crate::topology::{DieId, Ppa};

/// Device-level errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum DeviceError {
    /// Propagated chip error.
    Nand(NandError),
    /// Propagated FTL error.
    Ftl(FtlError),
    /// ECC decoding failed (uncorrectable errors).
    Uncorrectable {
        /// Logical page that failed.
        lpn: u64,
    },
    /// Payload length does not match [`SsdDevice::logical_page_bits`].
    PayloadSize {
        /// Bits supplied.
        got: usize,
        /// Bits required.
        expected: usize,
    },
    /// The logical page is not mapped.
    NotMapped(u64),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Nand(e) => write!(f, "nand: {e}"),
            DeviceError::Ftl(e) => write!(f, "ftl: {e}"),
            DeviceError::Uncorrectable { lpn } => {
                write!(f, "uncorrectable ECC failure on logical page {lpn}")
            }
            DeviceError::PayloadSize { got, expected } => {
                write!(f, "payload of {got} bits, expected {expected}")
            }
            DeviceError::NotMapped(lpn) => write!(f, "logical page {lpn} is not mapped"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Nand(e) => Some(e),
            DeviceError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for DeviceError {
    fn from(e: NandError) -> Self {
        DeviceError::Nand(e)
    }
}

impl From<FtlError> for DeviceError {
    fn from(e: FtlError) -> Self {
        DeviceError::Ftl(e)
    }
}

/// How to store a logical page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOptions {
    /// Where the FTL places the page.
    pub placement: PlacementHint,
    /// Page metadata (scheme / randomization / inversion / ECC).
    pub meta: PageMeta,
}

impl WriteOptions {
    /// The conventional storage path: striped, SLC, randomized, ECC.
    pub fn conventional() -> Self {
        Self { placement: PlacementHint::Striped, meta: PageMeta::conventional() }
    }

    /// The Flash-Cosmos computation path: grouped, ESP, raw bits. `plane`
    /// is the flat plane a fresh group opens its block on.
    pub fn flash_cosmos(group: crate::ftl::GroupKey, plane: usize, inverted: bool) -> Self {
        Self {
            placement: PlacementHint::Grouped { group, plane },
            meta: PageMeta::flash_cosmos(inverted),
        }
    }
}

/// Read-path health counters: how hard the device is working to return
/// correct data. Snapshot via [`SsdDevice::health`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadHealth {
    /// Logical page reads served.
    pub reads: u64,
    /// Bits the ECC decoder corrected (nominal and retry reads).
    pub bits_corrected: u64,
    /// Re-senses issued at shifted Vref levels after a nominal-level
    /// decode failure.
    pub retry_reads: u64,
    /// Reads that failed at the nominal level but decoded at some retry
    /// level.
    pub retry_recoveries: u64,
    /// Reads that stayed uncorrectable after the whole retry ladder.
    pub uncorrectable: u64,
}

/// Atomic counterparts of [`ReadHealth`]: the read path bumps these
/// under a shared reference, so concurrent drains never serialize on a
/// statistics lock.
#[derive(Debug, Default)]
struct HealthCounters {
    reads: AtomicU64,
    bits_corrected: AtomicU64,
    retry_reads: AtomicU64,
    retry_recoveries: AtomicU64,
    uncorrectable: AtomicU64,
}

impl HealthCounters {
    fn snapshot(&self) -> ReadHealth {
        ReadHealth {
            reads: self.reads.load(Ordering::Relaxed),
            bits_corrected: self.bits_corrected.load(Ordering::Relaxed),
            retry_reads: self.retry_reads.load(Ordering::Relaxed),
            retry_recoveries: self.retry_recoveries.load(Ordering::Relaxed),
            uncorrectable: self.uncorrectable.load(Ordering::Relaxed),
        }
    }
}

/// Reusable controller I/O buffers (ECC codec scratch plus the staging
/// prefix handed to the decoder). One page encode/decode runs per I/O
/// job, so the buffers persist across jobs instead of reallocating;
/// they sit behind one mutex because only ECC-protected (conventional)
/// pages touch them — the raw Flash-Cosmos hot path never takes it.
#[derive(Debug, Default)]
struct IoScratch {
    ecc: EccScratch,
    stored: BitVec,
}

/// Recovers the guard from a poisoned mutex: every critical section in
/// this module is a short, self-contained update, so a panicking thread
/// (e.g. an `fc_audit` Deny panic on the core layer above) cannot leave
/// these structures half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-only view of one die's chip, held under its per-die lock.
/// Mutable access routes through [`SsdDevice::chip_exec`] (the
/// execution engine) or [`SsdDevice::chip_mut`] (fault injection) so
/// `fc-xtask lint-mutators` can police every raw mutation path.
pub struct ChipRef<'a>(MutexGuard<'a, NandChip>);

impl std::ops::Deref for ChipRef<'_> {
    type Target = NandChip;

    fn deref(&self) -> &NandChip {
        &self.0
    }
}

/// The functional SSD.
///
/// Reads take `&self`, so N threads can drive independent dies
/// concurrently: per-die chip mutexes are the parallelism grain,
/// controller scratch and the energy meter sit behind leaf mutexes, and
/// read-health counters are atomics. Lock order: chip, then {scratch,
/// energy}.
///
/// The FTL has no lock of its own. Only the methods that change it —
/// [`write`](Self::write), [`write_ml`](Self::write_ml),
/// [`trim`](Self::trim) and [`migrate`](Self::migrate) — take
/// `&mut self`, so the borrow checker proves no reader ever sees a
/// half-made mapping. A shared reference cannot trim:
///
/// ```compile_fail,E0596
/// use fc_ssd::{SsdConfig, SsdDevice};
///
/// let dev = SsdDevice::new(SsdConfig::tiny_test());
/// let shared: &SsdDevice = &dev;
/// shared.trim(0);
/// ```
pub struct SsdDevice {
    config: SsdConfig,
    chips: Vec<Mutex<NandChip>>,
    ftl: Ftl,
    codec: PageCodec,
    energy: Mutex<EnergyMeter>,
    scratch: Mutex<IoScratch>,
    /// Maximum shifted-Vref re-senses after a nominal decode failure.
    read_retry_budget: usize,
    health: HealthCounters,
}

impl std::fmt::Debug for SsdDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdDevice")
            .field("config", &self.config)
            .field("mapped_pages", &self.ftl.mapped_pages())
            .finish_non_exhaustive()
    }
}

impl SsdDevice {
    /// Builds a device with functional-fidelity chips (no error
    /// injection).
    pub fn new(config: SsdConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Functional { inject_errors: false })
    }

    /// Builds a device with error-injecting chips (reliability studies).
    pub fn new_noisy(config: SsdConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Functional { inject_errors: true })
    }

    /// Builds a device with physics-fidelity chips: per-cell threshold
    /// voltages with retention/wear/disturb shifts, so aged pages
    /// genuinely fail at the nominal sense level and recover at shifted
    /// ones (the regime the read-retry ladder is for).
    pub fn new_physics(config: SsdConfig) -> Self {
        Self::with_fidelity(config, Fidelity::Physics)
    }

    fn with_fidelity(config: SsdConfig, fidelity: Fidelity) -> Self {
        let chips = (0..config.total_dies())
            .map(|i| {
                let chip_config = ChipConfig {
                    geometry: config.chip_geometry(),
                    fidelity,
                    max_inter_blocks: config.max_inter_blocks,
                    ..ChipConfig::paper()
                }
                .with_seed(0xD1E0 + i as u64);
                Mutex::new(NandChip::new(chip_config))
            })
            .collect();
        let ftl = Ftl::new(&config);
        Self {
            config,
            chips,
            ftl,
            codec: PageCodec::new(EccConfig::small()),
            energy: Mutex::new(EnergyMeter::new()),
            scratch: Mutex::new(IoScratch::default()),
            read_retry_budget: 6,
            health: HealthCounters::default(),
        }
    }

    /// Read-path health counters since construction.
    pub fn health(&self) -> ReadHealth {
        self.health.snapshot()
    }

    /// The maximum number of shifted-Vref retry senses per failed read.
    pub fn read_retry_budget(&self) -> usize {
        self.read_retry_budget
    }

    /// Swaps the page ECC code. Changes
    /// [`logical_page_bits`](Self::logical_page_bits), so it must happen
    /// before the first ECC-protected write — pages already stored under
    /// the old code will no longer decode.
    pub fn set_ecc(&mut self, config: EccConfig) {
        self.codec = PageCodec::new(config);
    }

    /// The SSD configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The FTL (placement inspection: pressures, cursors, mappings).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access for the `flash_cosmos::audit` mutation harness
    /// **only**: it deliberately bypasses the epoch-bump discipline of
    /// the core device's `ssd_mut()` chokepoint so seeded corruptions land
    /// without structurally invalidating the state under test. Never use
    /// it to mutate a live device — `fc-xtask lint-mutators` flags any
    /// reference outside the audit allowlist.
    #[doc(hidden)]
    pub fn ftl_mut_for_audit(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// A logical page's physical address and metadata, if mapped.
    pub fn lookup(&self, lpn: u64) -> Option<(Ppa, PageMeta)> {
        self.ftl.lookup(lpn)
    }

    /// A logical page's physical address, if mapped.
    pub fn translate(&self, lpn: u64) -> Option<Ppa> {
        self.ftl.translate(lpn)
    }

    /// A logical page's metadata, if mapped.
    pub fn page_meta(&self, lpn: u64) -> Option<PageMeta> {
        self.ftl.meta(lpn)
    }

    /// A point-in-time copy of every mapping in ascending LPN order — the
    /// walk that scrubbing, grown-defect discovery, and the `fc_audit`
    /// residency pass run over. The order is fixed so a seeded run walks
    /// (and breaks scrub-priority ties) the same way in every process;
    /// the FTL's hash map iterates in a per-process order. It copies the
    /// whole map, so per-drain callers check [`Ftl::ecc_pages`] first
    /// when only ECC pages matter.
    pub fn mapped_snapshot(&self) -> Vec<(u64, Ppa, PageMeta)> {
        let mut out: Vec<_> = self.ftl.iter_mapped().collect();
        out.sort_by_key(|&(lpn, ..)| lpn);
        out
    }

    /// The ECC correction margin as a fraction: `t / n` of the current
    /// page code — the raw bit-error rate at which a codeword's error
    /// budget is exhausted *in expectation*. Scrub selection compares a
    /// block's modeled RBER against a fraction of this margin.
    pub fn ecc_correction_margin(&self) -> f64 {
        self.codec.code().t() as f64 / self.codec.code().n() as f64
    }

    /// Payload bits per logical page, given whether ECC is in use. With
    /// ECC, parity shares the physical page, shrinking the payload to a
    /// whole number of codewords.
    pub fn logical_page_bits(&self, ecc: bool) -> usize {
        let page_bits = self.config.page_bits();
        if !ecc {
            return page_bits;
        }
        let n = self.codec.code().n();
        let k = self.codec.code().k();
        (page_bits / n) * k
    }

    /// Chip of one die (read-only view under the die's lock).
    pub fn chip(&self, die: DieId) -> ChipRef<'_> {
        ChipRef(lock(&self.chips[die.flat(&self.config)]))
    }

    /// Exclusive chip guard of one die — the Flash-Cosmos execution
    /// engine drives MWS programs through this. A lock-guarded mutation
    /// chokepoint: `fc-xtask lint-mutators` flags references outside
    /// the engine and the suites.
    pub fn chip_exec(&self, die: DieId) -> MutexGuard<'_, NandChip> {
        lock(&self.chips[die.flat(&self.config)])
    }

    /// Mutable chip of one die (fault injection and seeded corruption;
    /// requires exclusive device access, so no lock is taken).
    pub fn chip_mut(&mut self, die: DieId) -> &mut NandChip {
        let flat = die.flat(&self.config);
        self.chips[flat].get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets the equivalent retention age on every chip.
    pub fn set_retention_months(&mut self, months: f64) {
        for c in &mut self.chips {
            c.get_mut().unwrap_or_else(PoisonError::into_inner).set_retention_months(months);
        }
    }

    /// Aggregated NAND energy across chips plus device-level transfers,
    /// µJ.
    pub fn energy_uj(&self) -> f64 {
        lock(&self.energy).total_uj()
            + self.chips.iter().map(|c| lock(c).stats().energy_uj).sum::<f64>()
    }

    /// Writes a logical page.
    ///
    /// # Errors
    ///
    /// Fails on payload-size mismatch, FTL exhaustion, or chip errors.
    pub fn write(
        &mut self,
        lpn: u64,
        payload: &BitVec,
        opts: WriteOptions,
    ) -> Result<Ppa, DeviceError> {
        let expected = self.logical_page_bits(opts.meta.ecc);
        if payload.len() != expected {
            return Err(DeviceError::PayloadSize { got: payload.len(), expected });
        }
        let stored = self.build_stored(payload, opts.meta);
        let ppa = self.ftl.allocate(lpn, opts.placement, opts.meta)?;
        let addr = wl_addr(ppa);
        let die = ppa.plane.die;
        self.chip_exec(die).execute(Command::Program {
            addr,
            data: stored,
            scheme: opts.meta.scheme,
            randomize: opts.meta.randomized,
        })?;
        lock(&self.energy).add_channel_bytes(self.config.page_bytes as u64);
        Ok(ppa)
    }

    /// Writes the 2–3 logical pages of one multi-level (`mlsense`)
    /// wordline in a single program: `payloads[b]` becomes logical page
    /// `b` of the cell's Gray code, mapped at `lpns[b]`. All pages share
    /// the physical wordline — `lpns[1..]` alias `lpns[0]`'s mapping with
    /// distinct [`PageMeta::ml_page`]. ML pages are raw (no ECC, no
    /// randomization): they exist for in-flash computation density, and
    /// the physics-fidelity decode deliberately carries the real
    /// multi-level raw bit-error rate.
    ///
    /// # Errors
    ///
    /// Rejects single-bit schemes and page-count/size mismatches
    /// ([`NandError::InvalidMlsense`] / [`DeviceError::PayloadSize`]);
    /// otherwise fails like [`write`](Self::write).
    pub fn write_ml(
        &mut self,
        lpns: &[u64],
        payloads: &[BitVec],
        placement: PlacementHint,
        scheme: ProgramScheme,
        inverted: bool,
    ) -> Result<Ppa, DeviceError> {
        let bits = scheme.cell_mode().bits_per_cell() as usize;
        if bits < 2 || lpns.len() != bits || payloads.len() != bits {
            return Err(DeviceError::Nand(NandError::InvalidMlsense(format!(
                "multi-level write needs a multi-bit scheme with exactly bits-per-cell \
                 pages (scheme {scheme:?}, {} lpns, {} payloads)",
                lpns.len(),
                payloads.len()
            ))));
        }
        let expected = self.logical_page_bits(false);
        for p in payloads {
            if p.len() != expected {
                return Err(DeviceError::PayloadSize { got: p.len(), expected });
            }
        }
        let stored: Vec<BitVec> =
            payloads.iter().map(|p| if inverted { p.not() } else { p.clone() }).collect();
        let ppa =
            self.ftl.allocate(lpns[0], placement, PageMeta::multi_level(scheme, 0, inverted))?;
        for (b, &lpn) in lpns.iter().enumerate().skip(1) {
            self.ftl.alias(lpn, lpns[0], PageMeta::multi_level(scheme, b as u8, inverted))?;
        }
        let addr = wl_addr(ppa);
        let die = ppa.plane.die;
        self.chip_exec(die).execute(Command::ProgramMl { addr, pages: stored, scheme })?;
        lock(&self.energy).add_channel_bytes(bits as u64 * self.config.page_bytes as u64);
        Ok(ppa)
    }

    /// Reads one logical page of a multi-level wordline: one conduction
    /// sense per Gray-code transition of that page (the real MLC/TLC
    /// page-read cost), XOR-combined back into the logical page. ML pages
    /// carry no ECC, so there is no retry ladder — single-bit storage owns
    /// the reliability machinery.
    fn read_ml(
        &self,
        chip: &mut NandChip,
        addr: WlAddr,
        meta: PageMeta,
        mode: CellMode,
    ) -> Result<BitVec, DeviceError> {
        let page = meta.ml_page as usize;
        let mut senses = Vec::new();
        for t in mlsense::transition_levels(mode, page) {
            let raw = chip
                .execute(Command::ReadLevel { addr, level: t })?
                .into_page()
                .expect("a level read produces a page");
            senses.push(raw);
        }
        lock(&self.energy).add_channel_bytes(self.config.page_bytes as u64);
        let decoded = mlsense::page_from_senses(&senses, mode, page);
        Ok(if meta.inverted { decoded.not() } else { decoded })
    }

    /// Reads a logical page back, undoing randomization, ECC and
    /// inversion as recorded in its metadata.
    ///
    /// When the nominal-level sense fails to decode, the device walks a
    /// **read-retry ladder**: it re-senses at shifted Vref offsets picked
    /// from the block's stress state (retention pulls programmed cells
    /// down, disturb pushes erased cells up — `fc_nand::sense::retry_ladder`
    /// ranks the compensating offsets), up to
    /// [`read_retry_budget`](Self::read_retry_budget) attempts.
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages, chip errors, or ECC failures that stay
    /// uncorrectable after the whole retry ladder.
    pub fn read(&self, lpn: u64) -> Result<BitVec, DeviceError> {
        let (ppa, meta) = self.lookup(lpn).ok_or(DeviceError::NotMapped(lpn))?;
        let addr = wl_addr(ppa);
        self.health.reads.fetch_add(1, Ordering::Relaxed);
        let mode = meta.scheme.cell_mode();
        // One chip guard for the whole read, retry ladder included: the
        // stress state sampled for the ladder stays consistent with the
        // senses it ranks.
        let mut chip = self.chip_exec(ppa.plane.die);
        if mode.bits_per_cell() > 1 {
            return self.read_ml(&mut chip, addr, meta, mode);
        }
        let raw = chip
            .execute(Command::Read { addr, inverse: false })?
            .into_page()
            .expect("read produces a page");
        lock(&self.energy).add_channel_bytes(self.config.page_bytes as u64);
        if let Some(decoded) = self.decode_stored(&chip, addr, meta, raw) {
            return Ok(if meta.inverted { decoded.not() } else { decoded });
        }
        // Tier-1 recovery: shifted-Vref re-senses ranked by the block's
        // modeled stress.
        let block = addr.block();
        let stress = fc_nand::stress::StressState {
            pec: chip.block_pec(block)?,
            retention_months: chip.retention_months(),
            reads_since_program: chip.block_reads_since_program(block)?,
        };
        let ladder = fc_nand::sense::retry_ladder(
            meta.scheme,
            stress,
            &chip.config().stress_model,
            self.read_retry_budget,
        );
        for offset in ladder {
            self.health.retry_reads.fetch_add(1, Ordering::Relaxed);
            let raw = chip.read_shifted(addr, offset)?.into_page().expect("read produces a page");
            lock(&self.energy).add_channel_bytes(self.config.page_bytes as u64);
            if let Some(decoded) = self.decode_stored(&chip, addr, meta, raw) {
                self.health.retry_recoveries.fetch_add(1, Ordering::Relaxed);
                return Ok(if meta.inverted { decoded.not() } else { decoded });
            }
        }
        self.health.uncorrectable.fetch_add(1, Ordering::Relaxed);
        Err(DeviceError::Uncorrectable { lpn })
    }

    /// Descrambles and (when ECC-protected) decodes one raw sensed page.
    /// `None` means the codeword was uncorrectable at this sense level.
    fn decode_stored(
        &self,
        chip: &NandChip,
        addr: WlAddr,
        meta: PageMeta,
        raw: BitVec,
    ) -> Option<BitVec> {
        let descrambled =
            if meta.randomized { chip.randomizer().derandomize(addr, &raw) } else { raw };
        if !meta.ecc {
            return Some(descrambled);
        }
        let payload_bits = self.logical_page_bits(true);
        let n = self.codec.code().n();
        let words = payload_bits / self.codec.code().k();
        let mut scratch = lock(&self.scratch);
        let IoScratch { ecc, stored } = &mut *scratch;
        descrambled.slice_into(0, words * n, stored);
        match self.codec.decode_page_with(stored, payload_bits, ecc) {
            PageDecode::Corrected { data, corrected } => {
                self.health.bits_corrected.fetch_add(corrected as u64, Ordering::Relaxed);
                Some(data)
            }
            PageDecode::Uncorrectable => None,
        }
    }

    /// The physical wordline address of a logical page, if mapped.
    pub fn locate(&self, lpn: u64) -> Option<(DieId, WlAddr)> {
        self.translate(lpn).map(|ppa| (ppa.plane.die, wl_addr(ppa)))
    }

    /// Unmaps a logical page (trim): out-of-place overwrites retire the
    /// superseded page's mapping. The physical wordline keeps its stale
    /// bits until a (future) garbage collector erases the block — exactly
    /// like a real drive. Returns the freed physical address, if any.
    pub fn trim(&mut self, lpn: u64) -> Option<Ppa> {
        self.ftl.trim(lpn)
    }

    /// Assembles the raw stored page for a logical payload: optional
    /// inversion (§6.1), optional ECC, padding to the physical page size.
    /// (The returned page is owned by the chip afterwards; only the
    /// intermediate codec buffers are reused.)
    fn build_stored(&self, payload: &BitVec, meta: PageMeta) -> BitVec {
        let logical = if meta.inverted { payload.not() } else { payload.clone() };
        if meta.ecc {
            let mut scratch = lock(&self.scratch);
            let IoScratch { ecc, stored } = &mut *scratch;
            self.codec.encode_page_into(&logical, stored, ecc);
            let mut page = BitVec::zeros(self.config.page_bits());
            page.copy_from(0, stored);
            page
        } else {
            logical
        }
    }

    /// Migrates a logical page to a new placement (the §10 background
    /// gathering primitive: "leverage an efficient inter-chip data
    /// migration technique to gather the target operands into the same
    /// block").
    ///
    /// Uses the chip's **copyback** (§2.1 footnote 3 — no off-chip
    /// transfer) when the source and destination share a die and the
    /// storage metadata is unchanged; otherwise falls back to a full
    /// read-rewrite through the controller. Returns whether copyback was
    /// used.
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages, placement exhaustion, or chip errors.
    pub fn migrate(
        &mut self,
        lpn: u64,
        placement: PlacementHint,
        meta: PageMeta,
    ) -> Result<bool, DeviceError> {
        let (old_ppa, old_meta) = self.lookup(lpn).ok_or(DeviceError::NotMapped(lpn))?;
        if old_meta.scheme.cell_mode().bits_per_cell() > 1
            || meta.scheme.cell_mode().bits_per_cell() > 1
        {
            // A multi-level wordline backs several aliased logical pages;
            // moving one alias would strand the others (and a single-page
            // rewrite cannot reconstruct the cell levels). Rewrite the
            // whole operand group instead.
            return Err(DeviceError::Nand(NandError::InvalidMlsense(
                "multi-level pages cannot migrate; rewrite the operand group".to_string(),
            )));
        }
        let compatible = old_meta == meta;
        // Copyback is die-internal, so predict the destination die before
        // remapping: cross-die moves (and metadata changes) must read the
        // logical payload first — reading after remap would chase the new
        // address.
        let target_plane = match placement {
            PlacementHint::Grouped { group, plane } => self.ftl.group_plane(group, plane),
            PlacementHint::Striped => self.ftl.next_striped_plane(),
        };
        let same_die = crate::topology::PlaneId::from_flat(target_plane, &self.config).die
            == old_ppa.plane.die;
        // Randomized pages can never copyback: the scrambler keystream is
        // address-dependent, so raw bits moved to a new wordline would
        // descramble with the wrong keystream on read.
        let use_copyback = compatible && same_die && !meta.randomized;
        let payload = if use_copyback { None } else { Some(self.read(lpn)?) };
        let (old, new) = self.ftl.remap(lpn, placement, meta)?;
        let old_addr = wl_addr(old);
        let new_addr = wl_addr(new);
        if use_copyback {
            debug_assert_eq!(old.plane.die, new.plane.die, "peeked die must match allocation");
            self.chip_exec(old.plane.die)
                .execute(Command::Copyback { from: old_addr, to: new_addr })?;
            return Ok(true);
        }
        let stored = self.build_stored(payload.as_ref().expect("read above"), meta);
        self.chip_exec(new.plane.die).execute(Command::Program {
            addr: new_addr,
            data: stored,
            scheme: meta.scheme,
            randomize: meta.randomized,
        })?;
        lock(&self.energy).add_channel_bytes(2 * self.config.page_bytes as u64);
        Ok(false)
    }
}

/// Converts a physical page address into the owning chip's wordline
/// address.
pub fn wl_addr(ppa: Ppa) -> WlAddr {
    WlAddr::new(ppa.plane.plane, ppa.block, ppa.wl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device() -> SsdDevice {
        SsdDevice::new(SsdConfig::tiny_test())
    }

    fn payload(dev: &SsdDevice, ecc: bool, seed: u64) -> BitVec {
        let mut rng = StdRng::seed_from_u64(seed);
        BitVec::random(dev.logical_page_bits(ecc), &mut rng)
    }

    #[test]
    fn mapped_snapshot_walks_in_lpn_order() {
        let mut dev = device();
        // Striped writes rotate over planes, so the pages land in both
        // channels; write them in descending LPN order.
        for lpn in (0..24).rev() {
            dev.write(lpn, &payload(&dev, true, lpn), WriteOptions::conventional()).unwrap();
        }
        let channels: std::collections::BTreeSet<u32> =
            (0..24).map(|lpn| dev.translate(lpn).unwrap().plane.die.channel).collect();
        assert_eq!(channels.len(), 2, "pages span both channels");
        let lpns: Vec<u64> = dev.mapped_snapshot().iter().map(|&(lpn, ..)| lpn).collect();
        assert_eq!(lpns, (0..24).collect::<Vec<u64>>());
    }

    #[test]
    fn conventional_roundtrip() {
        let mut dev = device();
        let data = payload(&dev, true, 1);
        dev.write(10, &data, WriteOptions::conventional()).unwrap();
        assert_eq!(dev.read(10).unwrap(), data);
    }

    #[test]
    fn flash_cosmos_roundtrip_with_inversion() {
        let mut dev = device();
        let data = payload(&dev, false, 2);
        dev.write(20, &data, WriteOptions::flash_cosmos(crate::ftl::GroupKey::new(0, 0), 0, true))
            .unwrap();
        // Stored raw bits are the inverse; logical read restores.
        let (die, addr) = dev.locate(20).unwrap();
        assert_eq!(dev.chip(die).page_raw(addr).unwrap(), &data.not());
        assert_eq!(dev.read(20).unwrap(), data);
    }

    #[test]
    fn ecc_shrinks_logical_page() {
        let dev = device();
        // tiny page = 256 bits; (63,45) code → 4 codewords → 180 bits.
        assert_eq!(dev.logical_page_bits(false), 256);
        assert_eq!(dev.logical_page_bits(true), 180);
    }

    #[test]
    fn conventional_survives_injected_errors() {
        let mut dev = SsdDevice::new_noisy(SsdConfig::tiny_test());
        dev.set_retention_months(12.0);
        let data = payload(&dev, true, 3);
        dev.write(1, &data, WriteOptions::conventional()).unwrap();
        // Age the block heavily — SLC RBER at this stress is ~1e-3, well
        // within t=3 per 63-bit codeword virtually always.
        let (die, addr) = dev.locate(1).unwrap();
        dev.chip_mut(die).cycle_block(addr.block(), 10_000).unwrap();
        for _ in 0..20 {
            assert_eq!(dev.read(1).unwrap(), data, "ECC must absorb injected errors");
        }
    }

    /// The stress point the retry tests run at: heavy enough that the
    /// nominal sense level fails decode on a meaningful fraction of
    /// reads, paired with the deep `durable` code so those failures are
    /// *detected* (≥ 8 errors in a 63-bit codeword) rather than
    /// miscorrected.
    fn aged_physics_device(seed: u64) -> (SsdDevice, BitVec) {
        let mut dev = SsdDevice::new_physics(SsdConfig::tiny_test());
        dev.set_ecc(crate::ecc::EccConfig::durable());
        let data = payload(&dev, true, seed);
        dev.write(5, &data, WriteOptions::conventional()).unwrap();
        let (die, addr) = dev.locate(5).unwrap();
        dev.chip_mut(die).cycle_block(addr.block(), 15_000).unwrap();
        dev.set_retention_months(48.0);
        (dev, data)
    }

    #[test]
    fn retry_ladder_recovers_aged_physics_reads() {
        // Physics fidelity at heavy stress: retention drags programmed
        // cells toward the nominal Vref, so some reads fail the nominal
        // decode. The shifted-Vref ladder must recover every one of them.
        let (dev, data) = aged_physics_device(7);
        for _ in 0..200 {
            assert_eq!(dev.read(5).unwrap(), data, "ladder must keep reads bit-exact");
        }
        let h = dev.health();
        assert_eq!(h.reads, 200);
        assert!(h.retry_reads > 0, "this stress level must trip nominal decodes");
        assert!(h.retry_recoveries > 0, "retries must actually recover");
        assert_eq!(h.uncorrectable, 0);
        assert!(h.bits_corrected > 0, "ECC corrects residual errors at the retry level");
    }

    #[test]
    fn zero_retry_budget_surfaces_uncorrectable() {
        let (mut dev, data) = aged_physics_device(8);
        dev.read_retry_budget = 0; // tier-1 recovery off
        let mut failures = 0;
        for _ in 0..200 {
            match dev.read(5) {
                Ok(got) => assert_eq!(got, data),
                Err(DeviceError::Uncorrectable { lpn: 5 }) => failures += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(failures > 0, "without retries this stress must surface failures");
        assert_eq!(dev.health().uncorrectable as usize, failures);
        assert_eq!(dev.health().retry_reads, 0);
    }

    #[test]
    fn payload_size_is_validated() {
        let mut dev = device();
        let err = dev.write(1, &BitVec::zeros(7), WriteOptions::conventional()).unwrap_err();
        assert!(matches!(err, DeviceError::PayloadSize { got: 7, expected: 180 }));
    }

    #[test]
    fn unmapped_read_fails() {
        let dev = device();
        assert!(matches!(dev.read(99).unwrap_err(), DeviceError::NotMapped(99)));
    }

    #[test]
    fn grouped_writes_share_a_block() {
        let mut dev = device();
        for i in 0..4 {
            let data = payload(&dev, false, 10 + i);
            dev.write(
                i,
                &data,
                WriteOptions::flash_cosmos(crate::ftl::GroupKey::new(7, 0), 0, false),
            )
            .unwrap();
        }
        let locs: Vec<_> = (0..4).map(|i| dev.locate(i).unwrap()).collect();
        assert!(locs.iter().all(|(d, a)| *d == locs[0].0 && a.block == locs[0].1.block));
        let wls: Vec<u32> = locs.iter().map(|(_, a)| a.wl).collect();
        assert_eq!(wls, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mlc_roundtrip_reads_each_logical_page() {
        let mut dev = device();
        let pages: Vec<BitVec> = (0..2).map(|i| payload(&dev, false, 70 + i)).collect();
        dev.write_ml(&[40, 41], &pages, PlacementHint::Striped, ProgramScheme::Mlc, false).unwrap();
        // Both logical pages live on one physical wordline.
        assert_eq!(dev.locate(40).unwrap(), dev.locate(41).unwrap());
        assert_eq!(dev.read(40).unwrap(), pages[0]);
        assert_eq!(dev.read(41).unwrap(), pages[1]);
    }

    #[test]
    fn tlc_roundtrip_with_inversion() {
        let mut dev = device();
        let pages: Vec<BitVec> = (0..3).map(|i| payload(&dev, false, 80 + i)).collect();
        dev.write_ml(&[50, 51, 52], &pages, PlacementHint::Striped, ProgramScheme::Tlc, true)
            .unwrap();
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(dev.read(50 + i as u64).unwrap(), *p, "TLC page {i} must round-trip");
        }
    }

    #[test]
    fn ml_write_validates_scheme_and_page_count() {
        let mut dev = device();
        let pages: Vec<BitVec> = (0..2).map(|i| payload(&dev, false, 90 + i)).collect();
        // Single-bit schemes have no aliased pages.
        let err = dev
            .write_ml(&[1, 2], &pages, PlacementHint::Striped, ProgramScheme::Slc, false)
            .unwrap_err();
        assert!(matches!(err, DeviceError::Nand(NandError::InvalidMlsense(_))));
        // Page count must match bits-per-cell.
        let err = dev
            .write_ml(&[1, 2], &pages, PlacementHint::Striped, ProgramScheme::Tlc, false)
            .unwrap_err();
        assert!(matches!(err, DeviceError::Nand(NandError::InvalidMlsense(_))));
    }

    #[test]
    fn ml_pages_cannot_migrate() {
        let mut dev = device();
        let pages: Vec<BitVec> = (0..2).map(|i| payload(&dev, false, 95 + i)).collect();
        dev.write_ml(&[60, 61], &pages, PlacementHint::Striped, ProgramScheme::Mlc, false).unwrap();
        let err = dev
            .migrate(
                61,
                PlacementHint::Striped,
                PageMeta::multi_level(ProgramScheme::Mlc, 1, false),
            )
            .unwrap_err();
        assert!(matches!(err, DeviceError::Nand(NandError::InvalidMlsense(_))));
    }

    #[test]
    fn striped_migration_uses_copyback_on_the_same_die() {
        let mut dev = device();
        // Striped raw pages (no randomization — address-dependent
        // keystreams forbid copyback for scrambled data).
        let raw =
            WriteOptions { placement: PlacementHint::Striped, meta: PageMeta::flash_cosmos(false) };
        let data: Vec<BitVec> = (0..8).map(|i| payload(&dev, false, 50 + i)).collect();
        for (i, d) in data.iter().enumerate() {
            dev.write(i as u64, d, raw).unwrap();
        }
        // lpn 0 sits on plane 0 and the stripe cursor has wrapped back to
        // plane 0: a compatible striped migration stays on the die →
        // copyback.
        assert!(dev.migrate(0, PlacementHint::Striped, PageMeta::flash_cosmos(false)).unwrap());
        assert_eq!(dev.read(0).unwrap(), data[0]);
        // lpn 4 sits on plane 4 (die 2) but the cursor now points at
        // plane 1 (die 0): cross-die → controller rewrite.
        assert!(!dev.migrate(4, PlacementHint::Striped, PageMeta::flash_cosmos(false)).unwrap());
        assert_eq!(dev.read(4).unwrap(), data[4]);
        // Conventional (randomized) pages always rewrite, even die-local:
        // the raw bits only descramble at their original address.
        let conv = payload(&dev, true, 60);
        dev.write(100, &conv, WriteOptions::conventional()).unwrap();
        assert!(!dev.migrate(100, PlacementHint::Striped, PageMeta::conventional()).unwrap());
        assert_eq!(dev.read(100).unwrap(), conv, "randomized rewrite must re-scramble");
    }

    #[test]
    fn energy_accumulates() {
        let mut dev = device();
        let before = dev.energy_uj();
        let data = payload(&dev, true, 4);
        dev.write(1, &data, WriteOptions::conventional()).unwrap();
        dev.read(1).unwrap();
        assert!(dev.energy_uj() > before);
    }
}
