//! The NAND chip state machine: executes [`Command`]s against the cell
//! array, drives the latch banks, injects reliability behaviour, and
//! accounts latency and energy per operation.
//!
//! A [`NandChip`] models one die. Each plane has its own latch bank (as in
//! real chips); blocks track P/E cycles and reads since their last program
//! so the stress and RBER models see the right conditions.

use fc_bits::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::calib::timing;
use crate::command::{Command, Feature, IscmFlags, MwsTarget};
use crate::config::{ChipConfig, Fidelity};
use crate::error::NandError;
use crate::geometry::{BlockAddr, WlAddr};
use crate::ispp::{self, ProgramScheme};
use crate::latch::LatchBank;
use crate::mlsense;
use crate::power;
use crate::randomizer::Randomizer;
use crate::sense;
use crate::stress::StressState;

/// Raw state of one programmed wordline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageState {
    /// Raw stored bits (post-randomization if the page was scrambled).
    pub data: BitVec,
    /// Programming scheme used.
    pub scheme: ProgramScheme,
    /// Whether the on-chip scrambler was engaged.
    pub randomized: bool,
    /// Physics mode only: per-cell threshold voltages at program time.
    #[serde(skip)]
    pub vth: Option<Vec<f64>>,
    /// Multi-level pages only: the per-cell V_TH level index each cell
    /// was programmed to (`mlsense::encode_levels`). `None` for
    /// single-bit (SLC/ESP) pages.
    #[serde(default)]
    pub levels: Option<Vec<u8>>,
}

/// Grown per-block stuck-at columns: a block whose strings developed a
/// permanent defect after fabrication (the grown-defect class real
/// drives track in a bad-block/defect list). Any sense touching the
/// block reads the stuck value on the masked columns regardless of the
/// stored data — the stored bits themselves are unharmed, which is
/// exactly why unprotected (raw, ECC-less) pages corrupt silently and
/// need cross-die parity to recover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StuckColumns {
    /// Columns forced to the stuck value.
    pub mask: BitVec,
    /// The value each masked column reads as (zero outside the mask).
    pub value: BitVec,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Block {
    pages: Vec<Option<PageState>>,
    pec: u32,
    reads_since_program: u64,
    /// Grown stuck-at columns, if the block has failed (fault injection /
    /// grown defects). `None` for healthy blocks.
    #[serde(default)]
    stuck: Option<StuckColumns>,
}

impl Block {
    fn new(wls: usize) -> Self {
        Self { pages: vec![None; wls], pec: 0, reads_since_program: 0, stuck: None }
    }
}

#[derive(Debug)]
struct Plane {
    blocks: Vec<Block>,
    /// Sum of `blocks[..].pec`, moved by each block's actual (saturating)
    /// increase, so a wear read never scans the blocks.
    pec_sum: u64,
    latches: LatchBank,
    /// Permanently defective bitline columns (stuck-at faults).
    faulty_mask: BitVec,
    /// The value each faulty column is stuck at.
    faulty_stuck: BitVec,
}

/// Result of executing one command.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdOutput {
    /// Operation latency in microseconds.
    pub latency_us: f64,
    /// Operation energy in microjoules.
    pub energy_uj: f64,
    /// Chip power during the operation, normalized to a regular read
    /// (Fig. 14 scale). Zero for pure latch/feature operations.
    pub norm_power: f64,
    page: Option<BitVec>,
}

impl CmdOutput {
    fn latch_only() -> Self {
        Self { latency_us: 0.0, energy_uj: 0.0, norm_power: 0.0, page: None }
    }

    /// Page data produced by the command (the C-latch snapshot after a
    /// transfer, or the streamed-out data of a `ReadOut`).
    pub fn page(&self) -> Option<&BitVec> {
        self.page.as_ref()
    }

    /// Consumes the output, returning the page data.
    pub fn into_page(self) -> Option<BitVec> {
        self.page
    }
}

/// Cumulative operation counters for one chip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChipStats {
    /// Sensing operations (regular reads + MWS + erase-verify).
    pub senses: u64,
    /// Of which multi-wordline (more than one WL or more than one block).
    pub mws_ops: u64,
    /// Program operations.
    pub programs: u64,
    /// Erase operations.
    pub erases: u64,
    /// Raw bit errors injected into sensed data (functional mode).
    pub injected_errors: u64,
    /// Total busy time, microseconds.
    pub busy_us: f64,
    /// Total energy, microjoules.
    pub energy_uj: f64,
}

/// Reusable buffers for the sensing hot path.
///
/// # Scratch-reuse contract
///
/// Every sense (`Read`, `Mws`, `EraseVerify`) evaluates its per-block
/// ANDs, the inter-block OR, and any error injection **into these
/// buffers** instead of allocating. The buffers are owned by the chip and
/// live as long as it does, so steady-state sensing performs zero heap
/// allocations once each buffer has grown to the chip's page size:
///
/// * `per_block` is an arena of per-block AND results — one entry per
///   simultaneously activated block, grown on demand and never shrunk.
/// * `sensed` holds the OR-combined page that feeds the latch bank.
/// * `corrupt` receives a copy of a stored page **only** when that page
///   actually gets injected errors (error-free pages are ANDed in place
///   from the stored data, with no copy at all).
/// * `flip_idx` is the error-injection working memory between senses.
/// * `stress_buf` is the physics-mode working population: the stored
///   V_TH vector is copied in, stress-shifted, and threshold-compared —
///   the stored populations themselves are never cloned.
///
/// Buffer contents are unspecified between senses; each sense fully
/// re-initializes what it reads. Nothing outside the sense path may hold
/// references into the scratch across a sense.
#[derive(Debug, Default)]
pub struct SenseScratch {
    per_block: Vec<BitVec>,
    sensed: BitVec,
    corrupt: BitVec,
    flip_idx: Vec<usize>,
    stress_buf: Vec<f64>,
    /// Per-wordline vote pages of a threshold MWS (1 = programmed), an
    /// arena like `per_block` — grown on demand, never shrunk.
    votes: Vec<BitVec>,
    /// The bit-sliced vote counter's working planes.
    threshold: mlsense::ThresholdScratch,
}

impl SenseScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One simulated NAND die.
pub struct NandChip {
    config: ChipConfig,
    planes: Vec<Plane>,
    randomizer: Randomizer,
    rng: StdRng,
    retention_months: f64,
    esp_ratio_default: f64,
    stats: ChipStats,
    scratch: SenseScratch,
}

impl std::fmt::Debug for NandChip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NandChip")
            .field("geometry", &self.config.geometry)
            .field("fidelity", &self.config.fidelity)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl NandChip {
    /// Creates a chip in the fully erased state. Fabrication defects
    /// (stuck-at bitline columns) are sampled per plane from the
    /// configured fraction.
    pub fn new(config: ChipConfig) -> Self {
        let page_bits = config.geometry.page_bits();
        let mut fab_rng = StdRng::seed_from_u64(config.seed ^ 0xFAB);
        let planes = (0..config.geometry.planes)
            .map(|_| {
                let faulty_mask = if config.faulty_column_fraction > 0.0 {
                    BitVec::random_with_density(
                        page_bits,
                        config.faulty_column_fraction,
                        &mut fab_rng,
                    )
                } else {
                    BitVec::zeros(page_bits)
                };
                let faulty_stuck = BitVec::random(page_bits, &mut fab_rng).and(&faulty_mask);
                Plane {
                    blocks: (0..config.geometry.blocks_per_plane)
                        .map(|_| Block::new(config.geometry.wls_per_block as usize))
                        .collect(),
                    pec_sum: 0,
                    latches: LatchBank::new(page_bits),
                    faulty_mask,
                    faulty_stuck,
                }
            })
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        let randomizer = Randomizer::new(config.seed ^ 0x5EED_5EED);
        Self {
            config,
            planes,
            randomizer,
            rng,
            retention_months: 0.0,
            esp_ratio_default: timing::T_ESP_US / timing::T_PROG_SLC_US,
            stats: ChipStats::default(),
            scratch: SenseScratch::new(),
        }
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Cumulative operation statistics.
    pub fn stats(&self) -> ChipStats {
        self.stats
    }

    /// The on-chip scrambler (the SSD controller model uses this to
    /// derandomize data read from randomized pages).
    pub fn randomizer(&self) -> &Randomizer {
        &self.randomizer
    }

    /// Sets the equivalent retention age seen by all stored data. The
    /// paper's testbed accelerates aging with temperature (Arrhenius);
    /// experiments here set the equivalent age directly.
    pub fn set_retention_months(&mut self, months: f64) {
        self.retention_months = months;
    }

    /// Current equivalent retention age, months.
    pub fn retention_months(&self) -> f64 {
        self.retention_months
    }

    /// Current ESP latency-ratio default (SET FEATURE adjustable).
    pub fn esp_ratio_default(&self) -> f64 {
        self.esp_ratio_default
    }

    /// P/E-cycle count of a block.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range address.
    pub fn block_pec(&self, block: BlockAddr) -> Result<u32, NandError> {
        self.config.geometry.validate_block(block)?;
        Ok(self.planes[block.plane as usize].blocks[block.block as usize].pec)
    }

    /// Summed P/E-cycle count of a plane's blocks — its wear. Kept as the
    /// blocks age, so reading it scans nothing.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range plane.
    pub fn plane_pec(&self, plane: u32) -> Result<u64, NandError> {
        self.config.geometry.validate_block(BlockAddr::new(plane, 0))?;
        Ok(self.planes[plane as usize].pec_sum)
    }

    /// Ages a block by `cycles` program/erase cycles without simulating
    /// each one (the paper's PEC-conditioning loop, §5.1).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range address.
    pub fn cycle_block(&mut self, block: BlockAddr, cycles: u32) -> Result<(), NandError> {
        self.config.geometry.validate_block(block)?;
        self.add_pec(block, cycles);
        Ok(())
    }

    /// Raises a (validated) block's P/E count by `cycles`, saturating,
    /// and its plane's sum by the block's actual increase.
    fn add_pec(&mut self, block: BlockAddr, cycles: u32) {
        let plane = &mut self.planes[block.plane as usize];
        let b = &mut plane.blocks[block.block as usize];
        let before = b.pec;
        b.pec = b.pec.saturating_add(cycles);
        plane.pec_sum += u64::from(b.pec - before);
    }

    /// Reads since a block's last program/erase — the read-disturb state
    /// the retry ladder and scrub policy condition on.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range address.
    pub fn block_reads_since_program(&self, block: BlockAddr) -> Result<u64, NandError> {
        self.config.geometry.validate_block(block)?;
        Ok(self.planes[block.plane as usize].blocks[block.block as usize].reads_since_program)
    }

    /// Adds `reads` to a block's reads-since-program counter without
    /// issuing the senses — the fault-injection path for read-disturb
    /// conditioning (issuing tens of thousands of real reads would also
    /// perturb the RNG streams seeded tests depend on).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range address.
    pub fn add_block_reads(&mut self, block: BlockAddr, reads: u64) -> Result<(), NandError> {
        self.config.geometry.validate_block(block)?;
        let b = &mut self.planes[block.plane as usize].blocks[block.block as usize];
        b.reads_since_program = b.reads_since_program.saturating_add(reads);
        Ok(())
    }

    /// Marks a block's columns as stuck-at (grown defect / fault
    /// injection): every later sense of the block reads `value` on the
    /// `mask` columns instead of the stored data. Stored bits are
    /// untouched — the defect lives in the sensing path, like real grown
    /// defects do.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range address or masks that do not
    /// match the page size.
    pub fn set_block_stuck(
        &mut self,
        block: BlockAddr,
        mask: BitVec,
        value: BitVec,
    ) -> Result<(), NandError> {
        self.config.geometry.validate_block(block)?;
        let expected = self.config.geometry.page_bits();
        if mask.len() != expected || value.len() != expected {
            return Err(NandError::PageSizeMismatch { got: mask.len(), expected });
        }
        let stuck = StuckColumns { value: value.and(&mask), mask };
        self.planes[block.plane as usize].blocks[block.block as usize].stuck = Some(stuck);
        Ok(())
    }

    /// The grown stuck-column state of a block, if it has been marked
    /// failed.
    pub fn block_stuck(&self, block: BlockAddr) -> Option<&StuckColumns> {
        self.config.geometry.validate_block(block).ok()?;
        self.planes[block.plane as usize].blocks[block.block as usize].stuck.as_ref()
    }

    /// Senses one wordline at a recalibrated read reference voltage —
    /// nominal `V_REF` plus `vref_offset_v` volts — the read-retry
    /// primitive (sense-level shifting is a standard SET-FEATURE knob on
    /// commodity chips; see [`crate::sense::retry_ladder`] for how the
    /// stress model picks the offsets). An offset of 0.0 is exactly a
    /// regular read.
    ///
    /// # Errors
    ///
    /// Same errors as a regular [`Command::Read`].
    pub fn read_shifted(
        &mut self,
        addr: WlAddr,
        vref_offset_v: f64,
    ) -> Result<CmdOutput, NandError> {
        let out = self.exec_mws(
            IscmFlags::single_read(),
            &[MwsTarget::new(addr.block(), &[addr.wl])],
            false,
            vref_offset_v,
        )?;
        self.stats.busy_us += out.latency_us;
        self.stats.energy_uj += out.energy_uj;
        Ok(out)
    }

    /// Raw stored bits of a page, if programmed. Post-randomization if the
    /// page was scrambled; no error injection (this is the ground truth).
    pub fn page_raw(&self, addr: WlAddr) -> Option<&BitVec> {
        self.config.geometry.validate_wl(addr).ok()?;
        self.planes[addr.plane as usize].blocks[addr.block as usize].pages[addr.wl as usize]
            .as_ref()
            .map(|p| &p.data)
    }

    /// Convenience: reads a page and undoes randomization if it was
    /// scrambled (combines the chip read and the controller descrambling
    /// step).
    ///
    /// # Errors
    ///
    /// Propagates any chip error from the underlying read.
    pub fn read_logical(&mut self, addr: WlAddr) -> Result<BitVec, NandError> {
        let randomized = self
            .page_state(addr)
            .ok_or(NandError::ReadOfUnwrittenPage {
                plane: addr.plane,
                block: addr.block,
                wl: addr.wl,
            })?
            .randomized;
        let out = self.execute(Command::Read { addr, inverse: false })?;
        let raw = out.into_page().expect("read always produces a page");
        Ok(if randomized { self.randomizer.derandomize(addr, &raw) } else { raw })
    }

    fn page_state(&self, addr: WlAddr) -> Option<&PageState> {
        self.config.geometry.validate_wl(addr).ok()?;
        self.planes[addr.plane as usize].blocks[addr.block as usize].pages[addr.wl as usize]
            .as_ref()
    }

    /// Profiles the permanently faulty bitline columns of a plane by the
    /// standard two-pattern test: program all-ones and all-zeros pages
    /// into two wordlines of `scratch_block`, read both back, and flag
    /// any column that misreads either pattern persistently (transient
    /// injected errors are filtered by majority over `rounds` reads).
    ///
    /// §5.1 footnote 9: "faulty cells can be profiled and excluded for
    /// the purpose of Flash-Cosmos".
    ///
    /// # Errors
    ///
    /// Propagates chip errors; the scratch block is erased on entry and
    /// on exit.
    pub fn profile_faulty_columns(
        &mut self,
        scratch_block: BlockAddr,
        rounds: u32,
    ) -> Result<BitVec, NandError> {
        self.config.geometry.validate_block(scratch_block)?;
        let bits = self.config.geometry.page_bits();
        self.execute(Command::Erase { block: scratch_block })?;
        self.execute(Command::Program {
            addr: scratch_block.wordline(0),
            data: BitVec::ones(bits),
            scheme: crate::ispp::ProgramScheme::esp_default(),
            randomize: false,
        })?;
        self.execute(Command::Program {
            addr: scratch_block.wordline(1),
            data: BitVec::zeros(bits),
            scheme: crate::ispp::ProgramScheme::esp_default(),
            randomize: false,
        })?;
        let mut miscount = vec![0u32; bits];
        for _ in 0..rounds {
            let ones = self
                .execute(Command::Read { addr: scratch_block.wordline(0), inverse: false })?
                .into_page()
                .expect("read produces a page");
            let zeros = self
                .execute(Command::Read { addr: scratch_block.wordline(1), inverse: false })?
                .into_page()
                .expect("read produces a page");
            for (i, m) in miscount.iter_mut().enumerate() {
                if !ones.get(i) || zeros.get(i) {
                    *m += 1;
                }
            }
        }
        self.execute(Command::Erase { block: scratch_block })?;
        // Persistent across a majority of rounds → permanent defect.
        Ok(BitVec::from_fn(bits, |i| miscount[i] * 2 > rounds))
    }

    /// The fabrication-time faulty-column map of a plane (ground truth
    /// for validating profiling).
    pub fn faulty_columns(&self, plane: u32) -> Option<&BitVec> {
        self.planes.get(plane as usize).map(|p| &p.faulty_mask)
    }

    /// Executes one command.
    ///
    /// # Errors
    ///
    /// Returns a [`NandError`] for invalid addresses, programming rule
    /// violations, malformed MWS target lists, or power-cap violations.
    pub fn execute(&mut self, cmd: Command) -> Result<CmdOutput, NandError> {
        let out = match cmd {
            Command::Read { addr, inverse } => {
                let flags = if inverse {
                    IscmFlags::single_inverse_read()
                } else {
                    IscmFlags::single_read()
                };
                self.exec_mws(flags, &[MwsTarget::new(addr.block(), &[addr.wl])], false, 0.0)?
            }
            Command::Mws { flags, targets } => self.exec_mws(flags, &targets, false, 0.0)?,
            Command::ThresholdMws { target, k } => self.exec_threshold_mws(target, k)?,
            Command::ProgramMl { addr, pages, scheme } => {
                self.exec_program_ml(addr, pages, scheme)?
            }
            Command::ReadLevel { addr, level } => self.exec_read_level(addr, level)?,
            Command::EraseVerify { block } => {
                self.config.geometry.validate_block(block)?;
                let n = self.config.geometry.wls_per_block.min(64);
                self.exec_mws(IscmFlags::single_read(), &[MwsTarget::all_wls(block, n)], true, 0.0)?
            }
            Command::Program { addr, data, scheme, randomize } => {
                self.exec_program(addr, data, scheme, randomize)?
            }
            Command::Erase { block } => self.exec_erase(block)?,
            Command::XorLatch { plane } => {
                self.validate_plane(plane)?;
                self.planes[plane as usize].latches.xor_into_c();
                CmdOutput::latch_only()
            }
            Command::ReadOut { plane } => {
                self.validate_plane(plane)?;
                let page = self.planes[plane as usize].latches.c_latch().clone();
                CmdOutput { page: Some(page), ..CmdOutput::latch_only() }
            }
            Command::Copyback { from, to } => self.exec_copyback(from, to)?,
            Command::SetFeature { feature } => self.exec_set_feature(feature)?,
        };
        self.stats.busy_us += out.latency_us;
        self.stats.energy_uj += out.energy_uj;
        Ok(out)
    }

    fn validate_plane(&self, plane: u32) -> Result<(), NandError> {
        if plane >= self.config.geometry.planes {
            return Err(NandError::AddressOutOfRange { what: "plane", plane, block: 0, wl: 0 });
        }
        Ok(())
    }

    fn exec_program(
        &mut self,
        addr: WlAddr,
        data: BitVec,
        scheme: ProgramScheme,
        randomize: bool,
    ) -> Result<CmdOutput, NandError> {
        self.config.geometry.validate_wl(addr)?;
        let expected = self.config.geometry.page_bits();
        if data.len() != expected {
            return Err(NandError::PageSizeMismatch { got: data.len(), expected });
        }
        if self.page_state(addr).is_some() {
            return Err(NandError::ProgramWithoutErase {
                plane: addr.plane,
                block: addr.block,
                wl: addr.wl,
            });
        }
        let stored = if randomize { self.randomizer.randomize(addr, &data) } else { data };

        let vth = if matches!(self.config.fidelity, Fidelity::Physics) {
            // SLC encoding: bit 1 = erased, bit 0 = programmed. The
            // packed page feeds the word-parallel ISPP engine directly.
            Some(ispp::program_page(&stored, scheme, &mut self.rng).vth)
        } else {
            None
        };

        let latency = scheme.program_latency_us();
        let energy = power::program_energy_uj(latency);
        let block = &mut self.planes[addr.plane as usize].blocks[addr.block as usize];
        block.pages[addr.wl as usize] =
            Some(PageState { data: stored, scheme, randomized: randomize, vth, levels: None });
        block.reads_since_program = 0;

        // Physics: programming disturbs the neighbouring wordlines
        // (program interference, §2.2).
        if matches!(self.config.fidelity, Fidelity::Physics) {
            let model = self.config.stress_model;
            let wl = addr.wl as usize;
            let block = &mut self.planes[addr.plane as usize].blocks[addr.block as usize];
            for neighbour in [wl.checked_sub(1), Some(wl + 1)].into_iter().flatten() {
                if let Some(Some(p)) = block.pages.get_mut(neighbour) {
                    if let Some(vth) = p.vth.as_mut() {
                        model.apply_interference(vth, &mut self.rng);
                    }
                }
            }
        }

        self.stats.programs += 1;
        Ok(CmdOutput {
            latency_us: latency,
            energy_uj: energy,
            norm_power: power::program_power_norm(),
            page: None,
        })
    }

    fn exec_erase(&mut self, block: BlockAddr) -> Result<CmdOutput, NandError> {
        self.config.geometry.validate_block(block)?;
        let b = &mut self.planes[block.plane as usize].blocks[block.block as usize];
        for p in &mut b.pages {
            *p = None;
        }
        b.reads_since_program = 0;
        self.add_pec(block, 1);
        self.stats.erases += 1;
        Ok(CmdOutput {
            latency_us: timing::T_BERS_US,
            energy_uj: power::erase_energy_uj(),
            norm_power: power::erase_power_norm(),
            page: None,
        })
    }

    fn exec_copyback(&mut self, from: WlAddr, to: WlAddr) -> Result<CmdOutput, NandError> {
        // Copyback is die-internal: the page register bridges the planes,
        // so source and destination may differ in plane (but never leave
        // the chip — cross-die moves go through the controller).
        self.config.geometry.validate_wl(from)?;
        self.config.geometry.validate_wl(to)?;
        let src = self
            .page_state(from)
            .ok_or(NandError::ReadOfUnwrittenPage {
                plane: from.plane,
                block: from.block,
                wl: from.wl,
            })?
            .clone();
        // Internal read (with error injection — copyback copies raw bits,
        // errors and all, which is why real SSDs bound copyback chains).
        let read = self.exec_mws(
            IscmFlags::single_read(),
            &[MwsTarget::new(from.block(), &[from.wl])],
            false,
            0.0,
        )?;
        let data = read.page.clone().expect("read produces a page");
        let prog = self.exec_program(to, data, src.scheme, false)?;
        Ok(CmdOutput {
            latency_us: read.latency_us + prog.latency_us,
            energy_uj: read.energy_uj + prog.energy_uj,
            norm_power: prog.norm_power,
            page: None,
        })
    }

    fn exec_set_feature(&mut self, feature: Feature) -> Result<CmdOutput, NandError> {
        match feature {
            Feature::MaxInterBlocks(n) => {
                if n == 0 || n as usize > 32 {
                    return Err(NandError::InvalidFeature(format!(
                        "max inter-block count {n} outside 1..=32"
                    )));
                }
                self.config.max_inter_blocks = n as usize;
            }
            Feature::EspLatencyRatio(r) => {
                if !(1.0..=2.5).contains(&r) {
                    return Err(NandError::InvalidFeature(format!(
                        "ESP latency ratio {r} outside 1.0..=2.5"
                    )));
                }
                self.esp_ratio_default = r;
            }
        }
        Ok(CmdOutput::latch_only())
    }

    /// Core sensing path shared by `Read`, `Mws`, `EraseVerify` and
    /// [`NandChip::read_shifted`].
    ///
    /// `allow_unwritten` treats unwritten wordlines as fully erased
    /// (all-ones) instead of erroring — needed by erase-verify.
    /// `vref_offset` shifts the read reference voltage from the nominal
    /// level (0.0 everywhere except read-retry).
    fn exec_mws(
        &mut self,
        flags: IscmFlags,
        targets: &[MwsTarget],
        allow_unwritten: bool,
        vref_offset: f64,
    ) -> Result<CmdOutput, NandError> {
        if targets.is_empty() || targets.iter().any(|t| t.pbm == 0) {
            return Err(NandError::EmptyMwsTarget);
        }
        let plane = targets[0].block.plane;
        if targets.iter().any(|t| t.block.plane != plane) {
            return Err(NandError::PlaneMismatch);
        }
        if targets.len() > self.config.max_inter_blocks {
            return Err(NandError::TooManyBlocks {
                requested: targets.len(),
                max: self.config.max_inter_blocks,
            });
        }
        let geom = self.config.geometry;
        for t in targets {
            geom.validate_block(t.block)?;
            for wl in t.wls() {
                geom.validate_wl(t.block.wordline(wl))?;
                if !allow_unwritten && self.page_state(t.block.wordline(wl)).is_none() {
                    return Err(NandError::ReadOfUnwrittenPage {
                        plane: t.block.plane,
                        block: t.block.block,
                        wl,
                    });
                }
            }
        }

        // Evaluate each block's string AND into the scratch arena, then OR
        // across blocks (Eq. 1). Field-level borrows keep the stored pages
        // readable in place while the RNG, stats and scratch mutate.
        {
            let Self { planes, rng, scratch, config, stats, retention_months, .. } = self;
            while scratch.per_block.len() < targets.len() {
                scratch.per_block.push(BitVec::default());
            }
            let SenseScratch { per_block, corrupt, flip_idx, stress_buf, .. } = scratch;
            let plane_state = &planes[plane as usize];
            for (out, t) in per_block.iter_mut().zip(targets) {
                sense_block_and_into(
                    out,
                    plane_state,
                    t,
                    allow_unwritten,
                    config,
                    *retention_months,
                    vref_offset,
                    rng,
                    stats,
                    corrupt,
                    flip_idx,
                    stress_buf,
                )?;
            }
        }
        {
            let SenseScratch { per_block, sensed, .. } = &mut self.scratch;
            sense::combine_blocks_or_into(sensed, &per_block[..targets.len()]);
        }
        let page = self.overlay_and_latch(plane, flags);

        // Timing and power.
        let max_wls = targets.iter().map(MwsTarget::wl_count).max().unwrap_or(1);
        let latency = sense::mws_latency_us(timing::T_R_SLC_US, max_wls, targets.len());
        let norm_power = if targets.len() > 1 {
            power::mws_power_norm(targets.len())
        } else if max_wls > 1 {
            power::mws_power_norm(1)
        } else {
            power::read_power_norm()
        };
        let energy = power::energy_uj(norm_power, latency);

        // Read disturb accounting.
        for t in targets {
            let b = &mut self.planes[plane as usize].blocks[t.block.block as usize];
            b.reads_since_program += 1;
        }

        self.stats.senses += 1;
        if targets.len() > 1 || max_wls > 1 {
            self.stats.mws_ops += 1;
        }
        Ok(CmdOutput { latency_us: latency, energy_uj: energy, norm_power, page })
    }

    /// Shared sense tail: applies the plane's permanently faulty columns
    /// to `scratch.sensed` (stuck columns read their stuck value
    /// regardless of the stored data, §5.1 footnote 9), then drives the
    /// latch sequence per the ISCM flags. Returns the C-latch snapshot
    /// if the flags transfer.
    fn overlay_and_latch(&mut self, plane: u32, flags: IscmFlags) -> Option<BitVec> {
        let sensed = &mut self.scratch.sensed;
        let plane_state = &self.planes[plane as usize];
        if !plane_state.faulty_mask.is_all_zeros() {
            sensed.and_not_assign(&plane_state.faulty_mask);
            sensed.or_assign(&plane_state.faulty_stuck);
        }
        let latches = &mut self.planes[plane as usize].latches;
        if flags.init_s {
            latches.init_s();
        }
        if flags.init_c {
            latches.init_c();
        }
        latches.sense(sensed, flags.inverse);
        if flags.transfer {
            latches.transfer();
        }
        flags.transfer.then(|| latches.c_latch().clone())
    }

    /// Dynamic-sensing threshold vote over one block's wordlines: bit `i`
    /// of the result is 1 iff at least `k` of the activated cells on
    /// bitline `i` are **programmed**. Functional mode counts exactly;
    /// physics mode derives each wordline's vote from its stress-shifted
    /// V_TH population (a cell votes when it fails to conduct at its
    /// scheme's read reference), then counts with the word-parallel
    /// `mlsense::threshold_ge_into` kernel — `mlsense::threshold_ge_serial`
    /// is the scalar oracle both modes are property-tested against.
    fn exec_threshold_mws(&mut self, target: MwsTarget, k: usize) -> Result<CmdOutput, NandError> {
        if target.pbm == 0 {
            return Err(NandError::EmptyMwsTarget);
        }
        if k == 0 {
            return Err(NandError::InvalidMlsense("threshold k must be at least 1".to_string()));
        }
        let geom = self.config.geometry;
        geom.validate_block(target.block)?;
        for wl in target.wls() {
            geom.validate_wl(target.block.wordline(wl))?;
            if self.page_state(target.block.wordline(wl)).is_none() {
                return Err(NandError::ReadOfUnwrittenPage {
                    plane: target.block.plane,
                    block: target.block.block,
                    wl,
                });
            }
        }
        let page_bits = geom.page_bits();
        let plane = target.block.plane;
        let n_wls = target.wl_count();

        if matches!(self.config.fidelity, Fidelity::Functional { inject_errors: false }) {
            // Exact votes need no copies: a programmed cell stores 0, so
            // "≥ k programmed" is "fewer than n − k + 1 stored ones" —
            // count the stored pages and complement.
            let Self { planes, scratch, .. } = self;
            let block_ref = &planes[plane as usize].blocks[target.block.block as usize];
            let stored: Vec<&BitVec> = target
                .wls()
                .map(|wl| &block_ref.pages[wl as usize].as_ref().expect("validated above").data)
                .collect();
            let SenseScratch { threshold, sensed, .. } = scratch;
            mlsense::threshold_ge_into(&stored, (n_wls + 1).saturating_sub(k), threshold, sensed);
            sensed.not_assign();
        } else {
            let Self { planes, rng, scratch, config, stats, retention_months, .. } = self;
            let block_ref = &planes[plane as usize].blocks[target.block.block as usize];
            let stress = StressState {
                pec: block_ref.pec,
                retention_months: *retention_months,
                reads_since_program: block_ref.reads_since_program,
            };
            while scratch.votes.len() < n_wls {
                scratch.votes.push(BitVec::default());
            }
            let SenseScratch { votes, flip_idx, stress_buf, .. } = scratch;
            for (vote, wl) in votes.iter_mut().zip(target.wls()) {
                let p = block_ref.pages[wl as usize].as_ref().expect("validated above");
                match config.fidelity {
                    Fidelity::Functional { inject_errors } => {
                        // A programmed cell (stored 0) casts a vote.
                        vote.assign_not_from(&p.data);
                        if inject_errors {
                            let n = config.rber.sample_errors(
                                p.scheme,
                                p.randomized,
                                stress,
                                page_bits,
                                rng,
                            );
                            stats.injected_errors += n as u64;
                            vote.flip_random_bits_with(n, rng, flip_idx);
                        }
                    }
                    Fidelity::Physics => {
                        stress_buf.clear();
                        stress_buf.extend_from_slice(
                            p.vth.as_ref().expect("physics mode stores V_TH populations"),
                        );
                        config.stress_model.apply(stress_buf, stress, rng);
                        // Conduction sense at the scheme's reference,
                        // inverted: a programmed cell blocks the string.
                        vote.reset(page_bits, false);
                        vote.fill_le_threshold(stress_buf, p.scheme.read_vref());
                        vote.not_assign();
                    }
                }
            }
            let SenseScratch { votes, threshold, sensed, .. } = &mut self.scratch;
            let refs: Vec<&BitVec> = votes[..n_wls].iter().collect();
            mlsense::threshold_ge_into(&refs, k, threshold, sensed);
        }
        // Grown per-block defects overlay, as in any other sense.
        {
            let Self { planes, scratch, .. } = self;
            let block_ref = &planes[plane as usize].blocks[target.block.block as usize];
            if let Some(stuck) = &block_ref.stuck {
                scratch.sensed.and_not_assign(&stuck.mask);
                scratch.sensed.or_assign(&stuck.value);
            }
        }
        let page = self.overlay_and_latch(plane, IscmFlags::single_read());

        // One multi-WL activation, one sense — same latency/power shape
        // as a single-block MWS over the same wordlines.
        let latency = sense::mws_latency_us(timing::T_R_SLC_US, n_wls, 1);
        let norm_power =
            if n_wls > 1 { power::mws_power_norm(1) } else { power::read_power_norm() };
        let energy = power::energy_uj(norm_power, latency);
        let b = &mut self.planes[plane as usize].blocks[target.block.block as usize];
        b.reads_since_program += 1;
        self.stats.senses += 1;
        if n_wls > 1 {
            self.stats.mws_ops += 1;
        }
        Ok(CmdOutput { latency_us: latency, energy_uj: energy, norm_power, page })
    }

    /// Multi-level program: Gray-packs 2–3 logical pages cell-wise into
    /// one physical wordline (`mlsense::encode_levels`). The stored
    /// single-bit view is the *erased mask* (only a fully erased cell
    /// conducts at the standard MWS reference), so ML pages degrade
    /// gracefully under plain senses; physics mode samples each cell's
    /// V_TH from its level's state distribution.
    fn exec_program_ml(
        &mut self,
        addr: WlAddr,
        pages: Vec<BitVec>,
        scheme: ProgramScheme,
    ) -> Result<CmdOutput, NandError> {
        if scheme.is_single_bit() {
            return Err(NandError::InvalidMlsense(format!(
                "multi-level program needs an MLC/TLC scheme, got {scheme:?}"
            )));
        }
        self.config.geometry.validate_wl(addr)?;
        let expected = self.config.geometry.page_bits();
        let mode = scheme.cell_mode();
        if pages.len() != mode.bits_per_cell() as usize {
            return Err(NandError::InvalidMlsense(format!(
                "{mode} packs {} logical pages per cell, got {}",
                mode.bits_per_cell(),
                pages.len()
            )));
        }
        for p in &pages {
            if p.len() != expected {
                return Err(NandError::PageSizeMismatch { got: p.len(), expected });
            }
        }
        if self.page_state(addr).is_some() {
            return Err(NandError::ProgramWithoutErase {
                plane: addr.plane,
                block: addr.block,
                wl: addr.wl,
            });
        }
        let levels = mlsense::encode_levels(&pages, mode);
        let data = BitVec::from_fn(expected, |i| levels[i] == 0);
        let vth = if matches!(self.config.fidelity, Fidelity::Physics) {
            let layout = scheme.layout();
            Some(
                levels
                    .iter()
                    .map(|&l| layout.states[l as usize].sample(&mut self.rng))
                    .collect::<Vec<f64>>(),
            )
        } else {
            None
        };

        let latency = scheme.program_latency_us();
        let energy = power::program_energy_uj(latency);
        let block = &mut self.planes[addr.plane as usize].blocks[addr.block as usize];
        block.pages[addr.wl as usize] =
            Some(PageState { data, scheme, randomized: false, vth, levels: Some(levels) });
        block.reads_since_program = 0;

        if matches!(self.config.fidelity, Fidelity::Physics) {
            let model = self.config.stress_model;
            let wl = addr.wl as usize;
            let block = &mut self.planes[addr.plane as usize].blocks[addr.block as usize];
            for neighbour in [wl.checked_sub(1), Some(wl + 1)].into_iter().flatten() {
                if let Some(Some(p)) = block.pages.get_mut(neighbour) {
                    if let Some(vth) = p.vth.as_mut() {
                        model.apply_interference(vth, &mut self.rng);
                    }
                }
            }
        }

        self.stats.programs += 1;
        Ok(CmdOutput {
            latency_us: latency,
            energy_uj: energy,
            norm_power: power::program_power_norm(),
            page: None,
        })
    }

    /// Sense one wordline at an explicit level boundary: bit `i` is 1 iff
    /// cell `i` conducts at the Vref between states `level` and
    /// `level + 1`. The per-transition senses of
    /// `mlsense::transition_levels` recover one logical page via
    /// `mlsense::page_from_senses`. On a single-bit page the only
    /// boundary (level 0) is exactly a regular read.
    fn exec_read_level(&mut self, addr: WlAddr, level: u8) -> Result<CmdOutput, NandError> {
        self.config.geometry.validate_wl(addr)?;
        let page_bits = self.config.geometry.page_bits();
        let state = self.page_state(addr).ok_or(NandError::ReadOfUnwrittenPage {
            plane: addr.plane,
            block: addr.block,
            wl: addr.wl,
        })?;
        let mode = state.scheme.cell_mode();
        if u32::from(level) + 1 >= mode.states() {
            return Err(NandError::InvalidMlsense(format!(
                "level boundary {level} out of range for {mode}"
            )));
        }
        let plane = addr.plane;
        {
            let Self { planes, rng, scratch, config, stats, retention_months, .. } = self;
            let block_ref = &planes[plane as usize].blocks[addr.block as usize];
            let stress = StressState {
                pec: block_ref.pec,
                retention_months: *retention_months,
                reads_since_program: block_ref.reads_since_program,
            };
            let p = block_ref.pages[addr.wl as usize].as_ref().expect("validated above");
            let SenseScratch { sensed, flip_idx, stress_buf, .. } = scratch;
            match config.fidelity {
                Fidelity::Functional { inject_errors } => {
                    match &p.levels {
                        Some(levels) => {
                            sensed.reset(page_bits, false);
                            for (i, &l) in levels.iter().enumerate() {
                                if l <= level {
                                    sensed.set(i, true);
                                }
                            }
                        }
                        // Single-bit page: the lone boundary separates
                        // erased (conducts, stored 1) from programmed.
                        None => sensed.assign_from(&p.data),
                    }
                    if inject_errors {
                        let n = config.rber.sample_errors(
                            p.scheme,
                            p.randomized,
                            stress,
                            page_bits,
                            rng,
                        );
                        stats.injected_errors += n as u64;
                        sensed.flip_random_bits_with(n, rng, flip_idx);
                    }
                }
                Fidelity::Physics => {
                    stress_buf.clear();
                    stress_buf.extend_from_slice(
                        p.vth.as_ref().expect("physics mode stores V_TH populations"),
                    );
                    config.stress_model.apply(stress_buf, stress, rng);
                    let layout = p.scheme.layout();
                    sensed.reset(page_bits, false);
                    sensed.fill_le_threshold(stress_buf, layout.vrefs[level as usize]);
                }
            }
            if let Some(stuck) = &block_ref.stuck {
                scratch.sensed.and_not_assign(&stuck.mask);
                scratch.sensed.or_assign(&stuck.value);
            }
        }
        let page = self.overlay_and_latch(plane, IscmFlags::single_read());

        let latency = timing::T_R_SLC_US;
        let norm_power = power::read_power_norm();
        let energy = power::energy_uj(norm_power, latency);
        let b = &mut self.planes[plane as usize].blocks[addr.block as usize];
        b.reads_since_program += 1;
        self.stats.senses += 1;
        Ok(CmdOutput { latency_us: latency, energy_uj: energy, norm_power, page })
    }
}

/// AND of one block's target wordlines, with fidelity-appropriate
/// reliability behaviour, written into `out` (reusing its allocation).
///
/// A free function rather than a `NandChip` method so `exec_mws` can pass
/// disjoint field borrows: the plane's stored pages stay borrowed
/// immutably while the RNG, stats and scratch buffers mutate. See
/// [`SenseScratch`] for the reuse contract of `corrupt` / `flip_idx` /
/// `stress_buf`.
#[allow(clippy::too_many_arguments)]
fn sense_block_and_into(
    out: &mut BitVec,
    plane: &Plane,
    target: &MwsTarget,
    allow_unwritten: bool,
    config: &ChipConfig,
    retention_months: f64,
    vref_offset: f64,
    rng: &mut StdRng,
    stats: &mut ChipStats,
    corrupt: &mut BitVec,
    flip_idx: &mut Vec<usize>,
    stress_buf: &mut Vec<f64>,
) -> Result<(), NandError> {
    let page_bits = config.geometry.page_bits();
    let block_ref = &plane.blocks[target.block.block as usize];
    let stress = StressState {
        pec: block_ref.pec,
        retention_months,
        reads_since_program: block_ref.reads_since_program,
    };

    out.reset(page_bits, true);
    match config.fidelity {
        Fidelity::Functional { inject_errors } => {
            // Fold the stored pages directly — word-at-a-time, with no
            // snapshot clones. A page is copied (into the reusable
            // `corrupt` buffer) only when it actually receives errors.
            for wl in target.wls() {
                let page = match &block_ref.pages[wl as usize] {
                    Some(p) => Some(p),
                    None if allow_unwritten => None, // fully erased: all ones
                    None => unreachable!("validated above"),
                };
                if inject_errors {
                    let (scheme, randomized) =
                        page.map_or((ProgramScheme::Slc, false), |p| (p.scheme, p.randomized));
                    let n = if vref_offset == 0.0 {
                        config.rber.sample_errors(scheme, randomized, stress, page_bits, rng)
                    } else {
                        // Retry read at a shifted sense level: scale the
                        // nominal RBER by the Gaussian-tail model's ratio
                        // between the shifted and nominal levels, so a
                        // well-chosen offset genuinely reduces the error
                        // probability (that is the whole point of retry).
                        let nominal_rber = config.rber.rber(scheme, randomized, stress);
                        let vref = scheme.read_vref();
                        let base =
                            sense::shifted_read_rber(scheme, stress, &config.stress_model, vref);
                        let shifted = sense::shifted_read_rber(
                            scheme,
                            stress,
                            &config.stress_model,
                            vref + vref_offset,
                        );
                        let factor = if base > 0.0 && base.is_finite() && shifted.is_finite() {
                            shifted / base
                        } else {
                            1.0
                        };
                        crate::rber::sample_binomial(
                            page_bits,
                            (nominal_rber * factor).min(1.0),
                            rng,
                        )
                    };
                    stats.injected_errors += n as u64;
                    if n > 0 {
                        match page {
                            Some(p) => corrupt.assign_from(&p.data),
                            None => corrupt.reset(page_bits, true),
                        }
                        corrupt.flip_random_bits_with(n, rng, flip_idx);
                        out.and_assign(corrupt);
                        continue;
                    }
                }
                if let Some(p) = page {
                    out.and_assign(&p.data);
                }
                // Erased, error-free page: AND with all-ones is a no-op.
            }
        }
        Fidelity::Physics => {
            // Pass 1 (metadata only): the read reference voltage is the
            // highest V_REF among the target wordlines' schemes.
            let mut vref = f64::NEG_INFINITY;
            for wl in target.wls() {
                if let Some(p) = &block_ref.pages[wl as usize] {
                    vref = vref.max(p.scheme.read_vref());
                }
            }
            if vref == f64::NEG_INFINITY {
                vref = crate::vth::SLC_VREF;
            }
            vref += vref_offset;
            // Pass 2: stress-shift each population in the reusable buffer
            // (stored V_TH vectors are never cloned) and fold its packed
            // threshold comparison into the accumulator.
            let model = config.stress_model;
            for wl in target.wls() {
                stress_buf.clear();
                match &block_ref.pages[wl as usize] {
                    Some(p) => stress_buf.extend_from_slice(
                        p.vth.as_ref().expect("physics mode stores V_TH populations"),
                    ),
                    None if allow_unwritten => {
                        stress_buf.resize(page_bits, crate::vth::ERASED.mean_v);
                    }
                    None => unreachable!("validated above"),
                }
                model.apply(stress_buf, stress, rng);
                out.and_le_threshold(stress_buf, vref);
            }
        }
    }
    // Grown per-block defects: the masked columns read their stuck value
    // no matter what the strings held.
    if let Some(stuck) = &block_ref.stuck {
        out.and_not_assign(&stuck.mask);
        out.or_assign(&stuck.value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;

    fn page(chip: &NandChip, seed: u64) -> BitVec {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        BitVec::random(chip.config().geometry.page_bits(), &mut rng)
    }

    fn write_pages(chip: &mut NandChip, blk: BlockAddr, n: usize, seed: u64) -> Vec<BitVec> {
        (0..n)
            .map(|i| {
                let p = page(chip, seed + i as u64);
                chip.execute(Command::esp_program(blk.wordline(i as u32), p.clone())).unwrap();
                p
            })
            .collect()
    }

    #[test]
    fn read_returns_stored_page() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 0);
        let pages = write_pages(&mut chip, blk, 1, 100);
        let out = chip.execute(Command::Read { addr: blk.wordline(0), inverse: false }).unwrap();
        assert_eq!(out.page().unwrap(), &pages[0]);
        assert!((out.latency_us - timing::T_R_SLC_US).abs() < 1e-9);
    }

    #[test]
    fn inverse_read_returns_complement() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 0);
        let pages = write_pages(&mut chip, blk, 1, 101);
        let out = chip.execute(Command::Read { addr: blk.wordline(0), inverse: true }).unwrap();
        assert_eq!(out.page().unwrap(), &pages[0].not());
    }

    #[test]
    fn intra_block_mws_computes_and() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 1);
        let pages = write_pages(&mut chip, blk, 5, 200);
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::new(blk, &[0, 1, 2, 3, 4])],
            })
            .unwrap();
        let expect = pages.iter().skip(1).fold(pages[0].clone(), |a, p| a.and(p));
        assert_eq!(out.page().unwrap(), &expect);
        assert_eq!(chip.stats().mws_ops, 1);
    }

    #[test]
    fn inter_block_mws_computes_or_of_per_block_ands() {
        // Eq. (1): (A1·A2) + (B1·B2).
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk_a = BlockAddr::new(0, 2);
        let blk_b = BlockAddr::new(0, 3);
        let a = write_pages(&mut chip, blk_a, 2, 300);
        let b = write_pages(&mut chip, blk_b, 2, 310);
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::new(blk_a, &[0, 1]), MwsTarget::new(blk_b, &[0, 1])],
            })
            .unwrap();
        let expect = a[0].and(&a[1]).or(&b[0].and(&b[1]));
        assert_eq!(out.page().unwrap(), &expect);
    }

    #[test]
    fn inverse_mws_gives_nand_and_nor() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 4);
        let pages = write_pages(&mut chip, blk, 3, 400);
        // NAND via intra-block MWS + inverse read.
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_inverse_read(),
                targets: vec![MwsTarget::new(blk, &[0, 1, 2])],
            })
            .unwrap();
        let expect = pages[0].and(&pages[1]).and(&pages[2]).not();
        assert_eq!(out.page().unwrap(), &expect);
        // NOR via inter-block MWS + inverse read.
        let blk2 = BlockAddr::new(0, 5);
        let q = write_pages(&mut chip, blk2, 1, 410);
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_inverse_read(),
                targets: vec![MwsTarget::new(blk, &[0]), MwsTarget::new(blk2, &[0])],
            })
            .unwrap();
        let expect = pages[0].or(&q[0]).not();
        assert_eq!(out.page().unwrap(), &expect);
    }

    #[test]
    fn accumulation_across_mws_commands() {
        // DESIGN.md §3.1: AND-accumulate in the S-latch across commands,
        // publish with C-init + transfer on the last command.
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk_a = BlockAddr::new(0, 6);
        let blk_b = BlockAddr::new(0, 7);
        let a = write_pages(&mut chip, blk_a, 3, 500);
        let b = write_pages(&mut chip, blk_b, 3, 510);
        // First command: plain sense into initialized latches, no transfer.
        let first = chip
            .execute(Command::Mws {
                flags: IscmFlags { inverse: false, init_s: true, init_c: true, transfer: false },
                targets: vec![MwsTarget::new(blk_a, &[0, 1, 2])],
            })
            .unwrap();
        assert!(first.page().is_none(), "no transfer → no page output");
        // Second command: accumulate and publish.
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::accumulate_last(),
                targets: vec![MwsTarget::new(blk_b, &[0, 1, 2])],
            })
            .unwrap();
        let expect = a[0].and(&a[1]).and(&a[2]).and(&b[0]).and(&b[1]).and(&b[2]);
        assert_eq!(out.page().unwrap(), &expect);
    }

    #[test]
    fn xor_latch_command() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 8);
        let pages = write_pages(&mut chip, blk, 2, 600);
        // Read A (lands in S and C), then sense B into S only, then XOR.
        chip.execute(Command::Read { addr: blk.wordline(0), inverse: false }).unwrap();
        chip.execute(Command::Mws {
            flags: IscmFlags { inverse: false, init_s: true, init_c: false, transfer: false },
            targets: vec![MwsTarget::new(blk, &[1])],
        })
        .unwrap();
        chip.execute(Command::XorLatch { plane: 0 }).unwrap();
        let out = chip.execute(Command::ReadOut { plane: 0 }).unwrap();
        assert_eq!(out.page().unwrap(), &pages[0].xor(&pages[1]));
    }

    #[test]
    fn erase_verify_detects_programmed_pages() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(1, 0);
        let out = chip.execute(Command::EraseVerify { block: blk }).unwrap();
        assert!(out.page().unwrap().is_all_ones(), "fresh block verifies erased");
        write_pages(&mut chip, blk, 1, 700);
        let out = chip.execute(Command::EraseVerify { block: blk }).unwrap();
        assert!(!out.page().unwrap().is_all_ones(), "programmed block fails verify");
        chip.execute(Command::Erase { block: blk }).unwrap();
        let out = chip.execute(Command::EraseVerify { block: blk }).unwrap();
        assert!(out.page().unwrap().is_all_ones(), "erased block verifies again");
    }

    #[test]
    fn erase_bumps_pec_and_clears_pages() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 9);
        write_pages(&mut chip, blk, 2, 800);
        assert_eq!(chip.block_pec(blk).unwrap(), 0);
        chip.execute(Command::Erase { block: blk }).unwrap();
        assert_eq!(chip.block_pec(blk).unwrap(), 1);
        assert!(chip.page_raw(blk.wordline(0)).is_none());
        chip.cycle_block(blk, 999).unwrap();
        assert_eq!(chip.block_pec(blk).unwrap(), 1000);
    }

    /// A plane's P/E sum moves by each block's actual increase: erases
    /// and `cycle_block` near `u32::MAX` saturate the block and add only
    /// what the block gained.
    #[test]
    fn plane_pec_tracks_saturating_block_wear() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let scan = |chip: &NandChip, plane: u32| -> u64 {
            (0..chip.config().geometry.blocks_per_plane)
                .map(|b| u64::from(chip.block_pec(BlockAddr::new(plane, b)).unwrap()))
                .sum()
        };
        let (a, b) = (BlockAddr::new(1, 3), BlockAddr::new(1, 4));
        chip.execute(Command::Erase { block: a }).unwrap();
        chip.cycle_block(b, 7).unwrap();
        assert_eq!(chip.plane_pec(1).unwrap(), 8);
        // One cycle short of saturation, then past it twice over.
        chip.cycle_block(a, u32::MAX - 2).unwrap();
        assert_eq!(chip.block_pec(a).unwrap(), u32::MAX - 1);
        chip.cycle_block(a, 5).unwrap();
        chip.execute(Command::Erase { block: a }).unwrap();
        assert_eq!(chip.block_pec(a).unwrap(), u32::MAX);
        chip.cycle_block(b, u32::MAX).unwrap();
        chip.execute(Command::Erase { block: b }).unwrap();
        assert_eq!(chip.plane_pec(1).unwrap(), 2 * u64::from(u32::MAX));
        assert_eq!(chip.plane_pec(1).unwrap(), scan(&chip, 1));
        // Other planes are untouched, and a plane outside the die errs.
        assert_eq!((chip.plane_pec(0).unwrap(), scan(&chip, 0)), (0, 0));
        assert!(chip.plane_pec(chip.config().geometry.planes).is_err());
    }

    #[test]
    fn program_without_erase_is_rejected() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 10);
        write_pages(&mut chip, blk, 1, 900);
        let err =
            chip.execute(Command::esp_program(blk.wordline(0), page(&chip, 901))).unwrap_err();
        assert!(matches!(err, NandError::ProgramWithoutErase { .. }));
    }

    #[test]
    fn page_size_mismatch_is_rejected() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let err =
            chip.execute(Command::esp_program(WlAddr::new(0, 0, 0), BitVec::zeros(3))).unwrap_err();
        assert!(matches!(err, NandError::PageSizeMismatch { .. }));
    }

    #[test]
    fn power_cap_on_inter_block_mws() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        for b in 0..5 {
            write_pages(&mut chip, BlockAddr::new(0, b), 1, 1000 + b as u64);
        }
        let targets: Vec<MwsTarget> =
            (0..5).map(|b| MwsTarget::new(BlockAddr::new(0, b), &[0])).collect();
        let err =
            chip.execute(Command::Mws { flags: IscmFlags::single_read(), targets }).unwrap_err();
        assert_eq!(err, NandError::TooManyBlocks { requested: 5, max: 4 });
        // Raising the cap via SET FEATURE lets it through.
        chip.execute(Command::SetFeature { feature: Feature::MaxInterBlocks(8) }).unwrap();
        let targets: Vec<MwsTarget> =
            (0..5).map(|b| MwsTarget::new(BlockAddr::new(0, b), &[0])).collect();
        assert!(chip.execute(Command::Mws { flags: IscmFlags::single_read(), targets }).is_ok());
    }

    #[test]
    fn cross_plane_mws_is_rejected() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        write_pages(&mut chip, BlockAddr::new(0, 0), 1, 1100);
        write_pages(&mut chip, BlockAddr::new(1, 0), 1, 1101);
        let err = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![
                    MwsTarget::new(BlockAddr::new(0, 0), &[0]),
                    MwsTarget::new(BlockAddr::new(1, 0), &[0]),
                ],
            })
            .unwrap_err();
        assert_eq!(err, NandError::PlaneMismatch);
    }

    #[test]
    fn read_of_unwritten_page_is_rejected() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let err =
            chip.execute(Command::Read { addr: WlAddr::new(0, 0, 0), inverse: false }).unwrap_err();
        assert!(matches!(err, NandError::ReadOfUnwrittenPage { .. }));
    }

    #[test]
    fn copyback_moves_data_within_plane() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 11);
        let pages = write_pages(&mut chip, blk, 1, 1200);
        let dst = BlockAddr::new(0, 12).wordline(0);
        chip.execute(Command::Copyback { from: blk.wordline(0), to: dst }).unwrap();
        assert_eq!(chip.page_raw(dst).unwrap(), &pages[0]);
    }

    #[test]
    fn copyback_crosses_planes_within_the_die() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 3);
        let pages = write_pages(&mut chip, blk, 1, 1201);
        let dst = BlockAddr::new(1, 3).wordline(2);
        chip.execute(Command::Copyback { from: blk.wordline(0), to: dst }).unwrap();
        assert_eq!(chip.page_raw(dst).unwrap(), &pages[0]);
    }

    #[test]
    fn randomized_program_roundtrips_through_read_logical() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let addr = WlAddr::new(0, 13, 0);
        let data = page(&chip, 1300);
        chip.execute(Command::slc_program(addr, data.clone())).unwrap();
        // Raw differs (scrambled), logical read restores.
        assert_ne!(chip.page_raw(addr).unwrap(), &data);
        assert_eq!(chip.read_logical(addr).unwrap(), data);
    }

    #[test]
    fn mws_latency_grows_with_scope() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 14);
        write_pages(&mut chip, blk, 8, 1400);
        let one = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::new(blk, &[0])],
            })
            .unwrap();
        let eight = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::all_wls(blk, 8)],
            })
            .unwrap();
        assert!(eight.latency_us > one.latency_us);
        assert!(eight.latency_us < one.latency_us * 1.01, "Fig. 12: ≤8 WLs under +1%");
    }

    #[test]
    fn esp_program_latency_is_double_slc() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let esp =
            chip.execute(Command::esp_program(WlAddr::new(0, 15, 0), page(&chip, 1500))).unwrap();
        let slc = chip
            .execute(Command::Program {
                addr: WlAddr::new(0, 15, 1),
                data: page(&chip, 1501),
                scheme: ProgramScheme::Slc,
                randomize: false,
            })
            .unwrap();
        assert!((esp.latency_us / slc.latency_us - 2.0).abs() < 1e-9);
    }

    #[test]
    fn feature_validation() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        assert!(chip.execute(Command::SetFeature { feature: Feature::MaxInterBlocks(0) }).is_err());
        assert!(chip
            .execute(Command::SetFeature { feature: Feature::EspLatencyRatio(0.5) })
            .is_err());
        chip.execute(Command::SetFeature { feature: Feature::EspLatencyRatio(1.8) }).unwrap();
        assert!((chip.esp_ratio_default() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn stats_accumulate() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 0);
        write_pages(&mut chip, blk, 2, 1600);
        chip.execute(Command::Read { addr: blk.wordline(0), inverse: false }).unwrap();
        chip.execute(Command::Mws {
            flags: IscmFlags::single_read(),
            targets: vec![MwsTarget::new(blk, &[0, 1])],
        })
        .unwrap();
        let s = chip.stats();
        assert_eq!(s.programs, 2);
        assert_eq!(s.senses, 2);
        assert_eq!(s.mws_ops, 1);
        assert!(s.busy_us > 0.0 && s.energy_uj > 0.0);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_senses() {
        // The sense scratch persists inside the chip; interleaving senses
        // of different shapes (single read, intra-MWS, inter-MWS over
        // varying block counts, erase-verify) must never leak state from
        // one sense into the next. Every result is checked against the
        // stored ground truth, three rounds over the same buffers.
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blocks: Vec<BlockAddr> = (0..3).map(|b| BlockAddr::new(0, b)).collect();
        let pages: Vec<Vec<BitVec>> = blocks
            .iter()
            .enumerate()
            .map(|(i, &blk)| write_pages(&mut chip, blk, 3, 2000 + 10 * i as u64))
            .collect();
        for _round in 0..3 {
            let single = chip
                .execute(Command::Read { addr: blocks[0].wordline(1), inverse: false })
                .unwrap();
            assert_eq!(single.page().unwrap(), &pages[0][1]);

            let intra = chip
                .execute(Command::Mws {
                    flags: IscmFlags::single_read(),
                    targets: vec![MwsTarget::new(blocks[1], &[0, 1, 2])],
                })
                .unwrap();
            let expect = pages[1][0].and(&pages[1][1]).and(&pages[1][2]);
            assert_eq!(intra.page().unwrap(), &expect);

            let inter = chip
                .execute(Command::Mws {
                    flags: IscmFlags::single_read(),
                    targets: blocks.iter().map(|&b| MwsTarget::new(b, &[0, 1])).collect(),
                })
                .unwrap();
            let expect = pages.iter().map(|p| p[0].and(&p[1])).reduce(|a, b| a.or(&b)).unwrap();
            assert_eq!(inter.page().unwrap(), &expect);

            let verify =
                chip.execute(Command::EraseVerify { block: BlockAddr::new(1, 0) }).unwrap();
            assert!(verify.page().unwrap().is_all_ones(), "untouched block verifies erased");
        }
    }

    #[test]
    fn noisy_chip_injects_errors_on_aged_blocks() {
        let mut cfg = ChipConfig::tiny_noisy();
        // Large pages so expected error counts are visible.
        cfg.geometry.page_bytes = 4096;
        let mut chip = NandChip::new(cfg);
        let blk = BlockAddr::new(0, 0);
        let data = BitVec::ones(chip.config().geometry.page_bits());
        chip.execute(Command::Program {
            addr: blk.wordline(0),
            data: data.clone(),
            scheme: ProgramScheme::Slc,
            randomize: false,
        })
        .unwrap();
        chip.cycle_block(blk, 10_000).unwrap();
        chip.set_retention_months(12.0);
        let mut total_errors = 0usize;
        for _ in 0..20 {
            let out =
                chip.execute(Command::Read { addr: blk.wordline(0), inverse: false }).unwrap();
            total_errors += out.page().unwrap().hamming_distance(&data);
        }
        assert!(total_errors > 0, "aged unrandomized SLC must show raw bit errors");
    }

    #[test]
    fn faulty_columns_are_stuck_and_profilable() {
        let cfg = ChipConfig::tiny_test().with_faulty_columns(0.05);
        let mut chip = NandChip::new(cfg);
        let truth = chip.faulty_columns(0).unwrap().clone();
        assert!(truth.count_ones() > 0, "5% of 256 columns should include faults");
        // Profiling finds exactly the fabrication map.
        let profiled = chip.profile_faulty_columns(BlockAddr::new(0, 15), 5).unwrap();
        assert_eq!(profiled, truth);
        // Excluding profiled columns makes MWS exact again (the paper's
        // §5.1 methodology).
        let blk = BlockAddr::new(0, 1);
        let bits = chip.config().geometry.page_bits();
        let pages: Vec<BitVec> = (0..3u32)
            .map(|wl| {
                use rand::rngs::StdRng;
                let mut rng = StdRng::seed_from_u64(900 + wl as u64);
                let p = BitVec::random(bits, &mut rng);
                chip.execute(Command::esp_program(blk.wordline(wl), p.clone())).unwrap();
                p
            })
            .collect();
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::new(blk, &[0, 1, 2])],
            })
            .unwrap();
        let expect = pages[0].and(&pages[1]).and(&pages[2]);
        let sensed = out.into_page().unwrap();
        assert_ne!(sensed, expect, "stuck columns corrupt the raw result");
        let keep = profiled.not();
        assert_eq!(
            sensed.and(&keep),
            expect.and(&keep),
            "masking profiled columns restores exactness"
        );
    }

    #[test]
    fn healthy_chip_profiles_clean() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let profiled = chip.profile_faulty_columns(BlockAddr::new(1, 15), 3).unwrap();
        assert!(profiled.is_all_zeros());
    }

    #[test]
    fn stuck_block_corrupts_senses_until_masked() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 2);
        let pages = write_pages(&mut chip, blk, 2, 1700);
        let bits = chip.config().geometry.page_bits();
        let mut mask = BitVec::zeros(bits);
        let mut value = BitVec::zeros(bits);
        for col in [3usize, 17, 40] {
            mask.set(col, true);
        }
        value.set(3, true); // column 3 stuck-at-1, 17 and 40 stuck-at-0
        chip.set_block_stuck(blk, mask.clone(), value.clone()).unwrap();
        let out = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::new(blk, &[0, 1])],
            })
            .unwrap();
        let expect = pages[0].and(&pages[1]);
        let sensed = out.into_page().unwrap();
        let keep = mask.not();
        assert_eq!(sensed.and(&keep), expect.and(&keep), "healthy columns stay exact");
        assert_eq!(sensed.and(&mask), value, "masked columns read the stuck value");
        // The defect is per block: a neighbour is unaffected.
        let other = BlockAddr::new(0, 3);
        let clean = write_pages(&mut chip, other, 1, 1710);
        let out = chip.execute(Command::Read { addr: other.wordline(0), inverse: false }).unwrap();
        assert_eq!(out.page().unwrap(), &clean[0]);
    }

    #[test]
    fn shifted_read_beats_nominal_on_aged_blocks() {
        let mut cfg = ChipConfig::tiny_noisy();
        cfg.geometry.page_bytes = 4096;
        let mut chip = NandChip::new(cfg);
        let blk = BlockAddr::new(0, 0);
        let data = BitVec::ones(chip.config().geometry.page_bits());
        chip.execute(Command::Program {
            addr: blk.wordline(0),
            data: data.clone(),
            scheme: ProgramScheme::Slc,
            randomize: false,
        })
        .unwrap();
        chip.cycle_block(blk, 10_000).unwrap();
        chip.set_retention_months(12.0);
        let stress = StressState {
            pec: chip.block_pec(blk).unwrap(),
            retention_months: 12.0,
            reads_since_program: chip.block_reads_since_program(blk).unwrap(),
        };
        let ladder =
            sense::retry_ladder(ProgramScheme::Slc, stress, &chip.config().stress_model, 6);
        let best = ladder[0];
        let mut nominal_errors = 0usize;
        let mut shifted_errors = 0usize;
        for _ in 0..20 {
            let out =
                chip.execute(Command::Read { addr: blk.wordline(0), inverse: false }).unwrap();
            nominal_errors += out.page().unwrap().hamming_distance(&data);
            let out = chip.read_shifted(blk.wordline(0), best).unwrap();
            shifted_errors += out.page().unwrap().hamming_distance(&data);
        }
        assert!(nominal_errors > 0, "aged block must show raw errors at the nominal level");
        assert!(
            shifted_errors < nominal_errors,
            "retry level must reduce errors: {shifted_errors} vs {nominal_errors}"
        );
    }

    #[test]
    fn threshold_mws_counts_programmed_cells() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 1);
        let pages = write_pages(&mut chip, blk, 7, 3000);
        let wls: Vec<u32> = (0..7).collect();
        for k in 1..=8 {
            let out = chip
                .execute(Command::ThresholdMws { target: MwsTarget::new(blk, &wls), k })
                .unwrap();
            // Ground truth: a programmed cell stores 0, so count zeros.
            let expect = BitVec::from_fn(pages[0].len(), |i| {
                pages.iter().filter(|p| !p.get(i)).count() >= k
            });
            assert_eq!(out.page().unwrap(), &expect, "k={k}");
        }
        // k = 1 is the inverse of the intra-block AND (any programmed
        // cell breaks the string), tying the new sense to the old one.
        let th1 = chip
            .execute(Command::ThresholdMws { target: MwsTarget::new(blk, &wls), k: 1 })
            .unwrap();
        let and = chip
            .execute(Command::Mws {
                flags: IscmFlags::single_read(),
                targets: vec![MwsTarget::new(blk, &wls)],
            })
            .unwrap();
        assert_eq!(th1.page().unwrap(), &and.page().unwrap().not());
    }

    #[test]
    fn threshold_mws_physics_matches_scalar_oracle() {
        let mut cfg = ChipConfig::tiny_test();
        cfg.fidelity = crate::config::Fidelity::Physics;
        let mut chip = NandChip::new(cfg);
        let blk = BlockAddr::new(0, 0);
        let pages = write_pages(&mut chip, blk, 5, 3100);
        let wls: Vec<u32> = (0..5).collect();
        // Fresh cells: the physics-mode vote pages equal the logical
        // complements, so the result must be bit-exact vs the oracle.
        let votes: Vec<BitVec> = pages.iter().map(BitVec::not).collect();
        let refs: Vec<&BitVec> = votes.iter().collect();
        for k in [1, 2, 3, 5] {
            let out = chip
                .execute(Command::ThresholdMws { target: MwsTarget::new(blk, &wls), k })
                .unwrap();
            assert_eq!(
                out.page().unwrap(),
                &mlsense::threshold_ge_serial(&refs, k),
                "physics threshold k={k} vs scalar oracle"
            );
        }
    }

    #[test]
    fn threshold_mws_rejects_bad_requests() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 0);
        write_pages(&mut chip, blk, 2, 3200);
        let err = chip
            .execute(Command::ThresholdMws { target: MwsTarget { block: blk, pbm: 0 }, k: 1 })
            .unwrap_err();
        assert_eq!(err, NandError::EmptyMwsTarget);
        let err = chip
            .execute(Command::ThresholdMws { target: MwsTarget::new(blk, &[0, 1]), k: 0 })
            .unwrap_err();
        assert!(matches!(err, NandError::InvalidMlsense(_)));
        let err = chip
            .execute(Command::ThresholdMws { target: MwsTarget::new(blk, &[0, 5]), k: 1 })
            .unwrap_err();
        assert!(matches!(err, NandError::ReadOfUnwrittenPage { .. }));
    }

    #[test]
    fn ml_program_and_read_level_round_trip() {
        for fidelity in [crate::config::Fidelity::Functional { inject_errors: false }, {
            crate::config::Fidelity::Physics
        }] {
            let mut cfg = ChipConfig::tiny_test();
            cfg.fidelity = fidelity;
            let mut chip = NandChip::new(cfg);
            let bits = chip.config().geometry.page_bits();
            for (wl, scheme) in [(0u32, ProgramScheme::Mlc), (1u32, ProgramScheme::Tlc)] {
                let addr = WlAddr::new(0, 0, wl);
                let mode = scheme.cell_mode();
                let n_pages = mode.bits_per_cell() as usize;
                let pages: Vec<BitVec> = (0..n_pages)
                    .map(|i| {
                        use rand::rngs::StdRng;
                        let mut rng = StdRng::seed_from_u64(3300 + wl as u64 * 8 + i as u64);
                        BitVec::random(bits, &mut rng)
                    })
                    .collect();
                chip.execute(Command::ProgramMl { addr, pages: pages.clone(), scheme }).unwrap();
                // Recover each logical page from its transition senses.
                for (b, page) in pages.iter().enumerate() {
                    let senses: Vec<BitVec> = mlsense::transition_levels(mode, b)
                        .into_iter()
                        .map(|level| {
                            chip.execute(Command::ReadLevel { addr, level })
                                .unwrap()
                                .into_page()
                                .expect("read level produces a page")
                        })
                        .collect();
                    let decoded = mlsense::page_from_senses(&senses, mode, b);
                    match fidelity {
                        crate::config::Fidelity::Physics => {
                            // Adjacent V_TH states genuinely overlap, so a
                            // raw physics decode carries a small RBER —
                            // bounded, not bit-exact (ECC's job upstream).
                            let errs = decoded.hamming_distance(page);
                            assert!(errs <= bits / 32, "{mode} page {b}: {errs} raw errors");
                        }
                        _ => assert_eq!(&decoded, page, "{fidelity:?} {mode} page {b}"),
                    }
                }
            }
        }
    }

    #[test]
    fn read_level_on_slc_page_is_a_regular_read() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let blk = BlockAddr::new(0, 0);
        let pages = write_pages(&mut chip, blk, 1, 3400);
        let out = chip.execute(Command::ReadLevel { addr: blk.wordline(0), level: 0 }).unwrap();
        assert_eq!(out.page().unwrap(), &pages[0]);
    }

    #[test]
    fn ml_program_rejects_bad_requests() {
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let bits = chip.config().geometry.page_bits();
        let addr = WlAddr::new(0, 0, 0);
        let err = chip
            .execute(Command::ProgramMl {
                addr,
                pages: vec![BitVec::zeros(bits)],
                scheme: ProgramScheme::Slc,
            })
            .unwrap_err();
        assert!(matches!(err, NandError::InvalidMlsense(_)), "single-bit scheme rejected");
        let err = chip
            .execute(Command::ProgramMl {
                addr,
                pages: vec![BitVec::zeros(bits)],
                scheme: ProgramScheme::Mlc,
            })
            .unwrap_err();
        assert!(matches!(err, NandError::InvalidMlsense(_)), "wrong page count rejected");
        // Level boundary out of range for the stored page's mode.
        chip.execute(Command::ProgramMl {
            addr,
            pages: vec![BitVec::zeros(bits), BitVec::ones(bits)],
            scheme: ProgramScheme::Mlc,
        })
        .unwrap();
        let err = chip.execute(Command::ReadLevel { addr, level: 3 }).unwrap_err();
        assert!(matches!(err, NandError::InvalidMlsense(_)));
    }

    #[test]
    fn ml_pages_degrade_to_erased_mask_under_plain_mws() {
        // An ML page under a regular sense conducts only where the cell
        // is fully erased (level 0) — both logical bits 1.
        let mut chip = NandChip::new(ChipConfig::tiny_test());
        let addr = WlAddr::new(0, 0, 0);
        let bits = chip.config().geometry.page_bits();
        let lsb = page(&chip, 3500);
        let msb = page(&chip, 3501);
        chip.execute(Command::ProgramMl {
            addr,
            pages: vec![lsb.clone(), msb.clone()],
            scheme: ProgramScheme::Mlc,
        })
        .unwrap();
        let out = chip.execute(Command::Read { addr, inverse: false }).unwrap();
        assert_eq!(out.page().unwrap(), &lsb.and(&msb));
        assert_eq!(bits, out.page().unwrap().len());
    }

    #[test]
    fn esp_pages_stay_error_free_even_when_noisy() {
        let mut cfg = ChipConfig::tiny_noisy();
        cfg.geometry.page_bytes = 4096;
        let mut chip = NandChip::new(cfg);
        let blk = BlockAddr::new(0, 0);
        let data = BitVec::ones(chip.config().geometry.page_bits());
        chip.execute(Command::esp_program(blk.wordline(0), data.clone())).unwrap();
        chip.cycle_block(blk, 10_000).unwrap();
        chip.set_retention_months(12.0);
        for _ in 0..50 {
            let out =
                chip.execute(Command::Read { addr: blk.wordline(0), inverse: false }).unwrap();
            assert_eq!(out.page().unwrap().hamming_distance(&data), 0);
        }
    }
}
