//! The Flash-Cosmos command set (§6.2, Fig. 15) plus the legacy commands.
//!
//! Three new commands extend a commodity chip's interface:
//!
//! * **MWS** — an extended read frame: an `ISCM` slot with four flags
//!   (Inverse read, S-latch init, C-latch init, M3 transfer), then one or
//!   more address slots each carrying a block address and a **page bitmap
//!   (PBM)** naming the wordlines to activate, chained with `CONT` and
//!   closed with `CONF`.
//! * **ESP** — same interface as a regular program command, but runs the
//!   enhanced ISPP pulse train.
//! * **XOR** — combines the sensing and cache latches (`C ← S XOR C`).
//!
//! This module defines the in-memory [`Command`] type and a byte-level
//! frame codec ([`encode_frame`] / [`decode_frame`]) emulating what the
//! command latching circuitry of a real chip would parse.

use fc_bits::BitVec;
use serde::{Deserialize, Serialize};

use crate::error::NandError;
use crate::geometry::{BlockAddr, WlAddr};
use crate::ispp::ProgramScheme;

/// The `ISCM` flag slot of an MWS frame (Fig. 15a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IscmFlags {
    /// Inverse-read mode (swap M1/M2 init order → sensed data inverted).
    pub inverse: bool,
    /// Initialize the sensing latch before evaluation.
    pub init_s: bool,
    /// Initialize the cache latch before evaluation.
    pub init_c: bool,
    /// Activate M3 after evaluation (`C ← C OR S`).
    pub transfer: bool,
}

impl IscmFlags {
    /// Flags for a stand-alone read/MWS whose result should land in the
    /// C-latch: init both latches, sense, transfer.
    pub fn single_read() -> Self {
        Self { inverse: false, init_s: true, init_c: true, transfer: true }
    }

    /// Flags for a stand-alone *inverse* read (NAND/NOR/NOT results).
    pub fn single_inverse_read() -> Self {
        Self { inverse: true, init_s: true, init_c: true, transfer: true }
    }

    /// Flags for an AND-accumulating sense: keep both latches, no
    /// transfer. Chain these and finish with [`Self::accumulate_last`].
    pub fn accumulate() -> Self {
        Self { inverse: false, init_s: false, init_c: false, transfer: false }
    }

    /// Flags for the last sense of an AND-accumulation chain: publish the
    /// S-latch into a freshly initialized C-latch.
    pub fn accumulate_last() -> Self {
        Self { inverse: false, init_s: false, init_c: true, transfer: true }
    }

    /// Packs the flags into the 4-bit ISCM nibble (I=bit3 … M=bit0).
    pub fn to_nibble(self) -> u8 {
        (u8::from(self.inverse) << 3)
            | (u8::from(self.init_s) << 2)
            | (u8::from(self.init_c) << 1)
            | u8::from(self.transfer)
    }

    /// Unpacks the 4-bit ISCM nibble.
    pub fn from_nibble(n: u8) -> Self {
        Self {
            inverse: n & 0b1000 != 0,
            init_s: n & 0b0100 != 0,
            init_c: n & 0b0010 != 0,
            transfer: n & 0b0001 != 0,
        }
    }
}

/// One address slot of an MWS frame: a block plus the page bitmap (PBM) of
/// wordlines to activate within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MwsTarget {
    /// Block to activate.
    pub block: BlockAddr,
    /// Bit `w` set → apply `V_REF` to wordline `w` (others get `V_PASS`).
    /// Supports strings of up to 64 cells; the paper's chips have 48.
    pub pbm: u64,
}

impl MwsTarget {
    /// Creates a target from a wordline list.
    ///
    /// # Panics
    ///
    /// Panics if any wordline index is ≥ 64.
    pub fn new(block: BlockAddr, wls: &[u32]) -> Self {
        let mut pbm = 0u64;
        for &w in wls {
            assert!(w < 64, "wordline {w} does not fit the 64-bit PBM");
            pbm |= 1 << w;
        }
        Self { block, pbm }
    }

    /// Creates a target activating all `n` wordlines of the block.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than 64.
    pub fn all_wls(block: BlockAddr, n: u32) -> Self {
        assert!(n > 0 && n <= 64, "wordline count {n} out of range");
        let pbm = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        Self { block, pbm }
    }

    /// Number of activated wordlines.
    pub fn wl_count(&self) -> usize {
        self.pbm.count_ones() as usize
    }

    /// Iterator over activated wordline indices.
    pub fn wls(&self) -> impl Iterator<Item = u32> + '_ {
        (0..64u32).filter(move |w| self.pbm & (1 << w) != 0)
    }
}

/// A chip command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Command {
    /// Legacy single-wordline read: init both latches, sense, transfer.
    /// Equivalent to a one-target, one-wordline MWS with
    /// [`IscmFlags::single_read`].
    Read {
        /// Wordline to read.
        addr: WlAddr,
        /// Read in inverse mode (returns NOT of the stored raw data).
        inverse: bool,
    },
    /// Program one wordline. `randomize` engages the on-chip scrambler
    /// (incompatible with in-flash computation, §3.2 — provided so the
    /// reproduction can demonstrate exactly that).
    Program {
        /// Destination wordline.
        addr: WlAddr,
        /// Page data (must match the geometry's page size).
        data: BitVec,
        /// Programming scheme (SLC / ESP / MLC / TLC).
        scheme: ProgramScheme,
        /// Scramble data before storing.
        randomize: bool,
    },
    /// Erase a block (resets every wordline, increments its P/E count).
    /// The simulator releases the block's page storage here; the block's
    /// next `Program` or `ProgramMl` allocates it again.
    Erase {
        /// Block to erase.
        block: BlockAddr,
    },
    /// Erase-verify: intra-block MWS over *all* wordlines, checking that
    /// every cell is erased (§4.1 — evidence that chips already support
    /// intra-block MWS). Result page is all-ones iff fully erased.
    EraseVerify {
        /// Block to verify.
        block: BlockAddr,
    },
    /// Multi-Wordline Sensing (Fig. 15a).
    Mws {
        /// ISCM latch-control flags.
        flags: IscmFlags,
        /// One or more (block, PBM) targets, all in the same plane.
        targets: Vec<MwsTarget>,
    },
    /// Dynamic-sensing threshold vote (the MCFlash-style `mlsense`
    /// primitive): activate the target's wordlines like an intra-block
    /// MWS, but sense at an intermediate reference so each bitline
    /// reports "at least `k` of the activated cells are **programmed**"
    /// instead of "all erased". A single-block, single-sense operation —
    /// the cross-block generalization is the controller's job.
    ThresholdMws {
        /// The (block, PBM) group to activate — one block only.
        target: MwsTarget,
        /// Minimum number of programmed cells per bitline for a 1 result.
        k: usize,
    },
    /// Program one physical wordline as a multi-level (MLC/TLC) cell
    /// page: 2–3 logical pages are Gray-packed cell-wise into one V_TH
    /// level per cell (`mlsense::encode_levels`). Never randomized — the
    /// data feeds in-flash computation.
    ProgramMl {
        /// Destination wordline.
        addr: WlAddr,
        /// The logical pages, LSB page first (length must equal the
        /// scheme's bits-per-cell).
        pages: Vec<BitVec>,
        /// Multi-level programming scheme (`Mlc` or `Tlc`).
        scheme: ProgramScheme,
    },
    /// Read one wordline at an explicit level boundary: bit `i` of the
    /// result is 1 iff cell `i`'s V_TH level is at or below `level` (a
    /// conduction sense at the Vref between states `level` and
    /// `level + 1`). The controller combines these per-transition senses
    /// into a logical page (`mlsense::page_from_senses`).
    ReadLevel {
        /// Wordline to sense.
        addr: WlAddr,
        /// Level boundary index (`0..states − 1`).
        level: u8,
    },
    /// Inter-latch XOR (`C ← S XOR C`, Fig. 15).
    XorLatch {
        /// Plane whose latch bank to combine.
        plane: u32,
    },
    /// Stream the C-latch out to the controller (a data-out cycle).
    ReadOut {
        /// Plane whose C-latch to stream.
        plane: u32,
    },
    /// Copyback: read a page into the latch and program it to another
    /// wordline of the same plane without off-chip transfer (§2.1
    /// footnote 3).
    Copyback {
        /// Source wordline.
        from: WlAddr,
        /// Destination wordline.
        to: WlAddr,
    },
    /// SET FEATURE: tune operating parameters (§4.2 — "commodity NAND
    /// flash chips can tune ISPP parameters using the SET FEATURE
    /// command").
    SetFeature {
        /// The feature to set.
        feature: Feature,
    },
}

impl Command {
    /// Convenience constructor: ESP-program a page at the paper's default
    /// operating point (no randomization — the data feeds in-flash
    /// computation).
    pub fn esp_program(addr: WlAddr, data: BitVec) -> Self {
        Command::Program { addr, data, scheme: ProgramScheme::esp_default(), randomize: false }
    }

    /// Convenience constructor: regular SLC program with randomization
    /// (the conventional storage path).
    pub fn slc_program(addr: WlAddr, data: BitVec) -> Self {
        Command::Program { addr, data, scheme: ProgramScheme::Slc, randomize: true }
    }
}

/// Tunable chip features (SET FEATURE, §4.2/§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Feature {
    /// Power cap on simultaneously activated blocks for inter-block MWS
    /// (Table 1 default: 4).
    MaxInterBlocks(u8),
    /// ESP latency budget as a multiple of `tPROG` (default 2.0).
    EspLatencyRatio(f64),
}

/// Opcodes of the byte-level frame codec.
mod opcode {
    pub const MWS: u8 = 0xC0;
    pub const ESP: u8 = 0xC1;
    pub const XOR: u8 = 0xC2;
    /// `CONT`: another address slot follows (Fig. 15a).
    pub const CONT: u8 = 0xC8;
    /// `CONF`: end of command sequence (Fig. 15a).
    pub const CONF: u8 = 0xC9;
}

/// Encodes an MWS command into the Fig. 15a wire frame:
///
/// ```text
/// [MWS][ISCM][plane][blk lo][blk hi][pbm ×8] ([CONT][plane][blk lo][blk hi][pbm ×8])* [CONF]
/// ```
pub fn encode_frame(flags: IscmFlags, targets: &[MwsTarget]) -> Vec<u8> {
    let mut out = vec![opcode::MWS, flags.to_nibble()];
    for (i, t) in targets.iter().enumerate() {
        if i > 0 {
            out.push(opcode::CONT);
        }
        out.push(t.block.plane as u8);
        out.extend_from_slice(&(t.block.block as u16).to_le_bytes());
        out.extend_from_slice(&t.pbm.to_le_bytes());
    }
    out.push(opcode::CONF);
    out
}

/// Decodes a Fig. 15a wire frame back into flags and targets.
///
/// # Errors
///
/// Returns [`NandError::MalformedFrame`] on truncated or ill-formed input.
pub fn decode_frame(bytes: &[u8]) -> Result<(IscmFlags, Vec<MwsTarget>), NandError> {
    let malformed = |msg: &str| NandError::MalformedFrame(msg.to_string());
    if bytes.len() < 2 || bytes[0] != opcode::MWS {
        return Err(malformed("missing MWS opcode"));
    }
    if bytes[1] > 0x0F {
        return Err(malformed("ISCM slot uses more than four bits"));
    }
    let flags = IscmFlags::from_nibble(bytes[1]);
    let mut targets = Vec::new();
    let mut i = 2;
    loop {
        if i + 11 > bytes.len() {
            return Err(malformed("truncated address slot"));
        }
        let plane = bytes[i] as u32;
        let block = u16::from_le_bytes([bytes[i + 1], bytes[i + 2]]) as u32;
        let pbm = u64::from_le_bytes(bytes[i + 3..i + 11].try_into().unwrap());
        targets.push(MwsTarget { block: BlockAddr::new(plane, block), pbm });
        i += 11;
        match bytes.get(i) {
            Some(&b) if b == opcode::CONT => i += 1,
            Some(&b) if b == opcode::CONF => {
                if i + 1 != bytes.len() {
                    return Err(malformed("trailing bytes after CONF"));
                }
                return Ok((flags, targets));
            }
            _ => return Err(malformed("expected CONT or CONF")),
        }
    }
}

/// Opcode byte of the ESP command (Fig. 15b — "same command interface as
/// the regular program command"). Exposed for controller firmware models.
pub fn esp_opcode() -> u8 {
    opcode::ESP
}

/// Opcode byte of the XOR command (Fig. 15c).
pub fn xor_opcode() -> u8 {
    opcode::XOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iscm_nibble_roundtrip() {
        for n in 0..16u8 {
            assert_eq!(IscmFlags::from_nibble(n).to_nibble(), n);
        }
        assert_eq!(IscmFlags::single_read().to_nibble(), 0b0111);
        assert_eq!(IscmFlags::single_inverse_read().to_nibble(), 0b1111);
        assert_eq!(IscmFlags::accumulate().to_nibble(), 0b0000);
        assert_eq!(IscmFlags::accumulate_last().to_nibble(), 0b0011);
    }

    #[test]
    fn target_wordline_helpers() {
        let t = MwsTarget::new(BlockAddr::new(0, 7), &[0, 3, 47]);
        assert_eq!(t.wl_count(), 3);
        assert_eq!(t.wls().collect::<Vec<_>>(), vec![0, 3, 47]);
        let all = MwsTarget::all_wls(BlockAddr::new(1, 0), 48);
        assert_eq!(all.wl_count(), 48);
        let full = MwsTarget::all_wls(BlockAddr::new(1, 0), 64);
        assert_eq!(full.wl_count(), 64);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_wordline_panics() {
        MwsTarget::new(BlockAddr::new(0, 0), &[64]);
    }

    #[test]
    fn frame_roundtrip_single_target() {
        let flags = IscmFlags::single_read();
        let targets = vec![MwsTarget::new(BlockAddr::new(1, 513), &[0, 5])];
        let frame = encode_frame(flags, &targets);
        let (f2, t2) = decode_frame(&frame).unwrap();
        assert_eq!(f2, flags);
        assert_eq!(t2, targets);
    }

    #[test]
    fn frame_roundtrip_four_targets() {
        // Fig. 15a: "up to four address slots for inter-block MWS".
        let flags = IscmFlags::single_inverse_read();
        let targets: Vec<MwsTarget> =
            (0..4).map(|b| MwsTarget::new(BlockAddr::new(0, b), &[b, b + 1])).collect();
        let frame = encode_frame(flags, &targets);
        // Three CONT separators present.
        assert_eq!(frame.iter().filter(|&&b| b == 0xC8).count(), 3);
        assert_eq!(*frame.last().unwrap(), 0xC9);
        let (f2, t2) = decode_frame(&frame).unwrap();
        assert_eq!(f2, flags);
        assert_eq!(t2, targets);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[0x00, 0x07]).is_err());
        let good =
            encode_frame(IscmFlags::single_read(), &[MwsTarget::new(BlockAddr::new(0, 0), &[0])]);
        // Truncation anywhere breaks it.
        for cut in 1..good.len() {
            assert!(decode_frame(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage breaks it.
        let mut bad = good.clone();
        bad.push(0xFF);
        assert!(decode_frame(&bad).is_err());
    }

    #[test]
    fn constructors_build_expected_commands() {
        let addr = WlAddr::new(0, 1, 2);
        match Command::esp_program(addr, BitVec::zeros(8)) {
            Command::Program { scheme: ProgramScheme::Esp { ratio }, randomize, .. } => {
                assert_eq!(ratio, 2.0);
                assert!(!randomize);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Command::slc_program(addr, BitVec::zeros(8)) {
            Command::Program { scheme: ProgramScheme::Slc, randomize, .. } => assert!(randomize),
            other => panic!("unexpected {other:?}"),
        }
    }
}
