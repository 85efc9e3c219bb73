//! SSD organization and timing configuration (Table 1 and Fig. 7a).

use fc_nand::calib::timing;
use serde::{Deserialize, Serialize};

/// SSD organization, bandwidths and NAND timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Independent flash channels.
    pub channels: usize,
    /// Dies sharing each channel (time-interleaved).
    pub dies_per_channel: usize,
    /// Planes per die (can sense concurrently; share the die's command
    /// path but multi-plane reads proceed in lockstep).
    pub planes_per_die: usize,
    /// Sub-blocks per plane.
    pub blocks_per_plane: usize,
    /// Wordlines per sub-block (NAND string length).
    pub wls_per_block: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Channel I/O rate, GB/s (decimal) per channel.
    pub channel_gbps: f64,
    /// External (host) I/O bandwidth, GB/s.
    pub external_gbps: f64,
    /// SLC page-read latency, µs.
    pub tr_us: f64,
    /// Fixed MWS latency budget, µs (covers ≤ `max_inter_blocks` blocks
    /// and full-string intra-block sensing).
    pub tmws_us: f64,
    /// SLC program latency, µs.
    pub tprog_slc_us: f64,
    /// MLC program latency, µs.
    pub tprog_mlc_us: f64,
    /// TLC program latency, µs.
    pub tprog_tlc_us: f64,
    /// ESP program latency, µs.
    pub tesp_us: f64,
    /// Power cap on simultaneously activated blocks for inter-block MWS.
    pub max_inter_blocks: usize,
}

impl SsdConfig {
    /// The evaluated SSD of Table 1: 2 TB, 8 channels × 8 dies × 2 planes,
    /// 2048 physical blocks/plane (×4 sub-blocks), 48-WL strings, 16 KiB
    /// pages, 1.2 GB/s channels, 8 GB/s external I/O (4-lane PCIe Gen4).
    pub fn paper_table1() -> Self {
        Self {
            channels: 8,
            dies_per_channel: 8,
            planes_per_die: 2,
            blocks_per_plane: 2048 * 4,
            wls_per_block: 48,
            page_bytes: 16 * 1024,
            channel_gbps: 1.2,
            external_gbps: 8.0,
            tr_us: timing::T_R_SLC_US,
            tmws_us: timing::T_MWS_US,
            tprog_slc_us: timing::T_PROG_SLC_US,
            tprog_mlc_us: timing::T_PROG_MLC_US,
            tprog_tlc_us: timing::T_PROG_TLC_US,
            tesp_us: timing::T_ESP_US,
            max_inter_blocks: timing::MAX_INTER_BLOCKS,
        }
    }

    /// The illustrative SSD of Fig. 7a: 8 channels × 4 dies × 2 planes,
    /// `tR = 60 µs`, used for the OSP/ISP/IFP timeline comparison.
    pub fn fig7_example() -> Self {
        Self {
            channels: 8,
            dies_per_channel: 4,
            planes_per_die: 2,
            blocks_per_plane: 2048,
            wls_per_block: 48,
            page_bytes: 16 * 1024,
            channel_gbps: 1.2,
            external_gbps: 8.0,
            tr_us: 60.0,
            tmws_us: 60.0 * timing::T_MWS_US / timing::T_R_SLC_US,
            tprog_slc_us: timing::T_PROG_SLC_US,
            tprog_mlc_us: timing::T_PROG_MLC_US,
            tprog_tlc_us: timing::T_PROG_TLC_US,
            tesp_us: timing::T_ESP_US,
            max_inter_blocks: timing::MAX_INTER_BLOCKS,
        }
    }

    /// A miniature SSD for functional tests: 2 channels × 2 dies × 2
    /// planes with 32-byte pages and 8-WL strings.
    pub fn tiny_test() -> Self {
        Self {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 16,
            wls_per_block: 8,
            page_bytes: 32,
            channel_gbps: 1.2,
            external_gbps: 8.0,
            tr_us: timing::T_R_SLC_US,
            tmws_us: timing::T_MWS_US,
            tprog_slc_us: timing::T_PROG_SLC_US,
            tprog_mlc_us: timing::T_PROG_MLC_US,
            tprog_tlc_us: timing::T_PROG_TLC_US,
            tesp_us: timing::T_ESP_US,
            max_inter_blocks: timing::MAX_INTER_BLOCKS,
        }
    }

    /// Total dies.
    pub fn total_dies(&self) -> usize {
        self.channels * self.dies_per_channel
    }

    /// Total planes (the unit of sensing concurrency).
    pub fn total_planes(&self) -> usize {
        self.total_dies() * self.planes_per_die
    }

    /// Bits per page.
    pub fn page_bits(&self) -> usize {
        self.page_bytes * 8
    }

    /// Raw capacity in bytes at `bits_per_cell` (Table 1's "2 TB" is the
    /// TLC capacity).
    pub fn capacity_bytes(&self, bits_per_cell: u32) -> u64 {
        self.total_planes() as u64
            * self.blocks_per_plane as u64
            * self.wls_per_block as u64
            * self.page_bytes as u64
            * bits_per_cell as u64
    }

    /// Time to move one die's multi-plane read output (all planes' pages)
    /// over its channel, µs — Fig. 7's `tDMA`.
    pub fn tdma_us(&self) -> f64 {
        let bytes = (self.page_bytes * self.planes_per_die) as u64;
        bytes as f64 / (self.channel_gbps * 1e9) * 1e6
    }

    /// Time to move one page over its channel, µs (per-plane slice of
    /// [`SsdConfig::tdma_us`]) — the bus cost of a single `ReadOut`.
    pub fn page_transfer_us(&self) -> f64 {
        self.page_bytes as f64 / (self.channel_gbps * 1e9) * 1e6
    }

    /// Time to move one die's multi-plane output over the external link,
    /// µs — Fig. 7's `tEXT`.
    pub fn text_us(&self) -> f64 {
        let bytes = (self.page_bytes * self.planes_per_die) as u64;
        bytes as f64 / (self.external_gbps * 1e9) * 1e6
    }

    /// Aggregate internal bandwidth (all channels), GB/s — Fig. 7a's
    /// "Internal BW: 9.6 (1.2×8) GB/s".
    pub fn internal_gbps_total(&self) -> f64 {
        self.channel_gbps * self.channels as f64
    }

    /// The geometry for each die's NAND chip model.
    pub fn chip_geometry(&self) -> fc_nand::geometry::ChipGeometry {
        fc_nand::geometry::ChipGeometry {
            planes: self.planes_per_die as u32,
            blocks_per_plane: self.blocks_per_plane as u32,
            wls_per_block: self.wls_per_block as u32,
            page_bytes: self.page_bytes as u32,
            subblocks_per_physical_block: 4,
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capacity_is_2tb_in_tlc_mode() {
        let c = SsdConfig::paper_table1();
        let tb = c.capacity_bytes(3) as f64 / 1e12;
        assert!((2.0..2.6).contains(&tb), "capacity {tb} TB");
        assert_eq!(c.total_planes(), 128);
        assert!((c.internal_gbps_total() - 9.6).abs() < 1e-9);
    }

    #[test]
    fn fig7_transfer_latencies() {
        let c = SsdConfig::fig7_example();
        assert!((c.tdma_us() - 27.3).abs() < 0.1, "tDMA {}", c.tdma_us());
        assert!((c.text_us() - 4.1).abs() < 0.1, "tEXT {}", c.text_us());
        assert_eq!(c.total_planes(), 64);
        assert_eq!(c.tr_us, 60.0);
    }

    #[test]
    fn tiny_preset_is_small() {
        let c = SsdConfig::tiny_test();
        assert!(c.capacity_bytes(1) < 1_000_000);
        assert_eq!(c.chip_geometry().page_bits(), 256);
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(SsdConfig::default(), SsdConfig::paper_table1());
    }
}
