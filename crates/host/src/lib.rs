//! # fc-host — host-system model
//!
//! The outside-storage-processing (OSP) side of the evaluation (§7):
//! an Intel Rocket Lake i7-11700K-class CPU (8 cores, 3.6 GHz) with 64 GB
//! of DDR4-3600 over 4 channels. The paper measures this machine directly
//! (RAPL for CPU energy, a DDR4 power model for DRAM); we replace it with
//! a calibrated streaming model, which is accurate for bulk bitwise
//! kernels because they are memory-bandwidth-bound.
//!
//! * [`dram`] — DDR4 channel bandwidth and per-byte energy.
//! * [`cpu`] — streaming bitwise / popcount throughput and energy.
//!
//! The crate prices host work only. Overlapping it with the SSD's reads
//! is the pipeline model's job: `flash_cosmos::engines` hands each
//! platform's host work to it as the `HostWork` tail behind the page
//! stream.

pub mod cpu;
pub mod dram;

pub use cpu::HostCpu;
pub use dram::Ddr4;

/// Host calibration constants (Table 1 host row + representative
/// technology figures; the paper reports only end-to-end energies).
pub mod calib {
    /// CPU cores (Table 1).
    pub const CORES: usize = 8;

    /// Base clock, GHz (Table 1: 3.6 GHz).
    pub const FREQ_GHZ: f64 = 3.6;

    /// DDR4 data rate, MT/s (Table 1: DDR4-3600).
    pub const DDR_MTPS: f64 = 3600.0;

    /// DRAM channels (Table 1: 4).
    pub const DRAM_CHANNELS: usize = 4;

    /// Effective fraction of peak DRAM bandwidth a streaming kernel
    /// sustains (row-buffer + refresh + controller overheads).
    pub const DRAM_EFFICIENCY: f64 = 0.75;

    /// DRAM access energy, pJ per byte (DDR4 activate+IO, ~2.5 pJ/bit).
    pub const DRAM_PJ_PER_BYTE: f64 = 20.0;

    /// Package energy per byte for streaming bitwise kernels, pJ/byte
    /// (RAPL-style: ~30 W package at ~15 GB/s effective processing).
    pub const CPU_PJ_PER_BYTE: f64 = 2_000.0;

    /// Sustained multi-core throughput of a streaming two-operand bitwise
    /// kernel, GB/s of *output* produced (bounded by reading 2 inputs +
    /// writing 1 output through DRAM).
    pub const BITWISE_GBPS: f64 = 15.0;

    /// Sustained multi-core `popcnt` throughput, GB/s consumed.
    pub const POPCOUNT_GBPS: f64 = 25.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_internally_consistent() {
        // Peak DDR4-3600 × 4 channels × 8 B = 115.2 GB/s; the streaming
        // kernels must not claim more than effective bandwidth / 3
        // (2 reads + 1 write per output byte).
        let peak = calib::DDR_MTPS * 1e6 * 8.0 * calib::DRAM_CHANNELS as f64 / 1e9;
        assert!((peak - 115.2).abs() < 0.1);
        let effective = peak * calib::DRAM_EFFICIENCY;
        assert!(calib::BITWISE_GBPS * 3.0 <= effective);
        assert!(calib::POPCOUNT_GBPS < effective);
    }
}
