//! DDR4 main-memory model (the Ramulator substitute).
//!
//! Bulk bitwise kernels stream sequentially, so a bandwidth/energy model
//! captures what a cycle-accurate simulation would report for these
//! access patterns: the platform models charge DRAM traffic at
//! [`Ddr4::pj_per_byte`], and [`Ddr4::peak_gbps`] is the bus's peak
//! (Table 1). The share of that peak a streaming kernel sustains,
//! [`calib::DRAM_EFFICIENCY`], bounds the CPU's streaming rates.

use serde::{Deserialize, Serialize};

use crate::calib;

/// A DDR4 memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ddr4 {
    /// Data rate in MT/s.
    pub mtps: f64,
    /// Number of channels.
    pub channels: usize,
    /// Bus width per channel, bytes.
    pub bus_bytes: usize,
    /// Access energy, pJ per byte.
    pub pj_per_byte: f64,
}

impl Ddr4 {
    /// The evaluated host's memory: DDR4-3600, 4 channels (Table 1).
    pub fn paper_host() -> Self {
        Self {
            mtps: calib::DDR_MTPS,
            channels: calib::DRAM_CHANNELS,
            bus_bytes: 8,
            pj_per_byte: calib::DRAM_PJ_PER_BYTE,
        }
    }

    /// Peak bandwidth, GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.mtps * 1e6 * self.bus_bytes as f64 * self.channels as f64 / 1e9
    }
}

impl Default for Ddr4 {
    fn default() -> Self {
        Self::paper_host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_host_bandwidth() {
        let d = Ddr4::paper_host();
        assert!((d.peak_gbps() - 115.2).abs() < 0.1);
    }
}
