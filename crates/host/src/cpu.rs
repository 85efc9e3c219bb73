//! Multicore CPU model for streaming bitwise kernels and population
//! counts (the RAPL-measured side of §7).

use serde::{Deserialize, Serialize};

use crate::calib;
use crate::dram::Ddr4;

/// The host CPU model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostCpu {
    /// Core count.
    pub cores: usize,
    /// Clock, GHz.
    pub freq_ghz: f64,
    /// Sustained streaming bitwise throughput, GB/s of output.
    pub bitwise_gbps: f64,
    /// Sustained popcount throughput, GB/s consumed.
    pub popcount_gbps: f64,
    /// Package energy per byte processed, pJ.
    pub pj_per_byte: f64,
    /// The attached memory system.
    pub dram: Ddr4,
}

impl HostCpu {
    /// The evaluated host (Table 1: i7-11700K, 8 cores, 3.6 GHz).
    pub fn paper_host() -> Self {
        Self {
            cores: calib::CORES,
            freq_ghz: calib::FREQ_GHZ,
            bitwise_gbps: calib::BITWISE_GBPS,
            popcount_gbps: calib::POPCOUNT_GBPS,
            pj_per_byte: calib::CPU_PJ_PER_BYTE,
            dram: Ddr4::paper_host(),
        }
    }
}

impl Default for HostCpu {
    fn default() -> Self {
        Self::paper_host()
    }
}
