//! SSD topology: channel/die/plane and physical page addressing (Fig. 7a).

use serde::{Deserialize, Serialize};

use crate::config::SsdConfig;

/// Identifies one die in the SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DieId {
    /// Channel index.
    pub channel: u32,
    /// Die index within the channel.
    pub die: u32,
}

impl DieId {
    /// Creates a die id.
    pub fn new(channel: u32, die: u32) -> Self {
        Self { channel, die }
    }

    /// Flat index across the SSD (channel-major).
    pub fn flat(&self, config: &SsdConfig) -> usize {
        self.channel as usize * config.dies_per_channel + self.die as usize
    }

    /// Inverse of [`Self::flat`].
    pub fn from_flat(index: usize, config: &SsdConfig) -> Self {
        Self {
            channel: (index / config.dies_per_channel) as u32,
            die: (index % config.dies_per_channel) as u32,
        }
    }
}

impl std::fmt::Display for DieId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CH{}/D{}", self.channel, self.die)
    }
}

/// Identifies one plane in the SSD (the unit of sensing concurrency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlaneId {
    /// The die holding the plane.
    pub die: DieId,
    /// Plane index within the die.
    pub plane: u32,
}

impl PlaneId {
    /// Creates a plane id.
    pub fn new(die: DieId, plane: u32) -> Self {
        Self { die, plane }
    }

    /// Flat index across the SSD.
    pub fn flat(&self, config: &SsdConfig) -> usize {
        self.die.flat(config) * config.planes_per_die + self.plane as usize
    }

    /// Inverse of [`Self::flat`].
    pub fn from_flat(index: usize, config: &SsdConfig) -> Self {
        Self {
            die: DieId::from_flat(index / config.planes_per_die, config),
            plane: (index % config.planes_per_die) as u32,
        }
    }
}

/// A full physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ppa {
    /// The plane.
    pub plane: PlaneId,
    /// Sub-block within the plane.
    pub block: u32,
    /// Wordline within the sub-block.
    pub wl: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_roundtrip() {
        let c = SsdConfig::paper_table1();
        for idx in [0usize, 1, 7, 8, 63] {
            assert_eq!(DieId::from_flat(idx, &c).flat(&c), idx);
        }
        for idx in [0usize, 1, 127] {
            assert_eq!(PlaneId::from_flat(idx, &c).flat(&c), idx);
        }
        assert_eq!(DieId::from_flat(9, &c), DieId::new(1, 1));
        assert_eq!(DieId::new(1, 1).to_string(), "CH1/D1");
    }
}
