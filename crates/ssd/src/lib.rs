//! # fc-ssd — SSD-scale simulator
//!
//! The MQSim-equivalent substrate of the Flash-Cosmos reproduction
//! (§7: "We model SSD performance using MQSim ... We extend MQSim to
//! faithfully model the performance of ISP, ParaBit, and Flash-Cosmos").
//!
//! Layers:
//!
//! * [`sim`] — a small discrete-event kernel: simulated time and FIFO
//!   resources (dies, channel buses, the external link).
//! * [`config`] — SSD organizations: Table 1, the Fig. 7 example, and a
//!   tiny functional-test preset.
//! * [`topology`] — channel/die/plane and physical page addressing.
//! * [`ecc`] — a real BCH encoder/decoder over GF(2^m) standing in for the
//!   LDPC engines of commercial SSDs (§2.2). It exists so the reproduction
//!   can *demonstrate* why in-flash bitwise ops cannot run over
//!   ECC-encoded data.
//! * [`ftl`] — page-mapped flash translation layer with the placement
//!   metadata Flash-Cosmos needs (program scheme, inverse-stored flag):
//!   one per device, with no lock of its own.
//! * [`energy`] — per-component energy metering.
//! * [`pipeline`] — the execution-pipeline model that turns per-die job
//!   lists into end-to-end makespan + energy (regenerates Fig. 7 and
//!   drives Figs. 17/18).
//! * [`device`] — a functional SSD: NAND chips + FTL + ECC + randomizer
//!   behind a logical-page API, with a shifted-Vref read-retry ladder on
//!   ECC failure. Reads take `&self`; FTL changes take `&mut self`.
//! * [`parity`] — RAIN-style cross-die XOR parity stripes: the outer
//!   redundancy layer that rebuilds pages the retry ladder cannot save.

pub mod config;
pub mod device;
pub mod ecc;
pub mod energy;
pub mod ftl;
pub mod parity;
pub mod pipeline;
pub mod sim;
pub mod topology;

pub use config::SsdConfig;
pub use device::SsdDevice;
pub use energy::{Component, EnergyMeter};
pub use pipeline::{ExecutionReport, PipelineModel, SenseJob};
