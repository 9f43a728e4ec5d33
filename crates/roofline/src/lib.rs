//! # mperf-roofline — roofline modeling
//!
//! The model side of the paper's §4/§5.2: performance ceilings ("roofs")
//! from machine characterization, application points from measured
//! (arithmetic-intensity, throughput) pairs, memory- vs compute-bound
//! classification, and plot generation (ASCII, SVG, CSV).
//!
//! Roof sources mirror the paper:
//! - **theoretical** roofs derived from the platform model (the paper uses
//!   `2 IPC × 8 SP FLOP × 1.6 GHz = 25.6 GFLOP/s` for the X60 compute roof),
//! - **measured** memory roofs from a memset/triad-style streaming
//!   microbenchmark executed on the simulator (the paper uses the
//!   rvv-bench memset result, ~3.16 B/cycle).

pub mod microbench;
pub mod model;
pub mod plot;

pub use microbench::{
    characterize, characterize_many, characterize_with_jobs, stored, MachineCharacterization,
};
pub use model::{Bound, Point, Roof, RoofKind, RooflineModel};
