//! # miniperf-suite
//!
//! Facade crate re-exporting the whole reproduction stack of
//! *Dissecting RISC-V Performance* (PACT 2025): the `miniperf` tool, the
//! compiler substrate, the simulated RISC-V platforms, and the roofline
//! machinery. The `miniperf` crate docs map the paper's three
//! contributions onto its modules.

pub use miniperf;
pub use mperf_event;
pub use mperf_ir;
pub use mperf_roofline;
pub use mperf_sbi;
pub use mperf_sim;
pub use mperf_sweep;
pub use mperf_vm;
pub use mperf_workloads;
