//! # mperf-sim — simulated RISC-V (and one x86) hardware
//!
//! The reproduction's stand-in for the development boards the paper
//! evaluates on: timing-model CPU cores with caches, branch prediction, a
//! vector unit, privilege modes, and — centrally — a full RISC-V PMU CSR
//! file (`mcycle`, `minstret`, `mhpmcounter3..31`, `mhpmevent3..31`,
//! `mcountinhibit`, `mcounteren`) with **per-platform quirk models**:
//!
//! | core | OoO | RVV | overflow IRQ (Sscofpmf) |
//! |------|-----|-----|--------------------------|
//! | SiFive U74    | no  | —    | none |
//! | T-Head C910   | yes | 0.7.1| all counters |
//! | SpacemiT X60  | no  | 1.0  | **only** the non-standard `u/s/m_mode_cycle` events |
//! | Intel i5-1135G7 | yes | AVX2 | all counters (PMI) |
//!
//! The X60 row is the hardware defect §3.3 of the paper works around; the
//! simulator reproduces it so the `perf_event` grouping trick (and its
//! failure without the workaround) is observable in `mperf-event`.
//!
//! Timing is a calibrated throughput/latency model, not microarchitectural
//! simulation: absolute cycle counts are plausible rather than exact, but
//! ratios (in-order vs out-of-order IPC, cache-miss exposure, vector
//! speedups, DRAM bandwidth ceilings) follow the paper's shape. The
//! calibration targets are pinned by `tests/evaluation_shape.rs` at the
//! repository root (Table 2's IPC gap and instruction ratio) and by
//! `mperf-roofline`'s `stored_table_matches_measurement` (the roofs).

pub mod branch;
pub mod cache;
pub mod core;
pub mod csr;
pub mod events;
pub mod isa;
pub mod machine_op;
pub mod platform;
pub mod pmu;

pub use crate::core::{BlockAcc, Core, PrivMode, RetireInfo};
pub use branch::BranchPredictor;
pub use cache::{CacheConfig, MemEvents, MemorySystem};
pub use csr::{Csr, CsrError};
pub use events::HwEvent;
pub use isa::IsaModel;
pub use machine_op::{MachineOp, MemRef, OpClass};
pub use platform::{CpuId, Platform, PlatformSpec, SscofpmfSupport};
pub use pmu::{Pmu, NUM_COUNTERS};
