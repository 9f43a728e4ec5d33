//! # miniperf — the paper's integrated tool
//!
//! Reproduces the three contributions of *Dissecting RISC-V Performance*
//! (PACT 2025) on the simulated platform stack:
//!
//! 1. **Practical PMU sampling workaround** ([`record`]): hardware
//!    detection through CPU identity registers (not perf event
//!    discovery), and automatic counter grouping that samples
//!    `mcycle`/`minstret` through a sampling-capable `u_mode_cycle`
//!    leader on SpacemiT X60-class hardware where direct sampling
//!    returns `EOPNOTSUPP`.
//! 2. **Hardware-agnostic roofline analysis** ([`roofline_runner`]): the
//!    two-phase baseline/instrumented execution protocol over modules
//!    prepared with [`mperf_ir`]'s instrumentation pass, correlated into
//!    throughput, memory traffic, and arithmetic intensity without PMU
//!    dependence.
//! 3. **An integrated workflow**: [`stat`]-style counting, flame graphs
//!    ([`flamegraph`]) from either cycles or instructions, hotspot
//!    tables ([`hotspot`], the paper's Table 2), and roofline reports,
//!    plus a TMA-style top-level breakdown ([`tma`], the paper's §6
//!    future-work direction) on platforms with full PMUs.

pub mod cli;
pub mod detect;
pub mod flamegraph;
pub mod hotspot;
pub mod profile;
pub mod record;
pub mod report;
pub mod roofline_runner;
pub mod serve;
pub mod shard_exec;
pub mod stat;
pub mod sweep_supervisor;
pub mod tma;

pub use cli::{Command, CommonOpts, JobKind, JobSpec};
pub use detect::{detect, probe_sampling, Detected, SamplingStrategy, SamplingSupport};
pub use hotspot::{hotspot_table, HotspotRow};
pub use profile::{ProfSample, Profile};
pub use record::{record, RecordConfig};
pub use roofline_runner::{
    PhaseObservables, RegionMeasurement, RooflineJob, RooflineRequest, RooflineRun, SetupFn,
};
pub use serve::{run_daemon, run_submit, ServeHandle, ServeOptions, ServeStats};
pub use shard_exec::{
    cli_triad_setup, run_roofline_sweep_sharded, worker_main, SetupSpec, ShardedCellSpec,
    ShardedSweep, ShardedSweepOptions,
};
pub use stat::{stat, StatReport};
pub use sweep_supervisor::{SupervisedSweep, SweepCellError};
