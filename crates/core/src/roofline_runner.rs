//! The two-phase roofline measurement workflow (paper §4.3, Fig. 2):
//!
//! 1. **Baseline execution** — instrumentation disabled; region begin/end
//!    notifications time each loop region without counter overhead.
//! 2. **Instrumented execution** — the instrumented clones run, and the
//!    per-block counters accumulate bytes/ops.
//!
//! Correlating both yields memory traffic, computational throughput, and
//! arithmetic intensity per region — all without touching the PMU.
//!
//! ## Phases are jobs
//!
//! The two phases are *independent simulations*: each runs on a fresh
//! VM/core from identical initial state (the determinism assumption of
//! §4.4), so nothing orders baseline before instrumented except the
//! final correlation. One crate-private cell executor
//! (`RooflineRequest::execute`) exploits that: it submits each phase as
//! one job to the `mperf-sweep` scheduler — both share one
//! `Arc`-shared decode — and correlates the collected results. `jobs =
//! 1` runs the phases serially on the calling thread, and with both
//! failing the baseline error wins at any worker count. Every driver of
//! a cell runs through it: [`RooflineRequest::run`] with the request's
//! worker count, and the supervised sweep and the `sweep-worker`
//! process one phase at a time, so their retry and journal unit stays
//! the cell.
//!
//! ## One entry point
//!
//! [`RooflineRequest`] is a builder over every knob of a measurement:
//! worker threads, engine configuration, retry policy, journal path,
//! resume. Defaults are a serial run on the default engine with no
//! journal. A single cell runs through [`RooflineRequest::run`]; a cell
//! matrix through [`RooflineRequest::run_supervised`] (threads) or
//! [`crate::run_roofline_sweep_sharded`] (worker processes).

use crate::sweep_supervisor::{supervised_sweep_hooked, SupervisedSweep, SweepHooks};
use mperf_ir::Module;
use mperf_sim::{pmu::NUM_COUNTERS, Core, PlatformSpec};
use mperf_sweep::journal::JournalError;
use mperf_sweep::{queue, Phase, RetryPolicy};
use mperf_vm::{
    decode_module_cfg, DecodedModule, ExecConfig, ExecStats, RegionStats, TrapInfo, Value, Vm,
    VmError,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The guest-data staging callback: runs once per phase on that phase's
/// fresh VM (on whichever worker thread executes the phase job, hence
/// `Sync`) and returns the entry-point arguments.
pub type SetupFn<'a> = &'a (dyn Fn(&mut Vm) -> Result<Vec<Value>, VmError> + Sync);

/// An owned, thread-shareable guest-staging closure (sweep cells own
/// their setup so a cell matrix can outlive its builder).
pub type BoxedSetupFn<'a> = Box<dyn Fn(&mut Vm) -> Result<Vec<Value>, VmError> + Send + Sync + 'a>;

/// Per-region correlated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMeasurement {
    pub region_id: u32,
    pub source_func: String,
    pub line: u32,
    /// True if the region contains calls (metrics are lower bounds,
    /// paper §4.4).
    pub has_calls: bool,
    pub flops: u64,
    pub loaded_bytes: u64,
    pub stored_bytes: u64,
    pub int_ops: u64,
    pub invocations: u64,
    pub baseline_cycles: u64,
    pub instrumented_cycles: u64,
    /// Stray `loop_end` notifications attributed to this region across
    /// both phases. Nonzero flags broken instrumentation: the cycle and
    /// count tallies above are then untrustworthy.
    pub unbalanced_ends: u64,
}

impl RegionMeasurement {
    /// Total memory traffic in bytes.
    pub fn bytes(&self) -> u64 {
        self.loaded_bytes + self.stored_bytes
    }

    /// Arithmetic intensity (FLOP per byte).
    pub fn ai(&self) -> f64 {
        if self.bytes() == 0 {
            return 0.0;
        }
        self.flops as f64 / self.bytes() as f64
    }

    /// Achieved GFLOP/s over the *baseline* time (the two-phase trick:
    /// counts from the instrumented run, time from the baseline run).
    pub fn gflops(&self, freq_hz: u64) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        let seconds = self.baseline_cycles as f64 / freq_hz as f64;
        self.flops as f64 / seconds / 1e9
    }

    /// Memory throughput in GB/s over baseline time.
    pub fn gbytes_per_sec(&self, freq_hz: u64) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        let seconds = self.baseline_cycles as f64 / freq_hz as f64;
        self.bytes() as f64 / seconds / 1e9
    }

    /// Instrumentation slowdown factor (paper §4.4 "Runtime Overhead").
    pub fn overhead_factor(&self) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        self.instrumented_cycles as f64 / self.baseline_cycles as f64
    }
}

/// Everything observable about one executed phase, beyond the region
/// tallies: the full simulation fingerprint the sweep determinism
/// property pins (`tests/properties.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseObservables {
    /// End-to-end guest cycles of the phase (entry call only).
    pub total_cycles: u64,
    /// VM execution statistics (MIR ops, machine ops, calls).
    pub exec: ExecStats,
    /// Instructions retired on the core.
    pub instructions: u64,
    /// Final PMU counter file (all 32 counters).
    pub pmu: Vec<u64>,
    /// Stray `loop_end` notifications seen during this phase (including
    /// region ids that match no known region).
    pub unbalanced_ends: u64,
}

/// A whole roofline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRun {
    pub platform_name: &'static str,
    pub freq_hz: u64,
    pub regions: Vec<RegionMeasurement>,
    /// End-to-end cycles of the baseline phase.
    pub baseline_total_cycles: u64,
    /// End-to-end cycles of the instrumented phase.
    pub instrumented_total_cycles: u64,
    /// Total stray `loop_end` notifications across both phases (zero on
    /// healthy instrumentation); per-region attribution is in
    /// [`RegionMeasurement::unbalanced_ends`].
    pub unbalanced_ends: u64,
    /// Full simulation fingerprint of the baseline phase.
    pub baseline: PhaseObservables,
    /// Full simulation fingerprint of the instrumented phase.
    pub instrumented: PhaseObservables,
}

impl RooflineRun {
    /// The region measurement for a given id.
    pub fn region(&self, id: u32) -> Option<&RegionMeasurement> {
        self.regions.iter().find(|r| r.region_id == id)
    }
}

/// One cell of a roofline sweep: a compiled workload on one platform.
pub struct RooflineJob<'a> {
    pub module: &'a Module,
    /// Pre-built shared decode. `None` = decode once inside the sweep;
    /// pass `Some` to share one decode across several cells running the
    /// same module (e.g. one workload on many platforms).
    pub decoded: Option<Arc<DecodedModule>>,
    pub spec: PlatformSpec,
    pub entry: String,
    pub setup: BoxedSetupFn<'a>,
}

/// Raw output of one phase job, pre-correlation.
struct PhaseOutput {
    regions: Vec<(u32, RegionStats)>,
    obs: PhaseObservables,
}

/// How a cell failed: the failing phase, its error, and the trap site
/// the VM captured alongside it.
pub(crate) type PhaseTrap = (Phase, VmError, Option<TrapInfo>);

/// Correlate a cell's two phase outputs against the module's region
/// metadata. Regions sharing a source location are merged: the
/// vectorizer splits one source loop into a vector loop plus a scalar
/// remainder, and users care about the *source* loop (`LoopInfo{line,
/// func}` in the paper). Region lookups are `HashMap`s keyed by region
/// id, so correlation is linear in the region count.
fn correlate(
    module: &Module,
    spec: &PlatformSpec,
    base: PhaseOutput,
    inst: PhaseOutput,
) -> RooflineRun {
    let base_by_id: HashMap<u32, RegionStats> = base.regions.iter().copied().collect();
    let inst_by_id: HashMap<u32, RegionStats> = inst.regions.iter().copied().collect();
    // Source-location → index of the merged measurement in `regions`.
    let mut by_source: HashMap<(&str, u32), usize> = HashMap::new();
    let mut regions: Vec<RegionMeasurement> = Vec::new();
    for info in &module.loop_regions {
        let b = base_by_id.get(&info.id).copied().unwrap_or_default();
        let i = inst_by_id.get(&info.id).copied().unwrap_or_default();
        let unbalanced = b.unbalanced_ends + i.unbalanced_ends;
        match by_source.entry((info.source_func.as_str(), info.line)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let existing = &mut regions[*e.get()];
                existing.has_calls |= info.has_calls;
                existing.flops += i.counts.flops;
                existing.loaded_bytes += i.counts.loaded_bytes;
                existing.stored_bytes += i.counts.stored_bytes;
                existing.int_ops += i.counts.int_ops;
                existing.invocations = existing.invocations.max(b.invocations.max(i.invocations));
                existing.baseline_cycles += b.baseline_cycles;
                existing.instrumented_cycles += i.instrumented_cycles;
                existing.unbalanced_ends += unbalanced;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(regions.len());
                regions.push(RegionMeasurement {
                    region_id: info.id,
                    source_func: info.source_func.clone(),
                    line: info.line,
                    has_calls: info.has_calls,
                    flops: i.counts.flops,
                    loaded_bytes: i.counts.loaded_bytes,
                    stored_bytes: i.counts.stored_bytes,
                    int_ops: i.counts.int_ops,
                    invocations: b.invocations.max(i.invocations),
                    baseline_cycles: b.baseline_cycles,
                    instrumented_cycles: i.instrumented_cycles,
                    unbalanced_ends: unbalanced,
                });
            }
        }
    }
    RooflineRun {
        platform_name: spec.name,
        freq_hz: spec.freq_hz,
        regions,
        baseline_total_cycles: base.obs.total_cycles,
        instrumented_total_cycles: inst.obs.total_cycles,
        unbalanced_ends: base.obs.unbalanced_ends + inst.obs.unbalanced_ends,
        baseline: base.obs,
        instrumented: inst.obs,
    }
}

/// Builder for roofline measurements: one entry point for single runs
/// ([`RooflineRequest::run`]) and supervised sweeps
/// ([`RooflineRequest::run_supervised`]), with every knob defaulted.
///
/// `RooflineRequest::new()` is serial (`jobs = 1`) with the default
/// [`ExecConfig`] and [`RetryPolicy`], no journal, and no resume.
///
/// ```no_run
/// # use miniperf::RooflineRequest;
/// # fn demo(module: &mperf_ir::Module, spec: &mperf_sim::PlatformSpec,
/// #         setup: miniperf::SetupFn) {
/// let run = RooflineRequest::new()
///     .jobs(4)
///     .run(module, spec, "triad", setup)
///     .unwrap();
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RooflineRequest {
    pub(crate) jobs: Option<usize>,
    pub(crate) cfg: ExecConfig,
    pub(crate) policy: RetryPolicy,
    pub(crate) journal: Option<PathBuf>,
    pub(crate) resume: bool,
}

impl RooflineRequest {
    pub fn new() -> RooflineRequest {
        RooflineRequest::default()
    }

    /// Worker threads for phase/cell jobs (default 1 = strictly serial;
    /// results are bit-identical at any worker count).
    pub fn jobs(mut self, jobs: usize) -> RooflineRequest {
        self.jobs = Some(jobs);
        self
    }

    /// Engine configuration (the `--engine` / `--no-regalloc` plumbing
    /// for regression bisection). Every configuration is observably
    /// identical: engine choice and decode passes change speed, never
    /// measurements.
    pub fn config(mut self, cfg: ExecConfig) -> RooflineRequest {
        self.cfg = cfg;
        self
    }

    /// Retry/quarantine policy for supervised sweeps.
    pub fn policy(mut self, policy: RetryPolicy) -> RooflineRequest {
        self.policy = policy;
        self
    }

    /// Checkpoint journal for supervised sweeps: every completed cell
    /// is appended under its content-hash key.
    pub fn journal(self, path: impl Into<PathBuf>) -> RooflineRequest {
        self.journal_opt(Some(path.into()))
    }

    /// [`RooflineRequest::journal`] taking the option directly (CLI
    /// plumbing).
    pub fn journal_opt(mut self, path: Option<PathBuf>) -> RooflineRequest {
        self.journal = path;
        self
    }

    /// Satisfy sweep cells from the journal instead of re-executing
    /// them (requires a journal; the report is byte-identical to an
    /// uninterrupted run).
    pub fn resume(mut self, resume: bool) -> RooflineRequest {
        self.resume = resume;
        self
    }

    /// Run the two-phase workflow on one module/platform. `setup`
    /// stages guest data and returns the entry arguments; it runs once
    /// per phase on a fresh VM so both phases see identical initial
    /// state (the determinism assumption of §4.4). The two phases are
    /// submitted as independent jobs to a pool of [`Self::jobs`]
    /// threads; both phase VMs share one decode, built here in the
    /// configured flavour.
    ///
    /// # Errors
    /// Propagates guest traps; with both phases failing, the baseline
    /// phase's error wins (serial order), deterministically.
    pub fn run(
        &self,
        module: &Module,
        spec: &PlatformSpec,
        entry: &str,
        setup: SetupFn,
    ) -> Result<RooflineRun, VmError> {
        let decoded = decode_module_cfg(module, self.cfg.decode());
        self.run_prepared(module, &decoded, spec, entry, setup)
    }

    /// [`Self::run`] over a pre-built decode (must have been built with
    /// this request's [`ExecConfig`]) — the serve daemon's warm-cache
    /// path, where many jobs share one `Arc<DecodedModule>`.
    ///
    /// # Errors
    /// See [`Self::run`].
    pub fn run_prepared(
        &self,
        module: &Module,
        decoded: &Arc<DecodedModule>,
        spec: &PlatformSpec,
        entry: &str,
        setup: SetupFn,
    ) -> Result<RooflineRun, VmError> {
        self.execute(module, decoded, spec, entry, setup, None)
            .map_err(|(_, error, _)| error)
    }

    /// The one cell executor: both phases of one cell, each a job on a
    /// fresh VM sharing `decoded`, run on up to [`Self::jobs`] threads
    /// and then correlated. `fuel` clamps each phase's fuel (the
    /// `sweep.cell` failpoint's injected exhaustion). Serial at `jobs ≤
    /// 1`; the first failure stops the queue, and the baseline phase's
    /// failure wins.
    pub(crate) fn execute(
        &self,
        module: &Module,
        decoded: &Arc<DecodedModule>,
        spec: &PlatformSpec,
        entry: &str,
        setup: SetupFn,
        fuel: Option<u64>,
    ) -> Result<RooflineRun, PhaseTrap> {
        let jobs = self.jobs.unwrap_or(1);
        let mut phases = queue::try_run_jobs(Vec::from(Phase::BOTH), jobs, |_, phase| {
            let mut vm = Vm::new(module, Core::new(spec.clone()));
            vm.set_decoded(Arc::clone(decoded));
            vm.set_engine(self.cfg.engine);
            if let Some(f) = fuel {
                vm.set_fuel(f);
            }
            vm.roofline.instrumented = phase.instrumented();
            let timed = |vm: &mut Vm| -> Result<u64, VmError> {
                let args = setup(vm)?;
                let t0 = vm.core.cycles();
                vm.call(entry, &args)?;
                Ok(vm.core.cycles() - t0)
            };
            let total_cycles = timed(&mut vm).map_err(|e| (phase, e, vm.trap_info().cloned()))?;
            Ok(PhaseOutput {
                regions: vm.roofline.regions(),
                obs: PhaseObservables {
                    total_cycles,
                    exec: vm.stats(),
                    instructions: vm.core.instructions(),
                    pmu: (0..NUM_COUNTERS).map(|i| vm.core.pmu().read(i)).collect(),
                    unbalanced_ends: vm.roofline.unbalanced_ends(),
                },
            })
        })?;
        let inst = phases.pop().expect("instrumented phase ran");
        let base = phases.pop().expect("baseline phase ran");
        Ok(correlate(module, spec, base, inst))
    }

    /// Run a cell matrix under supervision: panic isolation, retry with
    /// quarantine per [`Self::policy`], trap-site reporting, and
    /// (optionally) checkpoint journaling with resume. Completed cells
    /// are bit-identical to fault-free [`Self::run`] calls over the
    /// same cells.
    ///
    /// # Errors
    /// Only journal *open* problems surface here; everything that
    /// happens while sweeping is reported per cell in the returned
    /// report.
    pub fn run_supervised(&self, cells: &[RooflineJob]) -> Result<SupervisedSweep, JournalError> {
        supervised_sweep_hooked(cells, self, SweepHooks::default())
    }

    /// [`Self::run_supervised`] with streaming and cancellation: every
    /// completed cell (including journal-resumed ones) is handed to
    /// `on_cell` the moment it exists — on whichever worker thread
    /// produced it — and a set `cancel` flag fails the next cell as
    /// fatal so still-queued cells skip. This is the serve daemon's
    /// incremental-results bridge.
    ///
    /// # Errors
    /// See [`Self::run_supervised`].
    pub fn run_supervised_streaming(
        &self,
        cells: &[RooflineJob],
        on_cell: &(dyn Fn(usize, &RooflineRun) + Sync),
        cancel: &std::sync::atomic::AtomicBool,
    ) -> Result<SupervisedSweep, JournalError> {
        supervised_sweep_hooked(
            cells,
            self,
            SweepHooks {
                on_cell: Some(on_cell),
                cancel: Some(cancel),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mperf_ir::compile;
    use mperf_ir::transform::instrument::{InstrumentOptions, InstrumentPass};
    use mperf_ir::transform::PassManager;

    const TRIAD: &str = r#"
        fn triad(a: *f32, b: *f32, c: *f32, n: i64, k: f32) {
            for (var i: i64 = 0; i < n; i = i + 1) {
                a[i] = b[i] + k * c[i];
            }
        }
    "#;

    fn instrumented_module(src: &str) -> Module {
        let mut m = compile("t", src).unwrap();
        PassManager::standard().run(&mut m);
        InstrumentPass::new(InstrumentOptions::default()).run(&mut m);
        m
    }

    fn triad_setup(n: u64) -> impl Fn(&mut Vm) -> Result<Vec<Value>, VmError> + Sync {
        move |vm: &mut Vm| {
            let a = vm.mem.alloc(n * 4, 64)?;
            let b = vm.mem.alloc(n * 4, 64)?;
            let c = vm.mem.alloc(n * 4, 64)?;
            for i in 0..n {
                vm.mem.write_f32(b + i * 4, i as f32)?;
                vm.mem.write_f32(c + i * 4, 2.0)?;
            }
            Ok(vec![
                Value::I64(a as i64),
                Value::I64(b as i64),
                Value::I64(c as i64),
                Value::I64(n as i64),
                Value::F32(3.0),
            ])
        }
    }

    #[test]
    fn triad_measurement_matches_static_counts() {
        let n = 4096u64;
        let module = instrumented_module(TRIAD);
        let run = RooflineRequest::new()
            .run(
                &module,
                &mperf_sim::PlatformSpec::x60(),
                "triad",
                &triad_setup(n),
            )
            .unwrap();
        assert_eq!(run.regions.len(), 1);
        let r = &run.regions[0];
        // Per iteration: load b + load c (8 bytes), store a (4), fma (2).
        assert_eq!(r.flops, 2 * n, "fma = 2 flops/iter");
        assert_eq!(r.loaded_bytes, 8 * n);
        assert_eq!(r.stored_bytes, 4 * n);
        assert_eq!(r.invocations, 1);
        // AI = 2 / 12.
        assert!((r.ai() - 2.0 / 12.0).abs() < 1e-9, "{}", r.ai());
        assert!(r.baseline_cycles > 0);
        assert!(r.gflops(1_600_000_000) > 0.0);
        assert_eq!(r.unbalanced_ends, 0, "healthy instrumentation");
        assert_eq!(run.unbalanced_ends, 0);
    }

    #[test]
    fn instrumentation_overhead_is_visible_but_bounded() {
        let module = instrumented_module(TRIAD);
        let run = RooflineRequest::new()
            .run(
                &module,
                &mperf_sim::PlatformSpec::x60(),
                "triad",
                &triad_setup(2048),
            )
            .unwrap();
        let r = &run.regions[0];
        let ovh = r.overhead_factor();
        assert!(ovh > 1.05, "counters cost something: {ovh}");
        assert!(ovh < 4.0, "but not absurdly much: {ovh}");
    }

    #[test]
    fn baseline_phase_runs_uninstrumented_code() {
        let module = instrumented_module(TRIAD);
        let run = RooflineRequest::new()
            .run(
                &module,
                &mperf_sim::PlatformSpec::x60(),
                "triad",
                &triad_setup(2048),
            )
            .unwrap();
        assert!(
            run.baseline_total_cycles < run.instrumented_total_cycles,
            "{} vs {}",
            run.baseline_total_cycles,
            run.instrumented_total_cycles
        );
        // The phase fingerprints carry the same cycles plus exec stats.
        assert_eq!(run.baseline.total_cycles, run.baseline_total_cycles);
        assert_eq!(run.instrumented.total_cycles, run.instrumented_total_cycles);
        assert!(run.baseline.exec.mir_ops < run.instrumented.exec.mir_ops);
        assert_eq!(run.baseline.pmu.len(), NUM_COUNTERS);
    }

    #[test]
    fn multiple_invocations_accumulate() {
        let src = r#"
            fn kernel(a: *f64, n: i64) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    a[i] = a[i] * 1.5 + 0.5;
                }
            }
            fn driver(a: *f64, n: i64, reps: i64) {
                for (var r: i64 = 0; r < reps; r = r + 1) {
                    kernel(a, n);
                }
            }
        "#;
        let module = instrumented_module(src);
        let setup = |vm: &mut Vm| -> Result<Vec<Value>, VmError> {
            let a = vm.mem.alloc(1024 * 8, 64)?;
            Ok(vec![Value::I64(a as i64), Value::I64(1024), Value::I64(5)])
        };
        let run = RooflineRequest::new()
            .run(&module, &mperf_sim::PlatformSpec::c910(), "driver", &setup)
            .unwrap();
        // The kernel loop region is invoked 5 times. (The driver loop
        // contains a call, so it is flagged; filter to the leaf region.)
        let leaf = run
            .regions
            .iter()
            .find(|r| r.source_func == "kernel")
            .expect("kernel region measured");
        assert_eq!(leaf.invocations, 5);
        assert_eq!(leaf.flops, 5 * 1024 * 2);
        let driver_region = run
            .regions
            .iter()
            .find(|r| r.source_func == "driver")
            .expect("driver region measured");
        assert!(driver_region.has_calls);
    }

    #[test]
    fn determinism_across_phases() {
        // Both phases see identical data; a data-dependent kernel must
        // produce identical region invocation counts.
        let src = r#"
            fn count_positive(a: *f64, n: i64) -> i64 {
                var c: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    if (a[i] > 0.0) { c = c + 1; }
                }
                return c;
            }
        "#;
        let module = instrumented_module(src);
        let setup = |vm: &mut Vm| -> Result<Vec<Value>, VmError> {
            let a = vm.mem.alloc(512 * 8, 64)?;
            for i in 0..512u64 {
                let v = if i % 3 == 0 { -1.0 } else { 1.0 };
                vm.mem.write_f64(a + i * 8, v)?;
            }
            Ok(vec![Value::I64(a as i64), Value::I64(512)])
        };
        let run = RooflineRequest::new()
            .run(
                &module,
                &mperf_sim::PlatformSpec::x60(),
                "count_positive",
                &setup,
            )
            .unwrap();
        assert_eq!(run.regions[0].invocations, 1);
        assert!(run.regions[0].loaded_bytes >= 512 * 8);
    }

    #[test]
    fn parallel_phases_match_serial() {
        let module = instrumented_module(TRIAD);
        let setup = triad_setup(1024);
        let spec = mperf_sim::PlatformSpec::x60();
        let request = RooflineRequest::new();
        let serial = request.run(&module, &spec, "triad", &setup).unwrap();
        let parallel = request
            .clone()
            .jobs(2)
            .run(&module, &spec, "triad", &setup)
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stray_loop_end_is_surfaced_in_the_report() {
        use mperf_ir::{Callee, Inst, Operand};
        let mut module = instrumented_module(TRIAD);
        // Break the instrumentation on purpose: prepend a stray
        // `mperf.loop_end(<region 0>)` to the entry function, before any
        // `loop_begin` has run.
        let region_id = module.loop_regions[0].id;
        let fid = module.func_id("triad").unwrap();
        let f = module.func_mut(fid);
        let entry = f.entry();
        f.block_mut(entry).insts.insert(
            0,
            Inst::Call {
                dsts: vec![],
                callee: Callee::Host("mperf.loop_end".into()),
                args: vec![Operand::I64(region_id as i64)],
            },
        );
        let run = RooflineRequest::new()
            .run(
                &module,
                &mperf_sim::PlatformSpec::x60(),
                "triad",
                &triad_setup(128),
            )
            .unwrap();
        // One stray end per phase (the entry function runs once per phase).
        assert_eq!(run.unbalanced_ends, 2, "both phases see the stray end");
        let r = run
            .regions
            .iter()
            .find(|r| r.region_id == region_id)
            .expect("region still measured");
        assert_eq!(r.unbalanced_ends, 2);
    }
}
