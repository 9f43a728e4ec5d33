//! The roofline sweep-scaling harness: the full `platform × workload`
//! roofline matrix driven through the supervised sweep at several
//! worker counts (and through worker processes), for
//! `bench_trajectory`'s `BENCH_sweep.json` section.
//!
//! Every cell is one workload compiled (instrumented) for one platform,
//! run as one supervised job (both of its phases). `threads = 1` is the
//! serial sweep the parallel timings are compared — and
//! bit-identity-checked — against.

use miniperf::{
    run_roofline_sweep_sharded, RooflineJob, RooflineRequest, SetupSpec, ShardedCellSpec,
    ShardedSweep, ShardedSweepOptions, SupervisedSweep,
};
use mperf_ir::Module;
use mperf_sim::Platform;
use mperf_sweep::{JournalError, RetryPolicy, WorkerCmd};
use mperf_vm::{ExecConfig, Value, Vm, VmError};
use mperf_workloads::{matmul::MatmulBench, stencil::StencilBench, stream::StreamBench};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The per-cell setup dispatch (bench param structs are all `Copy`).
#[derive(Debug, Clone, Copy)]
enum CellSetup {
    Matmul(MatmulBench),
    Stencil(StencilBench),
    Triad(StreamBench),
}

/// One owned cell of the sweep matrix ([`RooflineJob`] borrows it).
struct Cell {
    /// Workload name, as compiled (also names the cell in a
    /// [`ShardedCellSpec`] so worker processes rebuild it identically).
    name: &'static str,
    source: &'static str,
    module: Module,
    /// Decoded once at build time; every `run_at` shares it, so the
    /// timed region measures execution, not repeated decodes.
    decoded: std::sync::Arc<mperf_vm::DecodedModule>,
    platform: Platform,
    entry: &'static str,
    setup: CellSetup,
}

/// The full sweep matrix: every roofline workload on every platform
/// model, compiled once up front.
pub struct SweepMatrix {
    cells: Vec<Cell>,
}

impl SweepMatrix {
    /// Compile the matrix at `scale` (1.0 = the sizes the checked-in
    /// `BENCH_sweep.json` was generated with).
    ///
    /// # Panics
    /// Panics if an internal workload fails to compile — a bug.
    pub fn build(scale: f64) -> SweepMatrix {
        let scaled = |base: usize| ((base as f64 * scale) as usize).max(8);
        let workloads: [(&'static str, &'static str, &'static str, CellSetup); 3] = [
            (
                "matmul",
                mperf_workloads::matmul::SOURCE,
                mperf_workloads::matmul::ENTRY,
                CellSetup::Matmul(MatmulBench {
                    n: scaled(64),
                    tile: 32.min(scaled(32)),
                    seed: 0x3a7_5eed,
                }),
            ),
            (
                "stencil",
                mperf_workloads::stencil::SOURCE,
                mperf_workloads::stencil::ENTRY,
                CellSetup::Stencil(StencilBench {
                    n: scaled(96),
                    steps: 4,
                }),
            ),
            (
                "stream-triad",
                mperf_workloads::stream::SOURCE,
                "triad",
                CellSetup::Triad(StreamBench {
                    elems: scaled(1 << 15) as u64,
                }),
            ),
        ];
        let mut cells = Vec::new();
        for (name, source, entry, setup) in workloads {
            for platform in Platform::ALL {
                let module = mperf_workloads::compile_for(name, source, platform, true)
                    .expect("sweep workload compiles");
                let decoded = mperf_vm::decode_module(&module);
                cells.push(Cell {
                    name,
                    source,
                    module,
                    decoded,
                    platform,
                    entry,
                    setup,
                });
            }
        }
        SweepMatrix { cells }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix is empty (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn jobs(&self) -> Vec<RooflineJob<'_>> {
        self.cells
            .iter()
            .map(|c| {
                let setup = c.setup;
                RooflineJob {
                    module: &c.module,
                    decoded: Some(std::sync::Arc::clone(&c.decoded)),
                    spec: c.platform.spec(),
                    entry: c.entry.to_string(),
                    setup: Box::new(move |vm: &mut Vm| -> Result<Vec<Value>, VmError> {
                        match setup {
                            CellSetup::Matmul(b) => b.setup(vm),
                            CellSetup::Stencil(b) => b.setup(vm),
                            CellSetup::Triad(b) => b.setup_triad(vm),
                        }
                    }),
                }
            })
            .collect()
    }

    /// Run the full sweep under the fault-tolerant supervisor with
    /// `threads` cell workers, optionally checkpointing every completed
    /// cell to `journal` and (with `resume`) satisfying
    /// already-journaled cells without re-executing them. Completed
    /// cells are bit-identical at any `threads`.
    ///
    /// # Errors
    /// Journal open failures (bad path, foreign file); per-cell
    /// failures are reported inside the returned [`SupervisedSweep`].
    pub fn run_supervised(
        &self,
        threads: usize,
        journal: Option<PathBuf>,
        resume: bool,
    ) -> Result<(Duration, SupervisedSweep), JournalError> {
        let jobs = self.jobs();
        let request = RooflineRequest::new()
            .jobs(threads)
            .journal_opt(journal)
            .resume(resume);
        let t0 = Instant::now();
        let sweep = request.run_supervised(&jobs)?;
        Ok((t0.elapsed(), sweep))
    }

    /// The matrix as self-contained cell specs for the multi-process
    /// sharded sweep (workers recompile from source, so the specs carry
    /// everything [`SweepMatrix::build`] knew).
    fn sharded_specs(&self) -> Vec<ShardedCellSpec> {
        self.cells
            .iter()
            .map(|c| ShardedCellSpec {
                workload: c.name.to_string(),
                source: c.source.to_string(),
                entry: c.entry.to_string(),
                platform: c.platform,
                setup: match c.setup {
                    CellSetup::Matmul(b) => SetupSpec::Matmul {
                        n: b.n as u64,
                        tile: b.tile as u64,
                        seed: b.seed,
                    },
                    CellSetup::Stencil(b) => SetupSpec::Stencil {
                        n: b.n as u64,
                        steps: b.steps as u64,
                    },
                    CellSetup::Triad(b) => SetupSpec::StreamTriad { elems: b.elems },
                },
            })
            .collect()
    }

    /// Run the full sweep across `shards` worker *processes* (spawned
    /// from `worker`, which must dispatch into
    /// [`miniperf::worker_main`]). Completed cells are bit-identical to
    /// [`SweepMatrix::run_supervised`].
    ///
    /// # Errors
    /// Journal errors only (none are possible here: no journal is
    /// attached); per-cell failures live in the returned
    /// [`ShardedSweep`].
    pub fn run_sharded(
        &self,
        shards: usize,
        worker: WorkerCmd,
    ) -> Result<(Duration, ShardedSweep), JournalError> {
        let opts = ShardedSweepOptions {
            shards,
            cfg: ExecConfig::default(),
            policy: RetryPolicy::default(),
            journal: None,
            resume: false,
            deadline_ticks: 600,
            tick: Duration::from_millis(50),
            worker,
        };
        let t0 = Instant::now();
        let sweep = run_roofline_sweep_sharded(&self.sharded_specs(), &opts)?;
        Ok((t0.elapsed(), sweep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniperf::RooflineRun;

    fn runs(sweep: SupervisedSweep) -> Vec<RooflineRun> {
        assert!(sweep.report.all_ok());
        sweep.report.results.into_iter().flatten().collect()
    }

    #[test]
    fn tiny_matrix_is_deterministic_across_thread_counts() {
        let matrix = SweepMatrix::build(0.15);
        assert_eq!(matrix.len(), 12, "3 workloads × 4 platforms");
        let (_, serial) = matrix.run_supervised(1, None, false).unwrap();
        let (_, parallel) = matrix.run_supervised(4, None, false).unwrap();
        assert_eq!(runs(serial), runs(parallel));
    }

    #[test]
    fn supervised_matches_direct_and_resumes_from_journal() {
        let matrix = SweepMatrix::build(0.15);
        let (_, direct) = matrix.run_supervised(1, None, false).unwrap();
        let direct = runs(direct);
        let path = std::env::temp_dir().join(format!("mperf-bench-jrn-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (_, sweep) = matrix.run_supervised(2, Some(path.clone()), false).unwrap();
        assert!(sweep.resumed.is_empty());
        assert_eq!(runs(sweep), direct);
        // A resume pass satisfies every cell from the journal,
        // byte-identical to re-execution.
        let (_, resumed) = matrix.run_supervised(1, Some(path.clone()), true).unwrap();
        assert_eq!(resumed.resumed.len(), matrix.len());
        assert_eq!(runs(resumed), direct);
        let _ = std::fs::remove_file(&path);
    }
}
