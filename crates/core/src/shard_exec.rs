//! Process-sharded roofline sweeps: the `miniperf sweep-worker` side
//! and the supervisor glue over [`mperf_sweep::shard`].
//!
//! The supervisor serializes each pending cell as a self-contained
//! [`ShardedCellSpec`] (workload source, entry, platform, operand
//! staging recipe, and [`ExecConfig`]) so a worker needs nothing but
//! the payload to reproduce the cell bit-identically: compilation,
//! decode, and simulation are all deterministic. Workers keep a warm
//! decode cache keyed by `(workload, source, platform, config)` —
//! cells sharing a module pay for compilation + decode once per worker
//! incarnation — and run each cell on the same cell executor as the
//! in-process sweep.
//!
//! The supervisor runs inside the same journaled-sweep frame as the
//! in-process sweep (`sweep_supervisor::SweepFrame`: one `cell_key`,
//! one resume and fold path; it compiles the specs locally anyway, to
//! price cost-ordered dispatch), so `--journal`/`--resume` compose
//! across modes: a serial sweep's journal resumes a sharded sweep
//! byte-identically and vice versa. The journal fd stays in the
//! supervisor — std opens files `O_CLOEXEC` on Linux, so worker
//! children never inherit it — and the supervisor alone appends. A
//! crc-clean result that does not decode burns an attempt like a
//! corrupt frame and never reaches the journal.
//!
//! Failpoints (feature `failpoints`), all keyed by
//! [`mperf_sweep::proto::fault_key`] (`attempt << 32 | cell`) so a
//! plan can fault the first attempt and let the retry through:
//! `worker.exit` kills the worker process (`Exit` = SIGKILL, `Panic` =
//! abort, anything else = exit 17), `worker.stall` hangs it past any
//! deadline, and `ipc.frame` (in `mperf_sweep::proto`) corrupts a
//! response frame. Plans reach workers via [`mperf_fault::ENV_VAR`].

use crate::cli::{dec_exec, enc_exec};
use crate::roofline_runner::{BoxedSetupFn, RooflineRequest, RooflineRun};
use crate::sweep_supervisor::{
    classify_cell_error, decode_run, encode_run, SweepCellError, SweepFrame,
};
use mperf_ir::Module;
use mperf_sim::{Platform, PlatformSpec};
use mperf_sweep::journal::JournalError;
use mperf_sweep::proto::{fault_key, serve_worker, WorkerFailure};
use mperf_sweep::shard::{run_sharded, ShardCell, ShardCellError, ShardOptions, WorkerCmd};
use mperf_sweep::wire::{fnv1a, Dec, Enc, WireError};
use mperf_sweep::{CellFailure, RetryPolicy};
use mperf_vm::{decode_module_cfg, DecodedModule, ExecConfig, Value, Vm, VmError};
use mperf_workloads::{matmul::MatmulBench, stencil::StencilBench, stream::StreamBench};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Cell-spec payload schema; bumped on any codec change (the protocol
/// handshake already gates the frame layer — this versions the cell
/// vocabulary inside it). Schema 2 carries the two-field
/// [`ExecConfig`] wire form.
const CELL_SCHEMA: u32 = 2;

/// How a worker stages a cell's guest operands. A recipe, not a
/// closure: it must cross the process boundary and reproduce the
/// staging bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupSpec {
    /// The CLI triad staging (`miniperf roofline`/`sweep`): `b[i] = i`,
    /// `c[i] = 0.25`, scalar `k = 3.0`.
    CliTriad { n: u64 },
    /// [`StreamBench::setup_triad`].
    StreamTriad { elems: u64 },
    /// [`MatmulBench::setup`].
    Matmul { n: u64, tile: u64, seed: u64 },
    /// [`StencilBench::setup`].
    Stencil { n: u64, steps: u64 },
}

/// One cell of a sharded sweep, self-contained enough for a worker
/// process to reproduce it bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCellSpec {
    /// Compilation unit name (enters the journal key via the module).
    pub workload: String,
    /// Kernel source text.
    pub source: String,
    /// Entry function.
    pub entry: String,
    pub platform: Platform,
    pub setup: SetupSpec,
}

/// The CLI triad staging shared by the serial and sharded sweep paths
/// (bit-identity across modes requires one implementation). An `n`
/// whose arrays cannot fit guest memory fails with
/// [`VmError::OutOfBounds`].
pub fn cli_triad_setup(n: u64) -> impl Fn(&mut Vm) -> Result<Vec<Value>, VmError> + Send + Sync {
    move |vm: &mut Vm| {
        // `n` arrives from clients: an array size that overflows `u64`
        // saturates, and no guest memory can hold `u64::MAX` bytes.
        let bytes = n.saturating_mul(8);
        let a = vm.mem.alloc(bytes, 64)?;
        let b = vm.mem.alloc(bytes, 64)?;
        let c = vm.mem.alloc(bytes, 64)?;
        for i in 0..n {
            vm.mem.write_f64(b + i * 8, i as f64)?;
            vm.mem.write_f64(c + i * 8, 0.25)?;
        }
        Ok(vec![
            Value::I64(a as i64),
            Value::I64(b as i64),
            Value::I64(c as i64),
            Value::I64(n as i64),
            Value::F64(3.0),
        ])
    }
}

fn setup_closure(setup: &SetupSpec) -> BoxedSetupFn<'static> {
    match *setup {
        SetupSpec::CliTriad { n } => Box::new(cli_triad_setup(n)),
        SetupSpec::StreamTriad { elems } => {
            let bench = StreamBench { elems };
            Box::new(move |vm: &mut Vm| bench.setup_triad(vm))
        }
        SetupSpec::Matmul { n, tile, seed } => {
            let bench = MatmulBench {
                n: n as usize,
                tile: tile as usize,
                seed,
            };
            Box::new(move |vm: &mut Vm| bench.setup(vm))
        }
        SetupSpec::Stencil { n, steps } => {
            let bench = StencilBench {
                n: n as usize,
                steps: steps as usize,
            };
            Box::new(move |vm: &mut Vm| bench.setup(vm))
        }
    }
}

/// Encode one cell request payload (spec + config).
pub fn encode_cell(spec: &ShardedCellSpec, cfg: ExecConfig) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(CELL_SCHEMA);
    e.str(&spec.workload);
    e.str(&spec.source);
    e.str(&spec.entry);
    e.str(spec.platform.spec().name);
    match spec.setup {
        SetupSpec::CliTriad { n } => {
            e.u8(0);
            e.u64(n);
        }
        SetupSpec::StreamTriad { elems } => {
            e.u8(1);
            e.u64(elems);
        }
        SetupSpec::Matmul { n, tile, seed } => {
            e.u8(2);
            e.u64(n);
            e.u64(tile);
            e.u64(seed);
        }
        SetupSpec::Stencil { n, steps } => {
            e.u8(3);
            e.u64(n);
            e.u64(steps);
        }
    }
    enc_exec(&mut e, cfg);
    e.into_bytes()
}

/// Decode a cell request payload.
///
/// # Errors
/// A description of the malformed or version-skewed field. The worker
/// reports this as a *fatal* failure: a supervisor/worker pair that
/// disagrees on the cell vocabulary cannot make progress.
pub fn decode_cell(bytes: &[u8]) -> Result<(ShardedCellSpec, ExecConfig), String> {
    let wire = |e: WireError| format!("malformed cell payload: {e}");
    let mut d = Dec::new(bytes);
    let schema = d.u32().map_err(wire)?;
    if schema != CELL_SCHEMA {
        return Err(format!(
            "cell schema mismatch: payload v{schema}, worker v{CELL_SCHEMA}"
        ));
    }
    let workload = d.str().map_err(wire)?;
    let source = d.str().map_err(wire)?;
    let entry = d.str().map_err(wire)?;
    let platform_name = d.str().map_err(wire)?;
    let platform = Platform::ALL
        .iter()
        .copied()
        .find(|p| p.spec().name == platform_name)
        .ok_or_else(|| format!("unknown platform `{platform_name}`"))?;
    let setup = match d.u8().map_err(wire)? {
        0 => SetupSpec::CliTriad {
            n: d.u64().map_err(wire)?,
        },
        1 => SetupSpec::StreamTriad {
            elems: d.u64().map_err(wire)?,
        },
        2 => SetupSpec::Matmul {
            n: d.u64().map_err(wire)?,
            tile: d.u64().map_err(wire)?,
            seed: d.u64().map_err(wire)?,
        },
        3 => SetupSpec::Stencil {
            n: d.u64().map_err(wire)?,
            steps: d.u64().map_err(wire)?,
        },
        t => return Err(format!("unknown setup tag {t}")),
    };
    let cfg = dec_exec(&mut d).map_err(wire)?;
    d.finish().map_err(wire)?;
    Ok((
        ShardedCellSpec {
            workload,
            source,
            entry,
            platform,
            setup,
        },
        cfg,
    ))
}

/// Compile one spec the way every sweep path does (standard passes,
/// platform vectorization, instrumentation, verification).
fn compile_spec(spec: &ShardedCellSpec) -> Result<Module, String> {
    mperf_workloads::compile_for(&spec.workload, &spec.source, spec.platform, true)
        .map_err(|e| format!("compile failed: {e}"))
}

/// Kill this process the way a segfault or the OOM killer would: no
/// unwinding, no cleanup, no exit status choreography.
#[cfg(feature = "failpoints")]
fn kill_self_hard() -> ! {
    let pid = std::process::id();
    let _ = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {pid}"))
        .status();
    // SIGKILL is not deliverable to ourselves on some setups (or `sh`
    // is missing); abort still dies by signal.
    std::process::abort();
}

struct WarmModule {
    module: Module,
    decoded: Arc<DecodedModule>,
}

/// The hidden `miniperf sweep-worker` entry point: serve cells over
/// stdin/stdout until the supervisor shuts us down. Returns the
/// process exit code.
///
/// A fault plan in [`mperf_fault::ENV_VAR`] is armed for the life of
/// the process (each respawned incarnation re-arms it with fresh hit
/// counts — which is why the worker sites key by attempt). A plan in
/// the environment of a build without `failpoints` is refused loudly:
/// running *unarmed* under a test that expects faults would test
/// nothing.
pub fn worker_main() -> i32 {
    if let Ok(text) = std::env::var(mperf_fault::ENV_VAR) {
        #[cfg(feature = "failpoints")]
        match mperf_fault::FaultPlan::from_env(&text) {
            Ok(plan) => mperf_fault::arm_process(plan),
            Err(e) => {
                eprintln!("sweep-worker: invalid {}: {e}", mperf_fault::ENV_VAR);
                return 2;
            }
        }
        #[cfg(not(feature = "failpoints"))]
        {
            eprintln!(
                "sweep-worker: {} is set but this binary was built without \
                 the `failpoints` feature",
                mperf_fault::ENV_VAR
            );
            drop(text);
            return 2;
        }
    }

    // Warm decode shared across the cells this worker executes: keyed
    // by everything that determines the compiled module + decode.
    let mut warm: HashMap<u64, WarmModule> = HashMap::new();

    let served = serve_worker(
        std::io::stdin().lock(),
        std::io::stdout().lock(),
        |index, attempt, payload| {
            let key = fault_key(index, attempt);
            if let Some(kind) = mperf_fault::hit("worker.exit", key) {
                #[cfg(feature = "failpoints")]
                match kind {
                    mperf_fault::FaultKind::Exit => kill_self_hard(),
                    mperf_fault::FaultKind::Panic => std::process::abort(),
                    _ => std::process::exit(17),
                }
                #[cfg(not(feature = "failpoints"))]
                let _ = kind; // unreachable: hit() is the const-None stub
            }
            if mperf_fault::hit("worker.stall", key).is_some() {
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }

            let (spec, cfg) = decode_cell(payload).map_err(|msg| WorkerFailure {
                class: mperf_sweep::FailureClass::Fatal,
                message: msg,
                trap: None,
            })?;
            let warm_key = {
                let mut e = Enc::new();
                e.str(&spec.workload);
                e.str(&spec.source);
                e.str(spec.platform.spec().name);
                e.str(&cfg.describe());
                fnv1a(&e.into_bytes())
            };
            if let std::collections::hash_map::Entry::Vacant(slot) = warm.entry(warm_key) {
                let module = compile_spec(&spec).map_err(|msg| WorkerFailure {
                    class: mperf_sweep::FailureClass::Permanent,
                    message: msg,
                    trap: None,
                })?;
                let decoded = decode_module_cfg(&module, cfg.decode());
                slot.insert(WarmModule { module, decoded });
            }
            let wm = &warm[&warm_key];

            let setup = setup_closure(&spec.setup);
            let run = RooflineRequest::new()
                .config(cfg)
                .execute(
                    &wm.module,
                    &wm.decoded,
                    &spec.platform.spec(),
                    &spec.entry,
                    &*setup,
                    None,
                )
                .map_err(|(phase, error, trap)| {
                    let remote = trap.clone();
                    let err = SweepCellError::Trap { phase, error, trap };
                    WorkerFailure {
                        class: classify_cell_error(&err),
                        message: err.to_string(),
                        trap: remote,
                    }
                })?;
            Ok(encode_run(&run))
        },
    );
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sweep-worker: protocol error: {e}");
            1
        }
    }
}

/// Options for [`run_roofline_sweep_sharded`].
pub struct ShardedSweepOptions {
    /// Worker process count.
    pub shards: usize,
    /// Engine configuration, shipped inside every cell payload.
    pub cfg: ExecConfig,
    pub policy: RetryPolicy,
    /// Checkpoint journal path (supervisor-side only; workers never
    /// see the fd).
    pub journal: Option<PathBuf>,
    pub resume: bool,
    /// Per-cell deadline in heartbeat ticks.
    pub deadline_ticks: u32,
    /// Wall-clock length of one heartbeat tick.
    pub tick: Duration,
    /// How to launch workers (normally the current binary with the
    /// hidden `sweep-worker` subcommand).
    pub worker: WorkerCmd,
}

/// Outcome of a sharded sweep (the process-level sibling of
/// `SupervisedSweep`).
pub struct ShardedSweep {
    /// `results[i]` is cell `i`'s run; completed slots are
    /// bit-identical to a fault-free serial sweep at any shard count.
    pub results: Vec<Option<RooflineRun>>,
    /// Cells that ultimately failed, sorted by index.
    pub failed: Vec<CellFailure<ShardCellError>>,
    /// Every granted retry as `(cell index, attempt granted)`, sorted
    /// (see [`mperf_sweep::ShardReport::retried`]).
    pub retried: Vec<(usize, u32)>,
    /// Cells a fatal error cancelled before they could finish, sorted.
    pub skipped: Vec<usize>,
    /// Cells satisfied from the journal instead of executed.
    pub resumed: Vec<usize>,
    /// Worker kills due to crash/stall/corruption.
    pub respawns: u32,
    /// Poison cells (quarantined for repeatedly killing workers).
    pub poisoned: Vec<usize>,
    /// Fatal condition that cancelled the sweep, if any.
    pub fatal: Option<String>,
}

impl ShardedSweep {
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    pub fn all_ok(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty() && self.completed() == self.results.len()
    }
}

/// Run a roofline sweep across worker processes: crash/stall/corruption
/// recovery, poison-cell quarantine, cost-ordered dispatch, and
/// (optionally) journaling + resume — byte-compatible with the
/// in-process supervised sweep's journal.
///
/// # Errors
/// Journal *open* problems only; everything that happens while
/// sweeping is reported in the returned [`ShardedSweep`].
///
/// # Panics
/// If a spec does not compile (sweep specs are built from known-good
/// workload sources).
pub fn run_roofline_sweep_sharded(
    specs: &[ShardedCellSpec],
    opts: &ShardedSweepOptions,
) -> Result<ShardedSweep, JournalError> {
    // Compile locally: the journal key hashes the module text, and the
    // module prices cost-ordered dispatch. (Workers recompile — the
    // pipeline is deterministic, so both sides hold the same module.)
    let texts: Vec<String> = specs
        .iter()
        .map(|s| compile_spec(s).expect("sweep cell compiles").to_string())
        .collect();
    let plats: Vec<PlatformSpec> = specs.iter().map(|s| s.platform.spec()).collect();
    let frame = SweepFrame::open(
        opts.journal.as_deref(),
        opts.resume,
        opts.cfg,
        plats
            .iter()
            .zip(specs)
            .zip(&texts)
            .map(|((p, s), text)| (p, s.entry.as_str(), text.as_str())),
    )?;

    // Cost-ordered dispatch: last-known runtime (total simulated
    // cycles) from the journal when available, module size otherwise.
    let cells: Vec<ShardCell> = frame
        .pending
        .iter()
        .map(|&i| ShardCell {
            payload: encode_cell(&specs[i], opts.cfg),
            cost: frame
                .journaled(i, &plats[i])
                .map(|r| r.baseline_total_cycles + r.instrumented_total_cycles)
                .unwrap_or(texts[i].len() as u64),
        })
        .collect();

    let shard_opts = ShardOptions {
        shards: opts.shards,
        policy: opts.policy.clone(),
        deadline_ticks: opts.deadline_ticks,
        tick: opts.tick,
    };
    let mut runs = vec![None; cells.len()];
    let mut report = run_sharded(
        &cells,
        &shard_opts,
        |_slot| opts.worker.spawn(),
        // The sink validates, then checkpoints; the supervisor alone
        // touches the journal. An undecodable result is retried like a
        // corrupt frame; a failed append is fatal.
        |j, payload| {
            let i = frame.pending[j];
            let run = decode_run(payload, &plats[i]).map_err(|e| ShardCellError::Frame {
                detail: format!("undecodable worker result: {e}"),
            })?;
            frame
                .append(i, payload)
                .map_err(|e| ShardCellError::Fatal {
                    detail: e.to_string(),
                })?;
            runs[j] = Some(run);
            Ok(())
        },
    );

    let indexes = report
        .failed
        .iter_mut()
        .map(|f| &mut f.index)
        .chain(report.retried.iter_mut().map(|(i, _)| i))
        .chain(&mut report.skipped)
        .chain(&mut report.poisoned);
    let (results, resumed) = frame.fold(runs, indexes);
    Ok(ShardedSweep {
        results,
        failed: report.failed,
        retried: report.retried,
        skipped: report.skipped,
        resumed,
        respawns: report.respawns,
        poisoned: report.poisoned,
        fatal: report.fatal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(platform: Platform) -> ShardedCellSpec {
        ShardedCellSpec {
            workload: "cli".into(),
            source: "fn triad(a: *f64, b: *f64, c: *f64, n: i64, k: f64) { \
                     for (var i: i64 = 0; i < n; i = i + 1) { a[i] = b[i] + k * c[i]; } }"
                .into(),
            entry: "triad".into(),
            platform,
            setup: SetupSpec::CliTriad { n: 512 },
        }
    }

    #[test]
    fn cell_codec_roundtrips_every_setup_kind() {
        let setups = [
            SetupSpec::CliTriad { n: 32_768 },
            SetupSpec::StreamTriad { elems: 1024 },
            SetupSpec::Matmul {
                n: 64,
                tile: 8,
                seed: 42,
            },
            SetupSpec::Stencil { n: 128, steps: 8 },
        ];
        for platform in Platform::ALL {
            for setup in &setups {
                let mut s = spec(platform);
                s.setup = setup.clone();
                for cfg in [
                    ExecConfig::default(),
                    ExecConfig {
                        engine: mperf_vm::Engine::Reference,
                        regalloc: false,
                    },
                ] {
                    let bytes = encode_cell(&s, cfg);
                    let (back, back_cfg) = decode_cell(&bytes).unwrap();
                    assert_eq!(back, s);
                    assert_eq!(back_cfg, cfg);
                    assert_eq!(encode_cell(&back, back_cfg), bytes, "byte-identical");
                }
            }
        }
    }

    #[test]
    fn cell_decode_rejects_skew_and_garbage() {
        let bytes = encode_cell(&spec(Platform::SpacemitX60), ExecConfig::default());
        // Schema bump.
        let mut bumped = bytes.clone();
        bumped[0] ^= 0xff;
        assert!(decode_cell(&bumped).unwrap_err().contains("schema"));
        // Truncation anywhere.
        for cut in 1..bytes.len() {
            assert!(decode_cell(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_cell(&long).is_err());
    }
}
