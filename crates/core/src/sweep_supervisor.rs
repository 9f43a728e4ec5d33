//! Fault-tolerant, resumable roofline sweeps.
//!
//! [`crate::RooflineRequest::run_supervised`] runs a `platform ×
//! workload` cell matrix with each cell (both of its §4.3 phases, on
//! the one cell executor every driver shares) under the `mperf-sweep`
//! supervisor: a panicking or trapping cell is isolated and reported
//! with its faulting pc and function ([`mperf_vm::TrapInfo`]),
//! transient failures retry with deterministic backoff, and a journal
//! failure cancels the sweep instead of silently losing checkpoints.
//!
//! With a journal attached, every completed cell is appended under a
//! content-hash key of everything that determines its result: platform
//! spec name and frequency, entry point, [`ExecConfig`], and the full
//! printed module text. `resume` then satisfies matching cells straight
//! from the journal — bit-identical to re-execution, because the
//! simulation itself is deterministic and the codec is bit-exact
//! (`f64` fields travel as `to_bits`). That open/key/resume/fold
//! bookkeeping is one frame, [`SweepFrame`], which the process-sharded
//! sweep ([`crate::run_roofline_sweep_sharded`]) runs inside too, so a
//! journal resumes across both.
//!
//! Failpoints (feature `failpoints`): `sweep.cell`, keyed by cell
//! index, fires before a cell executes — `Panic` unwinds the job,
//! `Trap` fails it deterministically, `TransientIo` fails it
//! retryably, `FuelExhaustion` clamps the cell's fuel so the guest
//! traps mid-run. `sweep.journal` (in `mperf_sweep::journal`) injects
//! append failures, which classify as fatal.

use crate::roofline_runner::{
    PhaseObservables, RegionMeasurement, RooflineJob, RooflineRequest, RooflineRun,
};
use mperf_sim::PlatformSpec;
use mperf_sweep::journal::{Journal, JournalError};
use mperf_sweep::supervise::{run_jobs_supervised, FailureClass, SweepReport};
use mperf_sweep::wire::{fnv1a, Dec, Enc, WireError};
use mperf_sweep::Phase;
use mperf_vm::{decode_module_cfg, ExecConfig, TrapInfo, VmError};
use std::path::Path;
use std::sync::Mutex;

/// Journal payload schema version (bumped on codec or key changes; a
/// bump changes every key, so stale journals simply miss). Schema 2
/// keys cells by the fusion-free [`ExecConfig::describe`].
const SCHEMA: u32 = 2;

/// Why a supervised sweep cell failed.
#[derive(Debug)]
pub enum SweepCellError {
    /// A guest trap (or injected fault) in one of the cell's phases,
    /// with the trap site when the VM captured one.
    Trap {
        phase: Phase,
        error: VmError,
        trap: Option<TrapInfo>,
    },
    /// The checkpoint journal could not be written — fatal, because
    /// continuing would silently lose resume state.
    Journal(String),
    /// The caller cancelled the sweep (serve-daemon job cancellation);
    /// classified fatal so still-queued cells are skipped, never
    /// retried.
    Cancelled,
}

impl std::fmt::Display for SweepCellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepCellError::Trap { phase, error, trap } => {
                let phase = match phase {
                    Phase::Baseline => "baseline",
                    Phase::Instrumented => "instrumented",
                };
                write!(f, "{phase} phase trapped: {error}")?;
                if let Some(t) = trap {
                    write!(f, " ({t})")?;
                }
                Ok(())
            }
            SweepCellError::Journal(msg) => write!(f, "journal failure: {msg}"),
            SweepCellError::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The supervisor's failure taxonomy for sweep cells.
pub fn classify_cell_error(e: &SweepCellError) -> FailureClass {
    match e {
        SweepCellError::Journal(_) | SweepCellError::Cancelled => FailureClass::Fatal,
        SweepCellError::Trap { error, .. } => match error {
            // Injected fuel exhaustion (and fuel misconfiguration)
            // recovers on retry once the failpoint is spent.
            VmError::OutOfFuel { .. } => FailureClass::Transient,
            // The transient-I/O fault family announces itself.
            VmError::HostFault(msg) if msg.starts_with("transient") => FailureClass::Transient,
            // Real guest traps are deterministic: retrying reproduces
            // them bit-for-bit.
            _ => FailureClass::Permanent,
        },
    }
}

/// Outcome of a supervised sweep: the per-cell report plus which cells
/// were satisfied from the journal.
pub struct SupervisedSweep {
    /// `results[i]` is cell `i`'s run (`None` = failed or skipped);
    /// completed slots are bit-identical to a fault-free serial sweep.
    pub report: SweepReport<RooflineRun, SweepCellError>,
    /// Cells decoded from the journal instead of executed, in order.
    pub resumed: Vec<usize>,
}

/// Content-hash journal key of one cell under one configuration.
pub fn cell_key(spec: &PlatformSpec, entry: &str, cfg: ExecConfig, module_text: &str) -> u64 {
    let mut e = Enc::new();
    e.u32(SCHEMA);
    e.str(spec.name);
    e.u64(spec.freq_hz);
    e.str(entry);
    e.str(&cfg.describe());
    e.str(module_text);
    fnv1a(&e.into_bytes())
}

fn enc_phase(e: &mut Enc, p: &PhaseObservables) {
    e.u64(p.total_cycles);
    e.u64(p.exec.mir_ops);
    e.u64(p.exec.machine_ops);
    e.u64(p.exec.calls);
    e.u64(p.instructions);
    e.u32(p.pmu.len() as u32);
    for c in &p.pmu {
        e.u64(*c);
    }
    e.u64(p.unbalanced_ends);
}

fn dec_phase(d: &mut Dec) -> Result<PhaseObservables, WireError> {
    let total_cycles = d.u64()?;
    let exec = mperf_vm::ExecStats {
        mir_ops: d.u64()?,
        machine_ops: d.u64()?,
        calls: d.u64()?,
    };
    let instructions = d.u64()?;
    let n = d.count(8)?;
    let mut pmu = Vec::with_capacity(n);
    for _ in 0..n {
        pmu.push(d.u64()?);
    }
    Ok(PhaseObservables {
        total_cycles,
        exec,
        instructions,
        pmu,
        unbalanced_ends: d.u64()?,
    })
}

/// Encode a completed run as a journal payload (bit-exact roundtrip).
pub fn encode_run(run: &RooflineRun) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(run.platform_name);
    e.u64(run.freq_hz);
    e.u32(run.regions.len() as u32);
    for r in &run.regions {
        e.u32(r.region_id);
        e.str(&r.source_func);
        e.u32(r.line);
        e.u8(r.has_calls as u8);
        e.u64(r.flops);
        e.u64(r.loaded_bytes);
        e.u64(r.stored_bytes);
        e.u64(r.int_ops);
        e.u64(r.invocations);
        e.u64(r.baseline_cycles);
        e.u64(r.instrumented_cycles);
        e.u64(r.unbalanced_ends);
    }
    e.u64(run.baseline_total_cycles);
    e.u64(run.instrumented_total_cycles);
    e.u64(run.unbalanced_ends);
    enc_phase(&mut e, &run.baseline);
    enc_phase(&mut e, &run.instrumented);
    e.into_bytes()
}

/// Decode a journal payload back into a run. `spec` must be the cell's
/// platform: the payload's platform name is checked against it (and the
/// run's `&'static` name is taken from the spec, since the journal
/// cannot carry static strings).
pub fn decode_run(bytes: &[u8], spec: &PlatformSpec) -> Result<RooflineRun, String> {
    let mut d = Dec::new(bytes);
    let inner = |d: &mut Dec| -> Result<RooflineRun, WireError> {
        let name = d.str()?;
        if name != spec.name {
            // Key collisions across platforms are astronomically
            // unlikely, but a mismatch must never fabricate a run.
            return Err(WireError::Truncated);
        }
        let freq_hz = d.u64()?;
        // Element floor: three u32s (one a string length), a u8, and
        // eight u64s.
        let n = d.count(3 * 4 + 1 + 8 * 8)?;
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            regions.push(RegionMeasurement {
                region_id: d.u32()?,
                source_func: d.str()?,
                line: d.u32()?,
                has_calls: d.u8()? != 0,
                flops: d.u64()?,
                loaded_bytes: d.u64()?,
                stored_bytes: d.u64()?,
                int_ops: d.u64()?,
                invocations: d.u64()?,
                baseline_cycles: d.u64()?,
                instrumented_cycles: d.u64()?,
                unbalanced_ends: d.u64()?,
            });
        }
        Ok(RooflineRun {
            platform_name: spec.name,
            freq_hz,
            regions,
            baseline_total_cycles: d.u64()?,
            instrumented_total_cycles: d.u64()?,
            unbalanced_ends: d.u64()?,
            baseline: dec_phase(d)?,
            instrumented: dec_phase(d)?,
        })
    };
    let run = inner(&mut d).map_err(|e| format!("corrupt journal payload: {e}"))?;
    d.finish()
        .map_err(|e| format!("corrupt journal payload: {e}"))?;
    Ok(run)
}

/// The journaled-sweep frame both sweep drivers run inside: it opens
/// the journal, keys every cell with [`cell_key`], satisfies resumable
/// cells from the journal, lists the pending ones for the scheduler,
/// checkpoints completed cells, and folds the scheduler's report back
/// onto cell indexes. The journal handle never leaves the frame, so in
/// a sharded sweep only the supervisor process appends.
pub(crate) struct SweepFrame {
    journal: Option<Mutex<Journal>>,
    keys: Vec<u64>,
    /// Per-cell results: the resumed cells, then what [`Self::fold`]
    /// lands.
    pub results: Vec<Option<RooflineRun>>,
    /// Cells satisfied from the journal, in order.
    pub resumed: Vec<usize>,
    /// Cells left to execute: scheduler job `j` is cell `pending[j]`.
    pub pending: Vec<usize>,
}

impl SweepFrame {
    /// Open `journal` (if any) and key `cells`, each given as its
    /// platform, entry point and printed module text; with `resume`,
    /// satisfy every cell the journal holds a decodable run for.
    ///
    /// # Errors
    /// Journal open problems only.
    pub(crate) fn open<'a>(
        journal: Option<&Path>,
        resume: bool,
        cfg: ExecConfig,
        cells: impl IntoIterator<Item = (&'a PlatformSpec, &'a str, &'a str)>,
    ) -> Result<SweepFrame, JournalError> {
        let (specs, keys): (Vec<_>, Vec<_>) = cells
            .into_iter()
            .map(|(spec, entry, text)| (spec, cell_key(spec, entry, cfg, text)))
            .unzip();
        let mut frame = SweepFrame {
            journal: journal.map(Journal::open).transpose()?.map(Mutex::new),
            keys,
            results: vec![None; specs.len()],
            resumed: Vec::new(),
            pending: Vec::new(),
        };
        for (i, spec) in specs.iter().enumerate() {
            match resume.then(|| frame.journaled(i, spec)).flatten() {
                Some(run) => {
                    frame.results[i] = Some(run);
                    frame.resumed.push(i);
                }
                None => frame.pending.push(i),
            }
        }
        Ok(frame)
    }

    /// The run the journal holds for cell `i`. A payload that fails to
    /// decode is a miss: the cell simply re-executes.
    pub(crate) fn journaled(&self, i: usize, spec: &PlatformSpec) -> Option<RooflineRun> {
        let journal = self.journal.as_ref()?;
        let journal = journal.lock().unwrap_or_else(|e| e.into_inner());
        decode_run(journal.lookup(self.keys[i])?, spec).ok()
    }

    /// Checkpoint cell `i`'s encoded run (a no-op without a journal).
    pub(crate) fn append(&self, i: usize, payload: &[u8]) -> Result<(), JournalError> {
        match &self.journal {
            Some(j) => j
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(self.keys[i], payload),
            None => Ok(()),
        }
    }

    /// Fold a report over the pending cells back onto cell indexes:
    /// `runs[j]` lands in cell `pending[j]`, and every job index
    /// `indexes` yields is rewritten to its cell index. Returns the
    /// per-cell results and the resumed cells.
    pub(crate) fn fold<'a>(
        mut self,
        runs: Vec<Option<RooflineRun>>,
        indexes: impl IntoIterator<Item = &'a mut usize>,
    ) -> (Vec<Option<RooflineRun>>, Vec<usize>) {
        for i in indexes {
            *i = self.pending[*i];
        }
        for (j, run) in runs.into_iter().enumerate() {
            if run.is_some() {
                self.results[self.pending[j]] = run;
            }
        }
        (self.results, self.resumed)
    }
}

/// A borrowed cell-completion callback (see [`SweepHooks::on_cell`]).
pub(crate) type OnCellFn<'a> = &'a (dyn Fn(usize, &RooflineRun) + Sync);

/// Streaming/cancellation hooks for [`supervised_sweep_hooked`] (the
/// serve daemon's bridge into the sweep).
#[derive(Default)]
pub(crate) struct SweepHooks<'a> {
    /// Called with `(cell index, run)` the moment a cell completes —
    /// on whichever worker thread completed it — including cells
    /// satisfied from the journal (reported before execution starts).
    pub on_cell: Option<OnCellFn<'a>>,
    /// Checked before each cell executes; once set, the current cell
    /// fails [`SweepCellError::Cancelled`] (fatal) and still-queued
    /// cells are skipped.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

/// The supervised sweep: panic isolation, retry with quarantine,
/// trap-site reporting, and (optionally) checkpoint journaling with
/// resume, all per [`RooflineRequest`]'s knobs; its `jobs` is the cell
/// worker count. Completed cells are bit-identical to fault-free
/// [`RooflineRequest::run`] calls with the same [`ExecConfig`].
pub(crate) fn supervised_sweep_hooked(
    cells: &[RooflineJob],
    request: &RooflineRequest,
    hooks: SweepHooks,
) -> Result<SupervisedSweep, JournalError> {
    let texts: Vec<String> = cells.iter().map(|c| c.module.to_string()).collect();
    let frame = SweepFrame::open(
        request.journal.as_deref(),
        request.resume,
        request.cfg,
        cells
            .iter()
            .zip(&texts)
            .map(|(c, text)| (&c.spec, c.entry.as_str(), text.as_str())),
    )?;
    // Per-cell decode (cells may share one).
    let decodes: Vec<_> = cells
        .iter()
        .map(|c| {
            c.decoded
                .clone()
                .unwrap_or_else(|| decode_module_cfg(c.module, request.cfg.decode()))
        })
        .collect();
    if let Some(on_cell) = hooks.on_cell {
        for &i in &frame.resumed {
            on_cell(
                i,
                frame.results[i].as_ref().expect("resumed cell prefilled"),
            );
        }
    }

    // One supervised job per pending cell, its phases run serially, so
    // retry/journal granularity is the cell.
    let serial = RooflineRequest::new().config(request.cfg);
    let mut report = run_jobs_supervised(
        &frame.pending,
        request.jobs.unwrap_or(1),
        &request.policy,
        |_, &ci, _ctx| -> Result<RooflineRun, SweepCellError> {
            if let Some(c) = hooks.cancel {
                if c.load(std::sync::atomic::Ordering::Acquire) {
                    return Err(SweepCellError::Cancelled);
                }
            }
            let cell = &cells[ci];
            let mut fuel = None;
            if let Some(kind) = mperf_fault::hit("sweep.cell", ci as u64) {
                let injected = |msg: &str| SweepCellError::Trap {
                    phase: Phase::Baseline,
                    error: VmError::HostFault(msg.into()),
                    trap: None,
                };
                match kind {
                    mperf_fault::FaultKind::Panic => {
                        mperf_fault::injected_panic("sweep.cell", ci as u64)
                    }
                    mperf_fault::FaultKind::Trap => return Err(injected("injected trap")),
                    mperf_fault::FaultKind::TransientIo => {
                        return Err(injected("transient i/o (injected)"))
                    }
                    mperf_fault::FaultKind::FuelExhaustion => fuel = Some(10),
                    // Process-level kinds target the sharded worker's
                    // sites (`worker.exit`/`worker.stall`), not the
                    // in-process cell probe.
                    mperf_fault::FaultKind::Exit | mperf_fault::FaultKind::Stall => {}
                }
            }
            let run = serial
                .execute(
                    cell.module,
                    &decodes[ci],
                    &cell.spec,
                    &cell.entry,
                    &*cell.setup,
                    fuel,
                )
                .map_err(|(phase, error, trap)| SweepCellError::Trap { phase, error, trap })?;
            frame
                .append(ci, &encode_run(&run))
                .map_err(|e| SweepCellError::Journal(e.to_string()))?;
            if let Some(on_cell) = hooks.on_cell {
                on_cell(ci, &run);
            }
            Ok(run)
        },
        classify_cell_error,
    );

    let runs = std::mem::take(&mut report.results);
    let indexes = report
        .failed
        .iter_mut()
        .map(|f| &mut f.index)
        .chain(report.retried.iter_mut().map(|(i, _)| i))
        .chain(&mut report.skipped);
    let (results, resumed) = frame.fold(runs, indexes);
    report.results = results;
    Ok(SupervisedSweep { report, resumed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_codec_roundtrips_bit_exactly() {
        let run = RooflineRun {
            platform_name: "SpacemiT X60",
            freq_hz: 1_600_000_000,
            regions: vec![RegionMeasurement {
                region_id: 3,
                source_func: "triad".into(),
                line: 7,
                has_calls: true,
                flops: 123,
                loaded_bytes: 456,
                stored_bytes: 789,
                int_ops: 10,
                invocations: 2,
                baseline_cycles: 999,
                instrumented_cycles: 1234,
                unbalanced_ends: 0,
            }],
            baseline_total_cycles: 5000,
            instrumented_total_cycles: 6000,
            unbalanced_ends: 1,
            baseline: PhaseObservables {
                total_cycles: 5000,
                exec: mperf_vm::ExecStats {
                    mir_ops: 1,
                    machine_ops: 2,
                    calls: 3,
                },
                instructions: 4,
                pmu: vec![0, 1, 2, 3],
                unbalanced_ends: 0,
            },
            instrumented: PhaseObservables {
                total_cycles: 6000,
                exec: mperf_vm::ExecStats {
                    mir_ops: 5,
                    machine_ops: 6,
                    calls: 7,
                },
                instructions: 8,
                pmu: vec![9, 10],
                unbalanced_ends: 1,
            },
        };
        let spec = PlatformSpec::x60();
        assert_eq!(spec.name, "SpacemiT X60");
        let bytes = encode_run(&run);
        let back = decode_run(&bytes, &spec).unwrap();
        assert_eq!(back, run);
        // Re-encoding the decoded run is byte-identical.
        assert_eq!(encode_run(&back), bytes);
    }

    #[test]
    fn decode_refuses_platform_mismatch_and_corruption() {
        let run = RooflineRun {
            platform_name: "SpacemiT X60",
            freq_hz: 1,
            regions: vec![],
            baseline_total_cycles: 0,
            instrumented_total_cycles: 0,
            unbalanced_ends: 0,
            baseline: PhaseObservables {
                total_cycles: 0,
                exec: Default::default(),
                instructions: 0,
                pmu: vec![],
                unbalanced_ends: 0,
            },
            instrumented: PhaseObservables {
                total_cycles: 0,
                exec: Default::default(),
                instructions: 0,
                pmu: vec![],
                unbalanced_ends: 0,
            },
        };
        let bytes = encode_run(&run);
        assert!(decode_run(&bytes, &PlatformSpec::c910()).is_err());
        assert!(decode_run(&bytes[..bytes.len() - 1], &PlatformSpec::x60()).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_run(&trailing, &PlatformSpec::x60()).is_err());
    }

    #[test]
    fn cell_key_separates_configurations() {
        let spec = PlatformSpec::x60();
        let base = cell_key(&spec, "triad", ExecConfig::default(), "module text");
        assert_eq!(
            base,
            cell_key(&spec, "triad", ExecConfig::default(), "module text"),
            "stable"
        );
        assert_ne!(
            base,
            cell_key(
                &PlatformSpec::c910(),
                "triad",
                ExecConfig::default(),
                "module text"
            )
        );
        assert_ne!(
            base,
            cell_key(&spec, "other", ExecConfig::default(), "module text")
        );
        let cfg = ExecConfig {
            regalloc: false,
            ..Default::default()
        };
        assert_ne!(base, cell_key(&spec, "triad", cfg, "module text"));
        assert_ne!(
            base,
            cell_key(&spec, "triad", ExecConfig::default(), "other text")
        );
    }
}
