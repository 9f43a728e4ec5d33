//! Fault-injection acceptance suite (`cargo test --features failpoints`).
//!
//! Arms deterministic [`mperf_fault::FaultPlan`]s against the
//! `sweep.cell` and `sweep.journal` failpoints and checks the ISSUE 6
//! acceptance scenario end to end: with faults in ≥ 3 distinct cells of
//! the 4-platform sweep, every healthy cell completes bit-identically
//! to a fault-free serial run, and a subsequent resume re-executes only
//! the failed cells to a byte-identical final report.

#![cfg(feature = "failpoints")]

use miniperf::sweep_supervisor::encode_run;
use miniperf::{RooflineJob, RooflineRequest, RooflineRun};
use mperf_fault::{arm_scoped, drain_log, FaultKind, FaultPlan, PANIC_PREFIX};
use mperf_sim::Platform;
use mperf_sweep::{CellError, RetryPolicy};
use mperf_vm::Vm;
use mperf_workloads::stream::StreamBench;
use std::path::PathBuf;

/// Silence the default panic printout for the unwinds this suite
/// injects on purpose (recognised by [`PANIC_PREFIX`], so no
/// test-specific text is matched). Installed once; everything else is
/// forwarded.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.starts_with(PANIC_PREFIX)) {
                return;
            }
            default(info);
        }));
    });
}

/// The 4-platform triad sweep (one cell per platform model).
fn triad_cells(elems: u64) -> Vec<RooflineJob<'static>> {
    Platform::ALL
        .iter()
        .map(|&p| {
            let module = Box::leak(Box::new(
                mperf_workloads::compile_for(
                    "stream-triad",
                    mperf_workloads::stream::SOURCE,
                    p,
                    true,
                )
                .expect("stream compiles"),
            ));
            let bench = StreamBench { elems };
            RooflineJob {
                module: &*module,
                decoded: None,
                spec: p.spec(),
                entry: "triad".into(),
                setup: Box::new(move |vm: &mut Vm| bench.setup_triad(vm)),
            }
        })
        .collect()
}

/// The serial oracle: each cell run alone through the plain
/// single-cell path.
fn serial_runs(cells: &[RooflineJob]) -> Vec<RooflineRun> {
    cells
        .iter()
        .map(|c| {
            RooflineRequest::new()
                .run(c.module, &c.spec, &c.entry, &*c.setup)
                .expect("serial cell runs")
        })
        .collect()
}

fn tmp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mperf-fp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The acceptance scenario: panic, trap, and transient-I/O faults in
/// three distinct cells of the 4-platform sweep. The panic cell
/// exhausts its retries (quarantined), the trap cell fails permanently,
/// the transient cell recovers on retry — and every completed cell is
/// bit-identical to the fault-free serial sweep. A resume run then
/// re-executes only the two failed cells to a byte-identical report.
#[test]
fn faults_in_three_cells_spare_healthy_cells_and_resume_completes() {
    quiet_injected_panics();
    let cells = triad_cells(1024);
    let serial = serial_runs(&cells);
    let serial_bytes: Vec<Vec<u8>> = serial.iter().map(encode_run).collect();
    let path = tmp_journal("acceptance");

    let request = RooflineRequest::new()
        .jobs(2)
        .policy(RetryPolicy {
            max_attempts: 3,
            retry_panics: true,
        })
        .journal(path.clone());
    {
        let _armed = arm_scoped(
            FaultPlan::new(7)
                .inject("sweep.cell", 0, FaultKind::Panic, 3)
                .inject("sweep.cell", 1, FaultKind::Trap, 1)
                .inject("sweep.cell", 2, FaultKind::TransientIo, 1),
        );
        let sweep = request.run_supervised(&cells).unwrap();
        let fired = drain_log();
        assert!(
            fired.len() >= 5,
            "3 panics + 1 trap + 1 transient: {fired:?}"
        );

        // Cells 0 and 1 fail; 2 recovers on retry; 3 is untouched.
        assert_eq!(sweep.report.failed.len(), 2);
        let by_index = |i: usize| sweep.report.failed.iter().find(|f| f.index == i).unwrap();
        let panicked = by_index(0);
        assert!(panicked.quarantined, "panic cell exhausted its retries");
        assert_eq!(panicked.attempts, 3);
        assert!(matches!(&panicked.error, CellError::Panicked { payload }
            if payload.starts_with(PANIC_PREFIX)));
        let trapped = by_index(1);
        assert_eq!(trapped.attempts, 1, "deterministic trap: no retries");
        assert!(trapped.error.to_string().contains("injected trap"));
        assert!(sweep.report.retried.iter().any(|&(i, _)| i == 2));
        assert!(sweep.report.skipped.is_empty());
        for i in [2, 3] {
            assert_eq!(
                sweep.report.results[i].as_ref(),
                Some(&serial[i]),
                "healthy cell {i} must be bit-identical to the serial sweep"
            );
        }
    }

    // Disarmed resume: only the two failed cells re-execute; the final
    // report is byte-identical to a clean run. An *empty* armed scope
    // still serialises against the other fault tests, so their plans
    // cannot fire into this sweep.
    let _armed = arm_scoped(FaultPlan::default());
    let request = RooflineRequest::new()
        .jobs(1)
        .journal(path.clone())
        .resume(true);
    let sweep = request.run_supervised(&cells).unwrap();
    let mut resumed = sweep.resumed.clone();
    resumed.sort_unstable();
    assert_eq!(resumed, vec![2, 3], "only failed cells re-execute");
    assert!(sweep.report.all_ok());
    for (i, run) in sweep.report.results.iter().enumerate() {
        assert_eq!(
            encode_run(run.as_ref().unwrap()),
            serial_bytes[i],
            "cell {i} not byte-identical after resume"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Injected fuel exhaustion traps the guest mid-run; the supervisor
/// classifies it transient and the cell recovers on retry once the
/// failpoint is spent, bit-identical to the fault-free run.
#[test]
fn fuel_exhaustion_is_transient_and_recovers() {
    quiet_injected_panics();
    let cells = triad_cells(512);
    let serial = serial_runs(&cells);
    let _armed =
        arm_scoped(FaultPlan::new(11).inject("sweep.cell", 2, FaultKind::FuelExhaustion, 1));
    let sweep = RooflineRequest::new().run_supervised(&cells).unwrap();
    assert!(sweep.report.all_ok());
    assert!(
        sweep.report.retried.iter().any(|&(i, _)| i == 2),
        "fuel-starved cell retried: {:?}",
        sweep.report.retried
    );
    for (i, serial_run) in serial.iter().enumerate() {
        assert_eq!(sweep.report.results[i].as_ref(), Some(serial_run));
    }
    let fired = drain_log();
    assert!(fired
        .iter()
        .any(|e| e.site == "sweep.cell" && e.kind == FaultKind::FuelExhaustion));
}

/// Scattered single-shot faults (the seeded pseudo-random layer) across
/// the sweep recover via retries: same completed results as serial.
#[test]
fn scattered_faults_are_deterministic_and_recoverable() {
    quiet_injected_panics();
    let cells = triad_cells(512);
    let serial = serial_runs(&cells);
    let mut plan = FaultPlan::new(42);
    let keys = plan.scatter("sweep.cell", FaultKind::TransientIo, 3, cells.len() as u64);
    assert_eq!(keys.len(), 3, "three distinct faulty cells");
    let mut plan2 = FaultPlan::new(42);
    let keys2 = plan2.scatter("sweep.cell", FaultKind::TransientIo, 3, cells.len() as u64);
    assert_eq!(keys, keys2, "scatter is seed-deterministic");

    let _armed = arm_scoped(plan);
    let sweep = RooflineRequest::new().run_supervised(&cells).unwrap();
    assert!(sweep.report.all_ok(), "single-shot transients all recover");
    let retried: Vec<u64> = sweep
        .report
        .retried
        .iter()
        .map(|&(i, _)| i as u64)
        .collect();
    let mut expected = keys.clone();
    expected.sort_unstable();
    let mut got = retried.clone();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, expected, "exactly the scattered cells retried");
    for (i, serial_run) in serial.iter().enumerate() {
        assert_eq!(sweep.report.results[i].as_ref(), Some(serial_run));
    }
}

/// A journal append failure is fatal: the failing cell reports it and
/// still-queued cells are cancelled rather than executed against a
/// journal that is silently losing checkpoints.
#[test]
fn journal_append_failure_cancels_the_sweep() {
    quiet_injected_panics();
    let cells = triad_cells(512);
    let path = tmp_journal("fatal");
    let request = RooflineRequest::new().jobs(1).journal(path.clone());
    let _armed =
        arm_scoped(FaultPlan::new(3).inject_all("sweep.journal", FaultKind::TransientIo, 1));
    let sweep = request.run_supervised(&cells).unwrap();
    assert_eq!(sweep.report.failed.len(), 1, "first cell's append fails");
    let f = &sweep.report.failed[0];
    assert_eq!(f.index, 0);
    assert!(
        f.error.to_string().contains("journal failure"),
        "{}",
        f.error
    );
    assert_eq!(
        sweep.report.skipped,
        vec![1, 2, 3],
        "fatal failure cancels the still-queued cells"
    );
    assert_eq!(sweep.report.completed(), 0);
    let _ = std::fs::remove_file(&path);
}
