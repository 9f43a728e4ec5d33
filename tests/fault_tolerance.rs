//! Fault-tolerance integration tests (tier-1, no `failpoints` feature):
//! the supervised sweep isolates panicking/trapping cells, keeps every
//! surviving cell bit-identical to the serial sweep, reports trap sites
//! actionably, and resumes from a checkpoint journal — including a
//! torn-tail journal — to a byte-identical final report.

use miniperf::roofline_runner::BoxedSetupFn;
use miniperf::sweep_supervisor::encode_run;
use miniperf::{RooflineJob, RooflineRequest, RooflineRun};
use mperf_sim::Platform;
use mperf_sweep::{run_jobs_supervised, FailureClass, RetryPolicy};
use mperf_vm::{Value, Vm};
use mperf_workloads::{matmul, stencil, stream};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;

/// Silence the default panic printout for panics this suite injects on
/// purpose (they are caught by the supervisor; the noise is misleading
/// in test logs). Installed once, forwards everything else.
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
            if msg.is_some_and(|m| m.contains("injected panic")) {
                return;
            }
            default(info);
        }));
    });
}

/// One cell: workload `name` compiled (instrumented) for `platform`
/// (module leaked: tests).
fn cell(
    platform: Platform,
    name: &str,
    source: &str,
    entry: &str,
    setup: BoxedSetupFn<'static>,
) -> RooflineJob<'static> {
    let module = mperf_workloads::compile_for(name, source, platform, true)
        .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
    RooflineJob {
        module: Box::leak(Box::new(module)),
        decoded: None,
        spec: platform.spec(),
        entry: entry.into(),
        setup,
    }
}

/// The 4-platform triad sweep used throughout.
fn triad_cells(elems: u64) -> Vec<RooflineJob<'static>> {
    let bench = stream::StreamBench { elems };
    Platform::ALL
        .iter()
        .map(|&p| {
            let setup = Box::new(move |vm: &mut Vm| bench.setup_triad(vm));
            cell(p, "stream-triad", stream::SOURCE, "triad", setup)
        })
        .collect()
}

/// The triad sweep plus small matmul and stencil cells on every
/// platform: a multi-workload matrix whose cells differ in shape and
/// cost.
fn workload_cells() -> Vec<RooflineJob<'static>> {
    let mm = matmul::MatmulBench {
        n: 16,
        tile: 8,
        seed: 0x3a7_5eed,
    };
    let st = stencil::StencilBench { n: 16, steps: 2 };
    let mut cells = triad_cells(1024);
    for p in Platform::ALL {
        let setup = Box::new(move |vm: &mut Vm| mm.setup(vm));
        cells.push(cell(p, "matmul", matmul::SOURCE, matmul::ENTRY, setup));
        let setup = Box::new(move |vm: &mut Vm| st.setup(vm));
        cells.push(cell(p, "stencil", stencil::SOURCE, stencil::ENTRY, setup));
    }
    cells
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
    p.push(format!("mperf-ft-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Byte offset of the end of each journal frame (after the magic).
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 8;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 16 + len;
        ends.push(pos);
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Panics and traps injected at arbitrary job subsets never disturb
    /// the survivors: every healthy slot is bit-identical to the serial
    /// computation, every faulty slot is reported (panics as
    /// `Panicked`, errors as `Failed`), and nothing is skipped.
    #[test]
    fn injected_failures_leave_survivors_bit_identical(
        faults in proptest::collection::vec(0usize..16, 0..6),
        workers in 1usize..5,
    ) {
        quiet_injected_panics();
        let faults: HashSet<usize> = faults.into_iter().collect();
        let jobs: Vec<u64> = (0..16u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let compute = |x: u64| x.wrapping_mul(31).rotate_left(7);
        let report = run_jobs_supervised(
            &jobs,
            workers,
            &RetryPolicy { max_attempts: 1, retry_panics: false },
            |i, &x, _ctx| {
                if faults.contains(&i) {
                    if i % 2 == 0 {
                        panic!("injected panic at {i}");
                    }
                    return Err(format!("injected trap at {i}"));
                }
                Ok(compute(x))
            },
            |_e| FailureClass::Permanent,
        );
        prop_assert!(report.skipped.is_empty());
        for (i, &x) in jobs.iter().enumerate() {
            if faults.contains(&i) {
                prop_assert!(report.results[i].is_none());
                prop_assert!(report.failed.iter().any(|f| f.index == i), "missing failure {i}");
            } else {
                prop_assert_eq!(report.results[i], Some(compute(x)), "slot {}", i);
            }
        }
        prop_assert_eq!(report.failed.len(), faults.len());
    }

    /// Transient failures retry to success: jobs that fail on their
    /// first attempt still land bit-identical results, and every retry
    /// is accounted for.
    #[test]
    fn transient_failures_recover_on_retry(
        flaky in proptest::collection::vec(0usize..12, 0..5),
        workers in 1usize..4,
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let flaky: HashSet<usize> = flaky.into_iter().collect();
        let first_attempts: Vec<AtomicU32> = (0..12).map(|_| AtomicU32::new(0)).collect();
        let jobs: Vec<u64> = (0..12u64).collect();
        let report = run_jobs_supervised(
            &jobs,
            workers,
            &RetryPolicy { max_attempts: 3, retry_panics: false },
            |i, &x, _ctx| {
                if flaky.contains(&i) && first_attempts[i].fetch_add(1, Ordering::Relaxed) == 0 {
                    return Err("transient".to_string());
                }
                Ok(x * x)
            },
            |_e| FailureClass::Transient,
        );
        prop_assert!(report.all_ok());
        for (i, &x) in jobs.iter().enumerate() {
            prop_assert_eq!(report.results[i], Some(x * x));
        }
        let retried: HashSet<usize> = report.retried.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(retried, flaky);
    }
}

/// The supervised sweep (parallel, journaling) over triad, matmul and
/// stencil cells is bit-identical to the plain serial sweep; a journal
/// torn mid-frame resumes to a byte-identical final report,
/// re-executing only the missing cells.
#[test]
fn supervised_sweep_matches_serial_and_resumes_byte_identically() {
    let cells = workload_cells();
    let serial = serial_runs(&cells);
    let serial_bytes: Vec<Vec<u8>> = serial.iter().map(encode_run).collect();

    let path = tmp_journal("resume");
    let request = RooflineRequest::new().jobs(3).journal(path.clone());
    let sweep = request.run_supervised(&cells).unwrap();
    assert!(sweep.report.all_ok());
    assert!(sweep.resumed.is_empty());
    for (i, run) in sweep.report.results.iter().enumerate() {
        let run = run.as_ref().expect("cell completed");
        assert_eq!(run, &serial[i], "cell {i} diverged from serial");
        assert_eq!(encode_run(run), serial_bytes[i], "cell {i} bytes");
    }

    // Interrupt: keep two complete frames plus a torn slice of the
    // third. Resume must satisfy exactly the two journaled cells and
    // re-execute the rest to a byte-identical report.
    let full = std::fs::read(&path).unwrap();
    let ends = frame_ends(&full);
    assert_eq!(ends.len(), cells.len(), "one frame per cell");
    std::fs::write(&path, &full[..ends[1] + 5]).unwrap();
    let request = RooflineRequest::new()
        .jobs(2)
        .journal(path.clone())
        .resume(true);
    let sweep = request.run_supervised(&cells).unwrap();
    assert_eq!(sweep.resumed.len(), 2, "two cells survived the tear");
    assert!(sweep.report.all_ok());
    for (i, run) in sweep.report.results.iter().enumerate() {
        assert_eq!(
            encode_run(run.as_ref().unwrap()),
            serial_bytes[i],
            "cell {i} not byte-identical after resume"
        );
    }

    // The journal is complete again: a third pass resumes everything.
    let request = RooflineRequest::new()
        .jobs(1)
        .journal(path.clone())
        .resume(true);
    let sweep = request.run_supervised(&cells).unwrap();
    assert_eq!(sweep.resumed.len(), cells.len());
    assert!(sweep.report.all_ok());
    let _ = std::fs::remove_file(&path);
}

/// A guest trap in one cell is reported with its faulting pc and
/// function name, classified permanent (no useless retries), and the
/// healthy cells still complete bit-identically.
#[test]
fn trapping_cell_reports_trap_site_and_spares_healthy_cells() {
    let mut cells = triad_cells(512);
    let healthy = cells.len();
    let serial = serial_runs(&cells);
    let src = "fn boom(a: i64, b: i64) -> i64 { return a / b; }";
    let module = Box::leak(Box::new(
        mperf_workloads::compile_for("boom", src, Platform::SifiveU74, true).unwrap(),
    ));
    cells.push(RooflineJob {
        module: &*module,
        decoded: None,
        spec: Platform::SifiveU74.spec(),
        entry: "boom".into(),
        setup: Box::new(|_vm: &mut Vm| Ok(vec![Value::I64(7), Value::I64(0)])),
    });

    let sweep = RooflineRequest::new().run_supervised(&cells).unwrap();
    assert_eq!(sweep.report.failed.len(), 1);
    let f = &sweep.report.failed[0];
    assert_eq!(f.index, healthy);
    assert_eq!(f.attempts, 1, "deterministic traps are not retried");
    assert!(!f.quarantined);
    let msg = f.error.to_string();
    assert!(msg.contains("phase trapped"), "{msg}");
    assert!(
        msg.contains("in `boom`"),
        "trap site names the function: {msg}"
    );
    assert!(msg.contains("pc 0x"), "trap site names the pc: {msg}");
    for (i, serial_run) in serial.iter().enumerate() {
        assert_eq!(
            sweep.report.results[i].as_ref(),
            Some(serial_run),
            "healthy cell {i} diverged"
        );
    }
}
