//! `miniperf record` at sampling periods the overflow handler's own
//! supervisor-mode cycles would swallow.

use std::process::{Command, Output};

fn record(platform: &str, period: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_miniperf"))
        .args(["record", "--platform", platform, "--period", period])
        .output()
        .expect("miniperf runs")
}

/// A cycles sampler whose period is within the handler's 250 cycles
/// would wrap again inside the handler and stop after one sample, so
/// `record` exits 1 with the kernel's EINVAL instead of printing that
/// profile. The X60 samples through `u_mode_cycle`, which does not
/// count the handler's cycles, and still records at that period.
#[test]
fn record_refuses_a_period_the_overflow_handler_swallows() {
    let out = record("c910", "200");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("record failed: perf_event failure: EINVAL"),
        "{stderr}"
    );

    let out = record("x60", "200");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("via ModeCycleLeaderGroup (period 200)"),
        "{stdout}"
    );
}
