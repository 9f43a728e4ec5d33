//! Top-Down Microarchitecture Analysis (TMA), top level.
//!
//! The paper names TMA integration as the primary future-work direction
//! (§6): "achieving even partial TMA support would provide users with a
//! much more systematic way to diagnose performance limitations". This
//! module implements that extension for the platforms whose PMUs expose
//! enough events, using the standard four top-level categories with the
//! approximations the SiFive workshop paper (paper ref. `[6]`) uses for
//! in-order RISC-V parts:
//!
//! - **retiring** ≈ IPC / issue-width
//! - **bad speculation** ≈ branch-misses × penalty / cycles
//! - **backend bound (memory)** ≈ exposed miss latency / cycles
//! - **frontend bound** = residual
//!
//! Counting-mode only — it works on the X60 too (sampling was the broken
//! part there, not counting); the U74's two HPM counters are not enough
//! for the event set, which the error path reports faithfully.

use crate::stat::{stat, StatError};
use mperf_event::EventKind;
use mperf_sim::HwEvent;
use mperf_vm::{Value, Vm, VmError};

/// Top-level TMA breakdown; the four shares sum to 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct TmaReport {
    pub retiring: f64,
    pub bad_speculation: f64,
    pub backend_bound: f64,
    pub frontend_bound: f64,
    /// Raw inputs for transparency.
    pub cycles: u64,
    pub instructions: u64,
    pub branch_misses: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
}

impl TmaReport {
    /// The dominant category's name.
    pub fn dominant(&self) -> &'static str {
        let cats = [
            (self.retiring, "retiring"),
            (self.bad_speculation, "bad-speculation"),
            (self.backend_bound, "backend-bound"),
            (self.frontend_bound, "frontend-bound"),
        ];
        cats.iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("four categories")
            .1
    }
}

/// TMA failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TmaError {
    /// Not enough HPM counters for the event set (SiFive U74).
    InsufficientCounters(String),
    Stat(StatError),
    Vm(VmError),
}

impl std::fmt::Display for TmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmaError::InsufficientCounters(m) => write!(f, "insufficient PMU counters: {m}"),
            TmaError::Stat(e) => write!(f, "{e}"),
            TmaError::Vm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TmaError {}

/// Run a top-level TMA analysis of `entry(args)`.
///
/// # Errors
/// [`TmaError::InsufficientCounters`] when the platform lacks the three
/// generic counters needed; [`TmaError::Stat`] on perf failures.
pub fn analyze(vm: &mut Vm, entry: &str, args: &[Value]) -> Result<TmaReport, TmaError> {
    let spec = vm.core.spec.clone();
    if spec.num_hpm_counters < 3 {
        return Err(TmaError::InsufficientCounters(format!(
            "{} exposes {} generic counters, need 3 (branch-miss, l1d-miss, l2-miss)",
            spec.name, spec.num_hpm_counters
        )));
    }
    let events = [
        EventKind::Raw(spec.event_code(HwEvent::BranchMisses)),
        EventKind::Raw(spec.event_code(HwEvent::L1dMiss)),
        EventKind::Raw(spec.event_code(HwEvent::L2Miss)),
    ];
    let rep = stat(vm, entry, args, &events).map_err(TmaError::Stat)?;
    let cycles = rep.cycles.max(1);
    let branch_misses = rep.counts[0].1;
    let l1d_misses = rep.counts[1].1;
    let l2_misses = rep.counts[2].1;

    let ipc = rep.instructions as f64 / cycles as f64;
    let retiring = (ipc / spec.issue_width as f64).min(1.0);
    let bad_speculation = (branch_misses as f64 * spec.branch_mispredict_penalty as f64
        / cycles as f64)
        .min(1.0 - retiring);
    // Exposed memory latency: L1 misses pay ~L2 latency, L2 misses pay
    // DRAM latency, scaled by the overlap the core achieves.
    let overlap = if spec.out_of_order {
        spec.ooo_mem_overlap as f64
    } else {
        1.0
    };
    let mem_cycles = (l1d_misses.saturating_sub(l2_misses)) as f64 * spec.caches.l2.latency as f64
        / overlap
        + l2_misses as f64 * spec.caches.dram_latency as f64 / overlap;
    let backend_bound = (mem_cycles / cycles as f64).min(1.0 - retiring - bad_speculation);
    let frontend_bound = (1.0 - retiring - bad_speculation - backend_bound).max(0.0);
    Ok(TmaReport {
        retiring,
        bad_speculation,
        backend_bound,
        frontend_bound,
        cycles: rep.cycles,
        instructions: rep.instructions,
        branch_misses,
        l1d_misses,
        l2_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mperf_ir::compile;
    use mperf_sim::{Core, PlatformSpec};

    const COMPUTE: &str = r#"
        fn compute(n: i64) -> f64 {
            var s: f64 = 1.0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                s = s * 1.0000001 + 0.5;
            }
            return s;
        }
    "#;

    const MEMORY: &str = r#"
        fn stream(p: *f64, n: i64) -> f64 {
            var s: f64 = 0.0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                s = s + p[i * 16];
            }
            return s;
        }
    "#;

    #[test]
    fn shares_sum_to_one() {
        let module = compile("t", COMPUTE).unwrap();
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::c910()));
        let t = analyze(&mut vm, "compute", &[Value::I64(20_000)]).unwrap();
        let sum = t.retiring + t.bad_speculation + t.backend_bound + t.frontend_bound;
        assert!((sum - 1.0).abs() < 1e-9, "{t:?}");
        assert!(t.retiring > 0.0);
    }

    #[test]
    fn memory_workload_is_backend_bound() {
        let module = compile("t", MEMORY).unwrap();
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::c910()));
        let p = vm.mem.alloc(16 * 8 * 50_000, 64).unwrap();
        let t = analyze(
            &mut vm,
            "stream",
            &[Value::I64(p as i64), Value::I64(50_000)],
        )
        .unwrap();
        assert!(t.backend_bound > t.bad_speculation, "{t:?}");
        assert_eq!(t.dominant(), "backend-bound", "{t:?}");
        assert!(t.l1d_misses > 10_000, "{t:?}");
    }

    #[test]
    fn u74_reports_insufficient_counters() {
        let module = compile("t", COMPUTE).unwrap();
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::u74()));
        let e = analyze(&mut vm, "compute", &[Value::I64(100)]).unwrap_err();
        assert!(matches!(e, TmaError::InsufficientCounters(_)), "{e:?}");
    }

    #[test]
    fn works_on_x60_in_counting_mode() {
        // Sampling is broken on the X60 (pre-workaround) but TMA only
        // needs counting.
        let module = compile("t", COMPUTE).unwrap();
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::x60()));
        let t = analyze(&mut vm, "compute", &[Value::I64(10_000)]).unwrap();
        assert!(t.cycles > 0);
        let sum = t.retiring + t.bad_speculation + t.backend_bound + t.frontend_bound;
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
