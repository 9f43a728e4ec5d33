//! Shared interpreter/retire benchmark bodies.
//!
//! Used from two places with identical code paths:
//! - `benches/simulator.rs` (criterion bench target, `cargo bench`),
//! - `src/bin/bench_trajectory.rs` (quick-mode perf-trajectory runner
//!   emitting `BENCH_interp.json`).
//!
//! Three interpreter workloads cover the three hot-path shapes the
//! threaded engine optimizes: a pure int-ALU `spin` loop, a
//! memory-heavy streaming kernel (exercises the batched-retire path on
//! cache-missing loads/stores), and a call-heavy tree (exercises the
//! call/return templates and the contiguous register stack). The
//! sampled rows run `spin` under `miniperf record`'s sampler at a low
//! period, so most superblocks start near a counter wrap.

use criterion::Criterion;
use mperf_sim::machine_op::{MachineOp, MemRef, OpClass};
use mperf_sim::{Core, Platform, PlatformSpec};
use mperf_vm::{Engine, Value, Vm};
use std::hint::black_box;
use std::sync::Arc;

/// Pure integer ALU loop (the seed benchmark's shape).
pub const SPIN_SRC: &str = r#"
    fn spin(n: i64) -> i64 {
        var s: i64 = 0;
        for (var i: i64 = 0; i < n; i = i + 1) {
            s = (s ^ i) + (i >> 2);
        }
        return s;
    }
"#;

/// Memory-heavy: strided stores + loads over a 64 KiB working set, so
/// retire sees a stream of cache-missing memory ops.
pub const MEM_SRC: &str = r#"
    fn mem_stream(p: *i64, n: i64) -> i64 {
        var s: i64 = 0;
        for (var i: i64 = 0; i < n; i = i + 1) {
            p[(i * 17) % 8192] = p[(i * 5) % 8192] + i;
            s = s + p[(i * 9) % 8192];
        }
        return s;
    }
"#;

/// Call-heavy: a helper call every iteration plus a recursive warmup,
/// so frame push/pop dominates.
pub const CALL_SRC: &str = r#"
    fn helper(x: i64, y: i64) -> i64 { return (x ^ y) + (x >> 1); }
    fn fib(n: i64) -> i64 {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    fn call_tree(p: *i64, n: i64) -> i64 {
        var acc: i64 = fib(10);
        for (var i: i64 = 0; i < n; i = i + 1) {
            acc = acc + helper(p[i % 64], i);
        }
        return acc;
    }
"#;

/// One interpreter workload: source + entry + working-set size + args.
pub struct InterpWorkload {
    pub name: &'static str,
    pub src: &'static str,
    pub entry: &'static str,
    /// Guest buffer of `i64` words to allocate and fill (0 = none).
    pub buf_words: u64,
    /// Trip count passed as the last argument.
    pub n: i64,
}

/// The interpreter workload matrix.
pub fn interp_workloads() -> Vec<InterpWorkload> {
    vec![
        InterpWorkload {
            name: "spin",
            src: SPIN_SRC,
            entry: "spin",
            buf_words: 0,
            n: 10_000,
        },
        InterpWorkload {
            name: "mem-stream",
            src: MEM_SRC,
            entry: "mem_stream",
            buf_words: 8192,
            n: 4_000,
        },
        InterpWorkload {
            name: "call-tree",
            src: CALL_SRC,
            entry: "call_tree",
            buf_words: 64,
            n: 3_000,
        },
    ]
}

/// Benchmarked platforms (in-order RISC-V vs wide OoO x86, as in the
/// seed bench).
pub fn interp_platforms() -> [Platform; 2] {
    [Platform::SpacemitX60, Platform::IntelI5_1135G7]
}

/// Metadata for one registered interpreter bench, so callers can turn
/// criterion's ns/iter into MIR ops/sec.
pub struct InterpBenchInfo {
    /// Criterion bench id (`vm/interp-throughput/<workload>-<platform>-<engine>`).
    pub id: String,
    pub workload: &'static str,
    pub platform: &'static str,
    pub engine: &'static str,
    /// MIR ops executed by a single benched call.
    pub mir_ops_per_call: u64,
    /// Decode-time register-allocation stats (zeros when regalloc was
    /// off for this config or the engine is the reference).
    pub regalloc_static: mperf_vm::RegallocStats,
    /// Runtime copy-traffic split of one call.
    pub regalloc_dyn: mperf_vm::RegallocDynamics,
    /// Cache-hierarchy counters of one call (feeds the `mru` section of
    /// `BENCH_interp.json`).
    pub mem: MemStats,
}

/// Cache counters of one sanity run: per level (accesses, misses, hits
/// served by the MRU fast probe).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l1_mru_hits: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub l2_mru_hits: u64,
}

/// One engine configuration benchmarked per workload × platform.
/// `seed` reproduces the pre-PR execution stack: the structure-walking
/// interpreter plus the per-op 32-counter PMU scan. `threaded` is the
/// production default (template dispatch + superblock retire, with
/// register allocation on); `threaded-noregalloc` isolates the decode
/// pass.
#[derive(Clone, Copy)]
pub struct EngineConfig {
    pub name: &'static str,
    pub engine: Engine,
    pub regalloc: bool,
    pub pmu_batched: bool,
}

/// The seed configuration every sanity run is checked against.
const SEED: EngineConfig = EngineConfig {
    name: "seed",
    engine: Engine::Reference,
    regalloc: true,
    pmu_batched: false,
};

/// The benchmarked engine configurations, fastest first.
pub fn engine_configs() -> [EngineConfig; 4] {
    [
        EngineConfig {
            name: "threaded",
            engine: Engine::Threaded,
            regalloc: true,
            pmu_batched: true,
        },
        EngineConfig {
            name: "threaded-noregalloc",
            engine: Engine::Threaded,
            regalloc: false,
            pmu_batched: true,
        },
        EngineConfig {
            name: "reference",
            engine: Engine::Reference,
            regalloc: true,
            pmu_batched: true,
        },
        SEED,
    ]
}

/// Everything one un-timed sanity execution of a workload reports.
pub struct WorkloadRun {
    pub out: Vec<Value>,
    pub mir_ops: u64,
    pub regalloc_dyn: mperf_vm::RegallocDynamics,
    pub mem: MemStats,
}

fn run_workload(
    module: &mperf_ir::Module,
    spec: PlatformSpec,
    cfg: EngineConfig,
    decoded: Option<&Arc<mperf_vm::DecodedModule>>,
    w: &InterpWorkload,
) -> WorkloadRun {
    let mut core = Core::new(spec);
    core.set_pmu_batching(cfg.pmu_batched);
    let mut vm = Vm::with_memory(module, core, 1 << 20);
    vm.set_engine(cfg.engine);
    if let Some(d) = decoded {
        vm.set_decoded(Arc::clone(d));
    }
    vm.set_regalloc(cfg.regalloc);
    let mut args = Vec::new();
    if w.buf_words > 0 {
        let base = vm.mem.alloc(8 * w.buf_words, 8).expect("bench buffer");
        for i in 0..w.buf_words {
            vm.mem
                .write_u64(base + i * 8, i.wrapping_mul(2_654_435_761))
                .expect("bench buffer fill");
        }
        args.push(Value::I64(base as i64));
    }
    args.push(Value::I64(black_box(w.n)));
    let out = vm.call(w.entry, &args).expect("bench workload runs");
    let (l1_accesses, l1_misses) = vm.core.mem().l1d_stats();
    let (l2_accesses, l2_misses) = vm.core.mem().l2_stats();
    let mem = MemStats {
        l1_accesses,
        l1_misses,
        l1_mru_hits: vm.core.mem().l1d_mru_hits(),
        l2_accesses,
        l2_misses,
        l2_mru_hits: vm.core.mem().l2_mru_hits(),
    };
    WorkloadRun {
        out,
        mir_ops: vm.stats().mir_ops,
        regalloc_dyn: vm.regalloc_dynamics(),
        mem,
    }
}

/// Register the `vm/interp-throughput` group: every workload × platform
/// × engine. Returns per-bench metadata aligned with the criterion ids.
pub fn register_interp_benches(c: &mut Criterion) -> Vec<InterpBenchInfo> {
    register_interp_benches_filter(c, |_| true)
}

/// [`register_interp_benches`] with the engine-configuration set
/// selectable: `keep` decides which [`engine_configs`] rows are
/// measured. `bench_trajectory --check` keeps only the guard-relevant
/// rows.
pub fn register_interp_benches_filter(
    c: &mut Criterion,
    keep: impl Fn(&EngineConfig) -> bool,
) -> Vec<InterpBenchInfo> {
    let mut infos = Vec::new();
    let mut g = c.benchmark_group("vm/interp-throughput");
    for w in interp_workloads() {
        for platform in interp_platforms() {
            let spec = platform.spec();
            let module =
                mperf_workloads::compile_for("b", w.src, platform, false).expect("bench compiles");
            // Decode once per flavour outside the timed loop (the
            // roofline-sweep usage pattern: many short-lived VMs, one
            // decode). Configs pick the decode matching their pass flag
            // so no re-decode lands inside the measurement.
            let decode_of = |regalloc: bool| {
                mperf_vm::decode_module_cfg(&module, mperf_vm::DecodeConfig { regalloc })
            };
            let (full, noregalloc) = (decode_of(true), decode_of(false));
            for cfg in engine_configs() {
                if !keep(&cfg) {
                    continue;
                }
                let decoded = if cfg.regalloc { &full } else { &noregalloc };
                // Sanity-run once, outside timing: configs must agree.
                let run = run_workload(&module, spec.clone(), cfg, Some(decoded), &w);
                let seed_run = run_workload(&module, spec.clone(), SEED, None, &w);
                assert_eq!(
                    run.out, seed_run.out,
                    "engine configs diverge on {}",
                    w.name
                );

                let id = format!("{}-{}-{}", w.name, spec.name, cfg.name);
                g.bench_function(&id, |b| {
                    b.iter(|| run_workload(&module, spec.clone(), cfg, Some(decoded), &w).out)
                });
                let is_threaded = cfg.engine == Engine::Threaded;
                infos.push(InterpBenchInfo {
                    id: format!("vm/interp-throughput/{id}"),
                    workload: w.name,
                    platform: spec.name,
                    engine: cfg.name,
                    mir_ops_per_call: run.mir_ops,
                    regalloc_static: if is_threaded && cfg.regalloc {
                        decoded.regalloc
                    } else {
                        mperf_vm::RegallocStats::default()
                    },
                    regalloc_dyn: run.regalloc_dyn,
                    mem: run.mem,
                });
            }
        }
    }
    g.finish();
    infos
}

/// Sampling period of the `vm/interp-sampled` rows: the low-period
/// regime `record --period 1000` runs in, where some counter is near a
/// wrap most of the time.
pub const SAMPLED_PERIOD: u64 = 1_000;

/// Metadata for one registered sampled-interpreter bench.
pub struct SampledBenchInfo {
    /// Criterion bench id (`vm/interp-sampled/<workload>-<platform>-<engine>`).
    pub id: String,
    pub workload: &'static str,
    pub platform: &'static str,
    pub engine: &'static str,
    /// MIR ops executed by a single benched call.
    pub mir_ops_per_call: u64,
    /// Samples one call records.
    pub samples: u64,
}

/// Register the `vm/interp-sampled` group: `spin` recorded the way
/// `miniperf record` samples at [`SAMPLED_PERIOD`] — the X60 through its
/// `u_mode_cycle` leader group, the i5 directly on cycles — on the
/// threaded and reference engines. Returns per-bench metadata aligned
/// with the criterion ids.
pub fn register_sampled_benches(c: &mut Criterion) -> Vec<SampledBenchInfo> {
    let w = interp_workloads()
        .into_iter()
        .find(|w| w.name == "spin")
        .expect("spin workload");
    let mut infos = Vec::new();
    let mut g = c.benchmark_group("vm/interp-sampled");
    for platform in interp_platforms() {
        let spec = platform.spec();
        let module =
            mperf_workloads::compile_for("b", w.src, platform, false).expect("bench compiles");
        let decoded =
            mperf_vm::decode_module_cfg(&module, mperf_vm::DecodeConfig { regalloc: true });
        let run = |engine: Engine| {
            let mut vm = Vm::with_memory(&module, Core::new(spec.clone()), 1 << 20);
            vm.set_engine(engine);
            vm.set_decoded(Arc::clone(&decoded));
            let cfg = miniperf::RecordConfig {
                period: SAMPLED_PERIOD,
            };
            let profile = miniperf::record(&mut vm, w.entry, &[Value::I64(black_box(w.n))], cfg)
                .expect("spin records");
            (profile, vm.stats().mir_ops)
        };
        // Sanity-run once, outside timing: the engines record the same
        // profile.
        let (reference, mir_ops) = run(Engine::Reference);
        for (name, engine) in [
            ("threaded", Engine::Threaded),
            ("reference", Engine::Reference),
        ] {
            let (profile, _) = run(engine);
            assert_eq!(profile, reference, "sampled spin diverges on {}", spec.name);
            let id = format!("{}-{}-{}", w.name, spec.name, name);
            g.bench_function(&id, |b| b.iter(|| run(engine).1));
            infos.push(SampledBenchInfo {
                id: format!("vm/interp-sampled/{id}"),
                workload: w.name,
                platform: spec.name,
                engine: name,
                mir_ops_per_call: mir_ops,
                samples: profile.samples.len() as u64,
            });
        }
    }
    g.finish();
    infos
}

/// Register the `sim/retire-*` microbenches (core retire fast path).
pub fn register_retire_benches(c: &mut Criterion) {
    c.bench_function("sim/retire-alu-10k", |b| {
        b.iter(|| {
            let mut core = Core::new(PlatformSpec::x60());
            for i in 0..10_000u64 {
                core.retire(black_box(&MachineOp::simple(OpClass::IntAlu, i % 64)));
            }
            core.cycles()
        })
    });
    c.bench_function("sim/retire-load-stream-10k", |b| {
        b.iter(|| {
            let mut core = Core::new(PlatformSpec::x60());
            for i in 0..10_000u64 {
                let op = MachineOp::simple(OpClass::Load, i % 64).with_mem(MemRef::scalar(
                    0x1_0000 + (i * 64) % (1 << 20),
                    8,
                    false,
                ));
                core.retire(black_box(&op));
            }
            core.cycles()
        })
    });
    // Retire with a counter programmed near overflow: exercises the
    // watermark slow path so regressions there stay visible.
    c.bench_function("sim/retire-alu-armed-10k", |b| {
        b.iter(|| {
            let mut core = Core::new(PlatformSpec::x60());
            core.pmu_mut()
                .set_event(3, Some(mperf_sim::HwEvent::Instructions));
            core.pmu_mut().write(3, (-2_000i64) as u64);
            core.pmu_mut().set_irq_enable(3, true);
            let mut fired = 0u64;
            for i in 0..10_000u64 {
                let info = core.retire(black_box(&MachineOp::simple(OpClass::IntAlu, i % 64)));
                if info.overflow != 0 {
                    fired += 1;
                    core.pmu_mut().write(3, (-2_000i64) as u64);
                }
            }
            fired
        })
    });
}
