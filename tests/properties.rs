//! Property-based tests over the cross-crate invariants: compiled MiniC
//! arithmetic matches Rust semantics on random inputs, the perf ring
//! buffer round-trips arbitrary samples, PMU counting is exact, and the
//! thread-parallel roofline sweep is bit-identical to the serial sweep.

use miniperf::{RooflineJob, RooflineRequest};
use mperf_event::{Record, RingBuffer, SampleRecord, SampleType};
use mperf_ir::transform::instrument::{InstrumentOptions, InstrumentPass};
use mperf_ir::transform::PassManager;
use mperf_sim::{Core, PlatformSpec};
use mperf_vm::{Engine, ExecConfig, Value, Vm, VmError};
use proptest::prelude::*;

/// The four platform models every equivalence property runs on.
fn platforms() -> [PlatformSpec; 4] {
    [
        PlatformSpec::x60(),
        PlatformSpec::c910(),
        PlatformSpec::u74(),
        PlatformSpec::i5_1135g7(),
    ]
}

/// Program templates for the threaded/reference equivalence property.
/// Together they exercise arithmetic, control flow, memory traffic,
/// guest-to-guest calls (recursion), floats, casts, and traps.
const EQUIV_TEMPLATES: &[&str] = &[
    // Mixed integer arithmetic with data-dependent branches.
    r#"
        fn main(p: *i64, n: i64) -> i64 {
            var acc: i64 = 0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                var op: i64 = p[i % 32] % 4;
                if (op == 0) { acc = acc + i * 3; }
                else if (op == 1) { acc = acc ^ (i << 2); }
                else if (op == 2) { acc = acc + p[(acc % 16 + 16) % 32]; }
                else { acc = acc - (i % 7); }
            }
            return acc;
        }
    "#,
    // Memory-heavy: strided loads and stores, plus a flop-free unary
    // negation in straight-line code (a superblock shape whose
    // instruction events once leaked between the block tick lanes).
    r#"
        fn main(p: *i64, n: i64) -> i64 {
            for (var i: i64 = 0; i < n; i = i + 1) {
                p[i % 32] = -p[(i * 7) % 32] + i;
            }
            var s: i64 = 0;
            for (var j: i64 = 0; j < 32; j = j + 1) { s = s + (-s ^ p[j]); }
            return s;
        }
    "#,
    // Call-heavy: recursion plus a helper call per iteration.
    r#"
        fn helper(x: i64) -> i64 { return x * 2 + 1; }
        fn fib(n: i64) -> i64 {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main(p: *i64, n: i64) -> i64 {
            var acc: i64 = fib(n % 12);
            for (var i: i64 = 0; i < n; i = i + 1) {
                acc = acc + helper(p[i % 32]);
            }
            return acc;
        }
    "#,
    // Floats, casts, and FP compare chains.
    r#"
        fn main(p: *i64, n: i64) -> i64 {
            var s: f64 = 0.0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                var x: f64 = (i * 13 % 97) as f64;
                if (x > 48.0) { s = s + x * 1.5; } else { s = s - x / 3.0; }
            }
            return (s as i64) + p[0];
        }
    "#,
];

/// The engine × pass matrix pinned against the reference engine: the
/// threaded (template + superblock) engine with register allocation on
/// and off.
fn engine_matrix() -> [(&'static str, ExecConfig); 2] {
    let threaded = |regalloc| ExecConfig {
        engine: Engine::Threaded,
        regalloc,
    };
    [
        ("threaded/regalloc", threaded(true)),
        ("threaded/bare", threaded(false)),
    ]
}

/// The oracle every matrix entry is compared against.
const REFERENCE: ExecConfig = ExecConfig {
    engine: Engine::Reference,
    regalloc: true,
};

/// Run one template on one platform/engine; returns every observable:
/// (ret, stats, cycles, instructions, pmu counters).
fn run_equiv(
    module: &mperf_ir::Module,
    spec: PlatformSpec,
    cfg: ExecConfig,
    data: &[i64],
    n: i64,
) -> (Vec<Value>, mperf_vm::ExecStats, u64, u64, Vec<u64>) {
    let mut vm = Vm::with_memory(module, Core::new(spec), 1 << 20);
    vm.configure(cfg);
    let base = vm.mem.alloc(8 * data.len() as u64, 8).unwrap();
    for (i, v) in data.iter().enumerate() {
        vm.mem.write_u64(base + i as u64 * 8, *v as u64).unwrap();
    }
    let ret = vm
        .call("main", &[Value::I64(base as i64), Value::I64(n)])
        .unwrap();
    let pmu: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
        .map(|i| vm.core.pmu().read(i))
        .collect();
    (
        ret,
        vm.stats(),
        vm.core.cycles(),
        vm.core.instructions(),
        pmu,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled integer expressions agree with Rust's wrapping semantics,
    /// including after constant folding and strength reduction.
    #[test]
    fn compiled_arithmetic_matches_host(a in -1_000_000i64..1_000_000, b in 1i64..4096) {
        let src = r#"
            fn f(a: i64, b: i64) -> i64 {
                return (a + b) * 3 - a / b + a % b + (a << 2) - (a >> 1) + (a & b) + (a | b) + (a ^ b);
            }
        "#;
        let mut module = mperf_ir::compile("p", src).unwrap();
        PassManager::standard().run(&mut module);
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::u74()));
        let out = vm.call("f", &[Value::I64(a), Value::I64(b)]).unwrap();
        let expected = (a.wrapping_add(b)).wrapping_mul(3)
            .wrapping_sub(a / b)
            .wrapping_add(a % b)
            .wrapping_add(a << 2)
            .wrapping_sub(a >> 1)
            .wrapping_add(a & b)
            .wrapping_add(a | b)
            .wrapping_add(a ^ b);
        prop_assert_eq!(out, vec![Value::I64(expected)]);
    }

    /// The fixed instruction counter is exact: a counted loop retires an
    /// exactly predictable instruction count on the 1:1 RISC-V model.
    #[test]
    fn instret_is_deterministic(n in 1i64..500) {
        let src = "fn f(n: i64) -> i64 { var s: i64 = 0; for (var i: i64 = 0; i < n; i = i + 1) { s = s + i; } return s; }";
        let module = mperf_ir::compile("p", src).unwrap();
        let run = || {
            let mut vm = Vm::new(&module, Core::new(PlatformSpec::u74()));
            vm.call("f", &[Value::I64(n)]).unwrap();
            vm.core.instructions()
        };
        prop_assert_eq!(run(), run(), "same program, same instret");
    }

    /// Ring buffers round-trip arbitrary sample batches (drop-free when
    /// sized generously).
    #[test]
    fn ring_roundtrip(ips in proptest::collection::vec(0u64..u64::MAX, 1..40)) {
        let st = SampleType::full();
        let mut ring = RingBuffer::new(64 * 1024, st);
        for (i, ip) in ips.iter().enumerate() {
            let s = SampleRecord {
                ip: Some(*ip),
                tid: Some(i as u32),
                time: Some(i as u64 * 7),
                period: Some(1000),
                read_group: vec![(1, *ip ^ 0xffff), (2, i as u64)],
                callchain: vec![*ip, ip.wrapping_add(1)],
            };
            prop_assert!(ring.push_sample(&s));
        }
        let records = ring.drain();
        prop_assert_eq!(records.len(), ips.len());
        for (r, ip) in records.iter().zip(&ips) {
            match r {
                Record::Sample(s) => prop_assert_eq!(s.ip, Some(*ip)),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    /// Guest float kernels match host computation bit-for-bit for fused
    /// shapes that avoid reassociation.
    #[test]
    fn float_store_load_roundtrip(vals in proptest::collection::vec(-1e6f32..1e6, 1..64)) {
        let src = r#"
            fn scale(p: *f32, n: i64, k: f32) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    p[i] = p[i] * k;
                }
            }
        "#;
        let mut module = mperf_ir::compile("p", src).unwrap();
        PassManager::standard().run(&mut module);
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::x60()));
        let p = vm.mem.alloc(vals.len() as u64 * 4, 8).unwrap();
        for (i, v) in vals.iter().enumerate() {
            vm.mem.write_f32(p + i as u64 * 4, *v).unwrap();
        }
        vm.call("scale", &[Value::I64(p as i64), Value::I64(vals.len() as i64), Value::F32(1.5)]).unwrap();
        for (i, v) in vals.iter().enumerate() {
            let got = vm.mem.read_f32(p + i as u64 * 4).unwrap();
            prop_assert_eq!(got, v * 1.5);
        }
    }

    /// The threaded engine, which executes the decoded stream — with
    /// and without register allocation — is observably identical to
    /// the reference interpreter: for generated programs (random
    /// template, input data, and trip count, with and without the
    /// optimization pipeline) every configuration returns the same
    /// values and leaves bit-identical `ExecStats`, cycle counts,
    /// instruction counts, and PMU counter files on every platform
    /// model. Decode-time passes change speed, never observables.
    #[test]
    fn decoded_engine_matches_reference(
        tpl in 0usize..4,
        optimize in 0u64..2,
        n in 1i64..120,
        data in proptest::collection::vec(-1_000i64..1_000, 32..33),
    ) {
        let mut module = mperf_ir::compile("equiv", EQUIV_TEMPLATES[tpl]).unwrap();
        if optimize == 1 {
            PassManager::standard().run(&mut module);
        }
        for spec in platforms() {
            let reference = run_equiv(&module, spec.clone(), REFERENCE, &data, n);
            for (label, cfg) in engine_matrix() {
                let threaded = run_equiv(&module, spec.clone(), cfg, &data, n);
                prop_assert_eq!(
                    &reference.0, &threaded.0,
                    "return values ({}, {})", spec.name, label
                );
                prop_assert_eq!(reference.1, threaded.1, "ExecStats ({}, {})", spec.name, label);
                prop_assert_eq!(reference.2, threaded.2, "cycles ({}, {})", spec.name, label);
                prop_assert_eq!(
                    reference.3, threaded.3,
                    "instructions ({}, {})", spec.name, label
                );
                prop_assert_eq!(
                    &reference.4, &threaded.4,
                    "PMU counters ({}, {})", spec.name, label
                );
            }
        }
    }

    /// The thread-parallel roofline sweep is bit-identical to the
    /// serial sweep: for generated instrumented workloads, running the
    /// two-phase protocol at `jobs ∈ {2, 4}` produces the same
    /// `RegionMeasurement`s, `ExecStats`, cycle counts, instruction
    /// counts, and PMU counter files as `jobs = 1` on every platform
    /// model — and the supervised sweep over all four platforms at once
    /// agrees cell for cell. Every run is also pinned
    /// against the reference engine, so parallel threaded execution ≡
    /// serial reference execution.
    #[test]
    fn parallel_sweep_matches_serial_sweep(
        kernel in 0usize..2,
        n in 16i64..96,
        reps in 1i64..4,
    ) {
        const SWEEP_KERNELS: &[(&str, &str)] = &[
            ("saxpy", r#"
                fn saxpy(a: *f32, b: *f32, n: i64, reps: i64, k: f32) {
                    for (var r: i64 = 0; r < reps; r = r + 1) {
                        for (var i: i64 = 0; i < n; i = i + 1) {
                            a[i] = a[i] + k * b[i];
                        }
                    }
                }
            "#),
            ("saxpy", r#"
                fn inner(a: *f32, b: *f32, n: i64) {
                    for (var i: i64 = 0; i < n; i = i + 1) {
                        a[i] = a[i] * 0.5 + b[i];
                    }
                }
                fn saxpy(a: *f32, b: *f32, n: i64, reps: i64, k: f32) {
                    for (var r: i64 = 0; r < reps; r = r + 1) {
                        inner(a, b, n);
                    }
                }
            "#),
        ];
        let mut module = mperf_ir::compile("sweep", SWEEP_KERNELS[kernel].1).unwrap();
        PassManager::standard().run(&mut module);
        InstrumentPass::new(InstrumentOptions::default()).run(&mut module);
        let entry = SWEEP_KERNELS[kernel].0;
        let setup = move |vm: &mut Vm| -> Result<Vec<Value>, VmError> {
            let a = vm.mem.alloc(n as u64 * 4, 64)?;
            let b = vm.mem.alloc(n as u64 * 4, 64)?;
            for i in 0..n as u64 {
                vm.mem.write_f32(a + i * 4, i as f32)?;
                vm.mem.write_f32(b + i * 4, 1.0 + i as f32 / 7.0)?;
            }
            Ok(vec![
                Value::I64(a as i64),
                Value::I64(b as i64),
                Value::I64(n),
                Value::I64(reps),
                Value::F32(1.5),
            ])
        };
        let specs = platforms();
        let mut serial_runs = Vec::new();
        for spec in &specs {
            let serial = RooflineRequest::new().run(&module, spec, entry, &setup).unwrap();
            // The sweep defaults to the threaded engine; the reference
            // engine must produce the identical run (cross-engine sweep
            // identity), so parallel threaded ≡ serial reference too.
            let oracle = RooflineRequest::new()
                .config(REFERENCE)
                .run(&module, spec, entry, &setup)
                .unwrap();
            prop_assert_eq!(
                &serial, &oracle,
                "threaded sweep diverges from reference sweep ({})", spec.name
            );
            for jobs in [2usize, 4] {
                let parallel = RooflineRequest::new()
                    .jobs(jobs)
                    .run(&module, spec, entry, &setup)
                    .unwrap();
                // Field-by-field on the named observables first (sharper
                // failure messages), then whole-run equality.
                prop_assert_eq!(
                    &serial.regions, &parallel.regions,
                    "RegionMeasurements ({}, jobs={})", spec.name, jobs
                );
                for (s, p) in [(&serial.baseline, &parallel.baseline),
                               (&serial.instrumented, &parallel.instrumented)] {
                    prop_assert_eq!(s.exec, p.exec, "ExecStats ({}, jobs={})", spec.name, jobs);
                    prop_assert_eq!(
                        s.total_cycles, p.total_cycles,
                        "cycles ({}, jobs={})", spec.name, jobs
                    );
                    prop_assert_eq!(
                        s.instructions, p.instructions,
                        "instructions ({}, jobs={})", spec.name, jobs
                    );
                    prop_assert_eq!(&s.pmu, &p.pmu, "PMU counters ({}, jobs={})", spec.name, jobs);
                }
                prop_assert_eq!(&serial, &parallel, "whole run ({}, jobs={})", spec.name, jobs);
            }
            serial_runs.push(serial);
        }
        // The supervised matrix sweep (all four platforms as cells in
        // one worker pool) agrees with the per-platform serial runs, in
        // cell order.
        let cells: Vec<RooflineJob> = specs
            .iter()
            .map(|spec| RooflineJob {
                module: &module,
                decoded: None,
                spec: spec.clone(),
                entry: entry.to_string(),
                setup: Box::new(setup),
            })
            .collect();
        for jobs in [2usize, 4] {
            let swept = RooflineRequest::new().jobs(jobs).run_supervised(&cells).unwrap();
            for (serial, cell) in serial_runs.iter().zip(&swept.report.results) {
                let cell = cell.as_ref().unwrap();
                prop_assert_eq!(serial, cell, "sweep cell (jobs={})", jobs);
            }
        }
    }

    /// Fuel traps are engine-equivalent too: every configuration stops
    /// at the same op with the same error and the same partial
    /// statistics on every platform model. Random fuel values land the
    /// exhaustion point *inside* superblocks (the block-entry fuel guard
    /// then runs the block op by op) and *on* elided-copy slots (the
    /// loop body's `s = ...` copy coalesces away under regalloc).
    #[test]
    fn decoded_engine_matches_reference_on_traps(fuel in 50u64..400) {
        let src = "fn main(n: i64) -> i64 { var s: i64 = 0; while (true) { s = s + n; } return s; }";
        let module = mperf_ir::compile("trap", src).unwrap();
        for spec in platforms() {
            let run = |cfg: ExecConfig| {
                let mut vm = Vm::with_memory(&module, Core::new(spec.clone()), 1 << 20);
                vm.configure(cfg);
                vm.set_fuel(fuel);
                let err = vm.call("main", &[Value::I64(3)]).unwrap_err();
                (format!("{err:?}"), vm.stats(), vm.core.cycles())
            };
            let reference = run(REFERENCE);
            for (label, cfg) in engine_matrix() {
                prop_assert_eq!(&reference, &run(cfg), "{} ({})", label, spec.name);
            }
        }
    }

    /// Out-of-bounds traps land identically mid-superblock: a guest load
    /// through a bad pointer in a straight-line loop body faults at the
    /// same op with the same partial state (`ExecStats`, cycles) as the
    /// reference engine on every platform model — the block commits its
    /// partial accumulator and propagates — with and without the
    /// copy-coalescing pass rewriting the surrounding stream.
    #[test]
    fn oob_traps_mid_superblock_match_reference(n in 1i64..64, oob_at in 0i64..64) {
        let src = r#"
            fn main(p: *i64, n: i64, bad: *i64, bad_at: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    if (i == bad_at) { s = s + bad[0]; }
                    s = s + p[i % 16];
                }
                return s;
            }
        "#;
        let module = mperf_ir::compile("memtrap", src).unwrap();
        for spec in platforms() {
            let run = |cfg: ExecConfig| {
                let mut vm = Vm::with_memory(&module, Core::new(spec.clone()), 1 << 20);
                vm.configure(cfg);
                let base = vm.mem.alloc(8 * 16, 8).unwrap();
                for i in 0..16u64 {
                    vm.mem.write_u64(base + i * 8, i * 3).unwrap();
                }
                let r = vm.call(
                    "main",
                    &[
                        Value::I64(base as i64),
                        Value::I64(n),
                        Value::I64(-8), // out-of-bounds pointer
                        Value::I64(oob_at),
                    ],
                );
                (format!("{r:?}"), vm.stats(), vm.core.cycles())
            };
            let reference = run(REFERENCE);
            for (label, cfg) in engine_matrix() {
                prop_assert_eq!(&reference, &run(cfg), "{} ({})", label, spec.name);
            }
        }
    }

    /// Out-of-bounds traps land identically inside the vectorized
    /// triad's superblock, whose unit-stride vector loads and store
    /// retire in the block: on every vectorizing model (X60, C910, i5)
    /// one of the three arrays runs past the end of guest memory after
    /// `valid` elements, so a vector load or store faults mid-block with
    /// the same error, `ExecStats`, cycles and PMU counters as the
    /// reference engine.
    #[test]
    fn vector_triad_oob_traps_mid_superblock_match_reference(
        valid in 0u64..96,
        which in 0usize..3,
    ) {
        use mperf_sim::Platform;
        const MEM: u64 = 1 << 20;
        let n = 128i64;
        for platform in [Platform::SpacemitX60, Platform::TheadC910, Platform::IntelI5_1135G7] {
            let module = miniperf::cli::triad_module(platform);
            let run = |cfg: ExecConfig| {
                let mut vm = Vm::with_memory(&module, Core::new(platform.spec()), MEM as usize);
                vm.configure(cfg);
                let mut arrays = [0u64; 3];
                for p in &mut arrays {
                    *p = vm.mem.alloc(8 * n as u64, 64).unwrap();
                }
                arrays[which] = MEM - 8 * valid; // runs off the end of memory
                let mut args: Vec<Value> = arrays.iter().map(|p| Value::I64(*p as i64)).collect();
                args.extend([Value::I64(n), Value::F64(3.0)]);
                let r = vm.call("triad", &args);
                let pmu: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
                    .map(|i| vm.core.pmu().read(i))
                    .collect();
                (format!("{r:?}"), vm.stats(), vm.core.cycles(), pmu)
            };
            let reference = run(REFERENCE);
            prop_assert!(reference.0.contains("OutOfBounds"), "{}", reference.0);
            for (label, cfg) in engine_matrix() {
                prop_assert_eq!(&reference, &run(cfg), "{} ({:?})", label, platform);
            }
        }
    }
}

/// Overflow sampling is engine-exact: driving identical sampling setups
/// through every engine configuration (reference, and the threaded
/// engine with and without register allocation) produces the same
/// sample records — IP, callchain, time, period and group-read values,
/// plus any lost-record counts — the same final counter reads and the
/// same `samples_taken`. So overflow interrupts fire on the same ops,
/// including samples landing on elided-copy slots (which retire the same
/// `Move` at the same pc as the original copy). Each run opens the group
/// `record` opens: the leader plus its cycles (when the leader is not
/// the cycle counter) and instructions members. Near a counter wrap the
/// superblock guard (`block_ready`) refuses, and blocks run in exact
/// near-wrap mode or per op; at period 331, just above the handler's 250
/// cycles, every overflow leaves 81 cycles to the next one, so crossings
/// land inside most blocks. Runs on every model that can sample: the X60
/// through its `u_mode_cycle` raw event (§3.3), the C910 and i5 on
/// cycles; the U74 raises no overflow interrupts. Two programs: a scalar
/// call tree, and the vectorized triad, whose unit-stride vector loads
/// and store retire inside superblocks.
#[test]
fn decoded_engine_sampling_matches_reference() {
    use mperf_event::{EventKind, HwCounter, PerfEventAttr, PerfKernel, ReadFormat};

    let src = r#"
        fn inner(p: *i64, n: i64) -> i64 {
            var h: i64 = 0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                h = (h ^ p[i % 32]) * 31 + (i >> 2);
            }
            return h;
        }
        fn main(p: *i64, n: i64) -> i64 {
            var acc: i64 = 0;
            for (var r: i64 = 0; r < 40; r = r + 1) {
                acc = acc + inner(p, n);
            }
            return acc;
        }
    "#;
    let module = mperf_ir::compile("sampling", src).unwrap();

    let run = |module: &mperf_ir::Module, spec: &PlatformSpec, cfg: ExecConfig, period: u64| {
        let mut core = Core::new(spec.clone());
        let mut kernel = PerfKernel::new(&mut core);
        let x60 = spec.name == PlatformSpec::x60().name;
        let kind = if x60 {
            EventKind::Raw(core.spec.event_code(mperf_sim::HwEvent::UModeCycles))
        } else {
            EventKind::Hardware(HwCounter::Cycles)
        };
        let attr = PerfEventAttr {
            kind,
            sample_period: period,
            sample_type: SampleType::full(),
            read_format: ReadFormat {
                group: true,
                id: true,
            },
            disabled: true,
        };
        let fd = kernel.open(&mut core, attr, None).unwrap();
        let mut members = vec![HwCounter::Instructions];
        if x60 {
            members.insert(0, HwCounter::Cycles);
        }
        for hw in members {
            let member = PerfEventAttr::counting(EventKind::Hardware(hw));
            kernel.open(&mut core, member, Some(fd)).unwrap();
        }
        kernel.enable(&mut core, fd).unwrap();
        let mut vm = Vm::with_memory(module, Core::new(spec.clone()), 1 << 20);
        vm.core = core;
        vm.configure(cfg);
        vm.attach_kernel(kernel);
        if module.func_by_name("triad").is_some() {
            let n = 16_384u64;
            let arrays: Vec<Value> = (0..3)
                .map(|_| Value::I64(vm.mem.alloc(8 * n, 64).unwrap() as i64))
                .collect();
            let mut args = arrays;
            args.extend([Value::I64(n as i64), Value::F64(3.0)]);
            vm.call("triad", &args).unwrap();
        } else {
            let base = vm.mem.alloc(8 * 32, 8).unwrap();
            for i in 0..32u64 {
                vm.mem
                    .write_u64(base + i * 8, i.wrapping_mul(2_654_435_761))
                    .unwrap();
            }
            vm.call("main", &[Value::I64(base as i64), Value::I64(600)])
                .unwrap();
        }
        let mut kernel = vm.kernel.take().unwrap();
        let reads = kernel.read(&vm.core, fd).unwrap();
        let records = kernel.drain_records(fd).unwrap();
        let pmu: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
            .map(|i| vm.core.pmu().read(i))
            .collect();
        (
            records,
            reads,
            pmu,
            vm.core.cycles(),
            kernel.samples_taken(),
        )
    };

    for platform in [
        mperf_sim::Platform::SpacemitX60,
        mperf_sim::Platform::TheadC910,
        mperf_sim::Platform::IntelI5_1135G7,
    ] {
        let spec = platform.spec();
        let name = spec.name;
        let group = if platform == mperf_sim::Platform::SpacemitX60 {
            3
        } else {
            2
        };
        for module in [&module, &miniperf::cli::triad_module(platform)] {
            for period in [331, 700, 9973] {
                let reference = run(module, &spec, REFERENCE, period);
                let taken = reference.4;
                assert!(
                    taken > 5,
                    "expected a healthy sample stream on {name} at period {period}: {taken}"
                );
                assert!(
                    reference.0.iter().all(|r| match r {
                        Record::Sample(s) => s.read_group.len() == group,
                        Record::Lost(_) => true,
                    }),
                    "group reads carry the whole group ({name})"
                );
                for (label, cfg) in engine_matrix() {
                    let got = run(module, &spec, cfg, period);
                    let at = format!("{label}, {name}, period {period}");
                    let first = reference.0.iter().zip(&got.0).position(|(a, b)| a != b);
                    if let Some(i) = first {
                        assert_eq!(reference.0[i], got.0[i], "record {i} diverges ({at})");
                    }
                    assert_eq!(reference.0.len(), got.0.len(), "record counts ({at})");
                    assert_eq!(reference.1, got.1, "final group reads ({at})");
                    assert_eq!(reference.2, got.2, "PMU counter files ({at})");
                    assert_eq!(reference.3, got.3, "cycles ({at})");
                    assert_eq!(reference.4, got.4, "samples_taken ({at})");
                }
            }
        }
    }
}
