//! Criterion benches over the execution substrate: interpreter
//! throughput per platform model (threaded vs reference engine, across
//! ALU-, memory-, and call-heavy workloads, and ALU-heavy under a
//! period-1000 sampler), the core retire path, and the branch predictor.
//!
//! The bench bodies live in `mperf_bench::interp_bench` so the
//! `bench_trajectory` runner measures exactly the same code.

use criterion::{criterion_group, criterion_main, Criterion};
use mperf_bench::interp_bench::{
    register_interp_benches, register_retire_benches, register_sampled_benches,
};
use std::hint::black_box;

fn bench_interp_throughput(c: &mut Criterion) {
    let _ = register_interp_benches(c);
    let _ = register_sampled_benches(c);
}

fn bench_core_retire(c: &mut Criterion) {
    register_retire_benches(c);
}

fn bench_branch_predictor(c: &mut Criterion) {
    c.bench_function("sim/gshare-10k", |b| {
        b.iter(|| {
            let mut bp = mperf_sim::BranchPredictor::new(14);
            let mut correct = 0u64;
            for i in 0..10_000u64 {
                if bp.predict_and_update(black_box(0x400 + i % 16), i % 7 != 0) {
                    correct += 1;
                }
            }
            correct
        })
    });
}

criterion_group!(
    benches,
    bench_interp_throughput,
    bench_core_retire,
    bench_branch_predictor
);
criterion_main!(benches);
