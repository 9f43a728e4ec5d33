//! Perf-trajectory runner: executes the `vm/interp-throughput`,
//! `vm/interp-sampled` and `sim/retire-*` benches in quick mode and
//! emits `BENCH_interp.json`,
//! then times the full `platform × workload` roofline sweep at 1/2/4
//! worker threads and emits `BENCH_sweep.json` — so future PRs have
//! checked-in baselines to compare against.
//!
//! ```text
//! bench_trajectory [--out PATH] [--sweep-out PATH] [--jobs N] [--full]
//!                  [--no-regalloc] [--check]
//! ```
//!
//! `--full` uses the normal (longer) measurement budget; default is
//! quick mode (~40 ms per bench, a scaled-down sweep matrix). `--jobs`
//! caps the largest worker count the sweep-scaling section measures
//! (default: 4, the trajectory baseline; thread counts beyond the
//! host's cores are still measured and simply won't scale).
//! `--no-regalloc` is the bisection escape hatch: the threaded row
//! running the escaped pass is not measured (and its guards don't
//! apply), leaving `threaded-noregalloc` plus `reference`/`seed`.
//!
//! `--check` is the CI gate: it runs only the guard-relevant rows
//! (`threaded`, `threaded-noregalloc`, `seed`) on the short workloads,
//! enforces the perf guards (`speedup_vs_seed ≥ 2` everywhere, `≥ 3.5`
//! on spin) and the regalloc copy-reduction guard (≥ 80% of dynamic
//! `Copy` traffic elided on spin/call-tree), prints ONE machine-
//! readable JSON line to stdout, and exits 0/1. Human detail goes to
//! stderr; no files are written.
//!
//! The interp JSON reports MIR ops/sec per workload × platform ×
//! engine plus the threaded-over-reference/seed speedups, the
//! `speedup_vs_noregalloc` ratio (rows where register allocation *slows
//! down* the engine get `"regression": true` and a stderr warning
//! instead of being checked in silently), the `regalloc` copy-traffic
//! section, the cache `mru` fast-probe hit rates, the `sampled` rows
//! (`spin` under `record`'s period-1000 sampler, threaded vs reference:
//! the near-wrap retire path), and ns/op for the retire microbenches;
//! the sweep JSON reports wall-clock and speedup per worker count — for
//! both the in-process thread pool and the multi-process sharded
//! supervisor (this binary re-entered as a sweep worker via
//! `MPERF_SWEEP_WORKER`) — after asserting every
//! configuration is bit-identical to the serial sweep. Both reports
//! embed (and the runner prints) the engine configuration they actually
//! ran, so checked-in baselines are self-describing.

use criterion::Criterion;
use miniperf::cli::{self, JobKind, JobSpec};
use miniperf::sweep_supervisor::encode_run;
use miniperf::{CommonOpts, RooflineRequest};
use mperf_bench::interp_bench::{
    register_interp_benches_filter, register_retire_benches, register_sampled_benches,
    EngineConfig, InterpBenchInfo, SAMPLED_PERIOD,
};
use mperf_bench::sweep_bench::SweepMatrix;
use mperf_sim::Platform;
use mperf_sweep::proto::Msg;
use mperf_sweep::serve::ClientSession;
use mperf_vm::{Engine, ExecConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One evaluated guard row (for the report and the `--check` JSON).
struct Guard {
    name: &'static str,
    workload: String,
    platform: String,
    value: f64,
    floor: f64,
}

impl Guard {
    fn pass(&self) -> bool {
        self.value >= self.floor
    }

    fn json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"workload\": \"{}\", \"platform\": \"{}\", \
             \"value\": {:.3}, \"floor\": {:.3}, \"pass\": {}}}",
            self.name,
            self.workload,
            self.platform,
            self.value,
            self.floor,
            self.pass()
        )
    }
}

struct Opts {
    out_path: String,
    sweep_out_path: String,
    full: bool,
    regalloc: bool,
    check: bool,
    max_jobs: usize,
    journal: Option<std::path::PathBuf>,
    resume: bool,
}

impl Opts {
    /// The headline configuration this run measures.
    fn headline(&self) -> &'static str {
        if self.regalloc {
            "threaded"
        } else {
            "threaded-noregalloc"
        }
    }

    /// The `config:` header naming what actually ran (the bugfix for
    /// silently-flagged runs: every report now self-describes). Shares
    /// [`ExecConfig::describe`] with `miniperf`'s header so the two
    /// formats cannot drift.
    fn config_line(&self) -> String {
        let exec = ExecConfig {
            engine: Engine::Threaded,
            regalloc: self.regalloc,
        };
        format!(
            "config: {} mode={} headline={}",
            exec.describe(),
            if self.check {
                "check"
            } else if self.full {
                "full"
            } else {
                "quick"
            },
            self.headline(),
        )
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        out_path: String::from("BENCH_interp.json"),
        sweep_out_path: String::from("BENCH_sweep.json"),
        full: false,
        regalloc: true,
        check: false,
        max_jobs: 4,
        journal: None,
        resume: false,
    };
    let usage = |msg: &str| -> ! {
        eprintln!("bench_trajectory: {msg}");
        eprintln!(
            "usage: bench_trajectory [--out PATH] [--sweep-out PATH] [--jobs N] [--full] \
             [--no-regalloc] [--journal PATH] [--resume] [--check]"
        );
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => opts.out_path = p,
                None => usage("--out needs a path"),
            },
            "--sweep-out" => match args.next() {
                Some(p) => opts.sweep_out_path = p,
                None => usage("--sweep-out needs a path"),
            },
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v >= 1 => opts.max_jobs = v,
                Some(_) => usage("--jobs needs a positive integer"),
                None => usage("--jobs needs a value"),
            },
            "--full" => opts.full = true,
            "--no-regalloc" => opts.regalloc = false,
            "--journal" => match args.next() {
                Some(p) => opts.journal = Some(std::path::PathBuf::from(p)),
                None => usage("--journal needs a path"),
            },
            "--resume" => opts.resume = true,
            "--check" => opts.check = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if opts.check && !opts.regalloc {
        usage("--check gates the production configuration; drop --no-regalloc");
    }
    if opts.resume && opts.journal.is_none() {
        usage("--resume requires --journal");
    }
    opts
}

/// Look up criterion ns/iter by bench id.
fn ns_lookup<'a>(c: &'a Criterion) -> impl Fn(&str) -> f64 + 'a {
    move |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.ns_per_iter)
            .unwrap_or_else(|| panic!("missing bench result for {id}"))
    }
}

/// The speedup guards over one engine's rows: `speedup_vs_seed ≥ 2`
/// everywhere, plus a spin floor for the fully-optimized headline
/// (`≥ 3.5`; `None` when the run escapes a pass).
fn speedup_guards(
    infos: &[InterpBenchInfo],
    ns_of: &impl Fn(&str) -> f64,
    engine: &str,
    spin_floor: Option<f64>,
) -> Vec<Guard> {
    let mut guards = Vec::new();
    for info in infos.iter().filter(|i| i.engine == engine) {
        let ns = ns_of(&info.id);
        let suffix = format!("-{}", info.engine);
        let vs_seed = ns_of(&info.id.replace(&suffix, "-seed")) / ns;
        let floor = match spin_floor {
            Some(f) if info.workload == "spin" => f,
            _ => 2.0,
        };
        guards.push(Guard {
            name: "speedup_vs_seed",
            workload: info.workload.to_string(),
            platform: info.platform.to_string(),
            value: vs_seed,
            floor,
        });
    }
    guards
}

/// The regalloc copy-traffic guards: on the spin and call-tree
/// workloads, ≥ 80% of the dynamic `Copy` ops that moved data without
/// register allocation must be elided with it on. Copy counts are
/// deterministic (no timing involved), so these are enforced in every
/// mode.
fn copy_reduction_guards(infos: &[InterpBenchInfo]) -> Vec<Guard> {
    let mut guards = Vec::new();
    for info in infos.iter().filter(|i| i.engine == "threaded") {
        if info.workload != "spin" && info.workload != "call-tree" {
            continue;
        }
        let Some(off) = infos.iter().find(|i| {
            i.engine == "threaded-noregalloc"
                && i.workload == info.workload
                && i.platform == info.platform
        }) else {
            continue;
        };
        let moved_off = off.regalloc_dyn.copies_moved.max(1) as f64;
        let reduction = 1.0 - info.regalloc_dyn.copies_moved as f64 / moved_off;
        guards.push(Guard {
            name: "copy_reduction",
            workload: info.workload.to_string(),
            platform: info.platform.to_string(),
            value: reduction,
            floor: 0.8,
        });
    }
    guards
}

/// One `--check` measurement pass at the given per-bench budget.
fn measure_check(budget_ms: u64) -> Vec<Guard> {
    // Quiet: stdout carries exactly one machine-readable JSON line.
    let mut c = Criterion::default().quiet(true);
    c.measurement_time(Duration::from_millis(budget_ms));
    let infos =
        register_interp_benches_filter(&mut c, |cfg: &EngineConfig| cfg.name != "reference");
    let ns_of = ns_lookup(&c);
    // Register allocation slowing the engine down is flagged, not gated.
    for info in infos.iter().filter(|i| i.engine == "threaded") {
        let ns = ns_of(&info.id);
        let vs_noregalloc = ns_of(&info.id.replace("-threaded", "-threaded-noregalloc")) / ns;
        if vs_noregalloc < 0.95 {
            eprintln!(
                "  warning: pass regression on {}/{}: speedup_vs_noregalloc \
                 {vs_noregalloc:.2} (floor 0.95)",
                info.workload, info.platform
            );
        }
    }
    let mut guards = speedup_guards(&infos, &ns_of, "threaded", Some(3.5));
    guards.extend(copy_reduction_guards(&infos));
    guards
}

/// The checked-in interp baseline, validated just enough to be useful
/// in the `--check` banner: the file must exist, carry our schema
/// marker, and name a headline configuration.
fn baseline_headline(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("checked-in baseline {path} is missing ({e})"))?;
    if !text.contains("\"schema\": \"mperf-bench-interp/v1\"") {
        return Err(format!(
            "checked-in baseline {path} is not an mperf-bench-interp/v1 report \
             (corrupt or from another tool?)"
        ));
    }
    let key = "\"headline\": \"";
    let start = text
        .find(key)
        .map(|i| i + key.len())
        .ok_or_else(|| format!("checked-in baseline {path} has no \"headline\" field"))?;
    let end = text[start..]
        .find('"')
        .ok_or_else(|| format!("checked-in baseline {path} is truncated mid-headline"))?;
    Ok(text[start..start + end].to_string())
}

/// `--check`: the CI gate. Measures only the guard-relevant rows with a
/// small budget, evaluates every guard, prints one JSON line to stdout
/// and human detail to stderr, then exits 0 (all pass) or 1.
fn run_check(opts: &Opts) -> ! {
    eprintln!("bench_trajectory --check: measuring threaded/threaded-noregalloc/seed rows");
    // The guards measure fresh timings, so a missing/corrupt baseline
    // is a diagnostic, never a panic or a gate failure.
    match baseline_headline(&opts.out_path) {
        Ok(h) => eprintln!("  baseline {}: headline {h}", opts.out_path),
        Err(msg) => eprintln!(
            "  note: {msg} — guards run against fresh measurements; \
             regenerate it with `bench_trajectory`"
        ),
    }
    let mut guards = measure_check(120);
    // The speedup guards compare two timings on the same host, so load
    // mostly cancels — but a short budget on a noisy shared runner can
    // still flake. Re-measure once with a larger budget before failing;
    // the copy-reduction guards are deterministic and unaffected.
    if !guards.iter().all(Guard::pass) {
        eprintln!("  a guard failed at the 120 ms budget; re-measuring once at 500 ms");
        guards = measure_check(500);
    }
    let pass = guards.iter().all(Guard::pass);
    for g in &guards {
        eprintln!(
            "  {} {}/{}: {:.2} (floor {:.2}) {}",
            g.name,
            g.workload,
            g.platform,
            g.value,
            g.floor,
            if g.pass() { "ok" } else { "FAIL" }
        );
    }
    let rows: Vec<String> = guards.iter().map(Guard::json).collect();
    println!(
        "{{\"schema\": \"mperf-bench-check/v1\", \"pass\": {pass}, \"config\": \
         {{\"engine\": \"threaded\", \"regalloc\": true}}, \
         \"guards\": [{}]}}",
        rows.join(", ")
    );
    std::process::exit(i32::from(!pass));
}

fn main() {
    // Re-entry marker for the sweep-scaling section's *process-sharded*
    // pass: the supervisor respawns this very binary with the marker
    // set, and the child becomes a protocol-speaking sweep worker
    // instead of a bench run.
    if std::env::var_os("MPERF_SWEEP_WORKER").is_some() {
        std::process::exit(miniperf::worker_main());
    }
    let opts = parse_opts();
    if opts.check {
        run_check(&opts);
    }
    println!("{}", opts.config_line());

    let mut c = Criterion::default();
    c.measurement_time(Duration::from_millis(if opts.full { 600 } else { 40 }));

    // The threaded config running an escaped pass is dropped; reference
    // and seed always run (they are the speedup denominators).
    let regalloc = opts.regalloc;
    let infos = register_interp_benches_filter(&mut c, |cfg: &EngineConfig| {
        cfg.engine == Engine::Reference || regalloc || !cfg.regalloc
    });
    let sampled = register_sampled_benches(&mut c);
    register_retire_benches(&mut c);
    let ns_of = ns_lookup(&c);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"mperf-bench-interp/v1\",");
    let _ = writeln!(json, "  \"quick\": {},", !opts.full);
    let _ = writeln!(
        json,
        "  \"config\": {{\"regalloc\": {}, \"headline\": \"{}\"}},",
        opts.regalloc,
        opts.headline()
    );
    json.push_str("  \"interp\": [\n");
    for (i, info) in infos.iter().enumerate() {
        let ns = ns_of(&info.id);
        let ops_per_sec = info.mir_ops_per_call as f64 * 1e9 / ns;
        // Speedups only reported on threaded rows, vs the reference and
        // seed (pre-PR) rows of the same workload/platform — and, for
        // the fully-optimized row, vs its regalloc-escaped sibling.
        let base_id = |engine: &str| {
            info.id
                .replace(&format!("-{}", info.engine), &format!("-{engine}"))
        };
        let fast_row = info.engine.starts_with("threaded");
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"platform\": \"{}\", \"engine\": \"{}\", \
             \"mir_ops_per_call\": {}, \"ns_per_call\": {:.1}, \"mir_ops_per_sec\": {:.0}",
            info.workload, info.platform, info.engine, info.mir_ops_per_call, ns, ops_per_sec
        );
        if fast_row {
            let vs_ref = ns_of(&base_id("reference")) / ns;
            let vs_seed = ns_of(&base_id("seed")) / ns;
            let _ = write!(
                json,
                ", \"speedup_vs_reference\": {vs_ref:.2}, \"speedup_vs_seed\": {vs_seed:.2}"
            );
        }
        if info.engine == "threaded" {
            let vs_noregalloc = ns_of(&base_id("threaded-noregalloc")) / ns;
            let _ = write!(json, ", \"speedup_vs_noregalloc\": {vs_noregalloc:.2}");
            // A pass that *slows down* the engine on a workload is a
            // regression, and gets flagged instead of checked in
            // silently.
            if vs_noregalloc < 0.95 {
                let _ = write!(json, ", \"regression\": true");
                eprintln!(
                    "warning: pass regression on {}/{} ({}): \
                     speedup_vs_noregalloc {vs_noregalloc:.2} (floor 0.95)",
                    info.workload, info.platform, info.engine
                );
            }
        }
        json.push('}');
        json.push_str(if i + 1 < infos.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Register-allocation copy traffic: static coalescing from the
    // decode pass, dynamic `Copy` data movement with the pass on vs off
    // (deterministic counts, no timing).
    json.push_str("  \"regalloc\": [\n");
    let ra_rows: Vec<_> = infos.iter().filter(|i| i.engine == "threaded").collect();
    for (i, info) in ra_rows.iter().enumerate() {
        let st = &info.regalloc_static;
        let dynv = &info.regalloc_dyn;
        let moved_off = infos
            .iter()
            .find(|o| {
                o.engine == "threaded-noregalloc"
                    && o.workload == info.workload
                    && o.platform == info.platform
            })
            .map(|o| o.regalloc_dyn.copies_moved);
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"platform\": \"{}\", \
             \"copies_static\": {}, \"copies_coalesced\": {}, \
             \"regs_before\": {}, \"regs_after\": {}, \
             \"copies_moved\": {}, \"copies_elided\": {}",
            info.workload,
            info.platform,
            st.copies_static,
            st.copies_coalesced,
            st.regs_before,
            st.regs_after,
            dynv.copies_moved,
            dynv.copies_elided,
        );
        if let Some(off) = moved_off {
            let reduction = 1.0 - dynv.copies_moved as f64 / off.max(1) as f64;
            let _ = write!(
                json,
                ", \"copies_moved_noregalloc\": {off}, \"copy_reduction\": {reduction:.3}"
            );
        }
        json.push('}');
        json.push_str(if i + 1 < ra_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Per-level cache MRU fast-probe hit rates (deterministic counts
    // from the threaded rows' sanity runs).
    json.push_str("  \"mru\": [\n");
    let mru_rows: Vec<_> = infos.iter().filter(|i| i.engine == "threaded").collect();
    for (i, info) in mru_rows.iter().enumerate() {
        let m = &info.mem;
        let rate = |hits: u64, acc: u64| {
            if acc == 0 {
                0.0
            } else {
                hits as f64 / acc as f64
            }
        };
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"platform\": \"{}\", \
             \"l1_accesses\": {}, \"l1_hit_rate\": {:.3}, \"l1_mru_hit_rate\": {:.3}, \
             \"l2_accesses\": {}, \"l2_hit_rate\": {:.3}, \"l2_mru_hit_rate\": {:.3}}}",
            info.workload,
            info.platform,
            m.l1_accesses,
            rate(m.l1_accesses - m.l1_misses, m.l1_accesses),
            rate(m.l1_mru_hits, m.l1_accesses),
            m.l2_accesses,
            rate(m.l2_accesses.saturating_sub(m.l2_misses), m.l2_accesses),
            rate(m.l2_mru_hits, m.l2_accesses),
        );
        json.push_str(if i + 1 < mru_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // `spin` under `record`'s period-1000 sampler: the near-wrap retire
    // path, threaded vs reference.
    json.push_str("  \"sampled\": [\n");
    for (i, info) in sampled.iter().enumerate() {
        let ns = ns_of(&info.id);
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"platform\": \"{}\", \"engine\": \"{}\", \
             \"period\": {SAMPLED_PERIOD}, \"samples\": {}, \"mir_ops_per_call\": {}, \
             \"ns_per_call\": {:.1}, \"mir_ops_per_sec\": {:.0}",
            info.workload,
            info.platform,
            info.engine,
            info.samples,
            info.mir_ops_per_call,
            ns,
            info.mir_ops_per_call as f64 * 1e9 / ns
        );
        if info.engine == "threaded" {
            let vs_ref = ns_of(&info.id.replace("-threaded", "-reference")) / ns;
            let _ = write!(json, ", \"speedup_vs_reference\": {vs_ref:.2}");
        }
        json.push('}');
        json.push_str(if i + 1 < sampled.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"retire\": [\n");
    let retire_ids = [
        "sim/retire-alu-10k",
        "sim/retire-load-stream-10k",
        "sim/retire-alu-armed-10k",
    ];
    for (i, id) in retire_ids.iter().enumerate() {
        let ns = ns_of(id);
        let _ = write!(
            json,
            "    {{\"bench\": \"{}\", \"ns_per_iter\": {:.1}, \"ns_per_op\": {:.2}}}",
            id,
            ns,
            ns / 10_000.0
        );
        json.push_str(if i + 1 < retire_ids.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&opts.out_path, &json).expect("write trajectory json");
    println!("wrote {}", opts.out_path);

    // Surface the headline numbers (and fail loudly if the threaded
    // engine ever regresses below parity with the reference engine).
    let headline = opts.headline();
    for info in &infos {
        if info.engine != headline {
            continue;
        }
        let ns = ns_of(&info.id);
        let suffix = format!("-{}", info.engine);
        let vs_ref = ns_of(&info.id.replace(&suffix, "-reference")) / ns;
        let vs_seed = ns_of(&info.id.replace(&suffix, "-seed")) / ns;
        println!(
            "{:<40} {headline} is {vs_ref:.2}x reference, {vs_seed:.2}x seed",
            format!("{}/{}", info.workload, info.platform),
        );
        assert!(
            vs_ref > 0.9,
            "{headline} engine slower than reference on {}/{}",
            info.workload,
            info.platform
        );
    }
    // The ROADMAP's interpreter guards: the headline stays ≥ 2x the seed
    // configuration — and, with register allocation on, ≥ 3.5x on spin.
    // Hard in --full mode; quick mode (40 ms budgets) only warns, since
    // it exists to smoke-test the flow.
    let spin_floor = opts.regalloc.then_some(3.5);
    for g in speedup_guards(&infos, &ns_of, headline, spin_floor) {
        if !g.pass() {
            let msg = format!(
                "interpreter guard: only {:.2}x seed on {}/{} (need >= {})",
                g.value, g.workload, g.platform, g.floor
            );
            assert!(!opts.full, "{msg}");
            eprintln!("warning ({msg} — quick mode, not enforced)");
        }
    }
    // The regalloc guard: copy counts are deterministic, so it is
    // enforced in every mode that measures both rows.
    for g in copy_reduction_guards(&infos) {
        assert!(
            g.pass(),
            "regalloc guard: only {:.1}% of dynamic Copy traffic elided on {}/{} (need >= 80%)",
            g.value * 100.0,
            g.workload,
            g.platform
        );
    }
    for info in infos.iter().filter(|i| i.engine == "threaded") {
        let ra = &info.regalloc_dyn;
        println!(
            "{:<40} regalloc: {} copies moved, {} elided ({:.1}% of copy traffic)",
            format!("{}/{}", info.workload, info.platform),
            ra.copies_moved,
            ra.copies_elided,
            ra.elision_rate() * 100.0,
        );
    }

    run_sweep_scaling(&opts);
}

/// The sweep-scaling section: run the full `platform × workload`
/// roofline sweep serially and at rising worker counts, check the
/// results are bit-identical, and emit `BENCH_sweep.json`.
fn run_sweep_scaling(opts: &Opts) {
    let (out_path, full, max_jobs) = (&opts.sweep_out_path, opts.full, opts.max_jobs);
    let host_cpus = mperf_sweep::default_jobs();
    let matrix = SweepMatrix::build(if full { 1.0 } else { 0.25 });
    println!(
        "\nsweep scaling: {} cells on a {host_cpus}-cpu host",
        matrix.len()
    );

    let mut thread_counts = vec![1usize, 2, 4];
    thread_counts.retain(|&t| t <= max_jobs);
    if !thread_counts.contains(&max_jobs) {
        thread_counts.push(max_jobs);
    }

    // Warm-up pass so first-touch costs (lazy pages, allocator growth)
    // don't land on the serial measurement. With `--journal` this pass
    // checkpoints every cell; `--resume` then satisfies
    // already-journaled cells so an interrupted run restarts with only
    // the remaining cells.
    let (_, sweep) = match matrix.run_supervised(1, opts.journal.clone(), opts.resume) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_trajectory: cannot open sweep journal: {e}");
            std::process::exit(1);
        }
    };
    if let (Some(path), false) = (&opts.journal, sweep.resumed.is_empty()) {
        println!(
            "  reference pass: {}/{} cells resumed from {}",
            sweep.resumed.len(),
            matrix.len(),
            path.display()
        );
    }
    if !sweep.report.all_ok() {
        for f in &sweep.report.failed {
            eprintln!("  cell {} failed: {}", f.index, f.error);
        }
        eprintln!(
            "bench_trajectory: {} sweep cell(s) failed, {} skipped; with --journal, \
             completed cells are journaled — re-run with --resume to retry only the rest",
            sweep.report.failed.len(),
            sweep.report.skipped.len()
        );
        std::process::exit(1);
    }
    let reference: Vec<_> = sweep.report.results.into_iter().flatten().collect();

    let mut rows = Vec::new();
    let mut serial_ms = 0.0f64;
    for &threads in &thread_counts {
        let (wall, sweep) = matrix
            .run_supervised(threads, None, false)
            .expect("supervised sweep (no journal attached)");
        assert!(sweep.report.all_ok(), "sweep at {threads} threads failed");
        let runs: Vec<_> = sweep.report.results.into_iter().flatten().collect();
        assert_eq!(
            runs, reference,
            "parallel sweep at {threads} threads diverges from the serial sweep"
        );
        let ms = wall.as_secs_f64() * 1e3;
        if threads == 1 {
            serial_ms = ms;
        }
        let speedup = if ms > 0.0 { serial_ms / ms } else { 0.0 };
        println!("  jobs={threads}: {ms:9.1} ms  ({speedup:.2}x vs serial, results identical)");
        rows.push((threads, ms, speedup));
    }

    // The sweep-scaling guard (ISSUE 2 acceptance): >= 1.8x at 4
    // threads vs serial. Like the interpreter guard it is hard in
    // --full mode — but only where the speedup is physically observable
    // (a >= 4-cpu host); quick mode and smaller hosts warn. Judged on
    // the smallest measured row with >= 4 threads, and never silently:
    // a --jobs cap that excludes every such row prints that the guard
    // did not run.
    match rows
        .iter()
        .filter(|(t, _, _)| *t >= 4)
        .min_by_key(|(t, _, _)| *t)
    {
        Some(&(threads, _, speedup)) => {
            if host_cpus >= 4 && speedup < 1.8 {
                let msg = format!(
                    "sweep guard: only {speedup:.2}x at {threads} threads on a \
                     {host_cpus}-cpu host (need >= 1.8)"
                );
                assert!(!full, "{msg}");
                eprintln!("warning ({msg} — quick mode, not enforced)");
            }
        }
        None => eprintln!(
            "note: sweep guard (>= 1.8x at 4 threads) not evaluated — \
             --jobs {max_jobs} measured no >= 4-thread row"
        ),
    }
    if host_cpus < 4 {
        println!(
            "  note: host exposes {host_cpus} cpu(s); wall-clock scaling beyond \
             {host_cpus} thread(s) is not observable here"
        );
    }

    // Process-sharded pass: the same matrix through real worker
    // processes (this binary, re-entered via `MPERF_SWEEP_WORKER`),
    // checked bit-identical to the in-process serial reference. Spawn +
    // recompile overhead makes this slower than threads on small
    // matrices; the rows exist to track that overhead, not to win.
    let exe = std::env::current_exe().expect("current_exe");
    let mut sharded_rows = Vec::new();
    for &shards in &thread_counts {
        let mut worker = mperf_sweep::WorkerCmd::new(&exe);
        worker.envs.push(("MPERF_SWEEP_WORKER".into(), "1".into()));
        let (wall, sweep) = matrix
            .run_sharded(shards, worker)
            .expect("sharded sweep (no journal attached)");
        assert!(
            sweep.all_ok(),
            "sharded sweep at {shards} shards failed: {:?} / {} cell failures",
            sweep.fatal,
            sweep.failed.len()
        );
        let runs: Vec<_> = sweep.results.into_iter().flatten().collect();
        assert_eq!(
            runs, reference,
            "sharded sweep at {shards} shards diverges from the serial sweep"
        );
        let ms = wall.as_secs_f64() * 1e3;
        let speedup = if ms > 0.0 { serial_ms / ms } else { 0.0 };
        println!(
            "  shards={shards}: {ms:9.1} ms  ({speedup:.2}x vs serial threads, \
             results identical, {} respawns)",
            sweep.respawns
        );
        sharded_rows.push((shards, ms, speedup));
    }

    let serve = run_serve_row(full, max_jobs.clamp(1, 4));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"mperf-bench-sweep/v4\",");
    let _ = writeln!(json, "  \"quick\": {},", !full);
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"cells\": {},", matrix.len());
    let _ = writeln!(json, "  \"identical_across_thread_counts\": true,");
    json.push_str("  \"scaling\": [\n");
    for (i, (threads, ms, speedup)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"threads\": {threads}, \"wall_ms\": {ms:.1}, \
             \"speedup_vs_serial\": {speedup:.2}}}"
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"sharded\": [\n");
    for (i, (shards, ms, speedup)) in sharded_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {shards}, \"wall_ms\": {ms:.1}, \
             \"speedup_vs_serial\": {speedup:.2}}}"
        );
        json.push_str(if i + 1 < sharded_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let (serve_ms, batch_ms) = serve;
    let _ = writeln!(
        json,
        "  \"serve\": {{\"wall_ms\": {serve_ms:.1}, \"batch_wall_ms\": {batch_ms:.1}, \
         \"overhead_ms\": {:.1}, \"streamed_identical\": true}}",
        serve_ms - batch_ms
    );
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write sweep trajectory json");
    println!("wrote {out_path}");
}

/// The serve-path row: the CLI triad sweep submitted to an in-process
/// `miniperf serve` daemon over a real Unix socket, timed against the
/// identical sweep run directly in-process. The delta is the cost of
/// the socket round-trip, job decode, and per-cell result streaming;
/// the streamed `CellDone` payloads must be bit-identical to the batch
/// cells' journal encodings.
fn run_serve_row(full: bool, jobs: usize) -> (f64, f64) {
    let n = if full {
        cli::CLI_TRIAD_N
    } else {
        cli::CLI_TRIAD_N / 4
    };

    // Batch reference, timed from module compile (the daemon compiles
    // inside its job too, so both sides carry the same setup work).
    let t0 = Instant::now();
    let modules: Vec<_> = Platform::ALL
        .iter()
        .map(|&p| cli::triad_module(p))
        .collect();
    let cells = cli::triad_sweep_cells(&modules, None, n);
    let sweep = RooflineRequest::new()
        .jobs(jobs)
        .run_supervised(&cells)
        .expect("batch triad sweep (no journal attached)");
    let batch_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(sweep.report.all_ok(), "batch triad sweep failed");
    let reference: Vec<Vec<u8>> = sweep
        .report
        .results
        .iter()
        .map(|r| encode_run(r.as_ref().expect("all_ok")))
        .collect();

    let socket =
        std::env::temp_dir().join(format!("mperf-bench-serve-{}.sock", std::process::id()));
    let handle = miniperf::serve::start(
        &socket,
        &CommonOpts::default(),
        &miniperf::ServeOptions::default(),
    )
    .expect("start daemon");
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect to daemon");
    let reader = std::io::BufReader::new(stream.try_clone().expect("clone socket"));
    let mut session = ClientSession::connect(reader, stream).expect("serve handshake");

    let spec = JobSpec {
        n,
        jobs,
        ..JobSpec::from_opts(JobKind::Sweep, &CommonOpts::default())
    };
    let t0 = Instant::now();
    let job = session.submit(spec.encode()).expect("submit sweep job");
    let mut streamed: Vec<(u64, Vec<u8>)> = Vec::new();
    let res = session
        .drain_job(job, |m| {
            if let Msg::CellDone { index, payload, .. } = m {
                streamed.push((*index, payload.clone()));
            }
        })
        .expect("drain sweep job");
    let serve_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(res.code, 0, "serve sweep failed: {}", res.message);
    streamed.sort_by_key(|(i, _)| *i);
    let streamed: Vec<Vec<u8>> = streamed.into_iter().map(|(_, p)| p).collect();
    assert_eq!(
        streamed, reference,
        "streamed serve cells diverge from the batch sweep"
    );
    drop(session);
    handle.stop();

    println!(
        "  serve: {serve_ms:9.1} ms  (batch {batch_ms:.1} ms, +{:.1} ms socket/stream \
         overhead, results identical)",
        serve_ms - batch_ms
    );
    (serve_ms, batch_ms)
}
