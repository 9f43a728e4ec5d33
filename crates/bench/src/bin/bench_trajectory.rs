//! Perf-trajectory runner: executes the `vm/interp-throughput`,
//! `vm/interp-sampled` and `sim/retire-*` benches and emits
//! `BENCH_interp.json`, so future PRs have a checked-in baseline of the
//! interpreter and retire layers to compare against. The end-to-end
//! commands (sweeps, shards, the daemon) are measured by `perfbench/`.
//!
//! ```text
//! bench_trajectory [--out PATH] [--full] [--check]
//! ```
//!
//! `--full` uses the normal (longer) measurement budget; default is
//! quick mode (~40 ms per bench).
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
//! the near-wrap retire path), and ns/op for the retire microbenches.
//! The report embeds (and the runner prints) the engine configuration
//! it ran, so checked-in baselines are self-describing.

use criterion::Criterion;
use mperf_bench::interp_bench::{
    register_interp_benches, register_interp_benches_filter, register_retire_benches,
    register_sampled_benches, EngineConfig, InterpBenchInfo, SAMPLED_PERIOD,
};
use mperf_vm::ExecConfig;
use std::fmt::Write as _;
use std::time::Duration;

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

/// The configuration every report's headline rows run: the threaded
/// engine with register allocation on ([`ExecConfig::default`]).
const HEADLINE: &str = "threaded";

struct Opts {
    out_path: String,
    full: bool,
    check: bool,
}

impl Opts {
    /// The `config:` header naming what actually ran. Shares
    /// [`ExecConfig::describe`] with `miniperf`'s header so the two
    /// formats cannot drift.
    fn config_line(&self) -> String {
        let mode = if self.full { "full" } else { "quick" };
        format!(
            "config: {} mode={mode} headline={HEADLINE}",
            ExecConfig::default().describe()
        )
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        out_path: String::from("BENCH_interp.json"),
        full: false,
        check: false,
    };
    let usage = |msg: &str| -> ! {
        eprintln!("bench_trajectory: {msg}");
        eprintln!("usage: bench_trajectory [--out PATH] [--full] [--check]");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => opts.out_path = p,
                None => usage("--out needs a path"),
            },
            "--full" => opts.full = true,
            "--check" => opts.check = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
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

/// The speedup guards over the headline rows: `speedup_vs_seed ≥ 2`
/// everywhere and `≥ 3.5` on spin.
fn speedup_guards(infos: &[InterpBenchInfo], ns_of: &impl Fn(&str) -> f64) -> Vec<Guard> {
    let mut guards = Vec::new();
    for info in infos.iter().filter(|i| i.engine == HEADLINE) {
        let ns = ns_of(&info.id);
        let vs_seed = ns_of(&info.id.replace(&format!("-{HEADLINE}"), "-seed")) / ns;
        guards.push(Guard {
            name: "speedup_vs_seed",
            workload: info.workload.to_string(),
            platform: info.platform.to_string(),
            value: vs_seed,
            floor: if info.workload == "spin" { 3.5 } else { 2.0 },
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
    let mut guards = speedup_guards(&infos, &ns_of);
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
    let opts = parse_opts();
    if opts.check {
        run_check(&opts);
    }
    println!("{}", opts.config_line());

    let mut c = Criterion::default();
    c.measurement_time(Duration::from_millis(if opts.full { 600 } else { 40 }));

    let infos = register_interp_benches(&mut c);
    let sampled = register_sampled_benches(&mut c);
    register_retire_benches(&mut c);
    let ns_of = ns_lookup(&c);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"mperf-bench-interp/v1\",");
    let _ = writeln!(json, "  \"quick\": {},", !opts.full);
    let _ = writeln!(
        json,
        "  \"config\": {{\"regalloc\": true, \"headline\": \"{HEADLINE}\"}},"
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
    for info in infos.iter().filter(|i| i.engine == HEADLINE) {
        let ns = ns_of(&info.id);
        let suffix = format!("-{HEADLINE}");
        let vs_ref = ns_of(&info.id.replace(&suffix, "-reference")) / ns;
        let vs_seed = ns_of(&info.id.replace(&suffix, "-seed")) / ns;
        println!(
            "{:<40} {HEADLINE} is {vs_ref:.2}x reference, {vs_seed:.2}x seed",
            format!("{}/{}", info.workload, info.platform),
        );
        assert!(
            vs_ref > 0.9,
            "{HEADLINE} engine slower than reference on {}/{}",
            info.workload,
            info.platform
        );
    }
    // The ROADMAP's interpreter guards: the headline stays ≥ 2x the seed
    // configuration, and ≥ 3.5x on spin. Hard in --full mode; quick mode
    // (40 ms budgets) only warns, since it exists to smoke-test the flow.
    for g in speedup_guards(&infos, &ns_of) {
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
    // enforced in every mode.
    for g in copy_reduction_guards(&infos) {
        assert!(
            g.pass(),
            "regalloc guard: only {:.1}% of dynamic Copy traffic elided on {}/{} (need >= 80%)",
            g.value * 100.0,
            g.workload,
            g.platform
        );
    }
    for info in infos.iter().filter(|i| i.engine == HEADLINE) {
        let ra = &info.regalloc_dyn;
        println!(
            "{:<40} regalloc: {} copies moved, {} elided ({:.1}% of copy traffic)",
            format!("{}/{}", info.workload, info.platform),
            ra.copies_moved,
            ra.copies_elided,
            ra.elision_rate() * 100.0,
        );
    }
}
