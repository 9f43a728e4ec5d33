//! End-to-end benchmark of the `miniperf` commands and daemon.
//!
//! ```text
//! perfbench --bin <miniperf> --workload <roofline-cold|batch-mix|serve-warm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bin <miniperf> --regen-expected
//! ```
//!
//! `--trace 0` drives the binary in a seeded closed loop and prints the
//! end-to-end metrics; `--trace 1` replays the same seeded requests
//! in-process with spans and prints the per-layer metrics. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Run through `perfbench/run.sh` from the repository root,
//! which builds both binaries first. See `perfbench/README.md`.

mod e2e;
mod specs;
mod sys;
mod trace;

use specs::{body_of, parse_table, render_table, table_keys, Expected, Workload, TABLE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The seed the benchmark was built and tuned with.
pub const TUNING_SEED: u64 = 1;
/// A seed never used while building the benchmark, for re-checking
/// later claims.
pub const HELD_OUT_SEED: u64 = 9_001;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A run's result: the final JSON line plus run metadata (values are
/// rendered JSON).
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub meta: Vec<(String, String)>,
}

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Ratio of two busy threads' throughput to one thread's: how many
/// CPUs this host really gives a parallel request (median of three).
/// Also returns the median one-thread spin time in ms, which records
/// how fast the host ran during this run.
fn effective_parallelism() -> (f64, f64) {
    fn spin(iters: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        x
    }
    const ITERS: u64 = 30_000_000;
    let mut singles = Vec::new();
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            spin(ITERS);
            let one = t.elapsed().as_secs_f64();
            singles.push(one * 1e3);
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(ITERS));
                let b = s.spawn(|| spin(ITERS));
                a.join().expect("spin thread");
                b.join().expect("spin thread");
            });
            2.0 * one / t.elapsed().as_secs_f64()
        })
        .collect();
    (median(&ratios), median(&singles))
}

struct Args {
    bin: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    regen: bool,
}

const USAGE: &str =
    "usage: perfbench --bin <miniperf> (--workload <roofline-cold|batch-mix|serve-warm> \
                     --seed <n> --seconds <s> --trace <0|1> | --regen-expected)";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bin: PathBuf::new(),
        workload: None,
        seed: TUNING_SEED,
        seconds: 20.0,
        trace: false,
        regen: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--regen-expected" {
            a.regen = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {v:?}");
        match flag.as_str() {
            "--bin" => a.bin = PathBuf::from(v),
            "--workload" => a.workload = Some(Workload::parse(v).ok_or_else(bad)?),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if a.bin.as_os_str().is_empty() || (a.workload.is_none() && !a.regen) {
        return Err("missing --bin or --workload".into());
    }
    Ok(a)
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Regenerate `perfbench/expected.txt` with the reference engine, after
/// checking that the default engine prints the same bodies.
fn regen_expected(bin: &Path, work: &Path) -> Result<(), String> {
    let run_all = |engine: &[&str]| -> Result<BTreeMap<String, Expected>, String> {
        let dir = work.join(if engine.is_empty() {
            "default"
        } else {
            "reference"
        });
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let run = |cmd: &str| -> Result<(Vec<u8>, sys::Exit), String> {
            let words: Vec<String> = cmd.split(' ').map(String::from).collect();
            let mut argv = e2e::resolve(&words, &dir).map_err(|e| e.to_string())?;
            argv.extend(engine.iter().map(|s| s.to_string()));
            e2e::spawn_capture(bin, &argv).map_err(|e| e.to_string())
        };
        // The resume entries read a journal completed by this engine
        // (journal keys include the engine).
        run("sweep --jobs 1 --journal {done}")?;
        let mut out = BTreeMap::new();
        for key in table_keys() {
            let (stdout, exit) = run(&key)?;
            let text = String::from_utf8(stdout).map_err(|e| e.to_string())?;
            let body = body_of(&text).ok_or_else(|| format!("{key}: no config line"))?;
            if body.lines().any(|l| l.starts_with("### ")) {
                return Err(format!(
                    "{key}: body collides with the table's header syntax"
                ));
            }
            out.insert(
                key,
                Expected {
                    exit: exit.code,
                    body: body.to_string(),
                },
            );
        }
        Ok(out)
    };
    let reference = run_all(&["--engine", "reference"])?;
    let default = run_all(&[])?;
    let differ: Vec<&String> = reference
        .keys()
        .filter(|k| reference.get(*k) != default.get(*k))
        .collect();
    if !differ.is_empty() {
        return Err(format!(
            "reference and default engines disagree on {differ:?}"
        ));
    }
    std::fs::write("perfbench/expected.txt", render_table(&reference))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: wrote perfbench/expected.txt ({} entries)",
        reference.len()
    );
    Ok(())
}

fn print_report(a: &Args, w: Workload, report: &Report, (parallelism, spin_ms): (f64, f64)) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta = vec![
        ("workload".to_string(), json_str(w.name())),
        (
            "mode".to_string(),
            json_str(if a.trace { "trace" } else { "end_to_end" }),
        ),
        ("seed".to_string(), a.seed.to_string()),
        ("seconds".to_string(), json_num(a.seconds)),
        ("tuning_seed".to_string(), TUNING_SEED.to_string()),
        ("held_out_seed".to_string(), HELD_OUT_SEED.to_string()),
        ("host_cpus".to_string(), host_cpus.to_string()),
        ("effective_parallelism".to_string(), json_num(parallelism)),
        ("host_spin_ms".to_string(), json_num(spin_ms)),
        (
            "parallel_wall_clock".to_string(),
            json_str(&format!(
                "wall-clock numbers of parallel requests (--jobs 2, --shards 2, two serve \
                 clients) are limited by the host: {parallelism:.2} effective of {host_cpus} CPUs"
            )),
        ),
    ];
    let conservation = report
        .metrics
        .iter()
        .find(|m| m.name == "roofline.cpu_conservation");
    if let Some(m) = conservation.filter(|m| m.value > 0.0) {
        meta.push((m.name.to_string(), json_num(m.value)));
    }
    meta.extend(report.meta.iter().cloned());
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", fields.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "0".into()
                },
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn run(a: &Args) -> Result<(), String> {
    if !Path::new("perfbench").is_dir() {
        return Err("run from the repository root".into());
    }
    if !a.bin.is_file() {
        return Err(format!("no miniperf binary at {}", a.bin.display()));
    }
    let out = PathBuf::from("perfbench/out");
    let work = WorkDir(out.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;
    if a.regen {
        return regen_expected(&a.bin, &work.0);
    }
    let w = a.workload.expect("checked by parse_args");
    let env = e2e::Env {
        bin: a.bin.clone(),
        work: work.0.clone(),
        out,
        table: parse_table(TABLE)?,
    };
    let host = effective_parallelism();
    let report = if a.trace {
        trace::run(&env, w, a.seed)
    } else {
        e2e::run(&env, w, a.seed, a.seconds)
    }
    .map_err(|e| e.to_string())?;
    print_report(a, w, &report, host);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
