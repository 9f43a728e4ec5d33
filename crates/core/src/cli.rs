//! The typed command API behind the `miniperf` binary.
//!
//! The binary is a thin shell: [`parse`] turns `argv` into a [`Command`]
//! (usage problems come back as `Err`, never `exit()`), [`run`] executes
//! it and returns the process exit code, and `main` owns the single
//! `std::process::exit` call — so RAII cleanup (the serve daemon's
//! socket file, journal flushes) always runs.
//!
//! The same [`JobSpec`] a command line parses into is what
//! `miniperf submit` serializes over the serve socket and what the
//! daemon decodes on the other end — one job description, two front
//! ends. Report rendering lives here too ([`record_body`],
//! [`stat_body`], [`roofline_body`], [`SweepOutcome`]): the batch
//! commands and the submit client print through the same functions, so
//! streamed results are byte-identical to batch output by construction.

use crate::flamegraph::{fold_stacks, folded_text, Metric};
use crate::profile::Profile;
use crate::record::{record, RecordConfig};
use crate::report::{text_table, thousands};
use crate::roofline_runner::{RooflineJob, RooflineRequest, RooflineRun};
use crate::shard_exec::{
    cli_triad_setup, run_roofline_sweep_sharded, SetupSpec, ShardedCellSpec, ShardedSweep,
    ShardedSweepOptions,
};
use crate::stat::{stat, StatReport};
use crate::sweep_supervisor::SupervisedSweep;
use crate::{hotspot_table, probe_sampling};
use mperf_event::{EventKind, HwCounter, PerfKernel};
use mperf_sim::{Core, Platform};
use mperf_sweep::wire::{Dec, Enc, WireError};
use mperf_sweep::{CellFailure, RetryPolicy, WorkerCmd};
use mperf_vm::{Engine, ExecConfig, Value, Vm};
use std::path::PathBuf;
use std::time::Duration;

/// The demo workload `record`/`stat` sample: a hash loop with an inner
/// call, enough call depth for folded stacks.
pub const DEMO: &str = r#"
    fn inner(p: *i64, n: i64) -> i64 {
        var h: i64 = 0;
        for (var i: i64 = 0; i < n; i = i + 1) {
            h = (h ^ p[i % 512]) * 31 + (i >> 2);
        }
        return h;
    }
    fn demo(p: *i64, n: i64, rounds: i64) -> i64 {
        var acc: i64 = 0;
        for (var r: i64 = 0; r < rounds; r = r + 1) {
            acc = acc + inner(p, n);
        }
        return acc;
    }
"#;

/// The roofline kernel: STREAM triad.
pub const KERNEL: &str = r#"
    fn triad(a: *f64, b: *f64, c: *f64, n: i64, k: f64) {
        for (var i: i64 = 0; i < n; i = i + 1) {
            a[i] = b[i] + k * c[i];
        }
    }
"#;

/// The triad problem size every CLI roofline/sweep uses.
pub const CLI_TRIAD_N: u64 = 32_768;

fn parse_platform(s: &str) -> Option<Platform> {
    match s {
        "x60" | "spacemit-x60" => Some(Platform::SpacemitX60),
        "c910" | "thead-c910" => Some(Platform::TheadC910),
        "u74" | "sifive-u74" => Some(Platform::SifiveU74),
        "i5" | "x86" => Some(Platform::IntelI5_1135G7),
        _ => None,
    }
}

pub const USAGE: &str = "\
miniperf — PMU profiling and hardware-agnostic roofline analysis on the
simulated platform stack (PACT 2025 artifact).

usage: miniperf <command> [options]

commands:
  probe      Table-1-style capability probe of every platform model
  record     sample a demo workload and print hotspots + folded stacks
  stat       count hardware events over the demo workload
  roofline   two-phase roofline of a triad kernel (plus machine roofs)
  sweep      supervised triad roofline across every platform model:
             panics and traps are isolated per cell, transient failures
             retry, and healthy cells always complete (exit 0 = all
             cells ok, 3 = partial results, 4 = fatal or no results)
  serve      profiling-as-a-service daemon on a Unix-domain socket:
             accepts record/stat/roofline/sweep jobs from concurrent
             clients and streams results as they are produced
  submit     run one job on a `miniperf serve` daemon; output and exit
             status match the equivalent batch command byte-for-byte
             (usage: miniperf submit <record|stat|roofline|sweep>)

options:
  --platform <x60|c910|u74|i5>   platform model (default: x60)
  --period <N>                   sampling period for `record` (default: 9973)
  --jobs <N>                     worker threads for `roofline`'s sweep jobs
                                 (default: available parallelism; 1 = serial;
                                 results are identical at any value)
  --engine <threaded|reference>  execution engine (default: threaded — template
                                 dispatch with superblock PMU retire; both are
                                 observably identical — reference is the
                                 bisection baseline)
  --no-regalloc                  disable decode-time register allocation /
                                 copy coalescing (identical measurements,
                                 slower execution)
  --journal <PATH>               checkpoint journal for `sweep`: every
                                 completed cell is appended (crash-safe,
                                 torn tails are recovered on open)
  --resume                       satisfy `sweep` cells from the journal
                                 instead of re-executing them (requires
                                 --journal; the final report is
                                 byte-identical to an uninterrupted run)
  --retries <N>                  attempts per sweep cell before it is
                                 quarantined (default: 3; 1 = no retries)
  --shards <N>                   run `sweep` across N worker *processes*
                                 (crash/hang isolation: a killed or stalled
                                 worker is respawned and its cell retried;
                                 results stay bit-identical to --shards 1
                                 and compose with --journal/--resume)
  --socket <PATH>                Unix-domain socket for `serve`/`submit`
                                 (default: $TMPDIR/miniperf.sock)
  --state-dir <DIR>              serve: keyed sweep jobs checkpoint their
                                 journals here; a restarted daemon resumes
                                 them when the same spec + key is resubmitted
  --cache-dir <DIR>              serve: accepted and ignored; the daemon
                                 writes nothing to DIR
  --max-jobs <N>                 serve: concurrent job cap — submits beyond
                                 it are rejected immediately, never queued
                                 silently (default: 32)
  --progress                     submit: render sweep progress (cells done)
                                 on stderr; stdout stays byte-identical to
                                 the batch command
  --job-key <KEY>                submit sweep: stable key for server-side
                                 checkpointing; resubmit the same spec with
                                 the same key after a daemon crash to resume
  -h, --help                     print this help

Every report starts with a `config:` line naming the engine and regalloc
settings it actually ran, so captured output is self-describing.
";

/// Options shared by every measuring command (the old hand-rolled `Opts`
/// struct, now a public type both front ends parse into).
#[derive(Debug, Clone)]
pub struct CommonOpts {
    pub platform: Platform,
    pub period: u64,
    pub jobs: usize,
    pub exec: ExecConfig,
    pub journal: Option<PathBuf>,
    pub resume: bool,
    pub retries: u32,
    /// Worker processes for `sweep` (0 = in-process threads).
    pub shards: usize,
}

impl Default for CommonOpts {
    fn default() -> CommonOpts {
        CommonOpts {
            platform: Platform::SpacemitX60,
            period: 9_973,
            jobs: mperf_sweep::default_jobs(),
            exec: ExecConfig::default(),
            journal: None,
            resume: false,
            retries: 3,
            shards: 0,
        }
    }
}

impl CommonOpts {
    /// The `config:` report header: the engine/regalloc configuration
    /// this run *actually* used, so checked-in or piped output is
    /// self-describing.
    pub fn config_line(&self) -> String {
        format!(
            "config: platform={} {} jobs={}",
            self.platform.spec().name,
            self.exec.describe(),
            self.jobs
        )
    }

    /// The `config:` header for a sweep: its worker threads, or its
    /// worker processes under `--shards`.
    pub fn sweep_config_line(&self) -> String {
        let workers = match self.shards {
            0 => format!("jobs={}", self.jobs),
            n => format!("shards={n}"),
        };
        format!(
            "config: sweep platforms={} {} {workers} retries={}{}{}",
            Platform::ALL.len(),
            self.exec.describe(),
            self.retries,
            self.journal
                .as_ref()
                .map(|p| format!(" journal={}", p.display()))
                .unwrap_or_default(),
            if self.resume { " resume" } else { "" },
        )
    }
}

/// A parsed invocation: which command, with what options.
#[derive(Debug)]
pub enum Command {
    Probe,
    Record(CommonOpts),
    Stat(CommonOpts),
    Roofline(CommonOpts),
    Sweep(CommonOpts),
    /// Hidden worker entry point for `sweep --shards N` children.
    SweepWorker,
    /// The profiling daemon. `serve` carries the supervision knobs and
    /// the state directory; every job brings its own options.
    Serve {
        socket: PathBuf,
        serve: crate::serve::ServeOptions,
    },
    /// The serve client: ship `spec` to the daemon at `socket`, stream
    /// results back, render them exactly as the batch command would.
    /// `progress` renders sweep progress frames on stderr.
    Submit {
        socket: PathBuf,
        spec: JobSpec,
        opts: CommonOpts,
        progress: bool,
    },
    Help,
}

fn default_socket() -> PathBuf {
    std::env::temp_dir().join("miniperf.sock")
}

/// Parse every option after the command word. `allow_socket` gates the
/// serve/submit-only `--socket` flag so batch commands keep rejecting it
/// exactly as before.
fn parse_opts(args: &[String], allow_socket: bool) -> Result<(CommonOpts, PathBuf), String> {
    let mut opts = CommonOpts::default();
    let mut socket = default_socket();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--platform" => match it.next().map(|v| (v, parse_platform(v))) {
                Some((_, Some(p))) => opts.platform = p,
                Some((v, None)) => {
                    return Err(format!(
                        "unknown platform {v:?} (use x60 | c910 | u74 | i5)"
                    ))
                }
                None => return Err("--platform needs a value".into()),
            },
            "--period" => match it.next().map(|v| (v, v.parse::<u64>())) {
                Some((_, Ok(v))) if v > 0 => opts.period = v,
                Some((v, _)) => return Err(format!("bad --period {v:?}")),
                None => return Err("--period needs a value".into()),
            },
            "--jobs" => match it.next().map(|v| (v, v.parse::<usize>())) {
                Some((_, Ok(v))) if v > 0 => opts.jobs = v,
                Some((v, _)) => return Err(format!("bad --jobs {v:?}")),
                None => return Err("--jobs needs a value".into()),
            },
            "--engine" => match it.next().map(String::as_str) {
                Some("threaded") => opts.exec.engine = Engine::Threaded,
                Some("reference") => opts.exec.engine = Engine::Reference,
                Some(v) => return Err(format!("unknown engine {v:?} (use threaded | reference)")),
                None => return Err("--engine needs a value".into()),
            },
            "--no-regalloc" => opts.exec.regalloc = false,
            "--journal" => match it.next() {
                Some(v) => opts.journal = Some(PathBuf::from(v)),
                None => return Err("--journal needs a path".into()),
            },
            "--resume" => opts.resume = true,
            "--retries" => match it.next().map(|v| (v, v.parse::<u32>())) {
                Some((_, Ok(v))) if v > 0 => opts.retries = v,
                Some((v, _)) => return Err(format!("bad --retries {v:?}")),
                None => return Err("--retries needs a value".into()),
            },
            "--shards" => match it.next().map(|v| (v, v.parse::<usize>())) {
                Some((_, Ok(v))) if v > 0 => opts.shards = v,
                Some((v, _)) => return Err(format!("bad --shards {v:?}")),
                None => return Err("--shards needs a value".into()),
            },
            "--socket" if allow_socket => match it.next() {
                Some(v) => socket = PathBuf::from(v),
                None => return Err("--socket needs a path".into()),
            },
            "-h" | "--help" => return Err(HELP_SENTINEL.into()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.resume && opts.journal.is_none() {
        return Err("--resume requires --journal".into());
    }
    Ok((opts, socket))
}

/// Internal marker for `-h` found among the options: [`parse`] turns it
/// into [`Command::Help`] rather than a usage error.
const HELP_SENTINEL: &str = "\u{1}help";

/// Parse `argv` (program name already stripped) into a [`Command`].
///
/// # Errors
/// A human-readable usage message; the caller prints it with the usage
/// text and exits 2. No code path here terminates the process.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".into());
    };
    if cmd == "-h" || cmd == "--help" {
        return Ok(Command::Help);
    }
    if cmd == "sweep-worker" {
        // Takes no options — everything a cell needs travels in its
        // payload.
        return Ok(Command::SweepWorker);
    }
    let lift_help = |r: Result<Command, String>| match r {
        Err(e) if e == HELP_SENTINEL => Ok(Command::Help),
        other => other,
    };
    lift_help(match cmd.as_str() {
        "probe" => parse_opts(&argv[1..], false).map(|_| Command::Probe),
        "record" => parse_opts(&argv[1..], false).map(|(o, _)| Command::Record(o)),
        "stat" => parse_opts(&argv[1..], false).map(|(o, _)| Command::Stat(o)),
        "roofline" => parse_opts(&argv[1..], false).map(|(o, _)| Command::Roofline(o)),
        "sweep" => parse_opts(&argv[1..], false).map(|(o, _)| Command::Sweep(o)),
        "serve" => parse_serve(&argv[1..]),
        "submit" => parse_submit(&argv[1..]),
        other => Err(format!("unknown command {other:?}")),
    })
}

/// Split off the serve-only flags, then hand the rest to
/// [`parse_opts`] so `serve` keeps every shared option.
fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut serve = crate::serve::ServeOptions::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--state-dir" => match it.next() {
                Some(v) => serve.state_dir = Some(PathBuf::from(v)),
                None => return Err("--state-dir needs a value".into()),
            },
            "--cache-dir" => match it.next() {
                Some(v) => serve.cache_dir = Some(PathBuf::from(v)),
                None => return Err("--cache-dir needs a value".into()),
            },
            "--max-jobs" => match it.next().map(|v| (v, v.parse::<usize>())) {
                Some((_, Ok(v))) if v > 0 => serve.max_jobs = v,
                Some((v, _)) => return Err(format!("bad --max-jobs {v:?}")),
                None => return Err("--max-jobs needs a value".into()),
            },
            _ => rest.push(a.clone()),
        }
    }
    let (opts, socket) = parse_opts(&rest, true)?;
    // Sweeps that need a journal submit a job key to a daemon with a
    // state directory; a daemon-wide journal would mix sweeps of
    // different specs.
    if opts.journal.is_some() || opts.resume {
        return Err(
            "serve does not take --journal/--resume (keyed sweeps journal under \
             --state-dir; pass --job-key to `miniperf submit sweep`)"
                .into(),
        );
    }
    Ok(Command::Serve { socket, serve })
}

fn parse_submit(args: &[String]) -> Result<Command, String> {
    let Some(kind_word) = args.first() else {
        return Err("submit needs a job kind (record | stat | roofline | sweep)".into());
    };
    let kind = match kind_word.as_str() {
        "record" => JobKind::Record,
        "stat" => JobKind::Stat,
        "roofline" => JobKind::Roofline,
        "sweep" => JobKind::Sweep,
        "-h" | "--help" => return Err(HELP_SENTINEL.into()),
        other => {
            return Err(format!(
                "unknown submit job kind {other:?} (use record | stat | roofline | sweep)"
            ))
        }
    };
    // Submit-only flags come off before the shared parser sees them.
    let mut progress = false;
    let mut job_key = String::new();
    let mut rest = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--progress" => progress = true,
            "--job-key" => match it.next() {
                Some(v) if !v.is_empty() => job_key = v.clone(),
                Some(_) => return Err("--job-key must not be empty".into()),
                None => return Err("--job-key needs a value".into()),
            },
            _ => rest.push(a.clone()),
        }
    }
    if !job_key.is_empty() && kind != JobKind::Sweep {
        return Err("--job-key only applies to `submit sweep` (checkpointed jobs)".into());
    }
    let (opts, socket) = parse_opts(&rest, true)?;
    if opts.journal.is_some() || opts.resume || opts.shards > 0 {
        return Err(
            "submit does not take --journal/--resume/--shards (daemon-side options; \
             to checkpoint a sweep, pass --job-key to a daemon started with --state-dir)"
                .into(),
        );
    }
    let mut spec = JobSpec::from_opts(kind, &opts);
    spec.job_key = job_key;
    Ok(Command::Submit {
        socket,
        spec,
        opts,
        progress,
    })
}

/// Execute a parsed command. Every command returns its exit code
/// through here — the dispatcher has one shutdown path, and `main`'s
/// single `exit()` runs after all destructors.
pub fn run(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::Probe => cmd_probe(),
        Command::Record(o) => cmd_record(&o),
        Command::Stat(o) => cmd_stat(&o),
        Command::Roofline(o) => cmd_roofline(&o),
        Command::Sweep(o) => cmd_sweep(&o),
        Command::SweepWorker => crate::worker_main(),
        Command::Serve { socket, serve } => crate::serve::run_daemon(&socket, &serve),
        Command::Submit {
            socket,
            spec,
            opts,
            progress,
        } => crate::serve::run_submit(&socket, &spec, &opts, progress),
    }
}

// ---------------------------------------------------------------------
// Job descriptions: the one type both front ends share.

/// What kind of measurement a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Record,
    Stat,
    Roofline,
    Sweep,
}

/// Job-description codec schema (independent of the framing protocol's
/// version: specs carry their own schema byte so a daemon can reject a
/// stale description precisely). Schema 2 added the sweep `job_key`;
/// schema 3 dropped the fusion flag from the engine configuration.
pub const JOB_SCHEMA: u32 = 3;

/// A parsed job description: everything the daemon needs to execute a
/// `record`/`stat`/`roofline`/`sweep` request. The CLI parser builds
/// one from `argv`; `miniperf submit` serializes it; `miniperf serve`
/// decodes it on the other end of the socket.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub kind: JobKind,
    /// Target platform (ignored by `sweep`, which covers all models).
    pub platform: Platform,
    /// Sampling period for `record`.
    pub period: u64,
    /// Worker threads for roofline phase jobs / sweep cells.
    pub jobs: usize,
    /// Attempts per sweep cell before quarantine.
    pub retries: u32,
    pub exec: ExecConfig,
    /// Triad problem size for `roofline`/`sweep` (the CLI always uses
    /// [`CLI_TRIAD_N`]; tests shrink it).
    pub n: u64,
    /// Client-chosen checkpoint key for `sweep` jobs (empty = none).
    /// A daemon with a state directory journals the sweep under this
    /// key; resubmitting the same spec with the same key after a
    /// daemon crash resumes it, re-executing only unjournaled cells.
    pub job_key: String,
}

impl JobSpec {
    pub fn from_opts(kind: JobKind, opts: &CommonOpts) -> JobSpec {
        JobSpec {
            kind,
            platform: opts.platform,
            period: opts.period,
            jobs: opts.jobs,
            retries: opts.retries,
            exec: opts.exec,
            n: CLI_TRIAD_N,
            job_key: String::new(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(JOB_SCHEMA);
        e.u8(match self.kind {
            JobKind::Record => 0,
            JobKind::Stat => 1,
            JobKind::Roofline => 2,
            JobKind::Sweep => 3,
        });
        e.u8(platform_code(self.platform));
        e.u64(self.period);
        e.u32(self.jobs as u32);
        e.u32(self.retries);
        enc_exec(&mut e, self.exec);
        e.u64(self.n);
        e.str(&self.job_key);
        e.into_bytes()
    }

    /// # Errors
    /// A human-readable message on schema mismatch or malformed bytes
    /// (the daemon reports it as a usage-class job failure).
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, String> {
        let mut d = Dec::new(bytes);
        let inner = |d: &mut Dec| -> Result<JobSpec, WireError> {
            let schema = d.u32()?;
            if schema != JOB_SCHEMA {
                return Err(WireError::Truncated);
            }
            let kind = match d.u8()? {
                0 => JobKind::Record,
                1 => JobKind::Stat,
                2 => JobKind::Roofline,
                3 => JobKind::Sweep,
                _ => return Err(WireError::Truncated),
            };
            let platform = platform_from_code(d.u8()?).ok_or(WireError::Truncated)?;
            let period = d.u64()?;
            let jobs = d.u32()? as usize;
            let retries = d.u32()?;
            let exec = dec_exec(d)?;
            let n = d.u64()?;
            let job_key = d.str()?;
            Ok(JobSpec {
                kind,
                platform,
                period,
                jobs,
                retries,
                exec,
                n,
                job_key,
            })
        };
        let spec = inner(&mut d).map_err(|e| format!("malformed job description: {e}"))?;
        d.finish()
            .map_err(|e| format!("malformed job description: {e}"))?;
        Ok(spec)
    }
}

pub(crate) fn platform_code(p: Platform) -> u8 {
    match p {
        Platform::SpacemitX60 => 0,
        Platform::TheadC910 => 1,
        Platform::SifiveU74 => 2,
        Platform::IntelI5_1135G7 => 3,
    }
}

pub(crate) fn platform_from_code(b: u8) -> Option<Platform> {
    match b {
        0 => Some(Platform::SpacemitX60),
        1 => Some(Platform::TheadC910),
        2 => Some(Platform::SifiveU74),
        3 => Some(Platform::IntelI5_1135G7),
        _ => None,
    }
}

/// The one wire form of an [`ExecConfig`], shared by the job-spec and
/// sharded-cell codecs: engine code, then regalloc.
pub(crate) fn enc_exec(e: &mut Enc, exec: ExecConfig) {
    e.u8(match exec.engine {
        Engine::Threaded => 0,
        Engine::Reference => 1,
    });
    e.u8(exec.regalloc as u8);
}

/// Inverse of [`enc_exec`]; an unknown engine code is malformed.
pub(crate) fn dec_exec(d: &mut Dec) -> Result<ExecConfig, WireError> {
    let engine = match d.u8()? {
        0 => Engine::Threaded,
        1 => Engine::Reference,
        _ => return Err(WireError::Truncated),
    };
    Ok(ExecConfig {
        engine,
        regalloc: d.u8()? != 0,
    })
}

// ---------------------------------------------------------------------
// Workload construction shared by batch commands and the daemon.

/// Build the demo VM for `record`/`stat` on one platform. Leaks the
/// compiled module: batch commands run once per process. The daemon
/// compiles the demo per job with [`compile_demo`] instead.
pub fn demo_vm(platform: Platform) -> (Vm<'static>, Vec<Value>) {
    let module = Box::leak(Box::new(compile_demo(platform)));
    let mut vm = Vm::new(module, Core::new(platform.spec()));
    let args = demo_args(&mut vm);
    (vm, args)
}

/// Compile the demo workload for one platform (uninstrumented).
pub fn compile_demo(platform: Platform) -> mperf_ir::Module {
    mperf_workloads::compile_for("cli", DEMO, platform, false).expect("demo compiles")
}

/// Stage the demo workload's guest data and return its entry arguments.
pub fn demo_args(vm: &mut Vm) -> Vec<Value> {
    let p = vm.mem.alloc(512 * 8, 64).expect("alloc");
    for i in 0..512u64 {
        vm.mem
            .write_u64(p + i * 8, i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .expect("write");
    }
    vec![Value::I64(p as i64), Value::I64(20_000), Value::I64(10)]
}

/// The triad kernel, compiled + instrumented for one platform's vector
/// capabilities. The same pipeline a `sweep-worker` runs on its side of
/// the process boundary, so serial and sharded sweeps hash identical
/// modules into their journal keys.
pub fn triad_module(platform: Platform) -> mperf_ir::Module {
    mperf_workloads::compile_for("cli", KERNEL, platform, true).expect("kernel compiles")
}

/// The event list `stat` counts on one platform (the U74 only has two
/// generic counters; degrade gracefully).
pub fn stat_events(platform: Platform) -> Vec<EventKind> {
    let events = [
        EventKind::Hardware(HwCounter::BranchInstructions),
        EventKind::Hardware(HwCounter::BranchMisses),
        EventKind::Hardware(HwCounter::CacheReferences),
        EventKind::Hardware(HwCounter::CacheMisses),
    ];
    let n = if platform == Platform::SifiveU74 {
        2
    } else {
        events.len()
    };
    events[..n].to_vec()
}

// ---------------------------------------------------------------------
// Report rendering: one implementation for batch and streamed output.

/// Everything `record` prints after the `config:` line.
pub fn record_body(profile: &Profile, platform: Platform, period: u64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} samples via {:?} (period {}), IPC {:.2}\n",
        platform.spec().name,
        profile.samples.len(),
        profile.strategy,
        period,
        profile.ipc()
    );
    let mut rows = vec![vec![
        "Function".to_string(),
        "Total %".to_string(),
        "Instructions".to_string(),
        "IPC".to_string(),
    ]];
    for r in hotspot_table(profile).into_iter().take(8) {
        rows.push(vec![
            r.function,
            format!("{:.2}%", r.total_percent),
            thousands(r.instructions),
            format!("{:.2}", r.ipc),
        ]);
    }
    out.push_str(&text_table(&rows));
    out.push_str("\nfolded stacks (cycles):\n");
    out.push_str(&folded_text(&fold_stacks(profile, Metric::Cycles)));
    out
}

/// The two-line stderr message a failed `record` prints.
pub fn record_failure_message(e: &impl std::fmt::Display) -> String {
    format!("record failed: {e}\nhint: `miniperf stat` works on every platform.")
}

/// Everything `stat` prints after the `config:` line.
pub fn stat_body(platform: Platform, rep: &StatReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{}:", platform.spec().name);
    let _ = writeln!(out, "  cycles        {}", thousands(rep.cycles));
    let _ = writeln!(out, "  instructions  {}", thousands(rep.instructions));
    let _ = writeln!(out, "  IPC           {:.2}", rep.ipc());
    for (ev, v) in &rep.counts {
        let _ = writeln!(out, "  {ev:?}  {}", thousands(*v));
    }
    out
}

/// The stderr warning for broken region instrumentation, if any.
pub fn roofline_warning(run: &RooflineRun) -> Option<String> {
    (run.unbalanced_ends > 0).then(|| {
        format!(
            "warning: {} unbalanced loop_end notification(s) — region \
             instrumentation is broken; tallies are untrustworthy",
            run.unbalanced_ends
        )
    })
}

/// Everything `roofline` prints after the `config:` line: the triad
/// summary plus the roofline plot. The roofs come from the platform's
/// stored characterization ([`mperf_roofline::stored`]), so a submit
/// client renders the identical plot without the daemon shipping it.
///
/// # Panics
/// Panics if `run` has no region; `submit` rejects such a payload
/// before it gets here.
pub fn roofline_body(run: &RooflineRun, platform: Platform) -> String {
    use std::fmt::Write;
    let spec = platform.spec();
    let r = &run.regions[0];
    let mut model = mperf_roofline::stored(platform).to_model();
    model.add_point(mperf_roofline::Point {
        name: "triad".into(),
        ai: r.ai(),
        gflops: r.gflops(spec.freq_hz),
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: triad {:.2} GFLOP/s at AI {:.3} FLOP/B (overhead {:.2}x)\n",
        spec.name,
        r.gflops(spec.freq_hz),
        r.ai(),
        r.overhead_factor()
    );
    out.push_str(&mperf_roofline::plot::ascii(&model, 64, 16));
    out
}

/// One failed sweep cell, normalized for rendering and the wire (the
/// serve daemon ships these in the job summary).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    pub index: usize,
    pub attempts: u32,
    pub quarantined: bool,
    pub error: String,
}

/// A sweep's renderable outcome, normalized from [`SupervisedSweep`]
/// or [`ShardedSweep`] (batch paths) or reassembled from streamed
/// `CellDone` events plus the job summary (submit path). Every path
/// renders and maps to an exit code through this one type.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Per-cell platform names (for failed/skipped lines).
    pub names: Vec<String>,
    pub results: Vec<Option<RooflineRun>>,
    pub failed: Vec<SweepFailure>,
    /// Every granted retry as `(index, attempt granted)` — the 0-based
    /// attempt the retry runs as, under threads and processes alike —
    /// sorted.
    pub retried: Vec<(usize, u32)>,
    pub skipped: Vec<usize>,
    pub resumed: Vec<usize>,
    /// Cells quarantined for repeatedly killing their worker process.
    pub poisoned: Vec<usize>,
    /// Worker-process respawns: `Some` exactly for a process-sharded
    /// sweep, whose summary line also counts poison cells.
    pub respawns: Option<u32>,
}

/// Both supervisors' failure records, rendered alike.
fn sweep_failures<E: std::fmt::Display>(failed: &[CellFailure<E>]) -> Vec<SweepFailure> {
    failed
        .iter()
        .map(|f| SweepFailure {
            index: f.index,
            attempts: f.attempts,
            quarantined: f.quarantined,
            error: f.error.to_string(),
        })
        .collect()
}

impl SweepOutcome {
    pub fn from_supervised(sweep: &SupervisedSweep, names: Vec<String>) -> SweepOutcome {
        SweepOutcome {
            names,
            results: sweep.report.results.clone(),
            failed: sweep_failures(&sweep.report.failed),
            retried: sweep.report.retried.clone(),
            skipped: sweep.report.skipped.clone(),
            resumed: sweep.resumed.clone(),
            poisoned: Vec::new(),
            respawns: None,
        }
    }

    pub fn from_sharded(sweep: &ShardedSweep, names: Vec<String>) -> SweepOutcome {
        SweepOutcome {
            names,
            results: sweep.results.clone(),
            failed: sweep_failures(&sweep.failed),
            retried: sweep.retried.clone(),
            skipped: sweep.skipped.clone(),
            resumed: sweep.resumed.clone(),
            poisoned: sweep.poisoned.clone(),
            respawns: Some(sweep.respawns),
        }
    }

    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// The per-cell lines plus the summary line (everything after the
    /// `config:` header).
    pub fn body(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, name) in self.names.iter().enumerate() {
            let retries = self.retried.iter().filter(|(idx, _)| *idx == i).count();
            let tag = if self.resumed.contains(&i) {
                " [resumed]".to_string()
            } else if retries > 0 {
                format!(
                    " [{retries} retr{}]",
                    if retries == 1 { "y" } else { "ies" }
                )
            } else {
                String::new()
            };
            match &self.results[i] {
                Some(run) => {
                    let r = &run.regions[0];
                    let _ = writeln!(
                        out,
                        "  {:<22} triad {:>6.2} GFLOP/s at AI {:.3} FLOP/B (overhead {:.2}x){tag}",
                        run.platform_name,
                        r.gflops(run.freq_hz),
                        r.ai(),
                        r.overhead_factor()
                    );
                }
                None => {
                    if let Some(f) = self.failed.iter().find(|f| f.index == i) {
                        let why = if self.poisoned.contains(&i) {
                            format!("poison cell, quarantined after {} attempts", f.attempts)
                        } else if f.quarantined {
                            format!("quarantined after {} attempts", f.attempts)
                        } else {
                            format!("attempt {}", f.attempts)
                        };
                        let _ =
                            writeln!(out, "  {:<22} triad FAILED ({why}): {}{tag}", name, f.error);
                    } else {
                        let _ = writeln!(
                            out,
                            "  {:<22} triad SKIPPED (sweep cancelled by a fatal failure)",
                            name
                        );
                    }
                }
            }
        }
        let (poison, respawns) = match self.respawns {
            Some(n) => (
                format!(" ({} poison)", self.poisoned.len()),
                format!(" {n} worker respawns,"),
            ),
            None => Default::default(),
        };
        let _ = writeln!(
            out,
            "sweep: {}/{} cells completed, {} failed{poison}, {} skipped, \
             {} retries granted,{respawns} {} resumed from journal",
            self.completed(),
            self.names.len(),
            self.failed.len(),
            self.skipped.len(),
            self.retried.len(),
            self.resumed.len()
        );
        out
    }

    /// Exit-status mapping shared with the serve daemon's `JobStatus`
    /// code: 0 = every cell ok, 3 = partial results, 4 = fatal or no
    /// results.
    pub fn exit_code(&self) -> i32 {
        if self.failed.is_empty() && self.skipped.is_empty() {
            0
        } else if self.completed() > 0 && self.skipped.is_empty() {
            3
        } else {
            4
        }
    }

    /// Encode the accounting (everything but `names`/`results`, which
    /// the client reassembles from `CellDone` events) for the serve
    /// job summary.
    pub fn encode_summary(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.failed.len() as u32);
        for f in &self.failed {
            e.u64(f.index as u64);
            e.u32(f.attempts);
            e.u8(f.quarantined as u8);
            e.str(&f.error);
        }
        e.u32(self.retried.len() as u32);
        for (i, a) in &self.retried {
            e.u64(*i as u64);
            e.u32(*a);
        }
        e.u32(self.skipped.len() as u32);
        for i in &self.skipped {
            e.u64(*i as u64);
        }
        e.u32(self.resumed.len() as u32);
        for i in &self.resumed {
            e.u64(*i as u64);
        }
        e.into_bytes()
    }

    /// Rebuild an outcome from streamed cell results plus the encoded
    /// summary accounting.
    ///
    /// # Errors
    /// A human-readable message on malformed summary bytes.
    pub fn decode_summary(
        bytes: &[u8],
        names: Vec<String>,
        results: Vec<Option<RooflineRun>>,
    ) -> Result<SweepOutcome, String> {
        let mut d = Dec::new(bytes);
        let inner = |d: &mut Dec| -> Result<SweepOutcome, WireError> {
            // Element floors: u64 + u32 + u8 + string length; u64 + u32;
            // u64; u64.
            let nf = d.count(17)?;
            let mut failed = Vec::with_capacity(nf);
            for _ in 0..nf {
                failed.push(SweepFailure {
                    index: d.u64()? as usize,
                    attempts: d.u32()?,
                    quarantined: d.u8()? != 0,
                    error: d.str()?,
                });
            }
            let nr = d.count(12)?;
            let mut retried = Vec::with_capacity(nr);
            for _ in 0..nr {
                retried.push((d.u64()? as usize, d.u32()?));
            }
            let ns = d.count(8)?;
            let mut skipped = Vec::with_capacity(ns);
            for _ in 0..ns {
                skipped.push(d.u64()? as usize);
            }
            let nz = d.count(8)?;
            let mut resumed = Vec::with_capacity(nz);
            for _ in 0..nz {
                resumed.push(d.u64()? as usize);
            }
            Ok(SweepOutcome {
                names: Vec::new(),
                results: Vec::new(),
                failed,
                retried,
                skipped,
                resumed,
                poisoned: Vec::new(),
                respawns: None,
            })
        };
        let mut out = inner(&mut d).map_err(|e| format!("malformed sweep summary: {e}"))?;
        d.finish()
            .map_err(|e| format!("malformed sweep summary: {e}"))?;
        out.names = names;
        out.results = results;
        Ok(out)
    }
}

/// The CLI sweep's cell names: every platform model, in cell order.
pub fn platform_names() -> Vec<String> {
    Platform::ALL
        .iter()
        .map(|p| p.spec().name.to_string())
        .collect()
}

/// Build the CLI triad sweep cells (one per platform model) over
/// caller-owned modules. With `decoded` (one per module, in order) the
/// cells run on those decodes instead of decoding their own; the
/// daemon passes its counted per-job decodes this way.
pub fn triad_sweep_cells<'a>(
    modules: &'a [mperf_ir::Module],
    decoded: Option<Vec<std::sync::Arc<mperf_vm::DecodedModule>>>,
    n: u64,
) -> Vec<RooflineJob<'a>> {
    let mut decoded = decoded.map(|v| v.into_iter());
    modules
        .iter()
        .zip(Platform::ALL)
        .map(|(module, p)| RooflineJob {
            module,
            decoded: decoded.as_mut().and_then(|it| it.next()),
            spec: p.spec(),
            entry: "triad".into(),
            setup: Box::new(cli_triad_setup(n)),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Batch command implementations (all return their exit code).

fn cmd_probe() -> i32 {
    let mut rows = vec![vec![
        "Platform".to_string(),
        "OoO".to_string(),
        "Vector".to_string(),
        "Sampling".to_string(),
        "Strategy".to_string(),
    ]];
    for p in Platform::ALL {
        let spec = p.spec();
        let mut core = Core::new(spec.clone());
        let mut kernel = PerfKernel::new(&mut core);
        let support = probe_sampling(&mut core, &mut kernel);
        let detected = crate::detect(&core).expect("modeled platform");
        rows.push(vec![
            spec.name.to_string(),
            if spec.out_of_order { "yes" } else { "no" }.into(),
            spec.vector
                .map(|v| v.version.to_string())
                .unwrap_or_else(|| "-".into()),
            support.to_string(),
            format!("{:?}", detected.strategy),
        ]);
    }
    print!("{}", text_table(&rows));
    0
}

fn cmd_record(opts: &CommonOpts) -> i32 {
    println!("{}", opts.config_line());
    let (mut vm, args) = demo_vm(opts.platform);
    vm.configure(opts.exec);
    match record(
        &mut vm,
        "demo",
        &args,
        RecordConfig {
            period: opts.period,
        },
    ) {
        Ok(profile) => {
            print!("{}", record_body(&profile, opts.platform, opts.period));
            0
        }
        Err(e) => {
            eprintln!("{}", record_failure_message(&e));
            1
        }
    }
}

fn cmd_stat(opts: &CommonOpts) -> i32 {
    println!("{}", opts.config_line());
    let (mut vm, args) = demo_vm(opts.platform);
    vm.configure(opts.exec);
    let events = stat_events(opts.platform);
    match stat(&mut vm, "demo", &args, &events) {
        Ok(rep) => {
            print!("{}", stat_body(opts.platform, &rep));
            0
        }
        Err(e) => {
            eprintln!("stat failed: {e}");
            1
        }
    }
}

fn cmd_roofline(opts: &CommonOpts) -> i32 {
    println!("{}", opts.config_line());
    let module = triad_module(opts.platform);
    let setup = cli_triad_setup(CLI_TRIAD_N);
    // Baseline + instrumented phases run as independent sweep jobs.
    let request = RooflineRequest::new().jobs(opts.jobs).config(opts.exec);
    let run = match request.run(&module, &opts.platform.spec(), "triad", &setup) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("roofline failed: {e}");
            eprintln!("hint: `miniperf sweep` isolates per-platform failures.");
            return 1;
        }
    };
    if let Some(w) = roofline_warning(&run) {
        eprintln!("{w}");
    }
    print!("{}", roofline_body(&run, opts.platform));
    0
}

/// Supervised roofline sweep of the triad kernel across every platform
/// model, on worker threads or — with `--shards N` — worker
/// *processes*, where crashes, hangs, and corrupt frames are survived by
/// kill + respawn + retry. Each cell is isolated and retried per
/// `--retries`; healthy cells always complete, bit-identical in either
/// mode, and are reported even when others fail. Exit status: 0 = every
/// cell completed, 3 = partial results, 4 = fatal failure or no results
/// at all.
fn cmd_sweep(opts: &CommonOpts) -> i32 {
    println!("{}", opts.sweep_config_line());
    let policy = RetryPolicy {
        max_attempts: opts.retries,
        retry_panics: true,
    };
    let outcome = if opts.shards > 0 {
        let specs: Vec<ShardedCellSpec> = Platform::ALL
            .iter()
            .map(|&p| ShardedCellSpec {
                workload: "cli".into(),
                source: KERNEL.into(),
                entry: "triad".into(),
                platform: p,
                setup: SetupSpec::CliTriad { n: CLI_TRIAD_N },
            })
            .collect();
        let mut worker = WorkerCmd::new(std::env::current_exe().expect("current exe"));
        worker.args.push("sweep-worker".into());
        let sharded_opts = ShardedSweepOptions {
            shards: opts.shards,
            cfg: opts.exec,
            policy,
            journal: opts.journal.clone(),
            resume: opts.resume,
            deadline_ticks: 600,
            tick: Duration::from_millis(50),
            worker,
        };
        run_roofline_sweep_sharded(&specs, &sharded_opts).map(|sweep| {
            if let Some(fatal) = &sweep.fatal {
                eprintln!("sweep cancelled: {fatal}");
            }
            SweepOutcome::from_sharded(&sweep, platform_names())
        })
    } else {
        let modules: Vec<mperf_ir::Module> =
            Platform::ALL.iter().map(|&p| triad_module(p)).collect();
        let cells = triad_sweep_cells(&modules, None, CLI_TRIAD_N);
        RooflineRequest::new()
            .jobs(opts.jobs)
            .config(opts.exec)
            .policy(policy)
            .journal_opt(opts.journal.clone())
            .resume(opts.resume)
            .run_supervised(&cells)
            .map(|sweep| SweepOutcome::from_supervised(&sweep, platform_names()))
    };
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.body());
            outcome.exit_code()
        }
        Err(e) => {
            eprintln!("sweep failed before any cell ran: {e}");
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_matches_the_old_cli_surface() {
        assert!(matches!(parse(&args(&["probe"])), Ok(Command::Probe)));
        assert!(matches!(parse(&args(&["-h"])), Ok(Command::Help)));
        assert!(matches!(
            parse(&args(&["sweep-worker"])),
            Ok(Command::SweepWorker)
        ));
        match parse(&args(&["record", "--platform", "c910", "--period", "777"])).unwrap() {
            Command::Record(o) => {
                assert_eq!(o.platform, Platform::TheadC910);
                assert_eq!(o.period, 777);
            }
            other => panic!("{other:?}"),
        }
        // Usage errors come back as Err, never exit().
        assert_eq!(parse(&args(&[])).unwrap_err(), "missing command");
        assert!(parse(&args(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&args(&["record", "--period", "0"]))
            .unwrap_err()
            .contains("bad --period"));
        assert!(parse(&args(&["sweep", "--resume"]))
            .unwrap_err()
            .contains("--resume requires --journal"));
        // -h anywhere in the options is help, not a usage error.
        assert!(matches!(parse(&args(&["record", "-h"])), Ok(Command::Help)));
        // --socket stays serve/submit-only.
        assert!(parse(&args(&["record", "--socket", "/tmp/x"]))
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn submit_parses_a_job_spec_and_rejects_daemon_options() {
        match parse(&args(&["submit", "sweep", "--jobs", "2", "--retries", "5"])).unwrap() {
            Command::Submit { spec, progress, .. } => {
                assert_eq!(spec.kind, JobKind::Sweep);
                assert_eq!(spec.jobs, 2);
                assert_eq!(spec.retries, 5);
                assert_eq!(spec.n, CLI_TRIAD_N);
                assert_eq!(spec.job_key, "");
                assert!(!progress);
            }
            other => panic!("{other:?}"),
        }
        match parse(&args(&[
            "submit",
            "sweep",
            "--progress",
            "--job-key",
            "nightly",
        ]))
        .unwrap()
        {
            Command::Submit { spec, progress, .. } => {
                assert_eq!(spec.job_key, "nightly");
                assert!(progress);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args(&["submit"])).unwrap_err().contains("job kind"));
        assert!(parse(&args(&["submit", "probe"]))
            .unwrap_err()
            .contains("unknown submit job kind"));
        assert!(parse(&args(&["submit", "sweep", "--journal", "/tmp/j"]))
            .unwrap_err()
            .contains("daemon-side"));
        assert!(parse(&args(&["submit", "record", "--job-key", "k"]))
            .unwrap_err()
            .contains("only applies to `submit sweep`"));
        assert!(parse(&args(&["submit", "sweep", "--job-key", ""]))
            .unwrap_err()
            .contains("must not be empty"));
    }

    #[test]
    fn serve_parses_its_supervision_flags() {
        match parse(&args(&[
            "serve",
            "--socket",
            "/tmp/mp.sock",
            "--state-dir",
            "/tmp/mp-state",
            "--cache-dir",
            "/tmp/mp-cache",
            "--max-jobs",
            "7",
        ]))
        .unwrap()
        {
            Command::Serve { socket, serve, .. } => {
                assert_eq!(socket, PathBuf::from("/tmp/mp.sock"));
                assert_eq!(serve.state_dir, Some(PathBuf::from("/tmp/mp-state")));
                assert_eq!(serve.cache_dir, Some(PathBuf::from("/tmp/mp-cache")));
                assert_eq!(serve.max_jobs, 7);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args(&["serve", "--max-jobs", "0"]))
            .unwrap_err()
            .contains("bad --max-jobs"));
        assert!(parse(&args(&["serve", "--state-dir"]))
            .unwrap_err()
            .contains("needs a value"));
        // `--cache-dir` is still accepted, and ignored.
        assert!(matches!(
            parse(&args(&["serve", "--cache-dir", "/tmp/mp-cache"])),
            Ok(Command::Serve { .. })
        ));
        // Only keyed sweeps journal on a daemon: a daemon-wide journal
        // is a usage error.
        assert!(parse(&args(&["serve", "--journal", "/tmp/j"]))
            .unwrap_err()
            .contains("serve does not take --journal/--resume"));
        assert!(parse(&args(&["serve", "--journal", "/tmp/j", "--resume"]))
            .unwrap_err()
            .contains("serve does not take --journal/--resume"));
        assert!(parse(&args(&["serve", "--resume"])).is_err());
        // The serve-only flags stay serve-only.
        assert!(parse(&args(&["sweep", "--state-dir", "/tmp/x"]))
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn job_spec_roundtrips_through_its_codec() {
        for kind in [
            JobKind::Record,
            JobKind::Stat,
            JobKind::Roofline,
            JobKind::Sweep,
        ] {
            let spec = JobSpec {
                kind,
                platform: Platform::TheadC910,
                period: 12345,
                jobs: 3,
                retries: 7,
                exec: ExecConfig {
                    engine: Engine::Reference,
                    regalloc: false,
                },
                n: 2048,
                job_key: "nightly-sweep".into(),
            };
            let back = JobSpec::decode(&spec.encode()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(JobSpec::decode(&[]).is_err());
        let mut stale = JobSpec::from_opts(JobKind::Record, &CommonOpts::default()).encode();
        stale[0] ^= 0xff; // schema word
        assert!(JobSpec::decode(&stale).is_err());
    }

    #[test]
    fn sweep_summary_roundtrips() {
        let outcome = SweepOutcome {
            names: vec!["a".into(), "b".into()],
            results: vec![None, None],
            failed: vec![SweepFailure {
                index: 1,
                attempts: 3,
                quarantined: true,
                error: "baseline phase trapped: ÷0".into(),
            }],
            retried: vec![(1, 0), (1, 1)],
            skipped: vec![0],
            resumed: vec![],
            poisoned: vec![],
            respawns: None,
        };
        let bytes = outcome.encode_summary();
        let back =
            SweepOutcome::decode_summary(&bytes, outcome.names.clone(), outcome.results.clone())
                .unwrap();
        assert_eq!(back, outcome);
        assert!(SweepOutcome::decode_summary(&bytes[..3], vec![], vec![]).is_err());
    }

    #[test]
    fn config_lines_are_stable() {
        let opts = CommonOpts {
            jobs: 4,
            ..Default::default()
        };
        assert_eq!(
            opts.config_line(),
            format!(
                "config: platform=SpacemiT X60 {} jobs=4",
                ExecConfig::default().describe()
            )
        );
        assert!(opts
            .sweep_config_line()
            .starts_with("config: sweep platforms=4"));
        let sharded = CommonOpts { shards: 2, ..opts };
        assert!(sharded.sweep_config_line().contains(" shards=2 retries=3"));
    }
}
