//! The traced run: the workload's seeded request list replayed
//! in-process through the same public functions each `miniperf`
//! command calls, with a span around each call. Spans stay in memory
//! and are written out as JSON lines when the run ends; the per-layer
//! metrics are their self times and the counts gathered beside them.
//!
//! Where one public call wraps two layers (`cli::roofline_body`
//! characterizes and then plots; `cmd_sweep_sharded` renders inline),
//! the replay calls the inner public functions itself, and every
//! rendered body is checked against the expected table — so the split
//! is proven to print what the command prints.

use crate::e2e::{resolve, spawn_capture, Env};
use crate::specs::{trace_list, warmup, Spec, Workload};
use crate::{json_str, median, sys, Metric, Report};
use miniperf::cli::{self, Command, CommonOpts, JobKind, JobSpec, SweepOutcome};
use miniperf::serve::{
    self, decode_profile_meta, decode_sample, decode_stat, ServeHandle, ServeOptions,
};
use miniperf::sweep_supervisor::decode_run;
use miniperf::{
    cli_triad_setup, record, run_roofline_sweep_sharded, stat, RecordConfig, RooflineRequest,
    RooflineRun, SetupSpec, ShardedCellSpec, ShardedSweep, ShardedSweepOptions,
};
use mperf_roofline::{characterize_with_jobs, plot, MachineCharacterization, Point};
use mperf_sim::{Core, Platform};
use mperf_sweep::proto::Msg;
use mperf_sweep::{ClientSession, RetryPolicy, WorkerCmd};
use mperf_vm::{decode_module_cfg, Vm};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::{self, BufReader, Read, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The working set `cli::roofline_body` characterizes.
const CHARACTERIZE_WS: u64 = 8 << 20;
/// Bytes one characterization streams: memset and triad each make a
/// warm-up and a measured pass over the working set.
const CHARACTERIZE_BYTES: u64 = 4 * CHARACTERIZE_WS;
/// Fresh `miniperf --help` processes timed for `cli.startup_ms`.
const STARTUP_PROBES: usize = 5;
/// The traced run fails when more of its wall time than this lies
/// outside every span.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the request (in the replayed list) the span belongs to.
    pub req: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread_cpu_ns: u64,
    /// CPU of every thread of this process during the span (includes
    /// worker threads the call spawned).
    pub proc_cpu_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. A disabled tracer runs the same calls and
/// records nothing (the untraced replay).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let (thread0, proc0) = (sys::thread_cpu_ns(), sys::process_cpu_ns());
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            thread_cpu_ns: 0,
            proc_cpu_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.thread_cpu_ns = sys::thread_cpu_ns() - thread0;
        s.proc_cpu_ns = sys::process_cpu_ns() - proc0;
        out
    }

    /// Index the next span will get (for side tables keyed by span).
    fn next_index(&self) -> Option<usize> {
        self.on.then_some(self.spans.len())
    }

    /// Each span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let own = self.self_ns();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"thread_cpu_ns\":{},\"proc_cpu_ns\":{}}}",
                json_str(s.name),
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                own[i],
                s.thread_cpu_ns,
                s.proc_cpu_ns
            )?;
        }
        out.flush()
    }
}

/// Counts gathered at the span boundaries.
#[derive(Debug, Clone, Default)]
struct Counts {
    guest_instr: u64,
    guest_cycles: u64,
    /// Guest instructions retired inside `vm.exec` spans.
    exec_instr: u64,
    samples: u64,
    compiles: u64,
    decodes: u64,
    journal_bytes: u64,
    retries: u64,
    respawns: u64,
    frames: u64,
    bytes: u64,
    /// `(platform, jobs, span)` of every characterization.
    characterize: Vec<(Platform, usize, usize)>,
    /// Spans of `record()` calls and of their unsampled probes.
    record_spans: Vec<usize>,
    probe_spans: Vec<usize>,
    /// Spans of sharded sweeps and of their in-process equivalents.
    shard_probe_spans: Vec<usize>,
}

impl Counts {
    fn add_run(&mut self, run: &RooflineRun) {
        for phase in [&run.baseline, &run.instrumented] {
            self.guest_instr += phase.instructions;
            self.guest_cycles += phase.total_cycles;
        }
    }
}

/// Replay state shared by every request.
struct Cx<'a> {
    bin: &'a Path,
    work: &'a Path,
    socket: Option<PathBuf>,
    n: Counts,
}

/// Replay one request; returns its stdout body.
fn replay(tr: &mut Tracer, cx: &mut Cx, spec: &Spec) -> Result<String, String> {
    let argv = resolve(&spec.argv, cx.work).map_err(|e| e.to_string())?;
    match cli::parse(&argv)? {
        Command::Record(o) => batch_record(tr, cx, &o),
        Command::Stat(o) => batch_stat(tr, cx, &o),
        Command::Roofline(o) => batch_roofline(tr, cx, &o),
        Command::Sweep(o) if o.shards > 0 => batch_sharded(tr, cx, &o),
        Command::Sweep(o) => batch_sweep(tr, cx, &o),
        Command::Submit { spec, .. } => served(tr, cx, &spec),
        other => Err(format!("no replay for {other:?}")),
    }
}

fn compile(tr: &mut Tracer, cx: &mut Cx, f: impl FnOnce() -> mperf_ir::Module) -> mperf_ir::Module {
    cx.n.compiles += 1;
    tr.span("ir.compile", |_| f())
}

fn decode(
    tr: &mut Tracer,
    cx: &mut Cx,
    module: &mperf_ir::Module,
    o: &CommonOpts,
) -> Arc<mperf_vm::DecodedModule> {
    cx.n.decodes += 1;
    tr.span("vm.decode", |_| decode_module_cfg(module, o.exec.decode()))
}

/// A demo VM over a pre-built decode, staged with the demo's arguments.
fn demo_vm<'m>(
    module: &'m mperf_ir::Module,
    decoded: &Arc<mperf_vm::DecodedModule>,
    o: &CommonOpts,
) -> (Vm<'m>, Vec<mperf_vm::Value>) {
    let mut vm = Vm::new(module, Core::new(o.platform.spec()));
    vm.set_decoded(Arc::clone(decoded));
    vm.set_engine(o.exec.engine);
    let args = cli::demo_args(&mut vm);
    (vm, args)
}

fn batch_record(tr: &mut Tracer, cx: &mut Cx, o: &CommonOpts) -> Result<String, String> {
    let module = compile(tr, cx, || cli::compile_demo(o.platform));
    let decoded = decode(tr, cx, &module, o);
    // The unsampled probe: same module, arguments and platform.
    cx.n.probe_spans.extend(tr.next_index());
    let instr = tr.span("vm.exec", |_| -> Result<u64, String> {
        let (mut vm, args) = demo_vm(&module, &decoded, o);
        vm.call("demo", &args).map_err(|e| e.to_string())?;
        Ok(vm.core.instructions())
    })?;
    cx.n.exec_instr += instr;
    cx.n.record_spans.extend(tr.next_index());
    let profile = tr
        .span("event.record", |_| {
            let (mut vm, args) = demo_vm(&module, &decoded, o);
            record(&mut vm, "demo", &args, RecordConfig { period: o.period })
        })
        .map_err(|e| cli::record_failure_message(&e))?;
    cx.n.guest_instr += profile.total_instructions;
    cx.n.guest_cycles += profile.total_cycles;
    cx.n.samples += profile.samples.len() as u64;
    Ok(tr.span("cli.render", |_| {
        cli::record_body(&profile, o.platform, o.period)
    }))
}

fn batch_stat(tr: &mut Tracer, cx: &mut Cx, o: &CommonOpts) -> Result<String, String> {
    let module = compile(tr, cx, || cli::compile_demo(o.platform));
    let decoded = decode(tr, cx, &module, o);
    let events = cli::stat_events(o.platform);
    let rep = tr
        .span("vm.exec", |_| {
            let (mut vm, args) = demo_vm(&module, &decoded, o);
            stat(&mut vm, "demo", &args, &events)
        })
        .map_err(|e| format!("stat failed: {e}"))?;
    cx.n.exec_instr += rep.instructions;
    cx.n.guest_instr += rep.instructions;
    cx.n.guest_cycles += rep.cycles;
    Ok(tr.span("cli.render", |_| cli::stat_body(o.platform, &rep)))
}

fn characterize(tr: &mut Tracer, cx: &mut Cx, p: Platform, jobs: usize) -> MachineCharacterization {
    if let Some(i) = tr.next_index() {
        cx.n.characterize.push((p, jobs, i));
    }
    tr.span("roofline.characterize", |_| {
        characterize_with_jobs(p, CHARACTERIZE_WS, jobs)
    })
}

/// `cli::roofline_body` over an already computed characterization.
fn roofline_text(run: &RooflineRun, p: Platform, ch: &MachineCharacterization) -> String {
    let spec = p.spec();
    let r = &run.regions[0];
    let mut model = ch.to_model();
    model.add_point(Point {
        name: "triad".into(),
        ai: r.ai(),
        gflops: r.gflops(spec.freq_hz),
    });
    let mut out = format!(
        "{}: triad {:.2} GFLOP/s at AI {:.3} FLOP/B (overhead {:.2}x)\n\n",
        spec.name,
        r.gflops(spec.freq_hz),
        r.ai(),
        r.overhead_factor()
    );
    out.push_str(&plot::ascii(&model, 64, 16));
    out
}

fn batch_roofline(tr: &mut Tracer, cx: &mut Cx, o: &CommonOpts) -> Result<String, String> {
    let module = compile(tr, cx, || cli::triad_module(o.platform));
    let decoded = decode(tr, cx, &module, o);
    let setup = cli_triad_setup(cli::CLI_TRIAD_N);
    let run = tr
        .span("roofline_runner.measure", |_| {
            RooflineRequest::new()
                .jobs(o.jobs)
                .config(o.exec)
                .run_prepared(&module, &decoded, &o.platform.spec(), "triad", &setup)
        })
        .map_err(|e| format!("roofline failed: {e}"))?;
    cx.n.add_run(&run);
    let ch = characterize(tr, cx, o.platform, o.jobs);
    Ok(tr.span("cli.render", |_| roofline_text(&run, o.platform, &ch)))
}

fn platform_names() -> Vec<String> {
    Platform::ALL
        .iter()
        .map(|p| p.spec().name.to_string())
        .collect()
}

/// The four triad modules and their decodes, one span each.
fn triad_cells_input(
    tr: &mut Tracer,
    cx: &mut Cx,
    o: &CommonOpts,
) -> (Vec<mperf_ir::Module>, Vec<Arc<mperf_vm::DecodedModule>>) {
    let modules: Vec<mperf_ir::Module> = Platform::ALL
        .iter()
        .map(|&p| compile(tr, cx, || cli::triad_module(p)))
        .collect();
    let decodes = modules.iter().map(|m| decode(tr, cx, m, o)).collect();
    (modules, decodes)
}

fn policy(o: &CommonOpts) -> RetryPolicy {
    RetryPolicy {
        max_attempts: o.retries,
        retry_panics: true,
    }
}

fn batch_sweep(tr: &mut Tracer, cx: &mut Cx, o: &CommonOpts) -> Result<String, String> {
    let (modules, decodes) = triad_cells_input(tr, cx, o);
    let cells = cli::triad_sweep_cells(&modules, Some(decodes), cli::CLI_TRIAD_N);
    let request = RooflineRequest::new()
        .jobs(o.jobs)
        .config(o.exec)
        .policy(policy(o))
        .journal_opt(o.journal.clone())
        .resume(o.resume);
    let name = if o.resume {
        "sweep.resume"
    } else {
        "sweep.supervised"
    };
    let sweep = tr
        .span(name, |_| request.run_supervised(&cells))
        .map_err(|e| format!("sweep failed before any cell ran: {e}"))?;
    if let (Some(j), false) = (&o.journal, o.resume) {
        cx.n.journal_bytes += std::fs::metadata(j).map_err(|e| e.to_string())?.len();
    }
    cx.n.retries += sweep.report.retried.len() as u64;
    sweep
        .report
        .results
        .iter()
        .flatten()
        .for_each(|r| cx.n.add_run(r));
    let outcome = SweepOutcome::from_supervised(&sweep, platform_names());
    Ok(tr.span("cli.render", |_| outcome.body()))
}

fn batch_sharded(tr: &mut Tracer, cx: &mut Cx, o: &CommonOpts) -> Result<String, String> {
    let specs: Vec<ShardedCellSpec> = Platform::ALL
        .iter()
        .map(|&p| ShardedCellSpec {
            workload: "cli".into(),
            source: cli::KERNEL.into(),
            entry: "triad".into(),
            platform: p,
            setup: SetupSpec::CliTriad {
                n: cli::CLI_TRIAD_N,
            },
        })
        .collect();
    let mut worker = WorkerCmd::new(cx.bin);
    worker.args.push("sweep-worker".into());
    let opts = ShardedSweepOptions {
        shards: o.shards,
        cfg: o.exec,
        policy: policy(o),
        journal: o.journal.clone(),
        resume: o.resume,
        deadline_ticks: 600,
        tick: Duration::from_millis(50),
        worker,
    };
    let sweep = tr
        .span("shard.sweep", |_| run_roofline_sweep_sharded(&specs, &opts))
        .map_err(|e| format!("sweep failed before any cell ran: {e}"))?;
    cx.n.respawns += u64::from(sweep.respawns);
    cx.n.retries += sweep.retried.len() as u64;
    sweep.results.iter().flatten().for_each(|r| cx.n.add_run(r));
    // The same cells in-process on as many threads as there were
    // shards, for the shard layer's overhead.
    let (modules, decodes) = triad_cells_input(tr, cx, o);
    let cells = cli::triad_sweep_cells(&modules, Some(decodes), cli::CLI_TRIAD_N);
    cx.n.shard_probe_spans.extend(tr.next_index());
    tr.span("shard.probe", |_| {
        RooflineRequest::new()
            .jobs(o.shards)
            .config(o.exec)
            .policy(policy(o))
            .run_supervised(&cells)
    })
    .map_err(|e| e.to_string())?;
    Ok(tr.span("cli.render", |_| sharded_text(&specs, &sweep)))
}

/// What `miniperf sweep --shards N` prints after its `config:` line.
fn sharded_text(specs: &[ShardedCellSpec], sweep: &ShardedSweep) -> String {
    let mut out = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let retries = sweep.retried.iter().filter(|(idx, _)| *idx == i).count();
        let tag = if sweep.resumed.contains(&i) {
            " [resumed]".to_string()
        } else if retries > 0 {
            format!(
                " [{retries} retr{}]",
                if retries == 1 { "y" } else { "ies" }
            )
        } else {
            String::new()
        };
        let name = spec.platform.spec().name;
        match &sweep.results[i] {
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
            None => match sweep.failed.iter().find(|f| f.index == i) {
                Some(f) => {
                    let why = if sweep.poisoned.contains(&i) {
                        format!("poison cell, quarantined after {} attempts", f.attempts)
                    } else if f.quarantined {
                        format!("quarantined after {} attempts", f.attempts)
                    } else {
                        format!("attempt {}", f.attempts)
                    };
                    let _ = writeln!(out, "  {name:<22} triad FAILED ({why}): {}{tag}", f.error);
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {name:<22} triad SKIPPED (sweep cancelled by a fatal failure)"
                    );
                }
            },
        }
    }
    let _ = writeln!(
        out,
        "sweep: {}/{} cells completed, {} failed ({} poison), {} skipped, \
         {} retries granted, {} worker respawns, {} resumed from journal",
        sweep.completed(),
        specs.len(),
        sweep.failed.len(),
        sweep.poisoned.len(),
        sweep.skipped.len(),
        sweep.retried.len(),
        sweep.respawns,
        sweep.resumed.len()
    );
    out
}

/// Counts the bytes the client reads off the socket.
struct Counting<R> {
    inner: R,
    bytes: Rc<Cell<u64>>,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }
}

/// `miniperf submit`: one connection to the daemon, results decoded
/// and rendered client-side exactly as the submit client does.
fn served(tr: &mut Tracer, cx: &mut Cx, spec: &JobSpec) -> Result<String, String> {
    let socket = cx
        .socket
        .clone()
        .ok_or("submit replayed without a daemon")?;
    let bytes = Rc::new(Cell::new(0u64));
    let mut samples = Vec::new();
    let mut runs: Vec<Option<RooflineRun>> = vec![None; Platform::ALL.len()];
    let mut frames = 0u64;
    let mut bad: Option<String> = None;
    let res = tr.span(
        "serve.roundtrip",
        |tr| -> Result<mperf_sweep::JobResult, String> {
            let stream = UnixStream::connect(&socket).map_err(|e| e.to_string())?;
            let read_half = Counting {
                inner: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
                bytes: Rc::clone(&bytes),
            };
            let mut session =
                ClientSession::connect(read_half, stream).map_err(|e| e.to_string())?;
            let job = session.submit(spec.encode()).map_err(|e| e.to_string())?;
            let res = session
                .drain_job(job, |m| {
                    frames += 1;
                    let decoded = match m {
                        Msg::Sample { payload, .. } => tr
                            .span("serve.client_decode", |_| decode_sample(payload))
                            .map(|s| samples.push(s)),
                        Msg::CellDone { index, payload, .. } => {
                            // A sweep streams one cell per platform; a roofline
                            // streams its single run.
                            let (i, platform) = match spec.kind {
                                JobKind::Sweep => {
                                    (*index as usize, Platform::ALL.get(*index as usize).copied())
                                }
                                _ => (0, Some(spec.platform)),
                            };
                            match platform {
                                Some(p) => tr
                                    .span("serve.client_decode", |_| decode_run(payload, &p.spec()))
                                    .map(|r| runs[i] = Some(r)),
                                None => Err(format!("cell index {i} out of range")),
                            }
                        }
                        _ => Ok(()),
                    };
                    if let Err(e) = decoded {
                        bad.get_or_insert(e);
                    }
                })
                .map_err(|e| e.to_string())?;
            let _ = session.shutdown();
            Ok(res)
        },
    )?;
    cx.n.frames += frames + 1;
    cx.n.bytes += bytes.get();
    if let Some(e) = bad {
        return Err(e);
    }
    if res.code != 0 {
        return Err(format!("job ended with code {}: {}", res.code, res.message));
    }
    match spec.kind {
        JobKind::Record => {
            let mut profile =
                tr.span("serve.client_decode", |_| decode_profile_meta(&res.payload))?;
            profile.samples = samples;
            cx.n.guest_instr += profile.total_instructions;
            cx.n.guest_cycles += profile.total_cycles;
            cx.n.samples += profile.samples.len() as u64;
            Ok(tr.span("cli.render", |_| {
                cli::record_body(&profile, spec.platform, spec.period)
            }))
        }
        JobKind::Stat => {
            let events = cli::stat_events(spec.platform);
            let rep = tr.span("serve.client_decode", |_| {
                decode_stat(&res.payload, &events)
            })?;
            cx.n.guest_instr += rep.instructions;
            cx.n.guest_cycles += rep.cycles;
            Ok(tr.span("cli.render", |_| cli::stat_body(spec.platform, &rep)))
        }
        JobKind::Roofline => {
            let run = runs[0]
                .take()
                .ok_or("daemon reported success without a roofline result")?;
            cx.n.add_run(&run);
            let ch = characterize(tr, cx, spec.platform, spec.jobs);
            Ok(tr.span("cli.render", |_| roofline_text(&run, spec.platform, &ch)))
        }
        JobKind::Sweep => {
            let outcome = tr.span("serve.client_decode", |_| {
                SweepOutcome::decode_summary(&res.payload, platform_names(), runs)
            })?;
            cx.n.retries += outcome.retried.len() as u64;
            outcome
                .results
                .iter()
                .flatten()
                .for_each(|r| cx.n.add_run(r));
            Ok(tr.span("cli.render", |_| outcome.body()))
        }
    }
}

/// Replay `list`, checking every body; returns the failures and each
/// request's wall time.
fn replay_list(tr: &mut Tracer, cx: &mut Cx, env: &Env, list: &[Spec]) -> (usize, Vec<Duration>) {
    let mut failed = 0;
    let mut walls = Vec::with_capacity(list.len());
    for (i, spec) in list.iter().enumerate() {
        tr.req = i;
        let t = Instant::now();
        let body = tr.span("cli.request", |tr| replay(tr, cx, spec));
        walls.push(t.elapsed());
        let ok = match (&body, env.table.get(&spec.expect)) {
            (Ok(b), Some(want)) => want.exit == 0 && *b == want.body,
            _ => false,
        };
        if !ok {
            failed += 1;
            eprintln!(
                "perfbench: traced replay of {:?} did not match the table: {:?}",
                spec.argv,
                body.err()
            );
        }
    }
    (failed, walls)
}

/// CPU at `--jobs 2` over CPU at `--jobs 1` of the same platform's
/// characterization, as a geometric mean over platforms (0 when no
/// platform was characterized at both).
fn cpu_conservation(tr: &Tracer, n: &Counts) -> f64 {
    let mean_cpu = |p: Platform, jobs: usize| -> Option<f64> {
        let v: Vec<f64> = n
            .characterize
            .iter()
            .filter(|(q, j, _)| *q == p && *j == jobs)
            .map(|(_, _, i)| tr.spans[*i].proc_cpu_ns as f64)
            .collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    let ratios: Vec<f64> = Platform::ALL
        .iter()
        .filter_map(|&p| Some(mean_cpu(p, 2)? / mean_cpu(p, 1)?))
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// One traced run of workload `w`.
pub fn run(env: &Env, w: Workload, seed: u64) -> io::Result<Report> {
    let list = trace_list(w, seed);
    let daemon: Option<ServeHandle> = if w == Workload::ServeWarm {
        let sopts = ServeOptions {
            state_dir: Some(env.work.join("state")),
            cache_dir: Some(env.work.join("cache")),
            ..ServeOptions::default()
        };
        let opts = CommonOpts {
            jobs: 2,
            ..CommonOpts::default()
        };
        Some(serve::start(&env.work.join("t.sock"), &opts, &sopts)?)
    } else {
        None
    };
    let mut cx = Cx {
        bin: &env.bin,
        work: &env.work,
        socket: daemon.as_ref().map(|d| d.socket().to_path_buf()),
        n: Counts::default(),
    };
    // Set-up, untraced: complete the resume journal, warm the daemon.
    let mut off = Tracer::new(false);
    let (setup_failed, _) = replay_list(&mut off, &mut cx, env, &warmup(w));
    cx.n = Counts::default();

    let before = daemon.as_ref().map(ServeHandle::stats).unwrap_or_default();
    let mut tr = Tracer::new(true);
    let t0 = Instant::now();
    let (failed, traced_walls) = replay_list(&mut tr, &mut cx, env, &list);
    let mut startup = Vec::new();
    for _ in 0..STARTUP_PROBES {
        tr.req = list.len();
        let t = Instant::now();
        tr.span("cli.startup", |_| {
            spawn_capture(&env.bin, &["--help".to_string()])
        })?;
        startup.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let traced_wall = t0.elapsed();
    let after = daemon.as_ref().map(ServeHandle::stats).unwrap_or_default();
    let n = std::mem::take(&mut cx.n);

    let (untraced_failed, untraced_walls) = replay_list(&mut off, &mut cx, env, &list);
    if let Some(d) = daemon {
        d.stop();
    }
    tr.write_jsonl(&env.out.join(format!("trace-{}-{seed}.jsonl", w.name())))?;

    let own = tr.self_ns();
    let ms = |ns: u64| ns as f64 / 1e6;
    let self_ms = |name: &str| {
        ms(tr
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| *o)
            .sum())
    };
    let calls = |name: &str| tr.spans.iter().filter(|s| s.name == name).count() as f64;
    let cpu_ms = |name: &str| {
        ms(tr
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.proc_cpu_ns)
            .sum())
    };
    let dur_ms = |idx: &[usize]| ms(idx.iter().map(|&i| tr.spans[i].dur_ns()).sum());
    let attributed: u64 = own.iter().sum();
    let unattributed_pct = 100.0 * (1.0 - attributed as f64 / traced_wall.as_nanos() as f64);
    // Paired per request, so a slow stretch of the host does not read
    // as tracing cost.
    let ratios: Vec<f64> = traced_walls
        .iter()
        .zip(&untraced_walls)
        .map(|(t, u)| t.as_secs_f64() / u.as_secs_f64())
        .collect();
    let overhead_pct = 100.0 * (median(&ratios) - 1.0);
    let exec_ms = self_ms("vm.exec");
    let sampling_ms = dur_ms(&n.record_spans) - dur_ms(&n.probe_spans);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    let metrics = vec![
        Metric::new(
            "roofline.characterize_ms",
            self_ms("roofline.characterize"),
            "ms",
        ),
        Metric::new(
            "roofline.characterize_cpu_ms",
            cpu_ms("roofline.characterize"),
            "ms",
        ),
        Metric::new(
            "roofline.characterize_bytes",
            calls("roofline.characterize") * CHARACTERIZE_BYTES as f64,
            "bytes",
        ),
        Metric::new(
            "roofline.cpu_conservation",
            cpu_conservation(&tr, &n),
            "ratio",
        ),
        Metric::new(
            "roofline_runner.measure_ms",
            self_ms("roofline_runner.measure"),
            "ms",
        ),
        Metric::new("vm.exec_ms", exec_ms, "ms"),
        Metric::new("vm.exec_cpu_ms", cpu_ms("vm.exec"), "ms"),
        Metric::new(
            "vm.ns_per_guest_instr",
            per(exec_ms * 1e6, n.exec_instr),
            "ns",
        ),
        Metric::new("sim.guest_instr", n.guest_instr as f64, "count"),
        Metric::new("sim.guest_cycles", n.guest_cycles as f64, "count"),
        Metric::new("event.samples", n.samples as f64, "count"),
        Metric::new("event.sampling_ms", sampling_ms, "ms"),
        Metric::new(
            "event.us_per_sample",
            per(sampling_ms * 1e3, n.samples),
            "us",
        ),
        Metric::new("ir.compile_ms", self_ms("ir.compile"), "ms"),
        Metric::new("ir.compiles", n.compiles as f64, "count"),
        Metric::new("vm.decode_ms", self_ms("vm.decode"), "ms"),
        Metric::new("vm.decodes", n.decodes as f64, "count"),
        Metric::new("sweep.supervised_ms", self_ms("sweep.supervised"), "ms"),
        Metric::new("sweep.resume_ms", self_ms("sweep.resume"), "ms"),
        Metric::new("sweep.journal_bytes", n.journal_bytes as f64, "bytes"),
        Metric::new("sweep.retries", n.retries as f64, "count"),
        Metric::new("shard.sweep_ms", self_ms("shard.sweep"), "ms"),
        Metric::new(
            "shard.overhead_ms",
            self_ms("shard.sweep") - dur_ms(&n.shard_probe_spans),
            "ms",
        ),
        Metric::new("shard.respawns", n.respawns as f64, "count"),
        Metric::new("serve.roundtrip_ms", self_ms("serve.roundtrip"), "ms"),
        Metric::new(
            "serve.client_decode_ms",
            self_ms("serve.client_decode"),
            "ms",
        ),
        Metric::new("serve.frames", n.frames as f64, "count"),
        Metric::new("serve.bytes", n.bytes as f64, "bytes"),
        Metric::new(
            "serve.decodes",
            (after.decodes - before.decodes) as f64,
            "count",
        ),
        Metric::new("serve.hits", (after.hits - before.hits) as f64, "count"),
        Metric::new(
            "serve.rejected",
            (after.rejected - before.rejected) as f64,
            "count",
        ),
        Metric::new("cli.startup_ms", median(&startup), "ms"),
        Metric::new("cli.render_ms", self_ms("cli.render"), "ms"),
        Metric::new("cli.glue_ms", self_ms("cli.request"), "ms"),
        Metric::new("trace.wall_ms", ms(traced_wall.as_nanos() as u64), "ms"),
        Metric::new("trace.unattributed_pct", unattributed_pct, "%"),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
    ];
    let meta = vec![
        ("requests".into(), list.len().to_string()),
        ("spans".into(), tr.spans.len().to_string()),
        ("untraced_failed".into(), untraced_failed.to_string()),
        ("setup_failed".into(), setup_failed.to_string()),
    ];
    Ok(Report {
        correct: failed == 0
            && untraced_failed == 0
            && setup_failed == 0
            && unattributed_pct <= MAX_UNATTRIBUTED_PCT,
        attempted: list.len(),
        failed,
        metrics,
        meta,
    })
}
