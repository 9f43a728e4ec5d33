//! `miniperf serve`: profiling as a service over a Unix-domain socket.
//!
//! The daemon accepts `record`/`stat`/`roofline`/`sweep` jobs from any
//! number of concurrent clients and executes them on the same machinery
//! the batch commands use — [`crate::record::record_streamed`] for
//! sampling, [`RooflineRequest`] for rooflines, and the supervised
//! sweep (worker threads, retry policy, journal-backed resume) for
//! sweeps. Results are *streamed*: every sample and completed roofline
//! run or sweep cell is framed and written the moment it exists, so
//! each connection has at most one frame in flight, whatever the job
//! size. The wire format is [`mperf_sweep::proto`] — the
//! same `MPSWIPC1` frames and handshake the sharded-sweep workers
//! speak — and the session choreography is [`mperf_sweep::serve`].
//!
//! ## Supervision contract
//!
//! The daemon supervises its clients and its jobs with the same
//! heartbeat-tick vocabulary [`mperf_sweep::ShardOptions`] uses for
//! worker processes: deadlines are counted in ticks of
//! [`ServeOptions::tick`], never raw wall-clock, so every decision is
//! reproducible under fault injection. Concretely:
//!
//! - **No daemon thread blocks indefinitely on a client.** Job threads
//!   write their own frames, one at a time per connection, to a socket
//!   whose write timeout is [`ServeOptions::stall_ticks`] ticks; the
//!   kernel socket buffer is the only queue. A write that makes no
//!   progress for that long declares the client stalled: its
//!   connection is torn down, its jobs are cancelled at the next cell
//!   boundary with [`CODE_STALLED`], and `stalled_clients` is counted
//!   in [`ServeStats`].
//! - **Jobs have deadlines.** A deadline supervisor thread ticks every
//!   running job; one that exceeds
//!   [`ServeOptions::job_deadline_ticks`] is cancelled with
//!   [`CODE_TIMEOUT`] (and counted in `timed_out`).
//! - **Load is shed, never queued silently.** At most
//!   [`ServeOptions::max_jobs`] jobs run at once; a submit beyond that
//!   is answered *immediately* with [`CODE_REJECTED`] (counted in
//!   `rejected`). Connections beyond [`ServeOptions::max_conns`] are
//!   dropped at accept (counted in `shed_conns`).
//!
//! ## Drain and resume
//!
//! SIGTERM/SIGINT flips [`run_daemon`] into **drain mode**: the socket
//! stops accepting (the socket file is removed), new submits are shed
//! with [`CODE_REJECTED`], and in-flight jobs get
//! [`ServeOptions::drain_deadline_ticks`] ticks to finish — or
//! checkpoint to their sweep journal — before being force-cancelled.
//! Every submitted job receives its terminal [`Msg::JobStatus`] before
//! the daemon exits; a second signal forces an immediate exit.
//!
//! A sweep submitted with a client-chosen **job key** (and a daemon
//! started with a state directory) journals each completed cell under
//! `state_dir`. If the daemon crashes mid-sweep, a client that
//! reconnects and resubmits the *same spec with the same key* resumes
//! server-side: only unjournaled cells re-execute, journaled cells are
//! replayed through the same event stream, and the reassembled result
//! is byte-identical to a fault-free run.
//!
//! ## Warm decode cache
//!
//! All connections share one `DecodeCache` keyed by
//! [`cell_key`] — the sweep journal's content-hash key (platform ×
//! entry × exec config × module text) — so the second identical job
//! performs **zero** module decodes. With
//! [`ServeOptions::cache_dir`] set, each fresh decode also appends its
//! *recipe* (workload source + config) under its `cell_key` to one
//! crash-safe sweep [`Journal`], `<cache-dir>/decode-cache.jrnl`; on
//! restart the daemon re-derives those decodes synchronously before
//! accepting clients, so a warm restart performs zero decodes on the
//! job path (`preloaded` counts the re-derived entries). A torn tail is
//! recovered by the journal itself; a malformed, stale or foreign
//! record is a miss, and a foreign file at that path turns persistence
//! off — never an error, and never overwritten. The journal is created
//! at the first fresh decode, not at daemon start. [`ServeHandle::stats`]
//! exposes all counters so tests can assert exact accounting.
//!
//! ## Exit-status contract
//!
//! A job's terminal [`Msg::JobStatus`] code mirrors the batch CLI exit
//! code (0 ok, 1 record/stat/roofline failure, 2 malformed job
//! description, sweep 0/3/4) plus the supervision codes:
//! [`CODE_CANCELLED`] (client cancel, disconnect, or drain),
//! [`CODE_REJECTED`] (shed), [`CODE_TIMEOUT`] (deadline),
//! [`CODE_STALLED`] (stalled client; normally never delivered — the
//! stalled connection is gone), and [`CODE_PANICKED`] (the job
//! panicked — the exit status of a panicking batch command; the
//! message is `job panicked: <payload>`, and the connection and the
//! daemon keep serving). `miniperf submit` exits with that code
//! and renders through the same [`crate::cli`] body functions the
//! batch commands print through, so streamed output is byte-identical
//! to batch output.

use crate::cli::{self, CommonOpts, JobKind, JobSpec, SweepOutcome};
use crate::detect::SamplingStrategy;
use crate::profile::{ProfSample, Profile};
use crate::record::{record_streamed, RecordConfig};
use crate::roofline_runner::{RooflineRequest, RooflineRun};
use crate::stat::{stat, StatReport};
use crate::sweep_supervisor::{cell_key, decode_run, encode_run};
use mperf_event::EventKind;
use mperf_sim::{Core, Platform};
use mperf_sweep::proto::{
    read_msg, write_msg, Msg, CODE_CANCELLED, CODE_PANICKED, CODE_REJECTED, CODE_STALLED,
    CODE_TIMEOUT,
};
use mperf_sweep::serve::{handshake_accept, ClientSession};
use mperf_sweep::supervise::panic_payload;
use mperf_sweep::wire::{fnv1a, Dec, Enc, WireError};
use mperf_sweep::{Journal, RetryPolicy};
use mperf_vm::{decode_module_cfg, DecodedModule, ExecConfig, Vm};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::os::fd::AsRawFd;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------
// Event payload codecs. The framing layer treats these as opaque; both
// ends of the socket agree on them here (same binary, same module).

pub fn encode_sample(s: &ProfSample) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(s.ip);
    e.u32(s.callchain.len() as u32);
    for pc in &s.callchain {
        e.u64(*pc);
    }
    e.u64(s.cycles);
    e.u64(s.instructions);
    e.into_bytes()
}

pub fn decode_sample(bytes: &[u8]) -> Result<ProfSample, String> {
    let mut d = Dec::new(bytes);
    let inner = |d: &mut Dec| -> Result<ProfSample, WireError> {
        let ip = d.u64()?;
        let n = d.count(8)?;
        let mut callchain = Vec::with_capacity(n);
        for _ in 0..n {
            callchain.push(d.u64()?);
        }
        Ok(ProfSample {
            ip,
            callchain,
            cycles: d.u64()?,
            instructions: d.u64()?,
        })
    };
    let s = inner(&mut d).map_err(|e| format!("malformed sample: {e}"))?;
    d.finish().map_err(|e| format!("malformed sample: {e}"))?;
    Ok(s)
}

fn strategy_code(s: SamplingStrategy) -> u8 {
    match s {
        SamplingStrategy::Direct => 0,
        SamplingStrategy::ModeCycleLeaderGroup => 1,
        SamplingStrategy::Unsupported => 2,
    }
}

fn strategy_from_code(b: u8) -> Option<SamplingStrategy> {
    match b {
        0 => Some(SamplingStrategy::Direct),
        1 => Some(SamplingStrategy::ModeCycleLeaderGroup),
        2 => Some(SamplingStrategy::Unsupported),
        _ => None,
    }
}

/// The `record` job summary: everything in a [`Profile`] *except* the
/// samples, which were already streamed one [`Msg::Sample`] at a time.
pub fn encode_profile_meta(p: &Profile) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(cli::platform_code(p.platform));
    e.u8(strategy_code(p.strategy));
    e.u64(p.lost);
    e.u64(p.total_cycles);
    e.u64(p.total_instructions);
    e.u32(p.func_names.len() as u32);
    for name in &p.func_names {
        e.str(name);
    }
    e.into_bytes()
}

pub fn decode_profile_meta(bytes: &[u8]) -> Result<Profile, String> {
    let mut d = Dec::new(bytes);
    let inner = |d: &mut Dec| -> Result<Profile, WireError> {
        let platform = cli::platform_from_code(d.u8()?).ok_or(WireError::Truncated)?;
        let strategy = strategy_from_code(d.u8()?).ok_or(WireError::Truncated)?;
        let lost = d.u64()?;
        let total_cycles = d.u64()?;
        let total_instructions = d.u64()?;
        let n = d.count(4)?;
        let mut func_names = Vec::with_capacity(n);
        for _ in 0..n {
            func_names.push(d.str()?);
        }
        Ok(Profile {
            platform,
            strategy,
            samples: Vec::new(),
            lost,
            total_cycles,
            total_instructions,
            func_names,
        })
    };
    let p = inner(&mut d).map_err(|e| format!("malformed profile summary: {e}"))?;
    d.finish()
        .map_err(|e| format!("malformed profile summary: {e}"))?;
    Ok(p)
}

/// The `stat` job summary. Only the counter *values* travel — the event
/// list is a pure function of the platform ([`cli::stat_events`]), so
/// the client re-derives it rather than trusting the wire.
pub fn encode_stat(rep: &StatReport) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(rep.cycles);
    e.u64(rep.instructions);
    e.u32(rep.counts.len() as u32);
    for (_, v) in &rep.counts {
        e.u64(*v);
    }
    e.into_bytes()
}

pub fn decode_stat(bytes: &[u8], events: &[EventKind]) -> Result<StatReport, String> {
    let mut d = Dec::new(bytes);
    let inner = |d: &mut Dec| -> Result<StatReport, WireError> {
        let cycles = d.u64()?;
        let instructions = d.u64()?;
        let n = d.count(8)?;
        if n != events.len() {
            return Err(WireError::Truncated);
        }
        let mut counts = Vec::with_capacity(n);
        for ev in events {
            counts.push((*ev, d.u64()?));
        }
        Ok(StatReport {
            counts,
            cycles,
            instructions,
        })
    };
    let rep = inner(&mut d).map_err(|e| format!("malformed stat summary: {e}"))?;
    d.finish()
        .map_err(|e| format!("malformed stat summary: {e}"))?;
    Ok(rep)
}

// ---------------------------------------------------------------------
// Daemon options and stats.

/// Supervision knobs for a serve daemon. Deadlines are counted in
/// heartbeat *ticks* of [`ServeOptions::tick`] — the same vocabulary as
/// [`mperf_sweep::ShardOptions`] — so only tick counts enter
/// supervision decisions and tests can shrink the tick without changing
/// the decision logic.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Admission-control cap on concurrently *running* jobs. Submits
    /// beyond it are answered immediately with
    /// [`CODE_REJECTED`] — shed, never queued silently.
    pub max_jobs: usize,
    /// Cap on concurrently open client connections; accepts beyond it
    /// are dropped before the handshake.
    pub max_conns: usize,
    /// A job running longer than this many ticks is cancelled with
    /// [`CODE_TIMEOUT`]. `0` disables the per-job deadline.
    pub job_deadline_ticks: u32,
    /// A write that makes no progress for this many ticks (the
    /// socket's write timeout) declares its client stalled and tears
    /// the connection down.
    pub stall_ticks: u32,
    /// Drain mode gives in-flight jobs this many ticks to finish (or
    /// checkpoint to their journal) before force-cancelling them.
    pub drain_deadline_ticks: u32,
    /// The heartbeat quantum every deadline above is counted in.
    pub tick: Duration,
    /// Per-job-key sweep journals live here, making keyed sweep
    /// submits crash-resumable across daemon restarts.
    pub state_dir: Option<PathBuf>,
    /// The decode-cache journal (`decode-cache.jrnl`) lives here,
    /// making the warm cache survive daemon restarts.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_jobs: 32,
            max_conns: 64,
            // 10 minutes at the default 50 ms tick: generous enough for
            // a full-size sweep, finite enough to reap a wedged job.
            job_deadline_ticks: 12_000,
            stall_ticks: 600,
            drain_deadline_ticks: 600,
            tick: Duration::from_millis(50),
            state_dir: None,
            cache_dir: None,
        }
    }
}

/// Exact counters from a running daemon: decode-cache activity plus
/// supervision accounting. Every counter is incremented at the single
/// point where the corresponding decision fires, so tests can match
/// them one-to-one against injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Module decodes actually performed on the job path.
    pub decodes: u64,
    /// Jobs served from an already-warm decode.
    pub hits: u64,
    /// Decodes re-derived from the on-disk cache at startup (off the
    /// job path; a warm restart serves with `decodes == 0`).
    pub preloaded: u64,
    /// Submits shed by admission control or drain mode
    /// ([`CODE_REJECTED`]).
    pub rejected: u64,
    /// Jobs cancelled by the per-job deadline ([`CODE_TIMEOUT`]).
    pub timed_out: u64,
    /// Clients declared stalled and torn down ([`CODE_STALLED`]).
    pub stalled_clients: u64,
    /// Connections dropped at accept (over `max_conns`, or an injected
    /// accept fault).
    pub shed_conns: u64,
}

// ---------------------------------------------------------------------
// The warm decode cache (in-memory + optional on-disk persistence).

/// What a decode was *made from* — enough to persist a cache entry that
/// a restarted daemon can re-derive and verify against its `cell_key`.
#[derive(Clone, Copy)]
struct CacheSource {
    workload: &'static str,
    source: &'static str,
    instrument: bool,
}

/// The demo workload `record`/`stat` run (uninstrumented).
const DEMO_SOURCE: CacheSource = CacheSource {
    workload: "cli",
    source: cli::DEMO,
    instrument: false,
};

/// The triad kernel `roofline`/`sweep` run (instrumented).
const TRIAD_SOURCE: CacheSource = CacheSource {
    workload: "cli",
    source: cli::KERNEL,
    instrument: true,
};

/// The decode-cache journal's file name inside the cache directory.
const CACHE_JOURNAL: &str = "decode-cache.jrnl";
/// Bumped on any recipe-codec change; entries of another schema are a
/// silent miss. Schema 2 carries the two-field [`ExecConfig`] wire form.
const CACHE_SCHEMA: u32 = 2;

/// One decode-cache journal payload: the decode recipe, journaled under
/// the decode's `cell_key`.
fn encode_cache_entry(
    src: CacheSource,
    platform: Platform,
    entry: &str,
    exec: ExecConfig,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(CACHE_SCHEMA);
    e.u8(cli::platform_code(platform));
    e.str(entry);
    cli::enc_exec(&mut e, exec);
    e.str(src.workload);
    e.str(src.source);
    e.u8(src.instrument as u8);
    e.into_bytes()
}

/// Decoded recipe: `(platform, entry, exec, workload, source,
/// instrument)`. Any malformation — unknown schema or code, truncation,
/// trailing bytes — is `None`: a miss, never an error.
#[allow(clippy::type_complexity)]
fn decode_cache_entry(
    bytes: &[u8],
) -> Option<(Platform, String, ExecConfig, String, String, bool)> {
    let mut d = Dec::new(bytes);
    let inner = |d: &mut Dec| -> Option<(Platform, String, ExecConfig, String, String, bool)> {
        if d.u32().ok()? != CACHE_SCHEMA {
            return None;
        }
        let platform = cli::platform_from_code(d.u8().ok()?)?;
        let entry = d.str().ok()?;
        let exec = cli::dec_exec(d).ok()?;
        let workload = d.str().ok()?;
        let source = d.str().ok()?;
        let instrument = d.u8().ok()? != 0;
        Some((platform, entry, exec, workload, source, instrument))
    };
    let out = inner(&mut d)?;
    d.finish().ok()?;
    Some(out)
}

/// The decode cache's on-disk half.
#[derive(Default)]
enum CacheStore {
    /// No cache directory, or its journal path holds something that is
    /// not a journal: nothing persists for the daemon's life.
    #[default]
    Off,
    /// Not opened yet. Opening creates (and fsyncs) a missing file, so
    /// that waits for the first fresh decode, never daemon start.
    Closed(PathBuf),
    Open(Journal),
}

impl CacheStore {
    /// The journal, opened on first use; a failed open (a foreign file
    /// is refused untouched) turns persistence off.
    fn journal(&mut self) -> Option<&mut Journal> {
        if let CacheStore::Closed(path) = self {
            *self = Journal::open(path).map_or(CacheStore::Off, CacheStore::Open);
        }
        match self {
            CacheStore::Open(j) => Some(j),
            _ => None,
        }
    }
}

/// All connections share one decoded-module cache keyed by
/// [`cell_key`] — the same content hash the sweep journal files cells
/// under — so identical jobs across clients share one decode. With a
/// cache directory, each on-demand decode also appends its recipe to
/// the cache journal, and [`DecodeCache::preload`] re-derives those
/// decodes at startup.
#[derive(Default)]
struct DecodeCache {
    map: Mutex<HashMap<u64, Arc<DecodedModule>>>,
    decodes: AtomicU64,
    hits: AtomicU64,
    preloaded: AtomicU64,
    /// Locked after `map`, never before.
    store: Mutex<CacheStore>,
}

impl DecodeCache {
    fn new(dir: Option<&Path>) -> DecodeCache {
        DecodeCache {
            store: Mutex::new(dir.map_or(CacheStore::Off, |d| {
                CacheStore::Closed(d.join(CACHE_JOURNAL))
            })),
            ..DecodeCache::default()
        }
    }

    /// The decoded form of `module` under `exec`, built at most once
    /// per key. The decode happens *under* the map lock: two identical
    /// jobs racing on a cold cache must still produce exactly one
    /// decode (the zero-decode warm-cache guarantee is deterministic,
    /// not probabilistic).
    fn decoded_for(
        &self,
        module: &mperf_ir::Module,
        platform: Platform,
        entry: &str,
        exec: ExecConfig,
        src: CacheSource,
    ) -> Arc<DecodedModule> {
        let key = cell_key(&platform.spec(), entry, exec, &module.to_string());
        let mut map = self.map.lock().unwrap();
        if let Some(d) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(d);
        }
        let d = decode_module_cfg(module, exec.decode());
        self.decodes.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Arc::clone(&d));
        // A failed append costs a future preload, never this job.
        if let Some(journal) = self.store.lock().unwrap().journal() {
            let _ = journal.append(key, &encode_cache_entry(src, platform, entry, exec));
        }
        d
    }

    /// Re-derive every valid journaled recipe into the in-memory map.
    /// Runs synchronously at startup, before the daemon accepts
    /// clients, so a warm restart performs zero decodes on the job
    /// path. Only an existing journal is opened here. A record that
    /// fails any check — a malformed or stale recipe, one that no
    /// longer compiles, or a `cell_key` that does not match the
    /// record's key (a foreign or tampered entry) — is skipped
    /// silently: a miss, never an error.
    fn preload(&self) {
        let mut map = self.map.lock().unwrap();
        let mut store = self.store.lock().unwrap();
        if !matches!(&*store, CacheStore::Closed(path) if path.exists()) {
            return;
        }
        let Some(journal) = store.journal() else {
            return;
        };
        for (claimed, recipe) in journal.entries() {
            let Some((platform, entry, exec, workload, source, instrument)) =
                decode_cache_entry(recipe)
            else {
                continue;
            };
            let Ok(module) = mperf_workloads::compile_for(&workload, &source, platform, instrument)
            else {
                continue;
            };
            let key = cell_key(&platform.spec(), &entry, exec, &module.to_string());
            if key != *claimed {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = map.entry(key) {
                e.insert(decode_module_cfg(&module, exec.decode()));
                self.preloaded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            decodes: self.decodes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            preloaded: self.preloaded.load(Ordering::Relaxed),
            ..ServeStats::default()
        }
    }
}

// ---------------------------------------------------------------------
// Per-job supervision state.

const REASON_NONE: u32 = 0;
const REASON_CANCEL: u32 = 1;
const REASON_TIMEOUT: u32 = 2;
const REASON_STALLED: u32 = 3;
const REASON_DISCONNECT: u32 = 4;
const REASON_DRAIN: u32 = 5;

/// One running job's cancellation cell: who cancelled it first wins
/// (the reason maps to the terminal status code), and the deadline
/// supervisor counts its age in ticks.
#[derive(Default)]
struct JobState {
    cancel: AtomicBool,
    reason: AtomicU32,
    ticks: AtomicU32,
}

impl JobState {
    /// Request cancellation for `reason`; returns true if this call won
    /// the race to set it (exactly one winner per job, so counters
    /// derived from the winner are exact).
    fn cancel_with(&self, reason: u32) -> bool {
        let won = self
            .reason
            .compare_exchange(REASON_NONE, reason, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        self.cancel.store(true, Ordering::SeqCst);
        won
    }
}

/// Map a cancelled job's winning reason onto its terminal status.
fn cancel_status(state: &JobState, sopts: &ServeOptions) -> (u32, String, Vec<u8>) {
    let (code, msg) = match state.reason.load(Ordering::SeqCst) {
        REASON_TIMEOUT => (
            CODE_TIMEOUT,
            format!("job deadline exceeded ({} ticks)", sopts.job_deadline_ticks),
        ),
        REASON_STALLED => (CODE_STALLED, "client stalled; connection torn down".into()),
        REASON_DISCONNECT => (CODE_CANCELLED, "client disconnected".into()),
        REASON_DRAIN => (CODE_CANCELLED, "daemon draining".into()),
        _ => (CODE_CANCELLED, "job cancelled".into()),
    };
    (code, msg, Vec::new())
}

// ---------------------------------------------------------------------
// The connection: job threads write their own frames.

/// Everything a connection's threads share: the socket job threads
/// write their frames to, and the connection's own job table (client
/// job id → state), so a stall or disconnect can cancel exactly this
/// client's jobs.
struct ConnShared {
    /// Its write timeout is the stall deadline, `stall_ticks × tick`.
    stream: UnixStream,
    /// Held for a whole frame, so frames of concurrent jobs never
    /// interleave on the wire.
    frame: Mutex<()>,
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    stalled: AtomicBool,
    id: u64,
}

impl ConnShared {
    fn new(stream: UnixStream, sopts: &ServeOptions, id: u64) -> io::Result<ConnShared> {
        // std refuses a zero timeout.
        stream.set_write_timeout(Some(sopts.tick * sopts.stall_ticks.max(1)))?;
        Ok(ConnShared {
            stream,
            frame: Mutex::new(()),
            jobs: Mutex::new(HashMap::new()),
            stalled: AtomicBool::new(false),
            id,
        })
    }

    /// Write one frame; false if the connection is gone. A write that
    /// times out declares the client stalled, exactly once: the
    /// connection is torn down, the stalled client counted, and all of
    /// its jobs cancelled at their next cell boundary. Any other write
    /// error only tears the connection down.
    ///
    /// The `serve.client_stall` failpoint (keyed by connection id)
    /// makes the write behave like one to a client that stopped
    /// reading: it waits out the stall deadline, then times out.
    fn send(&self, ctx: &DaemonCtx, msg: Msg) -> bool {
        let _frame = self.frame.lock().unwrap();
        let written = match mperf_fault::hit("serve.client_stall", self.id) {
            Some(mperf_fault::FaultKind::Stall) => {
                thread::sleep(ctx.sopts.tick * ctx.sopts.stall_ticks);
                Err(io::ErrorKind::TimedOut.into())
            }
            _ => write_msg(&mut &self.stream, &msg),
        };
        let Err(e) = written else {
            return true;
        };
        self.close();
        let timed_out = matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        if timed_out && !self.stalled.swap(true, Ordering::SeqCst) {
            ctx.stalled_clients.fetch_add(1, Ordering::SeqCst);
            for st in self.jobs.lock().unwrap().values() {
                st.cancel_with(REASON_STALLED);
            }
        }
        false
    }

    /// Tear the connection down now: a blocked write fails at once and
    /// the client's reader sees EOF. Takes no lock, so it never waits
    /// behind a write.
    fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------
// The daemon.

/// Daemon-wide shared state: options, the warm cache, the global job
/// and connection tables, and the exact supervision counters.
#[derive(Default)]
struct DaemonCtx {
    opts: CommonOpts,
    sopts: ServeOptions,
    cache: DecodeCache,
    /// Live connection threads (accept increments, wind-down
    /// decrements).
    active: AtomicU64,
    /// Every *running* job by its daemon-global sequence number; the
    /// table's size is the admission-control load measure.
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    /// Every open connection, so drain/stop can tear them down.
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    job_seq: AtomicU64,
    conn_seq: AtomicU64,
    draining: AtomicBool,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    stalled_clients: AtomicU64,
    shed_conns: AtomicU64,
}

impl DaemonCtx {
    fn running(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }
}

/// Removes the socket file when the accept loop exits, however it
/// exits — the single cleanup path `run_daemon`'s signal-driven
/// shutdown relies on. It remembers the device and inode of the socket
/// this daemon published, and removes the path, under the socket
/// directory's lock, only while the path still names that socket. If
/// the path was replaced while the daemon ran (an `rm`, then a new
/// daemon on the same path), stopping this daemon leaves the new
/// daemon's socket in place.
struct SocketGuard {
    path: PathBuf,
    id: (u64, u64),
}

impl SocketGuard {
    /// Guard the socket just published at `path`.
    fn published(path: &Path) -> io::Result<SocketGuard> {
        let md = std::fs::symlink_metadata(path)?;
        Ok(SocketGuard {
            path: path.to_path_buf(),
            id: (md.dev(), md.ino()),
        })
    }
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _lock = lock_socket_dir(&self.path);
        let ours =
            std::fs::symlink_metadata(&self.path).is_ok_and(|md| (md.dev(), md.ino()) == self.id);
        if ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A running daemon: drain or stop it, query its stats, find its
/// socket. Dropping the handle also stops the daemon (fast path:
/// in-flight jobs are cancelled rather than awaited).
pub struct ServeHandle {
    socket: PathBuf,
    stop: Arc<AtomicBool>,
    ctx: Arc<DaemonCtx>,
    accept: Option<thread::JoinHandle<()>>,
    supervise: Option<thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Exact decode-cache and supervision counters.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.ctx.cache.stats();
        s.rejected = self.ctx.rejected.load(Ordering::SeqCst);
        s.timed_out = self.ctx.timed_out.load(Ordering::SeqCst);
        s.stalled_clients = self.ctx.stalled_clients.load(Ordering::SeqCst);
        s.shed_conns = self.ctx.shed_conns.load(Ordering::SeqCst);
        s
    }

    /// Graceful drain, then stop: stop accepting (the socket file is
    /// removed), shed new submits, give in-flight jobs the drain
    /// deadline to finish, force-cancel the rest, and tear every
    /// connection down.
    pub fn drain(&mut self) {
        self.drain_until(|| false);
    }

    /// [`ServeHandle::drain`], aborting the wait as soon as `force`
    /// returns true (e.g. a second SIGTERM): remaining jobs are
    /// cancelled and connections dropped without further grace.
    pub fn drain_until<F: Fn() -> bool>(&mut self, force: F) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        let Some(t) = self.accept.take() else {
            return; // already drained
        };
        let _ = t.join();
        if let Some(t) = self.supervise.take() {
            let _ = t.join();
        }
        let tick = self.ctx.sopts.tick;
        let deadline = self.ctx.sopts.drain_deadline_ticks;
        let mut ticks: u32 = 0;
        let mut cancelled = false;
        while self.ctx.running() > 0 {
            let forced = force();
            if forced || ticks >= deadline {
                if !cancelled {
                    for st in self.ctx.jobs.lock().unwrap().values() {
                        st.cancel_with(REASON_DRAIN);
                    }
                    cancelled = true;
                }
                if forced {
                    break;
                }
            }
            // Even force-cancelled jobs need to reach their next cancel
            // check; bound the total wait rather than trusting them.
            if ticks >= deadline.saturating_mul(2).saturating_add(1000) {
                break;
            }
            thread::sleep(tick);
            ticks = ticks.saturating_add(1);
        }
        // A job writes its terminal status before it leaves the job
        // table, so nothing is left to flush: tear every connection
        // down so blocked readers see EOF.
        for c in self.ctx.conns.lock().unwrap().values() {
            c.close();
        }
        for _ in 0..1000 {
            if self.ctx.active.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop the daemon: drain (jobs already finished return instantly;
    /// running ones get the drain deadline) and remove the socket file.
    pub fn stop(mut self) {
        self.drain();
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // Fast path for an abandoned handle: cancel rather than await.
        self.drain_until(|| true);
    }
}

/// Probe an existing socket path before binding. A *live* daemon (the
/// connect succeeds) or a non-socket file refuses the start — deleting
/// either would be destructive; only a genuinely stale socket (connect
/// refused: the listener is gone) is silently reclaimed.
fn reclaim_stale_socket(socket: &Path) -> io::Result<()> {
    use std::os::unix::fs::FileTypeExt;
    let md = match std::fs::symlink_metadata(socket) {
        Ok(md) => md,
        Err(_) => return Ok(()), // nothing there: the common case
    };
    if !md.file_type().is_socket() {
        return Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!(
                "{} exists and is not a socket; refusing to replace it",
                socket.display()
            ),
        ));
    }
    match UnixStream::connect(socket) {
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("another daemon is already serving on {}", socket.display()),
        )),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
            // The listener is gone (daemon died without cleanup):
            // reclaim the stale file.
            std::fs::remove_file(socket)
        }
        Err(e) => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("cannot probe existing socket {}: {e}", socket.display()),
        )),
    }
}

/// Take an advisory exclusive `flock` on the directory holding
/// `socket`, released when the returned handle drops. Starting daemons
/// hold it across the stale-socket probe, the remove and the link:
/// otherwise two racers could both see a dead daemon's socket refuse,
/// and the slower one's `remove_file` would delete the socket the
/// faster one had just published, orphaning that daemon. Locking the
/// directory itself creates no file next to the socket.
fn lock_socket_dir(socket: &Path) -> io::Result<std::fs::File> {
    let dir = match socket.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let file = std::fs::File::open(dir)?;
    loop {
        // SAFETY: `flock(2)` on a descriptor this function owns.
        if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
            return Ok(file);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Bind and listen under a short sibling temp name, then hard-link it
/// to `socket`: the path appears only once it accepts connections, so
/// neither a client nor a racing daemon's [`reclaim_stale_socket`]
/// ever meets a bound socket that refuses. Unlike `rename`,
/// `hard_link` never replaces a racing winner's socket; its
/// `AlreadyExists` maps to `AddrInUse`. The temp name is removed
/// whatever happens. Returns the listener and the guard that owns the
/// published path from then on; call it under [`lock_socket_dir`], and
/// release that lock before the guard can drop.
fn bind_listening(socket: &Path) -> io::Result<(UnixListener, SocketGuard)> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // Clients connect by the final path, so it must fit `sun_path` too.
    std::os::unix::net::SocketAddr::from_pathname(socket)?;
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    let tmp = socket.with_file_name(format!(".mp{}.{seq}", std::process::id()));
    let listener = UnixListener::bind(&tmp)?;
    let linked = std::fs::hard_link(&tmp, socket).and_then(|()| SocketGuard::published(socket));
    let _ = std::fs::remove_file(&tmp);
    match linked {
        Ok(guard) => Ok((listener, guard)),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("another daemon is already serving on {}", socket.display()),
        )),
        Err(e) => Err(e),
    }
}

/// Bind `socket` and start accepting clients in a background thread.
/// A stale socket file from a dead daemon is reclaimed (under a lock on
/// the socket's directory, so racing starts never delete each other's
/// socket); a live daemon's socket (or a non-socket file) refuses the
/// start with `AddrInUse`. With a cache directory, an existing decode-cache
/// journal is preloaded synchronously before the first accept.
///
/// # Errors
/// Bind/listen failures (bad path, permissions, a live listener).
pub fn start(socket: &Path, opts: &CommonOpts, sopts: &ServeOptions) -> io::Result<ServeHandle> {
    let publish = lock_socket_dir(socket)?;
    reclaim_stale_socket(socket)?;
    if let Some(dir) = &sopts.state_dir {
        std::fs::create_dir_all(dir)?;
    }
    if let Some(dir) = &sopts.cache_dir {
        std::fs::create_dir_all(dir)?;
    }
    let (listener, guard) = bind_listening(socket)?;
    drop(publish);
    listener.set_nonblocking(true)?;
    let cache = DecodeCache::new(sopts.cache_dir.as_deref());
    cache.preload();
    let ctx = Arc::new(DaemonCtx {
        opts: opts.clone(),
        sopts: sopts.clone(),
        cache,
        ..DaemonCtx::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let accept = thread::Builder::new()
        .name("miniperf-serve-accept".into())
        .spawn({
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            move || accept_loop(listener, ctx, stop, guard)
        })?;
    // The deadline supervisor: ages every running job by one tick and
    // reaps the ones past their deadline. The only clock in the daemon.
    let supervise = thread::Builder::new()
        .name("miniperf-serve-deadline".into())
        .spawn({
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            move || {
                while !stop.load(Ordering::SeqCst) {
                    thread::sleep(ctx.sopts.tick);
                    let deadline = ctx.sopts.job_deadline_ticks;
                    let jobs: Vec<Arc<JobState>> =
                        ctx.jobs.lock().unwrap().values().cloned().collect();
                    for st in jobs {
                        let age = st.ticks.fetch_add(1, Ordering::SeqCst) + 1;
                        if deadline > 0 && age > deadline && st.cancel_with(REASON_TIMEOUT) {
                            ctx.timed_out.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
        })?;
    Ok(ServeHandle {
        socket: socket.to_path_buf(),
        stop,
        ctx,
        accept: Some(accept),
        supervise: Some(supervise),
    })
}

fn accept_loop(
    listener: UnixListener,
    ctx: Arc<DaemonCtx>,
    stop: Arc<AtomicBool>,
    _guard: SocketGuard,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_id = ctx.conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
                // Over the connection cap, or an injected accept fault:
                // drop the stream pre-handshake (the client sees EOF).
                let over_cap = ctx.active.load(Ordering::SeqCst) >= ctx.sopts.max_conns as u64;
                if over_cap || mperf_fault::hit("serve.accept", conn_id).is_some() {
                    ctx.shed_conns.fetch_add(1, Ordering::SeqCst);
                    continue;
                }
                // The listener polls non-blocking; the per-connection
                // streams must block on reads between frames.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                ctx.active.fetch_add(1, Ordering::SeqCst);
                let ctx = Arc::clone(&ctx);
                thread::spawn(move || {
                    handle_conn(&ctx, stream, conn_id);
                    ctx.active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // Nothing to accept, or a failed accept (out of descriptors,
            // say): back off one poll and keep serving. Only `stop` ends
            // the loop, which unlinks the socket.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One accepted connection: handshake, then a read loop that admits
/// jobs (scoped thread per `Submit`) and flips cancel flags on
/// `Cancel`. The scope joins all job threads before the connection
/// closes, and each writes its terminal `JobStatus` itself, so every
/// *admitted* job's status is on the wire before the socket shuts.
fn handle_conn(ctx: &Arc<DaemonCtx>, mut stream: UnixStream, conn_id: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    if handshake_accept(&mut reader, &mut stream).is_err() {
        return;
    }
    let Ok(conn) = ConnShared::new(stream, &ctx.sopts, conn_id) else {
        return;
    };
    let conn = Arc::new(conn);
    ctx.conns.lock().unwrap().insert(conn_id, Arc::clone(&conn));
    thread::scope(|s| {
        loop {
            match read_msg(&mut reader) {
                Ok(Msg::Submit { job, payload }) => {
                    let seq = ctx.job_seq.fetch_add(1, Ordering::SeqCst) + 1;
                    if ctx.draining.load(Ordering::SeqCst) {
                        ctx.rejected.fetch_add(1, Ordering::SeqCst);
                        conn.send(
                            ctx,
                            Msg::JobStatus {
                                job,
                                code: CODE_REJECTED,
                                message: "daemon is draining; resubmit after restart".into(),
                                payload: Vec::new(),
                            },
                        );
                        continue;
                    }
                    let state = Arc::new(JobState::default());
                    let admitted = {
                        let mut jobs = ctx.jobs.lock().unwrap();
                        if jobs.len() >= ctx.sopts.max_jobs {
                            false
                        } else {
                            jobs.insert(seq, Arc::clone(&state));
                            true
                        }
                    };
                    if !admitted {
                        ctx.rejected.fetch_add(1, Ordering::SeqCst);
                        conn.send(
                            ctx,
                            Msg::JobStatus {
                                job,
                                code: CODE_REJECTED,
                                message: format!(
                                    "job table full (max {} running); shed",
                                    ctx.sopts.max_jobs
                                ),
                                payload: Vec::new(),
                            },
                        );
                        continue;
                    }
                    conn.jobs.lock().unwrap().insert(job, Arc::clone(&state));
                    let conn = Arc::clone(&conn);
                    let ctx = Arc::clone(ctx);
                    s.spawn(move || {
                        // A panic stays inside its job: the client still
                        // gets a terminal status and the job's table
                        // entries are released below.
                        let (code, message, summary) = match JobSpec::decode(&payload) {
                            Ok(spec) => catch_unwind(AssertUnwindSafe(|| {
                                execute_job(&ctx, &spec, job, seq, &conn, &state)
                            }))
                            .unwrap_or_else(|panic| {
                                let message = format!("job panicked: {}", panic_payload(&*panic));
                                (CODE_PANICKED, message, Vec::new())
                            }),
                            Err(e) => (2, format!("miniperf: {e}"), Vec::new()),
                        };
                        conn.send(
                            &ctx,
                            Msg::JobStatus {
                                job,
                                code,
                                message,
                                payload: summary,
                            },
                        );
                        conn.jobs.lock().unwrap().remove(&job);
                        ctx.jobs.lock().unwrap().remove(&seq);
                    });
                }
                Ok(Msg::Cancel { job }) => {
                    if let Some(st) = conn.jobs.lock().unwrap().get(&job) {
                        st.cancel_with(REASON_CANCEL);
                    }
                }
                // Polite end of session: let in-flight jobs finish and
                // write their terminal statuses.
                Ok(Msg::Shutdown) => break,
                // A vanished client or a stream that lost framing:
                // cancel its in-flight work at the next cell boundary.
                Ok(_) | Err(_) => {
                    for st in conn.jobs.lock().unwrap().values() {
                        st.cancel_with(REASON_DISCONNECT);
                    }
                    break;
                }
            }
        }
    });
    conn.close();
    ctx.conns.lock().unwrap().remove(&conn_id);
}

// ---------------------------------------------------------------------
// Job execution. Runs on a scoped thread inside `handle_conn`, which
// writes all of its output through `ConnShared::send`.

fn execute_job(
    ctx: &DaemonCtx,
    spec: &JobSpec,
    job: u64,
    seq: u64,
    conn: &ConnShared,
    state: &JobState,
) -> (u32, String, Vec<u8>) {
    // A hung or panicking job, on demand, keyed by the daemon-global
    // job sequence number. A hung job parks until the supervision
    // machinery (deadline, cancel, drain) flips the cancel flag.
    match mperf_fault::hit("serve.job_hang", seq) {
        Some(mperf_fault::FaultKind::Stall) => {
            while !state.cancel.load(Ordering::SeqCst) {
                thread::sleep(ctx.sopts.tick);
            }
        }
        Some(mperf_fault::FaultKind::Panic) => mperf_fault::injected_panic("serve.job_hang", seq),
        _ => {}
    }
    if state.cancel.load(Ordering::SeqCst) {
        return cancel_status(state, &ctx.sopts);
    }
    match spec.kind {
        JobKind::Record | JobKind::Stat => {
            let module = cli::compile_demo(spec.platform);
            let decoded =
                ctx.cache
                    .decoded_for(&module, spec.platform, "demo", spec.exec, DEMO_SOURCE);
            let mut vm = Vm::new(&module, Core::new(spec.platform.spec()));
            vm.configure(spec.exec);
            vm.set_decoded(decoded);
            let args = cli::demo_args(&mut vm);
            if spec.kind == JobKind::Stat {
                let events = cli::stat_events(spec.platform);
                return match stat(&mut vm, "demo", &args, &events) {
                    Ok(rep) => (0, String::new(), encode_stat(&rep)),
                    Err(e) => (1, format!("stat failed: {e}"), Vec::new()),
                };
            }
            let mut sink = |s: ProfSample| {
                conn.send(
                    ctx,
                    Msg::Sample {
                        job,
                        payload: encode_sample(&s),
                    },
                );
            };
            let cfg = RecordConfig {
                period: spec.period,
            };
            match record_streamed(&mut vm, "demo", &args, cfg, &mut sink) {
                Ok(profile) => (0, String::new(), encode_profile_meta(&profile)),
                Err(e) => (1, cli::record_failure_message(&e), Vec::new()),
            }
        }
        JobKind::Roofline => {
            let module = cli::triad_module(spec.platform);
            let decoded =
                ctx.cache
                    .decoded_for(&module, spec.platform, "triad", spec.exec, TRIAD_SOURCE);
            let setup = crate::shard_exec::cli_triad_setup(spec.n);
            let request = RooflineRequest::new().jobs(spec.jobs).config(spec.exec);
            match request.run_prepared(&module, &decoded, &spec.platform.spec(), "triad", &setup) {
                Ok(run) => {
                    conn.send(
                        ctx,
                        Msg::CellDone {
                            job,
                            index: 0,
                            payload: encode_run(&run),
                        },
                    );
                    (0, String::new(), Vec::new())
                }
                Err(e) => (
                    1,
                    format!(
                        "roofline failed: {e}\n\
                         hint: `miniperf sweep` isolates per-platform failures."
                    ),
                    Vec::new(),
                ),
            }
        }
        JobKind::Sweep => {
            let modules: Vec<mperf_ir::Module> = Platform::ALL
                .iter()
                .map(|&p| cli::triad_module(p))
                .collect();
            let decodeds: Vec<Arc<DecodedModule>> = modules
                .iter()
                .zip(Platform::ALL)
                .map(|(m, p)| {
                    ctx.cache
                        .decoded_for(m, p, "triad", spec.exec, TRIAD_SOURCE)
                })
                .collect();
            let cells = cli::triad_sweep_cells(&modules, Some(decodeds), spec.n);
            // A keyed sweep journals under the daemon's state directory
            // so a crashed daemon resumes it when the client resubmits
            // the same spec with the same key. The filename hashes the
            // key *and* the full spec: `cell_key` alone does not cover
            // runtime setup (e.g. the triad size), and two specs under
            // one key must not share a journal.
            let (journal, resume) = match (&ctx.sopts.state_dir, spec.job_key.is_empty()) {
                (Some(dir), false) => (
                    Some(dir.join(format!(
                        "job-{:016x}-{:016x}.jrnl",
                        fnv1a(spec.job_key.as_bytes()),
                        fnv1a(&spec.encode())
                    ))),
                    true,
                ),
                _ => (ctx.opts.journal.clone(), ctx.opts.resume),
            };
            let request = RooflineRequest::new()
                .jobs(spec.jobs)
                .config(spec.exec)
                .policy(RetryPolicy {
                    max_attempts: spec.retries,
                    retry_panics: true,
                })
                .journal_opt(journal)
                .resume(resume);
            let total = cells.len() as u64;
            let done = AtomicU64::new(0);
            let on_cell = |i: usize, run: &RooflineRun| {
                conn.send(
                    ctx,
                    Msg::CellDone {
                        job,
                        index: i as u64,
                        payload: encode_run(run),
                    },
                );
                conn.send(
                    ctx,
                    Msg::Progress {
                        job,
                        done: done.fetch_add(1, Ordering::SeqCst) + 1,
                        total,
                    },
                );
            };
            match request.run_supervised_streaming(&cells, &on_cell, &state.cancel) {
                Ok(sweep) => {
                    if state.cancel.load(Ordering::SeqCst) {
                        return cancel_status(state, &ctx.sopts);
                    }
                    let outcome = SweepOutcome::from_supervised(&sweep, cli::platform_names());
                    (
                        outcome.exit_code() as u32,
                        String::new(),
                        outcome.encode_summary(),
                    )
                }
                Err(e) => (
                    4,
                    format!("sweep failed before any cell ran: {e}"),
                    Vec::new(),
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The `miniperf serve` command: signal-driven daemon lifetime.

/// Count of SIGTERM/SIGINT deliveries: the first drains, the second
/// forces.
static SIGNALS: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_signal(_signum: i32) {
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

unsafe extern "C" {
    /// libc `signal(2)`; no `libc` crate in this workspace, and the
    /// async-signal-safety story is trivial (one atomic add).
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    /// glibc `mallopt(3)`.
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
    /// libc `flock(2)`: advisory whole-file locks.
    fn flock(fd: i32, operation: i32) -> i32;
}

/// `flock(2)`'s exclusive-lock operation.
const LOCK_EX: i32 = 2;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
/// glibc's `M_MMAP_THRESHOLD` parameter.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;

/// Run the daemon until SIGTERM/SIGINT, then drain: stop accepting,
/// give in-flight jobs the drain deadline (a second signal cuts it
/// short), deliver terminal statuses, and clean up the socket file.
/// Returns the process exit code: 0 after a graceful drain, 130 when a
/// second signal forced the exit, 4 when another live daemon already
/// owns the socket.
pub fn run_daemon(socket: &Path, opts: &CommonOpts, sopts: &ServeOptions) -> i32 {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    // Pin glibc's mmap threshold at 128 KiB. Left dynamic, the first
    // free of a simulator cache-tag array raises it, and every later
    // array of concurrent jobs lands in a per-thread arena that keeps
    // its pages — peak RSS then grows with daemon load.
    // SAFETY: glibc documents `mallopt` as MT-Unsafe; this runs on the
    // `serve` command's one thread, before `start` spawns any other.
    #[cfg(target_env = "gnu")]
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
    let mut handle = match start(socket, opts, sopts) {
        Ok(h) => h,
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            eprintln!("serve: {e}");
            return 4;
        }
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", socket.display());
            return 1;
        }
    };
    eprintln!("serve: listening on {}", handle.socket().display());
    while SIGNALS.load(Ordering::SeqCst) == 0 {
        thread::sleep(Duration::from_millis(25));
    }
    eprintln!("serve: draining (signal again to force exit)");
    handle.drain_until(|| SIGNALS.load(Ordering::SeqCst) >= 2);
    let forced = SIGNALS.load(Ordering::SeqCst) >= 2;
    eprintln!("serve: shut down");
    if forced {
        130
    } else {
        0
    }
}

// ---------------------------------------------------------------------
// The `miniperf submit` client.

/// Connect to a daemon, run one job, and render its streamed results
/// exactly as the equivalent batch command would have (same body
/// functions, same exit code, same `config:` header). With `progress`,
/// sweep [`Msg::Progress`] frames render to *stderr* — stdout stays
/// byte-identical to the batch command either way.
pub fn run_submit(socket: &Path, spec: &JobSpec, opts: &CommonOpts, progress: bool) -> i32 {
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("submit: cannot connect to {}: {e}", socket.display());
            return 1;
        }
    };
    let Ok(read_half) = stream.try_clone() else {
        eprintln!("submit: cannot split the socket");
        return 1;
    };
    let mut session = match ClientSession::connect(BufReader::new(read_half), stream) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("submit: {e}");
            return 1;
        }
    };
    // The config header goes out before any streamed result lands,
    // matching the batch commands' print order.
    match spec.kind {
        JobKind::Sweep => println!("{}", opts.sweep_config_line()),
        _ => println!("{}", opts.config_line()),
    }
    let job = match session.submit(spec.encode()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("submit: {e}");
            return 1;
        }
    };
    let code = drain_and_render(&mut session, job, spec, progress);
    let _ = session.shutdown();
    code
}

type Session = ClientSession<BufReader<UnixStream>, UnixStream>;

/// On a non-zero status, print the daemon's message (verbatim batch
/// stderr) and map the code; on success hand the summary payload to
/// the per-kind renderer.
fn drain_and_render(session: &mut Session, job: u64, spec: &JobSpec, progress: bool) -> i32 {
    let result = match spec.kind {
        JobKind::Record => drain_record(session, job, spec),
        JobKind::Stat => drain_stat(session, job, spec),
        JobKind::Roofline => drain_roofline(session, job, spec),
        JobKind::Sweep => drain_sweep(session, job, spec, progress),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("submit: {e}");
            1
        }
    }
}

fn drain_record(session: &mut Session, job: u64, spec: &JobSpec) -> Result<i32, String> {
    let mut samples = Vec::new();
    let mut bad = None;
    let res = session
        .drain_job(job, |m| {
            if let Msg::Sample { payload, .. } = m {
                match decode_sample(payload) {
                    Ok(s) => samples.push(s),
                    Err(e) => bad = Some(e),
                }
            }
        })
        .map_err(|e| e.to_string())?;
    if let Some(e) = bad {
        return Err(e);
    }
    if res.code != 0 {
        if !res.message.is_empty() {
            eprintln!("{}", res.message);
        }
        return Ok(res.code as i32);
    }
    let mut profile = decode_profile_meta(&res.payload)?;
    profile.samples = samples;
    print!("{}", cli::record_body(&profile, spec.platform, spec.period));
    Ok(0)
}

fn drain_stat(session: &mut Session, job: u64, spec: &JobSpec) -> Result<i32, String> {
    let res = session.drain_job(job, |_| {}).map_err(|e| e.to_string())?;
    if res.code != 0 {
        if !res.message.is_empty() {
            eprintln!("{}", res.message);
        }
        return Ok(res.code as i32);
    }
    let events = cli::stat_events(spec.platform);
    let rep = decode_stat(&res.payload, &events)?;
    print!("{}", cli::stat_body(spec.platform, &rep));
    Ok(0)
}

fn drain_roofline(session: &mut Session, job: u64, spec: &JobSpec) -> Result<i32, String> {
    let mut run = None;
    let mut bad = None;
    let res = session
        .drain_job(job, |m| {
            if let Msg::CellDone { payload, .. } = m {
                match decode_cell(payload, spec.platform) {
                    Ok(r) => run = Some(r),
                    Err(e) => bad = Some(e),
                }
            }
        })
        .map_err(|e| e.to_string())?;
    if let Some(e) = bad {
        return Err(e);
    }
    if res.code != 0 {
        if !res.message.is_empty() {
            eprintln!("{}", res.message);
        }
        return Ok(res.code as i32);
    }
    let run = run.ok_or("daemon reported success without a roofline result")?;
    if let Some(w) = cli::roofline_warning(&run) {
        eprintln!("{w}");
    }
    print!("{}", cli::roofline_body(&run, spec.platform));
    Ok(0)
}

/// Decode one streamed `CellDone` run. Both renderers summarise the
/// run's first region, so a run without one is a bad payload.
fn decode_cell(payload: &[u8], platform: Platform) -> Result<RooflineRun, String> {
    let run = decode_run(payload, &platform.spec())?;
    if run.regions.is_empty() {
        return Err(format!("{} result has no region", run.platform_name));
    }
    Ok(run)
}

fn drain_sweep(
    session: &mut Session,
    job: u64,
    _spec: &JobSpec,
    progress: bool,
) -> Result<i32, String> {
    let mut results: Vec<Option<RooflineRun>> = vec![None; Platform::ALL.len()];
    let mut bad = None;
    let res = session
        .drain_job(job, |m| match m {
            Msg::CellDone { index, payload, .. } => {
                let i = *index as usize;
                if i >= results.len() {
                    bad = Some(format!("cell index {i} out of range"));
                    return;
                }
                match decode_cell(payload, Platform::ALL[i]) {
                    Ok(r) => results[i] = Some(r),
                    Err(e) => bad = Some(e),
                }
            }
            Msg::Progress { done, total, .. } if progress => {
                eprintln!("sweep: {done}/{total} cells");
            }
            _ => {}
        })
        .map_err(|e| e.to_string())?;
    if let Some(e) = bad {
        return Err(e);
    }
    if !res.message.is_empty() {
        eprintln!("{}", res.message);
    }
    if res.payload.is_empty() {
        // Cancelled or failed before any accounting existed: no body.
        return Ok(res.code as i32);
    }
    let outcome = SweepOutcome::decode_summary(&res.payload, cli::platform_names(), results)?;
    print!("{}", outcome.body());
    Ok(res.code as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mperf_event::HwCounter;

    #[test]
    fn sample_codec_roundtrips() {
        let s = ProfSample {
            ip: 0x0000_0003_0000_0021,
            callchain: vec![1, 2, 3],
            cycles: 9973,
            instructions: 1234,
        };
        assert_eq!(decode_sample(&encode_sample(&s)).unwrap(), s);
        assert!(decode_sample(&encode_sample(&s)[..5]).is_err());
        let mut trailing = encode_sample(&s);
        trailing.push(0);
        assert!(decode_sample(&trailing).is_err());
    }

    #[test]
    fn profile_meta_codec_roundtrips_without_samples() {
        let p = Profile {
            platform: Platform::TheadC910,
            strategy: SamplingStrategy::Direct,
            samples: vec![ProfSample {
                ip: 1,
                callchain: vec![],
                cycles: 2,
                instructions: 3,
            }],
            lost: 7,
            total_cycles: 1_000_000,
            total_instructions: 900_000,
            func_names: vec!["inner".into(), "demo".into()],
        };
        let back = decode_profile_meta(&encode_profile_meta(&p)).unwrap();
        assert!(back.samples.is_empty(), "samples travel separately");
        assert_eq!(back.platform, p.platform);
        assert_eq!(back.strategy, p.strategy);
        assert_eq!(back.lost, p.lost);
        assert_eq!(back.total_cycles, p.total_cycles);
        assert_eq!(back.total_instructions, p.total_instructions);
        assert_eq!(back.func_names, p.func_names);
        assert!(decode_profile_meta(&[9, 9]).is_err());
    }

    #[test]
    fn stat_codec_checks_the_event_list_length() {
        let events = cli::stat_events(Platform::SpacemitX60);
        let rep = StatReport {
            counts: events.iter().map(|&e| (e, 11u64)).collect(),
            cycles: 5,
            instructions: 6,
        };
        let bytes = encode_stat(&rep);
        assert_eq!(decode_stat(&bytes, &events).unwrap(), rep);
        // The U74 list is shorter: a mismatched platform must not
        // silently mislabel counters.
        let short = cli::stat_events(Platform::SifiveU74);
        assert!(decode_stat(&bytes, &short).is_err());
    }

    #[test]
    fn decode_cache_decodes_each_key_exactly_once() {
        let cache = DecodeCache::default();
        let module = cli::compile_demo(Platform::SpacemitX60);
        let exec = ExecConfig::default();
        let a = cache.decoded_for(&module, Platform::SpacemitX60, "demo", exec, DEMO_SOURCE);
        let b = cache.decoded_for(&module, Platform::SpacemitX60, "demo", exec, DEMO_SOURCE);
        assert!(Arc::ptr_eq(&a, &b), "second job reuses the warm decode");
        assert_eq!(
            cache.stats(),
            ServeStats {
                decodes: 1,
                hits: 1,
                ..ServeStats::default()
            }
        );
        // A different exec flavour is a different key.
        let no_regalloc = ExecConfig {
            regalloc: false,
            ..ExecConfig::default()
        };
        cache.decoded_for(
            &module,
            Platform::SpacemitX60,
            "demo",
            no_regalloc,
            DEMO_SOURCE,
        );
        assert_eq!(
            cache.stats(),
            ServeStats {
                decodes: 2,
                hits: 1,
                ..ServeStats::default()
            }
        );
    }

    #[test]
    fn cache_entry_codec_treats_any_malformation_as_a_miss() {
        let body = encode_cache_entry(
            TRIAD_SOURCE,
            Platform::SpacemitX60,
            "triad",
            ExecConfig::default(),
        );
        let (platform, entry, exec, workload, source, instrument) =
            decode_cache_entry(&body).expect("well-formed entry decodes");
        assert_eq!(platform, Platform::SpacemitX60);
        assert_eq!(entry, "triad");
        assert_eq!(exec, ExecConfig::default());
        assert_eq!(workload, "cli");
        assert_eq!(source, cli::KERNEL);
        assert!(instrument);
        // Every malformation is None, never a panic or error: another
        // schema, truncation, trailing bytes.
        let mut alien = body.clone();
        alien[0] ^= 0xff;
        assert!(decode_cache_entry(&alien).is_none());
        assert!(decode_cache_entry(&body[..body.len() - 1]).is_none());
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(decode_cache_entry(&trailing).is_none());
        assert!(decode_cache_entry(b"").is_none());
    }

    /// An entry written by an older codec (schema 1: engine, fuse, and
    /// regalloc bytes) under the very key the current daemon would use
    /// is skipped silently at startup — no error, nothing preloaded —
    /// while the same recipe at the current schema preloads.
    #[test]
    fn stale_schema_cache_entries_are_skipped_silently() {
        let dir = std::env::temp_dir().join(format!("mperf-stale-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let platform = Platform::SpacemitX60;
        let module = cli::triad_module(platform);
        let exec = ExecConfig::default();
        let key = cell_key(&platform.spec(), "triad", exec, &module.to_string());
        let append = |recipe: &[u8]| {
            let mut store = DecodeCache::new(Some(&dir)).store.into_inner().unwrap();
            store.journal().unwrap().append(key, recipe).unwrap();
        };
        let mut e = Enc::new();
        e.u32(1);
        e.u8(cli::platform_code(platform));
        e.str("triad");
        e.u8(0);
        e.u8(1);
        e.u8(1);
        e.str("cli");
        e.str(cli::KERNEL);
        e.u8(1);
        append(&e.into_bytes());

        let socket = dir.join("d.sock");
        let sopts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let handle =
            start(&socket, &CommonOpts::default(), &sopts).expect("stale entry is no error");
        assert_eq!(handle.stats().preloaded, 0, "stale schema is a miss");
        handle.stop();

        append(&encode_cache_entry(TRIAD_SOURCE, platform, "triad", exec));
        let cache = DecodeCache::new(Some(&dir));
        cache.preload();
        assert_eq!(cache.stats().preloaded, 1, "the current schema preloads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_state_cancel_has_exactly_one_winner() {
        let st = JobState::default();
        assert!(st.cancel_with(REASON_TIMEOUT), "first cancel wins");
        assert!(!st.cancel_with(REASON_CANCEL), "later reasons lose");
        assert!(st.cancel.load(Ordering::SeqCst));
        let sopts = ServeOptions::default();
        let (code, msg, _) = cancel_status(&st, &sopts);
        assert_eq!(code, CODE_TIMEOUT);
        assert!(msg.contains("deadline"), "{msg}");
    }

    #[test]
    fn cancel_status_maps_every_reason() {
        let sopts = ServeOptions::default();
        for (reason, code) in [
            (REASON_CANCEL, CODE_CANCELLED),
            (REASON_TIMEOUT, CODE_TIMEOUT),
            (REASON_STALLED, CODE_STALLED),
            (REASON_DISCONNECT, CODE_CANCELLED),
            (REASON_DRAIN, CODE_CANCELLED),
        ] {
            let st = JobState::default();
            st.cancel_with(reason);
            assert_eq!(cancel_status(&st, &sopts).0, code);
        }
    }

    #[test]
    fn timed_out_send_declares_the_stall_once() {
        let ctx = DaemonCtx {
            sopts: ServeOptions {
                stall_ticks: 3,
                tick: Duration::from_millis(50),
                ..ServeOptions::default()
            },
            ..DaemonCtx::default()
        };
        let stall = ctx.sopts.tick * ctx.sopts.stall_ticks;
        // The client end never reads: 64 KiB frames fill the kernel
        // buffer until a write makes no progress for the stall deadline.
        let (daemon_end, _client_end) = UnixStream::pair().unwrap();
        let conn = ConnShared::new(daemon_end, &ctx.sopts, 1).unwrap();
        let job = Arc::new(JobState::default());
        conn.jobs.lock().unwrap().insert(7, Arc::clone(&job));
        let frame = || Msg::Sample {
            job: 7,
            payload: vec![0; 64 << 10],
        };
        let mut sent = 0;
        let mut t0 = std::time::Instant::now();
        while conn.send(&ctx, frame()) {
            sent += 1;
            assert!(sent < 256, "the kernel buffer never filled");
            t0 = std::time::Instant::now();
        }
        let waited = t0.elapsed();
        assert!(
            waited >= stall && waited < Duration::from_secs(5),
            "the stalled write gave up after {waited:?}, deadline {stall:?}"
        );
        assert_eq!(ctx.stalled_clients.load(Ordering::SeqCst), 1);
        assert_eq!(job.reason.load(Ordering::SeqCst), REASON_STALLED);
        assert!(job.cancel.load(Ordering::SeqCst));
        // The stall tore the connection down: later sends fail at once
        // and count nothing.
        let t1 = std::time::Instant::now();
        assert!(!conn.send(&ctx, frame()));
        assert!(t1.elapsed() < stall, "a torn-down send waited");
        assert_eq!(ctx.stalled_clients.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stat_events_include_branches_on_full_pmus() {
        // decode_stat's zip trusts this derivation; pin it.
        let events = cli::stat_events(Platform::SpacemitX60);
        assert_eq!(
            events[0],
            EventKind::Hardware(HwCounter::BranchInstructions)
        );
        assert_eq!(events.len(), 4);
        assert_eq!(cli::stat_events(Platform::SifiveU74).len(), 2);
    }
}
