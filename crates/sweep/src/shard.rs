//! Multi-process shard supervisor: crash/hang-proof sweep execution.
//!
//! [`run_sharded`] dispatches opaque cell payloads to N worker
//! processes over the [`crate::proto`] framed protocol and survives
//! anything a worker can do:
//!
//! - **Crash** (nonzero exit, signal, unexpected EOF mid-protocol):
//!   the worker is killed/reaped and respawned, and its in-flight cell
//!   is requeued under the [`RetryPolicy`] attempt budget.
//! - **Stall**: each in-flight cell has a deadline counted in
//!   *heartbeat ticks* — supervisor poll intervals in which no frame
//!   arrived — never wall-clock, so tests are deterministic. A cell
//!   past its deadline is treated exactly like a crash.
//! - **Corrupt or short frames**: a stream that has lost framing
//!   cannot be trusted again; the failure classifies as
//!   [`FailureClass::Transient`], burns an attempt, and the worker is
//!   killed and respawned rather than wedging the supervisor.
//! - **Poison cells** (crash-loop protection): a cell that kills its
//!   worker `max_attempts` times is quarantined and listed in
//!   [`ShardReport::poisoned`] while healthy cells keep flowing.
//! - **Rejected results**: a result the sink refuses (it does not
//!   decode) is handled like a corrupt frame — kill, respawn, requeue.
//! - **Fatal errors** (a worker-reported [`FailureClass::Fatal`], a
//!   fatal result-sink failure such as a failed journal append,
//!   protocol version skew, or a spawn crash-loop) cancel still-queued
//!   cells across all shards.
//!
//! Retry, quarantine, cancellation and skips are decided by the retry
//! queue the thread supervisor ([`crate::run_jobs_supervised`]) runs
//! on too, so one failure script reports alike under both; this module
//! adds only process isolation.
//!
//! ## Determinism contract
//!
//! Results are collected **by cell index**: a completed slot in
//! [`ShardReport::results`] holds exactly the payload bytes the worker
//! produced for that cell, independent of shard count, dispatch order,
//! retries, or which worker incarnation ran it. Cost-ordered dispatch
//! (longest-known-first, index-stable among equals) shapes only the
//! *schedule*, never the results.

use crate::proto::{self, Msg, ProtoError};
use crate::supervise::{CellFailure, Entry, FailureClass, RetryPolicy, RetryQueue};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// One unit of work: an opaque request payload plus a scheduling cost
/// hint (higher = dispatched earlier; e.g. last-known runtime from the
/// journal, falling back to module size).
#[derive(Debug, Clone)]
pub struct ShardCell {
    pub payload: Vec<u8>,
    pub cost: u64,
}

/// Supervisor tuning.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Worker process count (clamped to `1..=cells`).
    pub shards: usize,
    /// Retry/quarantine budget shared with the in-process supervisor.
    pub policy: RetryPolicy,
    /// Per-cell deadline in heartbeat ticks (poll intervals with no
    /// frame from any worker). Also bounds the handshake.
    pub deadline_ticks: u32,
    /// Wall-clock length of one heartbeat tick. Only the tick *count*
    /// enters supervision decisions, keeping them deterministic.
    pub tick: Duration,
}

impl Default for ShardOptions {
    fn default() -> ShardOptions {
        ShardOptions {
            shards: 2,
            policy: RetryPolicy::default(),
            deadline_ticks: 600,
            tick: Duration::from_millis(50),
        }
    }
}

/// Why a cell failed under the shard supervisor.
#[derive(Debug)]
pub enum ShardCellError {
    /// The worker executed the cell and reported a structured failure;
    /// [`FailureClass`] and the trap site survived the process
    /// boundary.
    Remote {
        class: FailureClass,
        message: String,
        trap: Option<mperf_vm::TrapInfo>,
    },
    /// The worker died (exit, signal, or unexpected EOF) while this
    /// cell was in flight.
    WorkerCrash { detail: String },
    /// No frame arrived within the per-cell deadline.
    WorkerStall { ticks: u32 },
    /// The response stream lost framing (CRC mismatch, torn frame,
    /// unknown tag, or an out-of-order message).
    Frame { detail: String },
    /// A supervisor-side fatal condition attributed to this cell
    /// (e.g. the result sink — the journal — failed).
    Fatal { detail: String },
}

impl ShardCellError {
    /// Retry classification: worker deaths and framing losses are
    /// transient (kill + respawn + requeue); remote failures carry
    /// their own class across the wire.
    pub fn class(&self) -> FailureClass {
        match self {
            ShardCellError::Remote { class, .. } => *class,
            ShardCellError::WorkerCrash { .. }
            | ShardCellError::WorkerStall { .. }
            | ShardCellError::Frame { .. } => FailureClass::Transient,
            ShardCellError::Fatal { .. } => FailureClass::Fatal,
        }
    }
}

impl fmt::Display for ShardCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardCellError::Remote { message, trap, .. } => match trap {
                Some(t) => write!(f, "{message} ({t})"),
                None => f.write_str(message),
            },
            ShardCellError::WorkerCrash { detail } => write!(f, "worker crashed: {detail}"),
            ShardCellError::WorkerStall { ticks } => {
                write!(f, "worker stalled: no frame for {ticks} heartbeat ticks")
            }
            ShardCellError::Frame { detail } => write!(f, "corrupt frame: {detail}"),
            ShardCellError::Fatal { detail } => write!(f, "fatal: {detail}"),
        }
    }
}

impl std::error::Error for ShardCellError {}

/// Outcome of a sharded run. Completed slots are bit-identical to a
/// serial run of the same cells at any shard count. The first four
/// fields are the shared [`crate::SweepReport`] accounting, flattened;
/// the rest are process-specific.
#[derive(Debug)]
pub struct ShardReport {
    /// Per-cell result payloads, indexed by cell.
    pub results: Vec<Option<Vec<u8>>>,
    /// Cells that ultimately failed, sorted by index. A worker panic
    /// surfaces as a crash or a remote failure, never an unwind.
    pub failed: Vec<CellFailure<ShardCellError>>,
    /// Every granted retry as `(cell index, attempt granted)`: the
    /// 0-based attempt the retry runs as (its `Msg::Cell` attempt),
    /// sorted.
    pub retried: Vec<(usize, u32)>,
    /// Cells a fatal error cancelled before they could finish: still
    /// queued, or in flight on a worker that was shut down (sorted).
    pub skipped: Vec<usize>,
    /// Worker kills due to crash/stall/corruption (each implies a
    /// respawn attempt while work remained).
    pub respawns: u32,
    /// Cells quarantined because they repeatedly killed their worker
    /// (crash-loop protection), sorted.
    pub poisoned: Vec<usize>,
    /// The fatal condition that cancelled the sweep, if any.
    pub fatal: Option<String>,
}

impl ShardReport {
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    pub fn all_ok(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty() && self.completed() == self.results.len()
    }
}

/// A live worker connection: where requests go, where responses come
/// from, and how to kill + reap the incarnation (returns an exit
/// description for diagnostics).
pub struct WorkerLink {
    pub stdin: Box<dyn Write + Send>,
    pub stdout: Box<dyn Read + Send>,
    pub kill: Box<dyn FnMut() -> String + Send>,
}

/// How to launch a real worker process (stdin/stdout piped for the
/// protocol, stderr inherited so worker diagnostics stay visible).
/// `envs` lets the caller ship e.g. a serialized fault plan to the
/// child deterministically.
#[derive(Debug, Clone)]
pub struct WorkerCmd {
    pub program: PathBuf,
    pub args: Vec<String>,
    pub envs: Vec<(String, String)>,
}

impl WorkerCmd {
    pub fn new(program: impl Into<PathBuf>) -> WorkerCmd {
        WorkerCmd {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// Spawn one worker incarnation.
    ///
    /// # Errors
    /// Process launch failures (the supervisor treats repeated spawn
    /// failures as fatal).
    pub fn spawn(&self) -> io::Result<WorkerLink> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .envs(self.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        Ok(WorkerLink {
            stdin: Box::new(stdin),
            stdout: Box::new(stdout),
            kill: Box::new(move || reap(&mut child)),
        })
    }
}

fn reap(child: &mut Child) -> String {
    let _ = child.kill();
    match child.wait() {
        Ok(status) => status.to_string(),
        Err(e) => format!("wait failed: {e}"),
    }
}

/// Run `cells` across worker processes produced by `spawn` (called
/// with the shard slot index; real callers use [`WorkerCmd::spawn`],
/// tests substitute in-process mocks). `sink` observes each completed
/// cell `(index, payload)` *before* the result is recorded — the
/// validation and journal append hook. A [`ShardCellError::Fatal`]
/// sink error cancels the sweep (checkpoints are silently lost
/// otherwise); any other sink error rejects the result like a corrupt
/// frame: the worker is killed and respawned, and the cell requeued
/// under the retry policy.
pub fn run_sharded<S, K>(cells: &[ShardCell], opts: &ShardOptions, spawn: S, sink: K) -> ShardReport
where
    S: FnMut(usize) -> io::Result<WorkerLink>,
    K: FnMut(usize, &[u8]) -> Result<(), ShardCellError>,
{
    // Cost-ordered dispatch: longest-known-first so one slow cell
    // doesn't dominate the tail; index-stable among equal costs so the
    // schedule (like everything else here) is deterministic.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cells[i].cost), i));

    let (tx, rx) = mpsc::channel();
    let shards = opts.shards.clamp(1, cells.len().max(1));
    let mut sup = Supervisor {
        cells,
        opts,
        spawn,
        sink,
        queue: RetryQueue::new(order, &opts.policy),
        slots: (0..shards).map(|_| Slot::dead()).collect(),
        tx,
        respawns: 0,
        poisoned: Vec::new(),
        fatal: None,
    };
    sup.run(&rx);
    sup.finish()
}

enum SlotState {
    Dead,
    Handshaking { ticks: u32 },
    Idle,
    Busy { entry: Entry, ticks: u32 },
}

struct Slot {
    /// Incarnation counter; bumped on every spawn *and* kill so events
    /// from a dead incarnation's reader thread are ignored.
    gen: u64,
    state: SlotState,
    stdin: Option<Box<dyn Write + Send>>,
    kill: Option<Box<dyn FnMut() -> String + Send>>,
    handshake_fails: u32,
}

impl Slot {
    fn dead() -> Slot {
        Slot {
            gen: 0,
            state: SlotState::Dead,
            stdin: None,
            kill: None,
            handshake_fails: 0,
        }
    }
}

enum Event {
    Msg(Msg),
    Corrupt(String),
    Eof,
    Io(String),
}

struct Supervisor<'a, S, K> {
    cells: &'a [ShardCell],
    opts: &'a ShardOptions,
    spawn: S,
    sink: K,
    queue: RetryQueue<Vec<u8>, ShardCellError>,
    slots: Vec<Slot>,
    tx: mpsc::Sender<(usize, u64, Event)>,
    respawns: u32,
    poisoned: Vec<usize>,
    /// Why the queue was cancelled, if it was.
    fatal: Option<String>,
}

impl<S, K> Supervisor<'_, S, K>
where
    S: FnMut(usize) -> io::Result<WorkerLink>,
    K: FnMut(usize, &[u8]) -> Result<(), ShardCellError>,
{
    fn run(&mut self, rx: &mpsc::Receiver<(usize, u64, Event)>) {
        loop {
            if self.queue.is_cancelled() {
                return;
            }
            let live = self.slots.iter().any(|s| {
                matches!(
                    s.state,
                    SlotState::Busy { .. } | SlotState::Handshaking { .. }
                )
            });
            if !self.queue.has_pending() && !live {
                return;
            }
            self.dispatch();
            if self.queue.is_cancelled() {
                return;
            }
            match rx.recv_timeout(self.opts.tick) {
                Ok((s, gen, ev)) => self.handle_event(s, gen, ev),
                Err(mpsc::RecvTimeoutError::Timeout) => self.tick(),
                // Unreachable (we hold a sender), but never wedge.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.cancel("event channel disconnected".into());
                }
            }
        }
    }

    /// Respawn dead slots while work remains, and hand every idle
    /// worker its next ready cell.
    fn dispatch(&mut self) {
        for s in 0..self.slots.len() {
            if self.queue.is_cancelled() {
                return;
            }
            if matches!(self.slots[s].state, SlotState::Dead) && self.queue.has_pending() {
                self.spawn_slot(s);
            }
            if !matches!(self.slots[s].state, SlotState::Idle) {
                continue;
            }
            let Some(entry) = self.queue.pop_ready() else {
                continue;
            };
            let msg = Msg::Cell {
                index: entry.idx as u64,
                attempt: entry.attempt,
                payload: self.cells[entry.idx].payload.clone(),
            };
            let wrote = {
                let stdin = self.slots[s].stdin.as_mut().expect("idle slot has stdin");
                proto::write_msg(stdin, &msg)
            };
            match wrote {
                Ok(()) => self.slots[s].state = SlotState::Busy { entry, ticks: 0 },
                Err(e) => {
                    // The worker died under us mid-dispatch: park the
                    // entry in the slot so the crash path requeues it.
                    self.slots[s].state = SlotState::Busy { entry, ticks: 0 };
                    self.worker_death(s, |exit| ShardCellError::WorkerCrash {
                        detail: format!("dispatch write failed: {e} ({exit})"),
                    });
                }
            }
        }
    }

    /// Cancel the sweep for a condition no cell caused.
    fn cancel(&mut self, reason: String) {
        self.fatal = Some(reason);
        self.queue.cancel();
    }

    fn spawn_slot(&mut self, s: usize) {
        match (self.spawn)(s) {
            Ok(link) => {
                let slot = &mut self.slots[s];
                slot.gen += 1;
                let gen = slot.gen;
                slot.state = SlotState::Handshaking { ticks: 0 };
                slot.stdin = Some(link.stdin);
                slot.kill = Some(link.kill);
                let tx = self.tx.clone();
                let mut stdout = link.stdout;
                thread::spawn(move || loop {
                    let ev = match proto::read_msg(&mut stdout) {
                        Ok(msg) => Event::Msg(msg),
                        Err(ProtoError::Eof) => {
                            let _ = tx.send((s, gen, Event::Eof));
                            return;
                        }
                        Err(ProtoError::Corrupt(d)) => {
                            let _ = tx.send((s, gen, Event::Corrupt(d)));
                            return;
                        }
                        Err(ProtoError::Io(e)) => {
                            let _ = tx.send((s, gen, Event::Io(e.to_string())));
                            return;
                        }
                    };
                    if tx.send((s, gen, ev)).is_err() {
                        return;
                    }
                });
            }
            Err(e) => {
                self.slots[s].handshake_fails += 1;
                if self.slots[s].handshake_fails >= self.opts.policy.max_attempts.max(1) {
                    self.cancel(format!("shard {s}: cannot spawn worker: {e}"));
                }
            }
        }
    }

    fn kill_slot(&mut self, s: usize) -> String {
        let slot = &mut self.slots[s];
        slot.gen += 1;
        slot.state = SlotState::Dead;
        slot.stdin = None;
        match slot.kill.take() {
            Some(mut kill) => kill(),
            None => "no worker".into(),
        }
    }

    /// The slot's worker died/stalled/corrupted while (possibly) busy:
    /// kill + reap, count the respawn, and fail the in-flight cell. A
    /// transient death the retry budget no longer covers makes it a
    /// poison cell (it repeatedly killed its worker).
    fn worker_death(&mut self, s: usize, mk: impl FnOnce(String) -> ShardCellError) {
        let entry = match self.slots[s].state {
            SlotState::Busy { entry, .. } => entry,
            _ => {
                self.kill_slot(s);
                return;
            }
        };
        let exit = self.kill_slot(s);
        self.respawns += 1;
        let error = mk(exit);
        let class = error.class();
        if !self.queue.fail(entry, error, class) && class == FailureClass::Transient {
            self.poisoned.push(entry.idx);
        }
    }

    /// The slot's stream is no longer trustworthy (corrupt frame or
    /// out-of-order message): kill the worker; a busy cell burns an
    /// attempt as `Frame`, a handshaking slot counts a handshake fail.
    fn stream_failure(&mut self, s: usize, detail: String) {
        match self.slots[s].state {
            SlotState::Busy { .. } => {
                self.worker_death(s, |exit| ShardCellError::Frame {
                    detail: format!("{detail} ({exit})"),
                });
            }
            SlotState::Handshaking { .. } => self.handshake_failure(s, detail),
            _ => {
                self.kill_slot(s);
            }
        }
    }

    /// Worker-level crash-loop protection: a worker that cannot get
    /// through the handshake `max_attempts` times is fatal (no cell is
    /// implicated — the binary pair itself is broken).
    fn handshake_failure(&mut self, s: usize, detail: String) {
        self.kill_slot(s);
        self.slots[s].handshake_fails += 1;
        if self.slots[s].handshake_fails >= self.opts.policy.max_attempts.max(1) {
            self.cancel(format!(
                "shard {s}: worker crash-looped during handshake: {detail}"
            ));
        }
    }

    fn handle_event(&mut self, s: usize, gen: u64, ev: Event) {
        if self.slots[s].gen != gen {
            return; // stale incarnation
        }
        match ev {
            Event::Msg(Msg::Hello { magic, schema }) => {
                if !matches!(self.slots[s].state, SlotState::Handshaking { .. }) {
                    self.stream_failure(s, "hello out of order".into());
                } else if &magic != proto::MAGIC || schema != proto::SCHEMA {
                    self.kill_slot(s);
                    self.cancel(format!(
                        "shard {s}: protocol version mismatch: worker speaks \
                         {:?}/schema {schema}, supervisor {:?}/schema {}",
                        String::from_utf8_lossy(&magic),
                        String::from_utf8_lossy(proto::MAGIC),
                        proto::SCHEMA,
                    ));
                } else {
                    self.slots[s].state = SlotState::Idle;
                    self.slots[s].handshake_fails = 0;
                }
            }
            Event::Msg(Msg::Done { index, payload }) => match self.take_busy(s, index) {
                Some(entry) => match (self.sink)(entry.idx, &payload) {
                    Ok(()) => {
                        self.slots[s].state = SlotState::Idle;
                        self.queue.succeed(entry, payload);
                    }
                    Err(ShardCellError::Fatal { detail }) => {
                        self.slots[s].state = SlotState::Idle;
                        self.fatal = Some(format!(
                            "result sink failed for cell {}: {detail}",
                            entry.idx
                        ));
                        let error = ShardCellError::Fatal { detail };
                        self.queue.fail(entry, error, FailureClass::Fatal);
                    }
                    // A rejected result means the stream produced bytes
                    // the supervisor cannot use: treat it like a
                    // corrupt frame.
                    Err(error) => self.worker_death(s, |_exit| error),
                },
                None => self.stream_failure(s, format!("done for unexpected cell {index}")),
            },
            Event::Msg(Msg::Fail {
                index,
                class,
                message,
                trap,
            }) => match self.take_busy(s, index) {
                Some(entry) => {
                    self.slots[s].state = SlotState::Idle;
                    let error = ShardCellError::Remote {
                        class,
                        message,
                        trap,
                    };
                    if class == FailureClass::Fatal {
                        self.fatal = Some(format!("cell {} failed fatally: {error}", entry.idx));
                    }
                    self.queue.fail(entry, error, class);
                }
                None => self.stream_failure(s, format!("fail for unexpected cell {index}")),
            },
            Event::Msg(other) => {
                self.stream_failure(s, format!("unexpected message: {other:?}"));
            }
            Event::Corrupt(detail) => self.stream_failure(s, detail),
            Event::Eof => match self.slots[s].state {
                SlotState::Busy { .. } => {
                    self.worker_death(s, |exit| ShardCellError::WorkerCrash {
                        detail: format!("unexpected eof ({exit})"),
                    })
                }
                SlotState::Handshaking { .. } => {
                    self.handshake_failure(s, "worker exited before handshake".into())
                }
                _ => {
                    self.kill_slot(s);
                }
            },
            Event::Io(detail) => match self.slots[s].state {
                SlotState::Busy { .. } => {
                    self.worker_death(s, |exit| ShardCellError::WorkerCrash {
                        detail: format!("read failed: {detail} ({exit})"),
                    })
                }
                SlotState::Handshaking { .. } => self.handshake_failure(s, detail),
                _ => {
                    self.kill_slot(s);
                }
            },
        }
    }

    /// If slot `s` is busy with cell `index`, return its entry (state
    /// is left Busy; callers set the next state).
    fn take_busy(&mut self, s: usize, index: u64) -> Option<Entry> {
        match self.slots[s].state {
            SlotState::Busy { entry, .. } if entry.idx as u64 == index => Some(entry),
            _ => None,
        }
    }

    /// One heartbeat tick passed with no frame from any worker:
    /// advance every in-flight deadline.
    fn tick(&mut self) {
        let mut overdue = Vec::new();
        for (s, slot) in self.slots.iter_mut().enumerate() {
            match &mut slot.state {
                SlotState::Busy { ticks, .. } | SlotState::Handshaking { ticks } => {
                    *ticks += 1;
                    if *ticks > self.opts.deadline_ticks {
                        overdue.push((s, *ticks));
                    }
                }
                _ => {}
            }
        }
        for (s, ticks) in overdue {
            match self.slots[s].state {
                SlotState::Busy { .. } => {
                    self.worker_death(s, |_exit| ShardCellError::WorkerStall { ticks })
                }
                SlotState::Handshaking { .. } => {
                    self.handshake_failure(s, format!("handshake timed out after {ticks} ticks"))
                }
                _ => {}
            }
        }
    }

    /// Shut every worker down (graceful Shutdown frame, then kill +
    /// reap) and produce the report; a cell still in flight on a
    /// cancelled sweep is skipped.
    fn finish(mut self) -> ShardReport {
        let mut in_flight = Vec::new();
        for s in 0..self.slots.len() {
            if let SlotState::Busy { entry, .. } = self.slots[s].state {
                in_flight.push(entry.idx);
            }
            if let Some(stdin) = self.slots[s].stdin.as_mut() {
                let _ = proto::write_msg(stdin, &Msg::Shutdown);
            }
            self.kill_slot(s);
        }
        let report = self.queue.finish(in_flight);
        self.poisoned.sort_unstable();
        ShardReport {
            results: report.results,
            failed: report.failed,
            retried: report.retried,
            skipped: report.skipped,
            respawns: self.respawns,
            poisoned: self.poisoned,
            fatal: self.fatal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, read_msg, serve_worker, write_msg, WorkerFailure};
    use mperf_vm::TrapInfo;
    use std::io::{PipeReader, PipeWriter};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    /// An in-process mock worker: `body` runs on a detached thread with
    /// the request-read / response-write pipe ends. Stalled bodies leak
    /// their thread — harmless in tests, and exactly what a hung child
    /// process looks like to the supervisor.
    fn mock_link(
        body: impl FnOnce(PipeReader, PipeWriter) + Send + 'static,
    ) -> io::Result<WorkerLink> {
        let (req_r, req_w) = io::pipe()?;
        let (resp_r, resp_w) = io::pipe()?;
        thread::spawn(move || body(req_r, resp_w));
        Ok(WorkerLink {
            stdin: Box::new(req_w),
            stdout: Box::new(resp_r),
            kill: Box::new(|| "mock worker".into()),
        })
    }

    /// The reference computation every healthy mock applies.
    fn doubled(payload: &[u8]) -> Vec<u8> {
        payload.iter().map(|b| b.wrapping_mul(2)).collect()
    }

    fn healthy(req: PipeReader, resp: PipeWriter) {
        let _ = serve_worker(req, resp, |_, _, payload| Ok(doubled(payload)));
    }

    fn cells(n: usize) -> Vec<ShardCell> {
        (0..n)
            .map(|i| ShardCell {
                payload: vec![i as u8; i + 1],
                cost: 0,
            })
            .collect()
    }

    fn fast_opts(shards: usize) -> ShardOptions {
        ShardOptions {
            shards,
            tick: Duration::from_millis(5),
            ..ShardOptions::default()
        }
    }

    #[test]
    fn healthy_workers_are_bit_identical_to_serial_at_any_shard_count() {
        let cells = cells(8);
        let expected: Vec<Vec<u8>> = cells.iter().map(|c| doubled(&c.payload)).collect();
        for shards in [1, 2, 3] {
            let report = run_sharded(
                &cells,
                &fast_opts(shards),
                |_| mock_link(healthy),
                |_, _| Ok(()),
            );
            assert!(report.all_ok(), "shards={shards}: {:?}", report.failed);
            assert_eq!(report.respawns, 0);
            assert!(report.retried.is_empty());
            for (i, exp) in expected.iter().enumerate() {
                assert_eq!(
                    report.results[i].as_deref(),
                    Some(exp.as_slice()),
                    "cell {i} at shards={shards}"
                );
            }
        }
    }

    #[test]
    fn dispatch_is_cost_ordered_longest_first_index_stable() {
        let cells = vec![
            ShardCell {
                payload: vec![0],
                cost: 5,
            },
            ShardCell {
                payload: vec![1],
                cost: 9,
            },
            ShardCell {
                payload: vec![2],
                cost: 5,
            },
            ShardCell {
                payload: vec![3],
                cost: 1,
            },
        ];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let order = seen.clone();
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            move |_| {
                let order = order.clone();
                mock_link(move |req, resp| {
                    let _ = serve_worker(req, resp, |index, _, payload| {
                        order.lock().unwrap().push(index as usize);
                        Ok(payload.to_vec())
                    });
                })
            },
            |_, _| Ok(()),
        );
        assert!(report.all_ok());
        assert_eq!(
            *seen.lock().unwrap(),
            vec![1, 0, 2, 3],
            "cost desc, index-stable"
        );
    }

    #[test]
    fn crashed_worker_is_respawned_and_cell_requeued() {
        let cells = cells(4);
        let expected: Vec<Vec<u8>> = cells.iter().map(|c| doubled(&c.payload)).collect();
        let spawns = Arc::new(AtomicU32::new(0));
        let counter = spawns.clone();
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            move |_| {
                if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                    // First incarnation handshakes, then dies mid-cell:
                    // reads the request, replies nothing, drops both
                    // pipes (the supervisor sees an unexpected EOF).
                    mock_link(|mut req, mut resp| {
                        let _ = write_msg(&mut resp, &Msg::hello());
                        let _ = read_msg(&mut req);
                    })
                } else {
                    mock_link(healthy)
                }
            },
            |_, _| Ok(()),
        );
        assert_eq!(spawns.load(Ordering::SeqCst), 2, "one respawn");
        assert_eq!(report.respawns, 1);
        assert!(report.all_ok(), "{:?}", report.failed);
        // Cell 0 (first dispatched) burned one attempt on the crash.
        assert_eq!(report.retried, vec![(0, 1)]);
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(report.results[i].as_deref(), Some(exp.as_slice()));
        }
    }

    #[test]
    fn stalled_worker_hits_tick_deadline_and_recovers() {
        let cells = cells(3);
        let expected: Vec<Vec<u8>> = cells.iter().map(|c| doubled(&c.payload)).collect();
        let spawns = Arc::new(AtomicU32::new(0));
        let counter = spawns.clone();
        let opts = ShardOptions {
            shards: 1,
            deadline_ticks: 3,
            tick: Duration::from_millis(5),
            ..ShardOptions::default()
        };
        let report = run_sharded(
            &cells,
            &opts,
            move |_| {
                if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                    mock_link(|mut req, mut resp| {
                        let _ = write_msg(&mut resp, &Msg::hello());
                        let _ = read_msg(&mut req);
                        // Hang forever holding both pipe ends open: no
                        // EOF, no frames — only the tick deadline fires.
                        loop {
                            thread::sleep(Duration::from_secs(3600));
                        }
                    })
                } else {
                    mock_link(healthy)
                }
            },
            |_, _| Ok(()),
        );
        assert_eq!(report.respawns, 1);
        assert!(report.all_ok(), "{:?}", report.failed);
        assert_eq!(report.retried, vec![(0, 1)]);
        assert!(report
            .retried
            .iter()
            .all(|&(i, _)| report.results[i].is_some()));
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(report.results[i].as_deref(), Some(exp.as_slice()));
        }
    }

    #[test]
    fn corrupt_frame_is_transient_and_burns_one_attempt() {
        let cells = cells(3);
        let expected: Vec<Vec<u8>> = cells.iter().map(|c| doubled(&c.payload)).collect();
        let spawns = Arc::new(AtomicU32::new(0));
        let counter = spawns.clone();
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            move |_| {
                if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                    mock_link(|mut req, mut resp| {
                        let _ = write_msg(&mut resp, &Msg::hello());
                        if let Ok(Msg::Cell { index, payload, .. }) = read_msg(&mut req) {
                            let mut frame = encode_frame(&Msg::Done {
                                index,
                                payload: doubled(&payload),
                            });
                            let last = frame.len() - 1;
                            frame[last] ^= 0xff; // CRC no longer matches
                            let _ = resp.write_all(&frame);
                        }
                    })
                } else {
                    mock_link(healthy)
                }
            },
            |_, _| Ok(()),
        );
        assert_eq!(report.respawns, 1, "corrupt stream kills the worker");
        assert!(report.all_ok(), "{:?}", report.failed);
        assert_eq!(report.retried, vec![(0, 1)]);
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(report.results[i].as_deref(), Some(exp.as_slice()));
        }
    }

    #[test]
    fn poison_cell_is_quarantined_while_healthy_cells_flow() {
        let cells = cells(5);
        let poison = 2u64;
        let report = run_sharded(
            &cells,
            &fast_opts(2),
            move |_| {
                mock_link(move |mut req, mut resp| {
                    let _ = write_msg(&mut resp, &Msg::hello());
                    loop {
                        match read_msg(&mut req) {
                            Ok(Msg::Cell { index, payload, .. }) => {
                                if index == poison {
                                    return; // die on the poison cell, every time
                                }
                                let reply = Msg::Done {
                                    index,
                                    payload: doubled(&payload),
                                };
                                if write_msg(&mut resp, &reply).is_err() {
                                    return;
                                }
                            }
                            _ => return,
                        }
                    }
                })
            },
            |_, _| Ok(()),
        );
        assert_eq!(report.poisoned, vec![2]);
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!(f.index, 2);
        assert_eq!(f.attempts, 3, "default budget exhausted");
        assert!(f.quarantined);
        assert!(matches!(f.error, ShardCellError::WorkerCrash { .. }));
        assert_eq!(report.respawns, 3, "every attempt killed a worker");
        assert!(report.skipped.is_empty(), "healthy cells kept flowing");
        assert_eq!(report.completed(), 4);
        for i in [0usize, 1, 3, 4] {
            assert_eq!(
                report.results[i].as_deref(),
                Some(doubled(&cells[i].payload).as_slice())
            );
        }
    }

    #[test]
    fn sink_failure_is_fatal_and_cancels_queued_cells() {
        let cells = cells(4);
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            |_| mock_link(healthy),
            |idx, _| {
                Err(ShardCellError::Fatal {
                    detail: format!("journal append failed for {idx}"),
                })
            },
        );
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!(f.index, 0);
        assert!(!f.quarantined);
        assert!(matches!(f.error, ShardCellError::Fatal { .. }));
        assert_eq!(report.skipped, vec![1, 2, 3]);
        assert_eq!(report.completed(), 0);
        assert!(report.fatal.as_deref().unwrap().contains("sink"));
    }

    #[test]
    fn rejected_result_respawns_the_worker_and_retries_the_cell() {
        let cells = cells(3);
        let mut rejected = false;
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            |_| mock_link(healthy),
            |idx, _| {
                if idx == 0 && !std::mem::replace(&mut rejected, true) {
                    return Err(ShardCellError::Frame {
                        detail: "undecodable worker result".into(),
                    });
                }
                Ok(())
            },
        );
        assert_eq!(report.retried, vec![(0, 1)]);
        assert_eq!(
            report.respawns, 1,
            "the rejecting stream's worker is replaced"
        );
        assert!(report.all_ok(), "{:?}", report.failed);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(
                report.results[i].as_deref(),
                Some(doubled(&c.payload).as_slice())
            );
        }
    }

    #[test]
    fn protocol_version_mismatch_is_fatal_not_retried() {
        let cells = cells(3);
        let report = run_sharded(
            &cells,
            &fast_opts(2),
            |_| {
                mock_link(|_req, mut resp| {
                    let _ = write_msg(
                        &mut resp,
                        &Msg::Hello {
                            magic: *crate::proto::MAGIC,
                            schema: crate::proto::SCHEMA + 1,
                        },
                    );
                })
            },
            |_, _| Ok(()),
        );
        assert_eq!(report.completed(), 0);
        assert_eq!(report.skipped, vec![0, 1, 2], "everything cancelled");
        let fatal = report.fatal.as_deref().unwrap();
        assert!(fatal.contains("version mismatch"), "{fatal}");
    }

    #[test]
    fn remote_failure_class_and_trap_survive_the_process_boundary() {
        let cells = cells(3);
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            |_| {
                mock_link(|req, resp| {
                    let _ = serve_worker(req, resp, |index, _, payload| {
                        if index == 1 {
                            return Err(WorkerFailure {
                                class: FailureClass::Permanent,
                                message: "baseline phase trapped: division by zero".into(),
                                trap: Some(TrapInfo {
                                    pc: 0x1_0002_0003,
                                    func: "boom".into(),
                                }),
                            });
                        }
                        Ok(doubled(payload))
                    });
                })
            },
            |_, _| Ok(()),
        );
        assert_eq!(report.failed.len(), 1);
        let f = &report.failed[0];
        assert_eq!(f.index, 1);
        assert_eq!(f.attempts, 1, "permanent: no retries");
        assert!(!f.quarantined);
        match &f.error {
            ShardCellError::Remote { class, trap, .. } => {
                assert_eq!(*class, FailureClass::Permanent);
                let t = trap.as_ref().unwrap();
                assert_eq!((t.pc, t.func.as_str()), (0x1_0002_0003, "boom"));
            }
            other => panic!("expected Remote, got {other:?}"),
        }
        let msg = f.error.to_string();
        assert!(msg.contains("trapped") && msg.contains("`boom`"), "{msg}");
        assert_eq!(report.respawns, 0, "a structured failure keeps the worker");
        assert_eq!(report.completed(), 2);
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn worker_transient_failures_requeue_without_respawn() {
        let cells = cells(3);
        let attempts_seen = Arc::new(Mutex::new(Vec::new()));
        let log = attempts_seen.clone();
        let report = run_sharded(
            &cells,
            &fast_opts(1),
            move |_| {
                let log = log.clone();
                mock_link(move |req, resp| {
                    let _ = serve_worker(req, resp, |index, attempt, payload| {
                        log.lock().unwrap().push((index, attempt));
                        if index == 0 && attempt == 0 {
                            return Err(WorkerFailure {
                                class: FailureClass::Transient,
                                message: "transient i/o".into(),
                                trap: None,
                            });
                        }
                        Ok(doubled(payload))
                    });
                })
            },
            |_, _| Ok(()),
        );
        assert!(report.all_ok(), "{:?}", report.failed);
        assert_eq!(report.respawns, 0, "worker survives a structured transient");
        assert_eq!(report.retried, vec![(0, 1)]);
        // The retry reached the worker with its bumped attempt number.
        assert!(attempts_seen.lock().unwrap().contains(&(0, 1)));
    }
}
