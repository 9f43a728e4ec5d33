//! # mperf-sweep — deterministic thread-parallel sweep scheduling
//!
//! The paper's methodology is a *sweep*: every roofline chart correlates
//! a baseline and an instrumented run per region, across platforms and
//! workloads (§4.3, Fig. 2), and hierarchical-roofline practice
//! multiplies that further across kernels and memory levels. Each
//! `phase × platform × workload` combination is an independent
//! simulation — an embarrassingly parallel job matrix whose wall-clock,
//! not single-VM throughput, dominates a full evaluation.
//!
//! This crate schedules that matrix over worker threads while keeping
//! the output **bit-identical to the serial order**:
//!
//! - [`queue`] — a work-stealing-free job queue over the crate's one
//!   [`std::thread::scope`] pool: workers pop jobs front-to-back,
//!   results are collected *by job index*, and `jobs = 1` (or a single
//!   job) takes a strictly serial path with no threads spawned. No
//!   external dependencies.
//! - [`plan`] — the shared sweep vocabulary: [`Phase`] (the two-phase
//!   protocol order every sweep's serial output is pinned to) and
//!   [`SharedModule`] (a compiled workload bundled with its one
//!   `Arc`-shared decode).
//!
//! Determinism needs no locking discipline beyond the queue itself:
//! every job owns a fresh `Vm`/`Core` (the whole execution stack is
//! `Send`, enforced in `mperf-vm`), shares only the immutable
//! [`mperf_vm::DecodedModule`], and the simulated PMU/cycle state never
//! observes host time or host thread interleaving.
//!
//! ## Fault tolerance, journaling & resume
//!
//! Production-scale sweeps (thousands of cells, hours of wall-clock)
//! must survive misbehaving cells and interrupted runs. Three layers
//! provide that, each independently testable:
//!
//! - [`supervise`] — one retry queue and two isolation supervisors.
//!   Failures are classified ([`FailureClass`]): *transient* ones
//!   retry with a deterministic backoff (counted in queue pops, never
//!   wall-clock) until quarantined, *permanent* ones fail just their
//!   own cell, and *fatal* ones cancel the queue so still-queued cells
//!   never start (reported as skipped). That rule lives in one
//!   crate-private retry queue, which both supervisors run on:
//!   [`run_jobs_supervised`] isolates threads with `catch_unwind` (a
//!   panicking cell becomes [`CellError::Panicked`]), and
//!   [`run_sharded`] isolates worker processes (see below). Both
//!   return the same [`CellFailure`] records and the same `retried`
//!   convention, and every completed slot is bit-identical to a serial
//!   run of the same jobs.
//! - [`journal`] — an append-only checkpoint file (`MPSWJRN1`) of
//!   CRC-framed records keyed by a content hash of the producing
//!   configuration. A torn tail from a crash mid-append is detected
//!   and truncated on open via an atomic tempfile + rename, so the
//!   journal is always left well-formed. Resume is a cache lookup:
//!   cells whose key already has a payload are decoded instead of
//!   re-executed, and a journal written under a different
//!   configuration simply never matches.
//! - [`mperf_fault`] (the `failpoints` feature) — deterministic fault
//!   injection for exercising the two layers above: named probe sites
//!   (the journal probes `sweep.journal`; the roofline runner probes
//!   `sweep.cell`; the process layer probes `ipc.frame`, `worker.exit`,
//!   and `worker.stall`) armed by a seeded plan. Compiled out entirely
//!   when the feature is off.
//!
//! ## Process sharding
//!
//! Thread-level supervision cannot survive a worker that segfaults, is
//! OOM-killed, or hangs — those take the whole process down (or wedge
//! it). [`shard`] moves the isolation boundary to child processes:
//! [`run_sharded`] drives N workers over their stdin/stdout with the
//! [`proto`] protocol, and [`WorkerCmd`] launches real worker binaries
//! (`miniperf sweep-worker`).
//!
//! **Wire format.** Every message is one CRC-framed record,
//! `[body len: u32 LE][crc32(body): u32 LE][body]`, with bodies encoded
//! by the same bit-exact [`wire`] codec the journal uses. The message
//! set is `Hello`, `Cell` (index + attempt + opaque request payload),
//! `Done` (index + opaque result payload), `Fail` (index +
//! [`FailureClass`] + message + optional `TrapInfo` — failure structure
//! survives the process boundary), and `Shutdown`.
//!
//! **Handshake & versioning.** The initiating peer's first frame is
//! `Hello` carrying the 8-byte magic (`MPSWIPC1`) and schema version —
//! a worker to its supervisor, a socket client to the serve daemon.
//! Any mismatch is *fatal*, never retried: version skew means the
//! binary pair cannot make progress. Schema bumps are breaking by
//! design.
//!
//! ## Serve protocol
//!
//! The `miniperf serve` daemon speaks the same framed, versioned
//! protocol over a Unix-domain socket; [`serve`] holds the session
//! layer ([`ClientSession`], the handshake helpers) and documents the
//! session shape. The serve subset of the message set:
//!
//! | Message | Direction | Meaning |
//! |---|---|---|
//! | `Hello` | client → daemon, then daemon → client | magic + schema; mismatch drops the connection |
//! | `Submit {job, payload}` | client → daemon | one encoded job description (`JobSpec` codec); `job` is client-chosen and echoed in every event |
//! | `Sample {job, payload}` | daemon → client | one profiling sample, flushed as drained from the PMU ring |
//! | `CellDone {job, index, payload}` | daemon → client | one sweep cell result — the bit-exact `RooflineRun` journal codec |
//! | `Progress {job, done, total}` | daemon → client | informational: `done` of `total` sweep cells finished (journal-resumed cells count); safe to ignore |
//! | `Cancel {job}` | client → daemon | stop `job` at the next cell/drain boundary |
//! | `JobStatus {job, code, message, payload}` | daemon → client | terminal, exactly one per job; `code` mirrors the batch CLI exit code plus the supervision codes — 130 = cancelled/disconnect/drain ([`proto::CODE_CANCELLED`]), 75 = shed by admission control or drain mode ([`proto::CODE_REJECTED`]), 124 = job deadline exceeded ([`proto::CODE_TIMEOUT`]), 131 = client stalled ([`proto::CODE_STALLED`]), 101 = the job panicked, like a panicking batch command ([`proto::CODE_PANICKED`]); `payload` is a job-kind summary |
//! | `Shutdown` | client → daemon | end of session (EOF is equivalent) |
//!
//! **Versioning rules.** One [`proto::SCHEMA`] gates shard *and* serve
//! subsets together (a serve-side change bumps the shard protocol too
//! — both live in the same binary, so skew between roles is
//! impossible). The handshake is symmetric-fatal: daemon and client
//! each validate the peer's `Hello` and drop the connection on any
//! mismatch; there is no field-level negotiation. Event payloads are
//! opaque to the protocol layer and versioned by their own codecs
//! (job specs and summaries carry their own schema bytes, cell
//! payloads reuse the journal's `RooflineRun` codec).
//!
//! **Failure taxonomy.** Worker crash (nonzero exit, signal,
//! unexpected EOF), stall (per-cell deadline in heartbeat *ticks*, not
//! wall-clock), and corrupt/short frames all classify as transient:
//! kill + respawn the worker and requeue the cell on the same retry
//! queue, under the same [`RetryPolicy`], as the thread supervisor.
//! The shard supervisor adds only process isolation: spawn/kill/
//! respawn, tick deadlines, handshake crash-loop protection, the result
//! sink, and poison tracking. A cell that kills its worker
//! `max_attempts` times is quarantined as a **poison cell**
//! (crash-loop protection) while healthy cells keep flowing.
//! Worker-reported failures keep their class across the wire; fatal
//! errors (including a failed journal append) cancel still-queued
//! cells on every shard.
//!
//! **Determinism contract.** Results are collected by cell index, so
//! every completed slot is bit-identical to a serial sweep at any
//! shard count, regardless of dispatch order (cost-ordered,
//! longest-first), retries, respawns, or which worker incarnation ran
//! the cell. The journal is written by the supervisor alone — workers
//! never see the fd (std opens files `O_CLOEXEC` on Linux) — so
//! `--journal`/`--resume` compose: a supervisor crash resumes
//! byte-identically.

pub mod journal;
pub mod plan;
pub mod proto;
pub mod queue;
pub mod serve;
pub mod shard;
pub mod supervise;
pub mod wire;

pub use journal::{Journal, JournalError};
pub use plan::{Phase, SharedModule};
pub use proto::{ProtoError, WorkerFailure};
pub use queue::{default_jobs, run_jobs, try_run_jobs};
pub use serve::{ClientSession, JobResult};
pub use shard::{
    run_sharded, ShardCell, ShardCellError, ShardOptions, ShardReport, WorkerCmd, WorkerLink,
};
pub use supervise::{
    run_jobs_supervised, CellError, CellFailure, FailureClass, JobCtx, RetryPolicy, SweepReport,
};
