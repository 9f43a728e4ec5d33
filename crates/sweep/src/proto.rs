//! Versioned, framed IPC protocol for multi-process sweep sharding and
//! the `miniperf serve` daemon.
//!
//! Two kinds of peers speak this protocol. The shard supervisor
//! ([`crate::shard`]) and its worker processes use the
//! `Cell`/`Done`/`Fail`/`Shutdown` subset over the workers'
//! stdin/stdout. Socket clients of the `miniperf serve` daemon use the
//! `Submit`/`Sample`/`CellDone`/`Progress`/`Cancel`/`JobStatus` subset
//! over a Unix-domain socket ([`crate::serve`] holds the session
//! layer). Both subsets share one schema version, one frame format,
//! and one handshake, so a single binary can be supervisor, worker,
//! daemon, and client without version drift between roles.
//!
//! ## Framing
//!
//! Every message travels as one self-delimiting frame:
//!
//! ```text
//! [body len: u32 LE][crc32(body): u32 LE][body]
//! ```
//!
//! `crc32` is the same bitwise IEEE CRC the checkpoint journal uses
//! ([`crate::wire::crc32`]), and bodies are encoded with the bit-exact
//! [`crate::wire`] codec (`f64` as `to_bits`), so a decoded-and-
//! re-encoded message is byte-identical. Frames larger than
//! [`MAX_FRAME`] are refused as corrupt: a garbage length field must
//! not make the reader allocate or block forever.
//!
//! ## Handshake and versioning
//!
//! The first frame the *initiating* peer writes is [`Msg::Hello`]
//! carrying the 8-byte protocol magic ([`MAGIC`]) and its [`SCHEMA`]
//! version: a shard worker speaks first to its supervisor; a socket
//! client speaks first to the serve daemon (which replies with its own
//! `Hello`). Either side refuses a peer whose magic or schema does not
//! match its own — version skew is a *fatal* error (the binary pair
//! cannot make progress), not a retryable one. Schema bumps are
//! breaking by design: there is no field-level negotiation, the
//! version gates the whole message set.
//!
//! ## Error taxonomy
//!
//! [`read_msg`] distinguishes a clean end-of-stream at a frame boundary
//! ([`ProtoError::Eof`] — the peer shut down) from every other failure
//! ([`ProtoError::Corrupt`]): a torn frame, a CRC mismatch, an
//! oversized length, an unknown tag, or trailing bytes. The supervisor
//! maps `Corrupt` onto [`FailureClass::Transient`] — the cell burns an
//! attempt and the worker is killed and respawned, because a stream
//! that has lost framing cannot be trusted again.

use crate::supervise::FailureClass;
use crate::wire::{crc32, Dec, Enc, WireError};
use mperf_vm::TrapInfo;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic: `MPSW` IPC, version 1 (carried inside [`Msg::Hello`]).
pub const MAGIC: &[u8; 8] = b"MPSWIPC1";

/// Message-set schema version; bumped on any wire-visible change.
/// Schema 2 added the serve-daemon subset (`Submit` through
/// `JobStatus`); schema 3 added `Progress` and the supervision status
/// codes ([`CODE_REJECTED`], [`CODE_TIMEOUT`], [`CODE_STALLED`]);
/// schema 4 dropped the `Region` event (tag 8), which no client read.
pub const SCHEMA: u32 = 4;

/// Upper bound on one frame body. A length field beyond this is
/// treated as corruption, never allocated.
pub const MAX_FRAME: usize = 64 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum ProtoError {
    /// Clean end-of-stream at a frame boundary: the peer is gone.
    Eof,
    /// The stream is no longer trustworthy: torn frame, bad CRC,
    /// oversized length, unknown tag, or malformed body.
    Corrupt(String),
    /// Transport-level I/O failure.
    Io(io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Eof => f.write_str("end of stream"),
            ProtoError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The fault-injection key for per-attempt worker failpoints
/// (`worker.exit`, `worker.stall`, `ipc.frame`): attempt in the high
/// half, cell index in the low half, so a plan can fault attempt 0 of a
/// cell and let its retry through — or arm several attempts to build a
/// poison cell.
pub fn fault_key(index: u64, attempt: u32) -> u64 {
    ((attempt as u64) << 32) | (index & 0xffff_ffff)
}

/// One protocol message.
///
/// Shard subset: `Hello`/`Done`/`Fail` flow worker → supervisor;
/// `Cell`/`Shutdown` flow supervisor → worker.
///
/// Serve subset: `Submit`/`Cancel` flow client → daemon;
/// `Sample`/`CellDone`/`Progress`/`JobStatus` flow daemon → client.
/// `job` identifiers are chosen by the client and echoed back opaquely,
/// so one connection can tell its own jobs apart. Event payloads are
/// opaque to this layer: the job-execution bridge defines their codecs
/// and keeps them bit-exact (the same `RooflineRun` codec the sweep
/// journal uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// The initiating peer's first frame: magic + schema version.
    Hello { magic: [u8; 8], schema: u32 },
    /// Dispatch one cell (opaque payload) to a worker. `attempt` is the
    /// supervisor's 0-based attempt number, forwarded so worker-side
    /// failpoints can key on it ([`fault_key`]).
    Cell {
        index: u64,
        attempt: u32,
        payload: Vec<u8>,
    },
    /// Cell completed; opaque result payload.
    Done { index: u64, payload: Vec<u8> },
    /// Cell failed inside the worker. [`FailureClass`] and the trap
    /// site (when the VM captured one) survive the process boundary.
    Fail {
        index: u64,
        class: FailureClass,
        message: String,
        trap: Option<TrapInfo>,
    },
    /// Supervisor asks the worker to exit cleanly.
    Shutdown,
    /// Client submits one job. `payload` is an encoded job description
    /// (the same typed `JobSpec` the CLI parses); `job` is the client's
    /// identifier for it, echoed in every event the job produces.
    Submit { job: u64, payload: Vec<u8> },
    /// One profiling sample, streamed as it is drained from the PMU
    /// ring — never accumulated daemon-side.
    Sample { job: u64, payload: Vec<u8> },
    /// One sweep cell completed; `payload` is the bit-exact
    /// `RooflineRun` codec the journal uses, `index` the cell's slot.
    CellDone {
        job: u64,
        index: u64,
        payload: Vec<u8>,
    },
    /// Client asks the daemon to cancel a submitted job. Takes effect
    /// at the next cell/drain boundary; the job still terminates with a
    /// `JobStatus`.
    Cancel { job: u64 },
    /// Coarse completion report for a long-running job: `done` of
    /// `total` cells have finished (resumed-from-journal cells count as
    /// done). Streamed after each cell so a client can render progress
    /// without counting `CellDone` frames; purely informational and
    /// safe to ignore.
    Progress { job: u64, done: u64, total: u64 },
    /// Terminal job status. `code` mirrors the batch CLI exit code for
    /// a natural completion (0 ok, 1 failed, 3 partial, 4 fatal) and is
    /// [`CODE_CANCELLED`] for a cancelled job; `payload` is a
    /// job-kind-specific summary (profile totals, stat counts, sweep
    /// retry accounting) the client needs to render the batch report.
    JobStatus {
        job: u64,
        code: u32,
        message: String,
        payload: Vec<u8>,
    },
}

/// [`Msg::JobStatus`] code for a job stopped by [`Msg::Cancel`]:
/// `128 + SIGINT`, the shell convention for an interrupted run.
pub const CODE_CANCELLED: u32 = 130;

/// [`Msg::JobStatus`] code for a submit the daemon refused to run:
/// admission control shed it (job table full) or the daemon is
/// draining. Mirrors `EX_TEMPFAIL` from `sysexits.h` — the client may
/// retry later, possibly against a restarted daemon.
pub const CODE_REJECTED: u32 = 75;

/// [`Msg::JobStatus`] code for a job cancelled because it overran its
/// deadline (`ServeOptions::job_deadline_ticks` heartbeat ticks on the
/// daemon side). Mirrors GNU `timeout`'s exit code.
pub const CODE_TIMEOUT: u32 = 124;

/// [`Msg::JobStatus`] code for a job cancelled because its *client*
/// stalled — stopped draining the event stream past the stall
/// deadline. The stalled client's connection is torn down, so this
/// code normally never reaches it; it exists so daemon-side accounting
/// and logs can tell "client died" from "client wedged".
pub const CODE_STALLED: u32 = 131;

/// [`Msg::JobStatus`] code for a job that panicked inside the daemon:
/// the exit status of a panicking batch command. The panic is confined
/// to the job — the connection and the daemon keep serving.
pub const CODE_PANICKED: u32 = 101;

impl Msg {
    /// The canonical hello for this binary's protocol version.
    pub fn hello() -> Msg {
        Msg::Hello {
            magic: *MAGIC,
            schema: SCHEMA,
        }
    }
}

const TAG_HELLO: u8 = 1;
const TAG_CELL: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_FAIL: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_SUBMIT: u8 = 6;
const TAG_SAMPLE: u8 = 7;
const TAG_CELL_DONE: u8 = 9;
const TAG_CANCEL: u8 = 10;
const TAG_JOB_STATUS: u8 = 11;
const TAG_PROGRESS: u8 = 12;

fn class_code(c: FailureClass) -> u8 {
    match c {
        FailureClass::Transient => 0,
        FailureClass::Permanent => 1,
        FailureClass::Fatal => 2,
    }
}

fn class_from_code(b: u8) -> Option<FailureClass> {
    match b {
        0 => Some(FailureClass::Transient),
        1 => Some(FailureClass::Permanent),
        2 => Some(FailureClass::Fatal),
        _ => None,
    }
}

fn encode_body(msg: &Msg) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        Msg::Hello { magic, schema } => {
            e.u8(TAG_HELLO);
            e.bytes(magic);
            e.u32(*schema);
        }
        Msg::Cell {
            index,
            attempt,
            payload,
        } => {
            e.u8(TAG_CELL);
            e.u64(*index);
            e.u32(*attempt);
            e.bytes(payload);
        }
        Msg::Done { index, payload } => {
            e.u8(TAG_DONE);
            e.u64(*index);
            e.bytes(payload);
        }
        Msg::Fail {
            index,
            class,
            message,
            trap,
        } => {
            e.u8(TAG_FAIL);
            e.u64(*index);
            e.u8(class_code(*class));
            e.str(message);
            match trap {
                Some(t) => {
                    e.u8(1);
                    e.u64(t.pc);
                    e.str(&t.func);
                }
                None => e.u8(0),
            }
        }
        Msg::Shutdown => e.u8(TAG_SHUTDOWN),
        Msg::Submit { job, payload } => {
            e.u8(TAG_SUBMIT);
            e.u64(*job);
            e.bytes(payload);
        }
        Msg::Sample { job, payload } => {
            e.u8(TAG_SAMPLE);
            e.u64(*job);
            e.bytes(payload);
        }
        Msg::CellDone {
            job,
            index,
            payload,
        } => {
            e.u8(TAG_CELL_DONE);
            e.u64(*job);
            e.u64(*index);
            e.bytes(payload);
        }
        Msg::Cancel { job } => {
            e.u8(TAG_CANCEL);
            e.u64(*job);
        }
        Msg::Progress { job, done, total } => {
            e.u8(TAG_PROGRESS);
            e.u64(*job);
            e.u64(*done);
            e.u64(*total);
        }
        Msg::JobStatus {
            job,
            code,
            message,
            payload,
        } => {
            e.u8(TAG_JOB_STATUS);
            e.u64(*job);
            e.u32(*code);
            e.str(message);
            e.bytes(payload);
        }
    }
    e.into_bytes()
}

fn decode_body(body: &[u8]) -> Result<Msg, ProtoError> {
    let corrupt = |e: WireError| ProtoError::Corrupt(format!("malformed body: {e}"));
    let mut d = Dec::new(body);
    let tag = d.u8().map_err(corrupt)?;
    let msg = match tag {
        TAG_HELLO => {
            let magic_bytes = d.bytes().map_err(corrupt)?;
            let magic: [u8; 8] = magic_bytes
                .as_slice()
                .try_into()
                .map_err(|_| ProtoError::Corrupt("hello magic is not 8 bytes".into()))?;
            Msg::Hello {
                magic,
                schema: d.u32().map_err(corrupt)?,
            }
        }
        TAG_CELL => Msg::Cell {
            index: d.u64().map_err(corrupt)?,
            attempt: d.u32().map_err(corrupt)?,
            payload: d.bytes().map_err(corrupt)?,
        },
        TAG_DONE => Msg::Done {
            index: d.u64().map_err(corrupt)?,
            payload: d.bytes().map_err(corrupt)?,
        },
        TAG_FAIL => {
            let index = d.u64().map_err(corrupt)?;
            let class = class_from_code(d.u8().map_err(corrupt)?)
                .ok_or_else(|| ProtoError::Corrupt("unknown failure class".into()))?;
            let message = d.str().map_err(corrupt)?;
            let trap = match d.u8().map_err(corrupt)? {
                0 => None,
                1 => Some(TrapInfo {
                    pc: d.u64().map_err(corrupt)?,
                    func: d.str().map_err(corrupt)?,
                }),
                _ => return Err(ProtoError::Corrupt("bad trap flag".into())),
            };
            Msg::Fail {
                index,
                class,
                message,
                trap,
            }
        }
        TAG_SHUTDOWN => Msg::Shutdown,
        TAG_SUBMIT => Msg::Submit {
            job: d.u64().map_err(corrupt)?,
            payload: d.bytes().map_err(corrupt)?,
        },
        TAG_SAMPLE => Msg::Sample {
            job: d.u64().map_err(corrupt)?,
            payload: d.bytes().map_err(corrupt)?,
        },
        TAG_CELL_DONE => Msg::CellDone {
            job: d.u64().map_err(corrupt)?,
            index: d.u64().map_err(corrupt)?,
            payload: d.bytes().map_err(corrupt)?,
        },
        TAG_CANCEL => Msg::Cancel {
            job: d.u64().map_err(corrupt)?,
        },
        TAG_PROGRESS => Msg::Progress {
            job: d.u64().map_err(corrupt)?,
            done: d.u64().map_err(corrupt)?,
            total: d.u64().map_err(corrupt)?,
        },
        TAG_JOB_STATUS => Msg::JobStatus {
            job: d.u64().map_err(corrupt)?,
            code: d.u32().map_err(corrupt)?,
            message: d.str().map_err(corrupt)?,
            payload: d.bytes().map_err(corrupt)?,
        },
        other => return Err(ProtoError::Corrupt(format!("unknown tag {other}"))),
    };
    d.finish().map_err(corrupt)?;
    Ok(msg)
}

/// Encode `msg` as one complete frame (header + CRC + body).
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let body = encode_body(msg);
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Write one framed message and flush it (frames must reach the peer
/// promptly; both sides block on reads between messages).
///
/// # Errors
/// Transport I/O failures.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()
}

/// Read exactly `buf.len()` bytes. Distinguishes EOF before the first
/// byte (`Ok(false)`) from EOF mid-buffer (corrupt).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(ProtoError::Corrupt(format!(
                    "stream ended {filled} byte(s) into a {}-byte read",
                    buf.len()
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one framed message.
///
/// # Errors
/// [`ProtoError::Eof`] on a clean end-of-stream at a frame boundary;
/// [`ProtoError::Corrupt`] for torn frames, CRC mismatches, oversized
/// lengths, or malformed bodies; [`ProtoError::Io`] for transport
/// failures.
pub fn read_msg<R: Read>(r: &mut R) -> Result<Msg, ProtoError> {
    let mut header = [0u8; 8];
    if !read_exact_or_eof(r, &mut header)? {
        return Err(ProtoError::Eof);
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(ProtoError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    if !read_exact_or_eof(r, &mut body)? {
        return Err(ProtoError::Corrupt(
            "stream ended after a frame header".into(),
        ));
    }
    if crc32(&body) != crc {
        return Err(ProtoError::Corrupt("crc mismatch".into()));
    }
    decode_body(&body)
}

/// A cell failure a worker reports back over the wire.
#[derive(Debug)]
pub struct WorkerFailure {
    pub class: FailureClass,
    pub message: String,
    pub trap: Option<TrapInfo>,
}

/// The worker side of the protocol: write [`Msg::Hello`], then serve
/// [`Msg::Cell`] requests through `handler` until [`Msg::Shutdown`] or
/// the supervisor closes the stream. The handler receives
/// `(index, attempt, payload)` and returns the result payload or a
/// [`WorkerFailure`] to ship back.
///
/// Failpoint `ipc.frame` (keyed by [`fault_key`]) corrupts the response
/// frame: most kinds flip a body byte in place (the supervisor sees a
/// CRC mismatch); [`mperf_fault::FaultKind::Trap`] truncates the frame
/// and ends the stream (the supervisor sees a torn frame, then EOF).
///
/// # Errors
/// Protocol violations from the supervisor side and transport failures;
/// a clean shutdown (message or EOF) returns `Ok`.
pub fn serve_worker<R, W, H>(mut r: R, mut w: W, mut handler: H) -> Result<(), ProtoError>
where
    R: Read,
    W: Write,
    H: FnMut(u64, u32, &[u8]) -> Result<Vec<u8>, WorkerFailure>,
{
    write_msg(&mut w, &Msg::hello()).map_err(ProtoError::Io)?;
    loop {
        match read_msg(&mut r) {
            Ok(Msg::Cell {
                index,
                attempt,
                payload,
            }) => {
                let reply = match handler(index, attempt, &payload) {
                    Ok(p) => Msg::Done { index, payload: p },
                    Err(f) => Msg::Fail {
                        index,
                        class: f.class,
                        message: f.message,
                        trap: f.trap,
                    },
                };
                let mut frame = encode_frame(&reply);
                let mut truncate = false;
                if let Some(kind) = mperf_fault::hit("ipc.frame", fault_key(index, attempt)) {
                    match kind {
                        mperf_fault::FaultKind::Trap => truncate = true,
                        _ => {
                            // Flip a body byte: the header survives, the
                            // CRC no longer matches.
                            let mid = 8 + (frame.len() - 8) / 2;
                            frame[mid] ^= 0xff;
                        }
                    }
                }
                if truncate {
                    let cut = 8 + (frame.len() - 8) / 2;
                    w.write_all(&frame[..cut]).map_err(ProtoError::Io)?;
                    w.flush().map_err(ProtoError::Io)?;
                    // A torn frame ends the stream: dying mid-write is
                    // exactly what this failpoint simulates.
                    return Ok(());
                }
                w.write_all(&frame).map_err(ProtoError::Io)?;
                w.flush().map_err(ProtoError::Io)?;
            }
            Ok(Msg::Shutdown) | Err(ProtoError::Eof) => return Ok(()),
            Ok(other) => {
                return Err(ProtoError::Corrupt(format!(
                    "unexpected message from supervisor: {other:?}"
                )))
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let frame = encode_frame(&msg);
        let mut cursor = &frame[..];
        let back = read_msg(&mut cursor).unwrap();
        assert_eq!(back, msg);
        assert_eq!(encode_frame(&back), frame, "re-encode is byte-identical");
    }

    #[test]
    fn all_messages_roundtrip_byte_identically() {
        roundtrip(Msg::hello());
        roundtrip(Msg::Cell {
            index: 7,
            attempt: 2,
            payload: vec![1, 2, 3],
        });
        roundtrip(Msg::Done {
            index: u64::MAX,
            payload: Vec::new(),
        });
        for class in [
            FailureClass::Transient,
            FailureClass::Permanent,
            FailureClass::Fatal,
        ] {
            roundtrip(Msg::Fail {
                index: 9,
                class,
                message: "phase trapped: ÷0".into(),
                trap: Some(TrapInfo {
                    pc: 0x1234,
                    func: "triad".into(),
                }),
            });
        }
        roundtrip(Msg::Fail {
            index: 0,
            class: FailureClass::Permanent,
            message: String::new(),
            trap: None,
        });
        roundtrip(Msg::Shutdown);
        roundtrip(Msg::Submit {
            job: 1,
            payload: vec![0xab; 17],
        });
        roundtrip(Msg::Sample {
            job: 2,
            payload: vec![1, 2, 3, 4],
        });
        roundtrip(Msg::CellDone {
            job: 4,
            index: 11,
            payload: vec![0; 64],
        });
        roundtrip(Msg::Cancel { job: u64::MAX });
        roundtrip(Msg::Progress {
            job: 6,
            done: 3,
            total: 4,
        });
        for code in [CODE_CANCELLED, CODE_REJECTED, CODE_TIMEOUT, CODE_STALLED] {
            roundtrip(Msg::JobStatus {
                job: 5,
                code,
                message: "cancelled by client".into(),
                payload: vec![9, 9],
            });
        }
    }

    #[test]
    fn multiple_frames_stream_back_to_back() {
        let msgs = [
            Msg::hello(),
            Msg::Cell {
                index: 0,
                attempt: 0,
                payload: vec![9],
            },
            Msg::Shutdown,
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut cursor = &stream[..];
        for m in &msgs {
            assert_eq!(&read_msg(&mut cursor).unwrap(), m);
        }
        assert!(matches!(read_msg(&mut cursor), Err(ProtoError::Eof)));
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let frame = encode_frame(&Msg::Done {
            index: 3,
            payload: vec![5; 32],
        });
        // Flip every body byte position in turn: always a CRC mismatch
        // (or malformed body), never a silently different message.
        for i in 8..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xff;
            let mut cursor = &bad[..];
            assert!(
                matches!(read_msg(&mut cursor), Err(ProtoError::Corrupt(_))),
                "flipped byte {i} must be detected"
            );
        }
    }

    #[test]
    fn torn_frames_and_oversized_lengths_are_corrupt() {
        let frame = encode_frame(&Msg::Shutdown);
        for cut in 1..frame.len() {
            let mut cursor = &frame[..cut];
            assert!(
                matches!(read_msg(&mut cursor), Err(ProtoError::Corrupt(_))),
                "cut at {cut}"
            );
        }
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 4]);
        let mut cursor = &huge[..];
        let err = read_msg(&mut cursor).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Corrupt(m) if m.contains("cap")),
            "{err}"
        );
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_corrupt() {
        let mut body = encode_body(&Msg::Shutdown);
        body[0] = 99;
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let mut cursor = &frame[..];
        assert!(matches!(read_msg(&mut cursor), Err(ProtoError::Corrupt(_))));

        let mut body = encode_body(&Msg::Shutdown);
        body.push(0);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let mut cursor = &frame[..];
        assert!(matches!(read_msg(&mut cursor), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn fault_key_separates_attempts_and_cells() {
        assert_eq!(fault_key(3, 0), 3);
        assert_ne!(fault_key(3, 0), fault_key(3, 1));
        assert_ne!(fault_key(3, 1), fault_key(4, 1));
        assert_eq!(fault_key(3, 1) & 0xffff_ffff, 3);
    }

    #[test]
    fn serve_worker_answers_cells_until_shutdown() {
        let mut input = Vec::new();
        input.extend_from_slice(&encode_frame(&Msg::Cell {
            index: 4,
            attempt: 1,
            payload: vec![10, 20],
        }));
        input.extend_from_slice(&encode_frame(&Msg::Shutdown));
        let mut out = Vec::new();
        serve_worker(&input[..], &mut out, |index, attempt, payload| {
            assert_eq!((index, attempt), (4, 1));
            Ok(payload.iter().map(|b| b * 2).collect())
        })
        .unwrap();
        let mut cursor = &out[..];
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::hello());
        assert_eq!(
            read_msg(&mut cursor).unwrap(),
            Msg::Done {
                index: 4,
                payload: vec![20, 40]
            }
        );
        assert!(matches!(read_msg(&mut cursor), Err(ProtoError::Eof)));
    }

    #[test]
    fn serve_worker_ships_failures_with_trap_info() {
        let input = encode_frame(&Msg::Cell {
            index: 2,
            attempt: 0,
            payload: Vec::new(),
        });
        let mut out = Vec::new();
        serve_worker(&input[..], &mut out, |_, _, _| {
            Err(WorkerFailure {
                class: FailureClass::Permanent,
                message: "baseline phase trapped".into(),
                trap: Some(TrapInfo {
                    pc: 0x40,
                    func: "boom".into(),
                }),
            })
        })
        .unwrap();
        let mut cursor = &out[..];
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::hello());
        match read_msg(&mut cursor).unwrap() {
            Msg::Fail {
                index,
                class,
                message,
                trap,
            } => {
                assert_eq!(index, 2);
                assert_eq!(class, FailureClass::Permanent);
                assert!(message.contains("trapped"));
                assert_eq!(trap.unwrap().func, "boom");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }
}
