//! Client/daemon session layer for `miniperf serve`.
//!
//! [`crate::proto`] defines the framed message set; this module pins
//! down *who says what when* for the socket-facing subset and wraps
//! the client side in [`ClientSession`]. Everything is generic over
//! [`Read`]/[`Write`], so the same code runs over a Unix-domain socket
//! in production and over in-memory pipes in tests.
//!
//! ## Session shape
//!
//! ```text
//! client                              daemon
//!   │ ── Hello ───────────────────────▶ │   (client speaks first)
//!   │ ◀─────────────────────── Hello ── │   (mismatch ⇒ drop)
//!   │ ── Submit{job, spec} ───────────▶ │
//!   │ ◀── Sample/CellDone ───────────── │   (streamed as produced)
//!   │ ◀── Progress{job, done, total} ── │   (informational, sweeps)
//!   │ ◀── JobStatus{job, code, …} ───── │   (terminal, exactly one)
//!   │ ── Cancel{job} ─────────────────▶ │   (any time before status)
//!   │ ── Shutdown or EOF ─────────────▶ │   (end of session)
//! ```
//!
//! A job is *terminated* by exactly one [`Msg::JobStatus`]; every
//! streamed event before it carries the job id the client chose in its
//! [`Msg::Submit`]. A submit can also terminate *immediately* — the
//! daemon sheds work it will not run (admission control, drain mode)
//! with a `JobStatus` carrying [`crate::proto::CODE_REJECTED`] and no
//! preceding events. The daemon buffers a job's events only in a
//! *bounded* per-connection queue — each is framed and flushed as the
//! execution bridge produces it — so client code must be prepared to
//! interleave reads with its own rendering; a client that stops
//! reading long enough to fill that queue is declared stalled and its
//! connection is dropped.

use crate::proto::{read_msg, write_msg, Msg, ProtoError, MAGIC, SCHEMA};
use std::io::{Read, Write};

/// Validate a peer's [`Msg::Hello`] against this binary's protocol
/// version. Any mismatch is fatal for the session.
///
/// # Errors
/// [`ProtoError::Corrupt`] naming the mismatch (wrong magic or schema),
/// or when `msg` is not a `Hello` at all.
pub fn check_hello(msg: &Msg) -> Result<(), ProtoError> {
    match msg {
        Msg::Hello { magic, schema } => {
            if magic != MAGIC {
                return Err(ProtoError::Corrupt(format!(
                    "bad protocol magic {magic:?} (want {MAGIC:?})"
                )));
            }
            if *schema != SCHEMA {
                return Err(ProtoError::Corrupt(format!(
                    "schema mismatch: peer speaks {schema}, this binary speaks {SCHEMA}"
                )));
            }
            Ok(())
        }
        other => Err(ProtoError::Corrupt(format!(
            "expected Hello, got {other:?}"
        ))),
    }
}

/// Daemon side of the handshake: read the client's `Hello`, validate
/// it, and reply with our own. Call once per accepted connection
/// before entering the message loop.
///
/// # Errors
/// Handshake violations ([`check_hello`]) and transport failures. On
/// error the connection must be dropped — nothing was negotiated.
pub fn handshake_accept<R: Read, W: Write>(r: &mut R, w: &mut W) -> Result<(), ProtoError> {
    check_hello(&read_msg(r)?)?;
    write_msg(w, &Msg::hello()).map_err(ProtoError::Io)
}

/// Client side of the handshake: send our `Hello` first, then validate
/// the daemon's reply.
///
/// # Errors
/// Handshake violations ([`check_hello`]) and transport failures.
pub fn handshake_connect<R: Read, W: Write>(r: &mut R, w: &mut W) -> Result<(), ProtoError> {
    write_msg(w, &Msg::hello()).map_err(ProtoError::Io)?;
    check_hello(&read_msg(r)?)
}

/// A job's terminal outcome, unpacked from [`Msg::JobStatus`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Batch-CLI-compatible exit code (or
    /// [`crate::proto::CODE_CANCELLED`]).
    pub code: u32,
    /// Human-readable failure text; empty on success. Rendered to
    /// stderr by `miniperf submit` exactly as the batch command would
    /// have printed it.
    pub message: String,
    /// Job-kind-specific summary codec (profile totals, stat counts,
    /// sweep retry accounting).
    pub payload: Vec<u8>,
}

/// The client end of a serve session: handshake on construction, then
/// submit jobs and drain their event streams.
pub struct ClientSession<R: Read, W: Write> {
    r: R,
    w: W,
    next_job: u64,
}

impl<R: Read, W: Write> ClientSession<R, W> {
    /// Perform the client handshake over an already-connected pair of
    /// stream halves (e.g. a `UnixStream` and its `try_clone`).
    ///
    /// # Errors
    /// Handshake violations and transport failures.
    pub fn connect(mut r: R, mut w: W) -> Result<Self, ProtoError> {
        handshake_connect(&mut r, &mut w)?;
        Ok(ClientSession { r, w, next_job: 1 })
    }

    /// Submit one encoded job description; returns the job id chosen
    /// for it (unique within this session).
    ///
    /// # Errors
    /// Transport failures.
    pub fn submit(&mut self, payload: Vec<u8>) -> Result<u64, ProtoError> {
        let job = self.next_job;
        self.next_job += 1;
        write_msg(&mut self.w, &Msg::Submit { job, payload }).map_err(ProtoError::Io)?;
        Ok(job)
    }

    /// Ask the daemon to cancel `job`. The job still terminates with a
    /// [`Msg::JobStatus`] (normally [`crate::proto::CODE_CANCELLED`],
    /// or its natural code if it won the race).
    ///
    /// # Errors
    /// Transport failures.
    pub fn cancel(&mut self, job: u64) -> Result<(), ProtoError> {
        write_msg(&mut self.w, &Msg::Cancel { job }).map_err(ProtoError::Io)
    }

    /// Blocking read of the next daemon message.
    ///
    /// # Errors
    /// [`ProtoError::Eof`] when the daemon closed the session, plus
    /// framing/transport failures.
    pub fn next_event(&mut self) -> Result<Msg, ProtoError> {
        read_msg(&mut self.r)
    }

    /// Drain `job`'s event stream: feed every `Sample`/`CellDone`/
    /// `Progress` for it to `on_event` as it arrives, and
    /// return when the terminal [`Msg::JobStatus`] lands.
    ///
    /// # Errors
    /// [`ProtoError::Corrupt`] if the daemon streams an event for a
    /// different job (one job in flight per session is the client's
    /// contract) or an out-of-role message; framing/transport failures.
    pub fn drain_job<F>(&mut self, job: u64, mut on_event: F) -> Result<JobResult, ProtoError>
    where
        F: FnMut(&Msg),
    {
        loop {
            let msg = self.next_event()?;
            let event_job = match &msg {
                Msg::Sample { job, .. } | Msg::CellDone { job, .. } | Msg::Progress { job, .. } => {
                    *job
                }
                Msg::JobStatus {
                    job: status_job,
                    code,
                    message,
                    payload,
                } => {
                    if *status_job != job {
                        return Err(ProtoError::Corrupt(format!(
                            "status for job {status_job} while draining job {job}"
                        )));
                    }
                    return Ok(JobResult {
                        code: *code,
                        message: message.clone(),
                        payload: payload.clone(),
                    });
                }
                other => {
                    return Err(ProtoError::Corrupt(format!(
                        "unexpected message from daemon: {other:?}"
                    )))
                }
            };
            if event_job != job {
                return Err(ProtoError::Corrupt(format!(
                    "event for job {event_job} while draining job {job}"
                )));
            }
            on_event(&msg);
        }
    }

    /// Politely end the session (the daemon also accepts a bare EOF).
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(mut self) -> Result<(), ProtoError> {
        write_msg(&mut self.w, &Msg::Shutdown).map_err(ProtoError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, CODE_CANCELLED};

    #[test]
    fn handshake_accept_refuses_version_skew() {
        let stale = encode_frame(&Msg::Hello {
            magic: *MAGIC,
            schema: SCHEMA + 1,
        });
        let mut out = Vec::new();
        let err = handshake_accept(&mut &stale[..], &mut out).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Corrupt(m) if m.contains("schema mismatch")),
            "{err}"
        );
        assert!(out.is_empty(), "no Hello reply to a refused client");

        let alien = encode_frame(&Msg::Hello {
            magic: *b"NOTMPSW1",
            schema: SCHEMA,
        });
        let err = handshake_accept(&mut &alien[..], &mut Vec::new()).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Corrupt(m) if m.contains("magic")),
            "{err}"
        );
    }

    #[test]
    fn client_session_submits_and_drains_one_job() {
        // Script the daemon side of a whole session into a byte stream.
        let mut daemon_out = Vec::new();
        for m in [
            Msg::hello(),
            Msg::Sample {
                job: 1,
                payload: vec![1],
            },
            Msg::CellDone {
                job: 1,
                index: 0,
                payload: vec![2, 3],
            },
            Msg::Progress {
                job: 1,
                done: 1,
                total: 4,
            },
            Msg::JobStatus {
                job: 1,
                code: 0,
                message: String::new(),
                payload: vec![7],
            },
        ] {
            daemon_out.extend_from_slice(&encode_frame(&m));
        }
        let mut client_out = Vec::new();
        let mut s = ClientSession::connect(&daemon_out[..], &mut client_out).unwrap();
        let job = s.submit(vec![0xaa]).unwrap();
        assert_eq!(job, 1);
        let mut events = Vec::new();
        let result = s.drain_job(job, |m| events.push(m.clone())).unwrap();
        assert_eq!(result.code, 0);
        assert_eq!(result.payload, vec![7]);
        assert_eq!(events.len(), 3);
        assert!(
            matches!(
                events[2],
                Msg::Progress {
                    job: 1,
                    done: 1,
                    total: 4
                }
            ),
            "Progress frames flow through drain_job like any other event"
        );
        // The client wrote Hello then Submit, framed.
        let mut cursor = &client_out[..];
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::hello());
        assert_eq!(
            read_msg(&mut cursor).unwrap(),
            Msg::Submit {
                job: 1,
                payload: vec![0xaa]
            }
        );
    }

    #[test]
    fn drain_rejects_cross_job_events() {
        let mut daemon_out = Vec::new();
        for m in [
            Msg::hello(),
            Msg::Sample {
                job: 2,
                payload: vec![1],
            },
        ] {
            daemon_out.extend_from_slice(&encode_frame(&m));
        }
        let mut s = ClientSession::connect(&daemon_out[..], Vec::new()).unwrap();
        let err = s.drain_job(1, |_| {}).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Corrupt(m) if m.contains("job 2")),
            "{err}"
        );
    }

    #[test]
    fn cancelled_status_surfaces_its_code() {
        let mut daemon_out = Vec::new();
        for m in [
            Msg::hello(),
            Msg::JobStatus {
                job: 1,
                code: CODE_CANCELLED,
                message: "cancelled".into(),
                payload: Vec::new(),
            },
        ] {
            daemon_out.extend_from_slice(&encode_frame(&m));
        }
        let mut s = ClientSession::connect(&daemon_out[..], Vec::new()).unwrap();
        s.submit(Vec::new()).unwrap();
        let result = s.drain_job(1, |_| panic!("no events expected")).unwrap();
        assert_eq!(result.code, CODE_CANCELLED);
    }
}
