//! End-to-end tests for the `miniperf serve` daemon: concurrent
//! clients over a real Unix-domain socket, streamed results checked
//! bit-identical against the in-process batch path, the shared warm
//! decode cache, cancellation, and malformed-job rejection.

use miniperf::cli::{self, JobKind, JobSpec};
use miniperf::serve::{self, decode_profile_meta, decode_sample, encode_sample};
use miniperf::sweep_supervisor::encode_run;
use miniperf::{cli_triad_setup, record, CommonOpts, RecordConfig, RooflineRequest, ServeOptions};
use mperf_sim::Platform;
use mperf_sweep::proto::{read_msg, write_msg, Msg, CODE_CANCELLED};
use mperf_sweep::serve::{handshake_accept, ClientSession};
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A short, per-test socket path (bind fails past ~100 bytes).
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mperf-{tag}-{}.sock", std::process::id()))
}

fn sweep_spec(n: u64, jobs: usize) -> JobSpec {
    JobSpec {
        n,
        jobs,
        ..JobSpec::from_opts(JobKind::Sweep, &CommonOpts::default())
    }
}

type Session = ClientSession<BufReader<UnixStream>, UnixStream>;

fn connect(socket: &std::path::Path) -> Session {
    let stream = UnixStream::connect(socket).expect("daemon is listening");
    let reader = BufReader::new(stream.try_clone().unwrap());
    ClientSession::connect(reader, stream).expect("handshake")
}

/// Submit a sweep and drain it, returning the terminal code and the
/// streamed `CellDone` payloads in cell order.
fn run_sweep(session: &mut Session, spec: &JobSpec) -> (u32, Vec<Vec<u8>>) {
    let job = session.submit(spec.encode()).unwrap();
    let mut cells: Vec<(u64, Vec<u8>)> = Vec::new();
    let res = session
        .drain_job(job, |m| {
            if let Msg::CellDone { index, payload, .. } = m {
                cells.push((*index, payload.clone()));
            }
        })
        .unwrap();
    cells.sort_by_key(|(i, _)| *i);
    (res.code, cells.into_iter().map(|(_, p)| p).collect())
}

/// The batch-path reference: the exact cells the daemon builds, run
/// through the same supervisor, each result as its journal encoding.
fn batch_reference(n: u64, jobs: usize) -> Vec<Vec<u8>> {
    let modules: Vec<_> = Platform::ALL
        .iter()
        .map(|&p| cli::triad_module(p))
        .collect();
    let cells = cli::triad_sweep_cells(&modules, None, n);
    let sweep = RooflineRequest::new()
        .jobs(jobs)
        .run_supervised(&cells)
        .unwrap();
    assert!(sweep.report.all_ok());
    sweep
        .report
        .results
        .iter()
        .map(|r| encode_run(r.as_ref().unwrap()))
        .collect()
}

#[test]
fn two_concurrent_clients_stream_bit_identical_sweeps() {
    const N: u64 = 512;
    let socket = socket_path("two-clients");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let expected = batch_reference(N, 2);

    let streamed: Vec<(u32, Vec<Vec<u8>>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let socket = &socket;
                s.spawn(move || run_sweep(&mut connect(socket), &sweep_spec(N, 2)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (code, cells) in &streamed {
        assert_eq!(*code, 0);
        assert_eq!(cells.len(), Platform::ALL.len());
        assert_eq!(cells, &expected, "streamed cells ≡ batch, byte for byte");
    }
    handle.stop();
    assert!(!socket.exists(), "socket file cleaned up on shutdown");
}

#[test]
fn second_identical_job_hits_the_warm_cache_with_zero_decodes() {
    const N: u64 = 256;
    let socket = socket_path("warm-cache");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let mut session = connect(&socket);

    let (code, first) = run_sweep(&mut session, &sweep_spec(N, 1));
    assert_eq!(code, 0);
    let after_first = handle.stats();
    assert_eq!(
        after_first.decodes,
        Platform::ALL.len() as u64,
        "cold daemon decodes each platform module exactly once"
    );

    let (code, second) = run_sweep(&mut session, &sweep_spec(N, 1));
    assert_eq!(code, 0);
    assert_eq!(second, first, "warm result is bit-identical to cold");
    let after_second = handle.stats();
    assert_eq!(
        after_second.decodes, after_first.decodes,
        "second identical job performs zero decodes"
    );
    assert_eq!(
        after_second.hits,
        after_first.hits + Platform::ALL.len() as u64
    );
    drop(session);
    handle.stop();
}

#[test]
fn cancelled_sweep_reports_the_interrupt_exit_code() {
    let socket = socket_path("cancel");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let mut session = connect(&socket);

    // The Cancel frame is read by the connection thread within
    // microseconds of Submit, while the job thread is still compiling
    // its modules — so the flag is always set before the final cell
    // completes, even at a modest problem size.
    let job = session.submit(sweep_spec(4096, 1).encode()).unwrap();
    session.cancel(job).unwrap();
    let res = session.drain_job(job, |_| {}).unwrap();
    assert_eq!(res.code, CODE_CANCELLED);
    assert_eq!(res.message, "job cancelled");
    drop(session);
    handle.stop();
}

#[test]
fn malformed_job_descriptions_fail_with_the_usage_exit_code() {
    let socket = socket_path("malformed");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let mut session = connect(&socket);

    let job = session.submit(vec![0xde, 0xad]).unwrap();
    let res = session.drain_job(job, |_| {}).unwrap();
    assert_eq!(res.code, 2, "usage-class failure, like the CLI");
    assert!(res
        .message
        .starts_with("miniperf: malformed job description"));

    // A well-formed description from an older client (schema 2, which
    // still carried a fusion byte) is refused the same way.
    let mut e = mperf_sweep::wire::Enc::new();
    e.u32(2);
    e.u8(3); // sweep
    e.u8(0); // x60
    e.u64(9_973);
    e.u32(1);
    e.u32(3);
    e.u8(0); // threaded
    e.u8(1); // fuse
    e.u8(1); // regalloc
    e.u64(256);
    e.str("");
    let job = session.submit(e.into_bytes()).unwrap();
    let res = session.drain_job(job, |_| {}).unwrap();
    assert_eq!(res.code, 2, "stale schema is a usage-class failure");
    drop(session);
    handle.stop();
}

#[test]
fn a_roofline_whose_arrays_overflow_fails_instead_of_hanging_its_client() {
    let socket = socket_path("huge-n");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let stream = UnixStream::connect(&socket).expect("daemon is listening");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let mut session = ClientSession::connect(reader, stream).expect("handshake");

    // `n * 8` overflows u64: the staging must refuse the size, not
    // panic (debug) or wrap (release).
    let spec = JobSpec {
        n: 1 << 62,
        ..JobSpec::from_opts(JobKind::Roofline, &CommonOpts::default())
    };
    let job = session.submit(spec.encode()).unwrap();
    let res = session
        .drain_job(job, |_| {})
        .expect("a terminal status before the read timeout");
    assert_eq!(res.code, 1, "{}", res.message);
    assert!(
        res.message.starts_with("roofline failed: ") && res.message.contains("out of bounds"),
        "{}",
        res.message
    );
    drop(session);
    handle.stop();
}

#[test]
fn streamed_record_reassembles_into_the_batch_profile() {
    let socket = socket_path("record");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let mut session = connect(&socket);

    let opts = CommonOpts::default();
    let spec = JobSpec::from_opts(JobKind::Record, &opts);
    let job = session.submit(spec.encode()).unwrap();
    let mut samples = Vec::new();
    let res = session
        .drain_job(job, |m| {
            if let Msg::Sample { payload, .. } = m {
                samples.push(decode_sample(payload).unwrap());
            }
        })
        .unwrap();
    assert_eq!(res.code, 0);
    let mut profile = decode_profile_meta(&res.payload).unwrap();
    profile.samples = samples;

    let (mut vm, args) = cli::demo_vm(opts.platform);
    vm.configure(opts.exec);
    let cfg = RecordConfig {
        period: opts.period,
    };
    let batch = record(&mut vm, "demo", &args, cfg).unwrap();
    assert_eq!(profile, batch, "streamed samples + summary ≡ batch record");
    for (streamed, batch) in profile.samples.iter().zip(&batch.samples) {
        assert_eq!(encode_sample(streamed), encode_sample(batch));
    }
    drop(session);
    handle.stop();
}

// ---------------------------------------------------------------------
// Supervision, drain, and restart coverage (PR 10).

/// Collect the `Progress` frames a sweep streams alongside its cells.
fn run_sweep_with_progress(
    session: &mut Session,
    spec: &JobSpec,
) -> (u32, Vec<Vec<u8>>, Vec<(u64, u64)>) {
    let job = session.submit(spec.encode()).unwrap();
    let mut cells: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut progress = Vec::new();
    let res = session
        .drain_job(job, |m| match m {
            Msg::CellDone { index, payload, .. } => cells.push((*index, payload.clone())),
            Msg::Progress { done, total, .. } => progress.push((*done, *total)),
            _ => {}
        })
        .unwrap();
    cells.sort_by_key(|(i, _)| *i);
    (
        res.code,
        cells.into_iter().map(|(_, p)| p).collect(),
        progress,
    )
}

#[test]
fn sweep_streams_progress_frames_counting_cells() {
    const N: u64 = 256;
    let socket = socket_path("progress");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let mut session = connect(&socket);
    let (code, cells, progress) = run_sweep_with_progress(&mut session, &sweep_spec(N, 1));
    assert_eq!(code, 0);
    assert_eq!(cells.len(), Platform::ALL.len());
    let total = Platform::ALL.len() as u64;
    assert_eq!(
        progress,
        (1..=total).map(|d| (d, total)).collect::<Vec<_>>(),
        "one Progress frame per cell, counting up to the total"
    );
    drop(session);
    handle.stop();
}

#[test]
fn a_live_daemons_socket_is_never_deleted() {
    let socket = socket_path("live-socket");
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    // A second daemon must refuse to start — and must not delete the
    // first daemon's socket out from under it (the PR-8 bug).
    let Err(err) = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()) else {
        panic!("second daemon must refuse to start")
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert!(err.to_string().contains("already serving"), "{err}");
    assert!(socket.exists(), "the live socket file survives the probe");
    // ... and the first daemon still answers.
    let mut session = connect(&socket);
    let job = session.submit(vec![0xbe, 0xef]).unwrap();
    assert_eq!(session.drain_job(job, |_| {}).unwrap().code, 2);
    drop(session);
    handle.stop();
}

#[test]
fn a_non_socket_file_refuses_start_and_survives() {
    let path = socket_path("not-a-socket");
    std::fs::write(&path, b"precious data").unwrap();
    let Err(err) = serve::start(&path, &CommonOpts::default(), &ServeOptions::default()) else {
        panic!("a non-socket file must refuse the start")
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    assert!(err.to_string().contains("not a socket"), "{err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"precious data",
        "refusing to start must not touch the file"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_stale_socket_from_a_dead_daemon_is_reclaimed() {
    let socket = socket_path("stale-socket");
    // A bound-then-dropped listener leaves exactly what kill -9 leaves:
    // a socket file nobody answers on.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists());
    let handle = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default())
        .expect("a stale socket is silently reclaimed");
    let mut session = connect(&socket);
    let job = session.submit(vec![1]).unwrap();
    assert_eq!(session.drain_job(job, |_| {}).unwrap().code, 2);
    drop(session);
    handle.stop();
}

/// Stopping a daemon removes its socket path only while the path still
/// names the socket it published: after an `rm` and a second daemon on
/// the same path, stopping the first leaves the second reachable, and
/// stopping the second removes the path.
#[test]
fn stopping_a_replaced_daemon_keeps_the_new_daemons_socket() {
    let socket = socket_path("replaced-socket");
    let first = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    std::fs::remove_file(&socket).unwrap();
    let second = serve::start(&socket, &CommonOpts::default(), &ServeOptions::default())
        .expect("the path is free again");
    first.stop();
    assert!(socket.exists(), "the replacement daemon's socket survives");
    let mut session = connect(&socket);
    let job = session.submit(vec![1]).unwrap();
    assert_eq!(session.drain_job(job, |_| {}).unwrap().code, 2);
    drop(session);
    second.stop();
    assert!(!socket.exists(), "the last daemon removes its own socket");
}

/// Start eight daemons at once on `dir/s.sock`, after planting a stale
/// socket there (a bound listener, dropped) when `stale` is set.
/// Exactly one start must win, every other one must see `AddrInUse`,
/// the winner must answer a handshake, and no temp name may be left
/// behind.
fn race_starts(tag: &str, stale: bool) {
    const RACERS: usize = 8;
    let dir = std::env::temp_dir().join(format!("mperf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("s.sock");
    if stale {
        drop(UnixListener::bind(&socket).unwrap());
        assert!(socket.exists(), "the stale socket file stays behind");
    }
    let barrier = Barrier::new(RACERS);
    let started: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    serve::start(&socket, &CommonOpts::default(), &ServeOptions::default())
                })
            })
            .collect();
        racers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut winners = Vec::new();
    for res in started {
        match res {
            Ok(handle) => winners.push(handle),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
        }
    }
    assert_eq!(winners.len(), 1, "exactly one daemon owns the path");
    let mut session = connect(&socket);
    let job = session.submit(vec![1]).unwrap();
    assert_eq!(session.drain_job(job, |_| {}).unwrap().code, 2);
    drop(session);
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["s.sock"], "only the published socket remains");
    winners.pop().unwrap().stop();
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
    std::fs::remove_dir(&dir).unwrap();
}

/// Racing daemons on one fresh path: the socket file appears only once
/// it listens, so no racer's stale-socket probe is refused and deletes
/// it. Exactly one start wins, every other one sees `AddrInUse`, and
/// no temp name is left behind.
#[test]
fn racing_starts_on_one_path_have_exactly_one_winner() {
    race_starts("race", false);
}

/// Racing daemons over a dead daemon's socket: every racer's probe is
/// refused, so without the directory lock one racer could remove the
/// socket another had just published, orphaning that daemon. Exactly
/// one start wins and it is the one reachable at the path.
#[test]
fn racing_starts_over_a_stale_socket_have_exactly_one_winner() {
    race_starts("stale-race", true);
}

/// A fake daemon on `socket` that answers one submit with a single
/// `CellDone` for cell 0 carrying `run`, then a success status with
/// `summary`, and holds the connection until the client hangs up.
fn fake_daemon(socket: &Path, run: Vec<u8>, summary: Vec<u8>) -> std::thread::JoinHandle<()> {
    let listener = UnixListener::bind(socket).unwrap();
    std::thread::spawn(move || {
        let (mut w, _) = listener.accept().unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        handshake_accept(&mut r, &mut w).unwrap();
        let Msg::Submit { job, .. } = read_msg(&mut r).unwrap() else {
            panic!("expected a submit")
        };
        let done = Msg::CellDone {
            job,
            index: 0,
            payload: run,
        };
        write_msg(&mut w, &done).unwrap();
        let status = Msg::JobStatus {
            job,
            code: 0,
            message: String::new(),
            payload: summary,
        };
        write_msg(&mut w, &status).unwrap();
        while read_msg(&mut r).is_ok() {}
    })
}

/// A run that decodes but has no region cannot be rendered: `submit`
/// reports a bad payload (exit 1) instead of indexing past the end.
#[test]
fn a_regionless_result_fails_submit_instead_of_aborting_it() {
    let opts = CommonOpts::default();
    for (kind, platform) in [
        (JobKind::Roofline, opts.platform),
        (JobKind::Sweep, Platform::ALL[0]),
    ] {
        let socket = socket_path(&format!("regionless-{kind:?}"));
        let mut run = RooflineRequest::new()
            .run(
                &cli::triad_module(platform),
                &platform.spec(),
                "triad",
                &cli_triad_setup(8),
            )
            .unwrap();
        run.regions.clear();
        // An empty sweep summary (four zero list counts), so a sweep
        // client goes on to render its cells.
        let daemon = fake_daemon(&socket, encode_run(&run), vec![0; 16]);
        let spec = JobSpec::from_opts(kind, &opts);
        assert_eq!(
            serve::run_submit(&socket, &spec, &opts, false),
            1,
            "{kind:?}"
        );
        daemon.join().unwrap();
        std::fs::remove_file(&socket).unwrap();
    }
}

#[test]
fn graceful_drain_lets_the_in_flight_job_finish() {
    const N: u64 = 1024;
    let socket = socket_path("drain");
    let mut handle =
        serve::start(&socket, &CommonOpts::default(), &ServeOptions::default()).unwrap();
    let expected = batch_reference(N, 1);

    let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
    let client = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut session = connect(&socket);
            let spec = sweep_spec(N, 1);
            let job = session.submit(spec.encode()).unwrap();
            let mut cells: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut signalled = false;
            let res = session
                .drain_job(job, |m| {
                    if let Msg::CellDone { index, payload, .. } = m {
                        cells.push((*index, payload.clone()));
                        if !signalled {
                            signalled = true;
                            let _ = started_tx.send(());
                        }
                    }
                })
                .unwrap();
            cells.sort_by_key(|(i, _)| *i);
            (
                res.code,
                cells.into_iter().map(|(_, p)| p).collect::<Vec<_>>(),
            )
        }
    });
    // Drain once the job is demonstrably mid-flight (first cell done).
    started_rx.recv().unwrap();
    handle.drain();
    assert!(!socket.exists(), "drain reclaims the socket file");

    let (code, cells) = client.join().unwrap();
    assert_eq!(code, 0, "an in-flight job finishes under graceful drain");
    assert_eq!(
        cells, expected,
        "drained job's stream ≡ batch, byte for byte"
    );
}

#[test]
fn warm_restart_from_the_cache_dir_performs_zero_decodes() {
    const N: u64 = 256;
    let socket = socket_path("warm-restart");
    let cache_dir = std::env::temp_dir().join(format!("mperf-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let sopts = ServeOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ServeOptions::default()
    };

    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();
    let mut session = connect(&socket);
    let (code, first) = run_sweep(&mut session, &sweep_spec(N, 1));
    assert_eq!(code, 0);
    let stats = handle.stats();
    assert_eq!(stats.decodes, Platform::ALL.len() as u64);
    assert_eq!(stats.preloaded, 0, "cold start had nothing to preload");
    drop(session);
    handle.stop();

    // Corrupt and foreign entries must read as misses, never errors.
    std::fs::write(cache_dir.join("zzzz.mpdc"), b"not hex, not valid").unwrap();
    std::fs::write(cache_dir.join("0000000000000000.mpdc"), b"garbage").unwrap();
    std::fs::write(cache_dir.join("README"), b"ignore me").unwrap();

    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();
    let stats = handle.stats();
    assert_eq!(
        stats.preloaded,
        Platform::ALL.len() as u64,
        "every valid entry re-derived at startup; junk skipped silently"
    );
    assert_eq!(stats.decodes, 0);
    let mut session = connect(&socket);
    let (code, second) = run_sweep(&mut session, &sweep_spec(N, 1));
    assert_eq!(code, 0);
    assert_eq!(second, first, "warm-restart result is bit-identical");
    let stats = handle.stats();
    assert_eq!(stats.decodes, 0, "a warm restart performs zero decodes");
    assert_eq!(stats.hits, Platform::ALL.len() as u64);
    drop(session);
    handle.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A daemon options block persisting its decode cache under a fresh,
/// empty per-test directory.
fn cache_opts(tag: &str) -> (PathBuf, ServeOptions) {
    let dir = std::env::temp_dir().join(format!("mperf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sopts = ServeOptions {
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    (dir, sopts)
}

/// The decode cache journal is created at the first fresh decode, not
/// at daemon start, and a torn tail still preloads every complete
/// entry.
#[test]
fn cache_journal_is_created_lazily_and_survives_a_torn_tail() {
    let socket = socket_path("lazy-cache");
    let (dir, sopts) = cache_opts("lazy-cache");
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "start writes nothing"
    );
    let (code, _) = run_sweep(&mut connect(&socket), &sweep_spec(128, 1));
    assert_eq!(code, 0);
    handle.stop();
    // A crash mid-append: a frame header promising more than follows.
    let path = dir.join("decode-cache.jrnl");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[200, 0, 0, 0, 1, 2, 3, 4, 5]);
    std::fs::write(&path, &bytes).unwrap();

    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();
    let stats = handle.stats();
    assert_eq!(stats.preloaded, Platform::ALL.len() as u64);
    assert_eq!(stats.decodes, 0);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_foreign_file_at_the_cache_journal_path_disables_persistence() {
    let socket = socket_path("foreign-cache");
    let (dir, sopts) = cache_opts("foreign-cache");
    let path = dir.join("decode-cache.jrnl");
    std::fs::write(&path, b"precious data").unwrap();
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts)
        .expect("a foreign cache file is no error");
    assert_eq!(handle.stats().preloaded, 0);
    let (code, _) = run_sweep(&mut connect(&socket), &sweep_spec(128, 1));
    assert_eq!(code, 0, "jobs still run");
    handle.stop();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"precious data",
        "never overwritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_restarts_and_resumes_a_keyed_sweep_byte_identically() {
    const N: u64 = 4096;
    let socket = socket_path("kill9");
    let state_dir = std::env::temp_dir().join(format!("mperf-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_file(&socket);

    // A real daemon process, so kill -9 is a real crash: no destructors,
    // no socket cleanup, no flushed state beyond the journal.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_miniperf"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--state-dir",
            state_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while UnixStream::connect(&socket).is_err() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon did not come up"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let mut spec = sweep_spec(N, 1);
    spec.job_key = "kill9-resume".into();
    let mut session = connect(&socket);
    let _job = session.submit(spec.encode()).unwrap();
    // Let the sweep demonstrably start (first checkpointed cell), then
    // crash the daemon hard.
    loop {
        match session.next_event() {
            Ok(Msg::CellDone { .. }) => break,
            Ok(_) => continue,
            Err(e) => panic!("daemon died before the first cell: {e}"),
        }
    }
    child.kill().expect("SIGKILL the daemon");
    child.wait().unwrap();
    // The crashed session ends in a transport error, never a JobStatus.
    loop {
        match session.next_event() {
            Ok(Msg::JobStatus { .. }) => panic!("no terminal status crosses a crash"),
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    drop(session);
    assert!(socket.exists(), "kill -9 leaves the stale socket behind");
    let journal_bytes: u64 = std::fs::read_dir(&state_dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".jrnl"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(
        journal_bytes > 8,
        "at least one cell was checkpointed before the crash"
    );

    // Restart (in-process this time): the stale socket is reclaimed,
    // and resubmitting the same spec under the same key resumes from
    // the journal — replayed cells stream through the same events, so
    // the reassembled report is byte-identical to a fault-free run.
    let sopts = ServeOptions {
        state_dir: Some(state_dir.clone()),
        ..ServeOptions::default()
    };
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts)
        .expect("restart reclaims the stale socket");
    let mut session = connect(&socket);
    let (code, cells) = run_sweep(&mut session, &spec);
    assert_eq!(code, 0);
    assert_eq!(
        cells,
        batch_reference(N, 1),
        "resumed stream ≡ fault-free batch, byte for byte"
    );
    drop(session);
    handle.stop();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A `miniperf serve` process, killed when dropped so a failed
/// assertion leaves no daemon behind.
struct Daemon(std::process::Child);

impl Daemon {
    /// Spawn `cmd` (a daemon serving on `socket`) and wait for the
    /// socket: the path appears only once the daemon listens.
    fn spawn(mut cmd: std::process::Command, socket: &Path) -> Daemon {
        let _ = std::fs::remove_file(socket);
        let child = cmd
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let daemon = Daemon(child);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon did not come up");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// How many entries `/proc/<pid>/<dir>` lists (threads under `task`,
/// descriptors under `fd`).
fn proc_entries(pid: u32, dir: &str) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/{dir}"))
        .expect("the daemon is alive")
        .count()
}

/// The daemon's thread and descriptor counts once five readings 20 ms
/// apart agree.
fn settled_cost(pid: u32) -> (usize, usize) {
    let read = || (proc_entries(pid, "task"), proc_entries(pid, "fd"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut last, mut same) = (read(), 0);
    while same < 5 {
        assert!(Instant::now() < deadline, "never settled: {last:?}");
        std::thread::sleep(Duration::from_millis(20));
        let now = read();
        same = if now == last { same + 1 } else { 0 };
        last = now;
    }
    last
}

/// Job threads write their own frames, so an idle connection holds
/// only its reading thread and two descriptors (the accepted stream
/// and its read clone).
#[test]
fn a_connection_costs_one_thread_and_two_descriptors() {
    let socket = socket_path("conn-cost");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_miniperf"));
    cmd.args(["serve", "--socket", socket.to_str().unwrap()]);
    let daemon = Daemon::spawn(cmd, &socket);
    let (threads, fds) = settled_cost(daemon.0.id());
    let sessions: Vec<Session> = (0..8).map(|_| connect(&socket)).collect();
    let (threads_after, fds_after) = settled_cost(daemon.0.id());
    assert_eq!(
        (threads_after - threads, fds_after - fds),
        (8, 16),
        "8 connections: (threads, descriptors) added"
    );
    drop(sessions);
    drop(daemon);
    let _ = std::fs::remove_file(&socket);
}

/// An accept that fails (here: out of descriptors) must not end the
/// accept loop, which would unlink the socket and leave the daemon
/// serving nobody until a signal.
#[test]
fn a_failed_accept_keeps_the_daemon_serving() {
    let socket = socket_path("accept-emfile");
    let bin = env!("CARGO_BIN_EXE_miniperf");
    // 24 descriptors: ten idle connections (two each) take what the
    // daemon leaves free, and the next accept fails with EMFILE.
    let mut cmd = std::process::Command::new("sh");
    cmd.args([
        "-c",
        "ulimit -n 24; exec \"$0\" serve --socket \"$1\"",
        bin,
        socket.to_str().unwrap(),
    ]);
    let daemon = Daemon::spawn(cmd, &socket);
    let idle: Vec<UnixStream> = (0..30)
        .map(|_| UnixStream::connect(&socket).expect("the backlog takes 30"))
        .collect();
    // Once the daemon's descriptors settle, its accepts are failing.
    settled_cost(daemon.0.id());
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let served = socket.exists()
            && std::process::Command::new(bin)
                .args(["submit", "stat", "--socket", socket.to_str().unwrap()])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .expect("run submit")
                .success();
        if served {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the daemon stopped serving after a failed accept"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(daemon);
    let _ = std::fs::remove_file(&socket);
}
