//! Deterministic fault injection against the `miniperf serve` daemon:
//! stalled clients, hung jobs, admission-control shedding, drain-mode
//! rejection, and dropped accepts, all driven by the serve-level
//! failpoints (`serve.client_stall`, `serve.job_hang`, `serve.accept`)
//! with *exact* counter accounting asserted through [`ServeStats`].
//! Runs only with `--features failpoints` (the CI fault job).
//!
//! Connection ids and job sequence numbers are daemon-global and
//! assigned in arrival order, so tests that connect/submit sequentially
//! can key faults deterministically: the first connection is conn 1,
//! the first submit anywhere is job seq 1.

#![cfg(feature = "failpoints")]

use miniperf::cli::{JobKind, JobSpec};
use miniperf::serve;
use miniperf::sweep_supervisor::encode_run;
use miniperf::{CommonOpts, RooflineRequest, ServeOptions};
use mperf_fault::{FaultKind, FaultPlan};
use mperf_sim::Platform;
use mperf_sweep::proto::{Msg, CODE_CANCELLED, CODE_PANICKED, CODE_REJECTED, CODE_TIMEOUT};
use mperf_sweep::serve::ClientSession;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mperf-fp-{tag}-{}.sock", std::process::id()))
}

/// Fast supervision clocks so stall/deadline/drain verdicts land in
/// tens of milliseconds, not minutes.
fn fast_opts() -> ServeOptions {
    ServeOptions {
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    }
}

fn sweep_spec(n: u64) -> JobSpec {
    JobSpec {
        n,
        jobs: 1,
        ..JobSpec::from_opts(JobKind::Sweep, &CommonOpts::default())
    }
}

type Session = ClientSession<BufReader<UnixStream>, UnixStream>;

fn connect(socket: &std::path::Path) -> Session {
    let stream = UnixStream::connect(socket).expect("daemon is listening");
    let reader = BufReader::new(stream.try_clone().unwrap());
    ClientSession::connect(reader, stream).expect("handshake")
}

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

fn batch_reference(n: u64) -> Vec<Vec<u8>> {
    let modules: Vec<_> = Platform::ALL
        .iter()
        .map(|&p| miniperf::cli::triad_module(p))
        .collect();
    let cells = miniperf::cli::triad_sweep_cells(&modules, None, n);
    let sweep = RooflineRequest::new()
        .jobs(1)
        .run_supervised(&cells)
        .unwrap();
    sweep
        .report
        .results
        .iter()
        .map(|r| encode_run(r.as_ref().unwrap()))
        .collect()
}

#[test]
fn stalled_client_is_torn_down_within_its_deadline_and_counted_once() {
    const N: u64 = 256;
    let socket = socket_path("stall");
    // Conn 1's writer parks on its first frame — exactly what a full
    // kernel buffer under a non-reading client does to a write.
    let _armed = mperf_fault::arm_scoped(FaultPlan::new(1).inject(
        "serve.client_stall",
        1,
        FaultKind::Stall,
        1,
    ));
    let sopts = ServeOptions {
        queue_frames: 2,
        stall_ticks: 10,
        ..fast_opts()
    };
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();

    // Conn 1: submit, then never read. The job streams into the bounded
    // queue, the parked writer never drains it, and the sending job
    // thread — not any daemon poll loop — detects the stall.
    let mut stalled = connect(&socket);
    stalled.submit(sweep_spec(N).encode()).unwrap();
    let t0 = Instant::now();
    let verdict = Duration::from_secs(30);
    while handle.stats().stalled_clients == 0 {
        assert!(
            t0.elapsed() < verdict,
            "stall must be declared within the tick-bounded deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Conn 2 is completely unaffected: byte-identical results.
    let mut healthy = connect(&socket);
    let (code, cells) = run_sweep(&mut healthy, &sweep_spec(N));
    assert_eq!(code, 0);
    assert_eq!(cells, batch_reference(N), "survivor stream ≡ batch");

    let stats = handle.stats();
    assert_eq!(stats.stalled_clients, 1, "exactly the injected stall");
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.shed_conns, 0);
    drop((stalled, healthy));
    handle.stop();
}

#[test]
fn hung_job_is_reaped_at_its_deadline_with_the_timeout_status() {
    let socket = socket_path("hang");
    let _armed =
        mperf_fault::arm_scoped(FaultPlan::new(2).inject("serve.job_hang", 1, FaultKind::Stall, 1));
    let sopts = ServeOptions {
        job_deadline_ticks: 20,
        ..fast_opts()
    };
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();

    let mut session = connect(&socket);
    let job = session
        .submit(JobSpec::from_opts(JobKind::Record, &CommonOpts::default()).encode())
        .unwrap();
    let t0 = Instant::now();
    let res = session.drain_job(job, |_| {}).unwrap();
    assert_eq!(res.code, CODE_TIMEOUT);
    assert!(res.message.contains("deadline"), "{}", res.message);
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the deadline supervisor is tick-bounded, not wall-clock-unbounded"
    );
    let stats = handle.stats();
    assert_eq!(stats.timed_out, 1, "exactly the injected hang");
    assert_eq!(stats.stalled_clients, 0);
    assert_eq!(stats.rejected, 0);
    drop(session);
    handle.stop();
}

#[test]
fn submits_beyond_max_jobs_are_shed_immediately_not_queued() {
    let socket = socket_path("shed");
    // Job seq 1 hangs (occupying the whole table); no deadline, so only
    // an explicit cancel releases it.
    let _armed =
        mperf_fault::arm_scoped(FaultPlan::new(3).inject("serve.job_hang", 1, FaultKind::Stall, 1));
    let sopts = ServeOptions {
        max_jobs: 1,
        job_deadline_ticks: 0,
        ..fast_opts()
    };
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();

    let mut holder = connect(&socket);
    let held = holder
        .submit(JobSpec::from_opts(JobKind::Stat, &CommonOpts::default()).encode())
        .unwrap();
    // The hung job occupies the table the moment it is admitted; poll
    // the rejection (admission is racy only until the first submit is
    // registered, which happens before its job thread spawns).
    let mut over = connect(&socket);
    let spec = JobSpec::from_opts(JobKind::Stat, &CommonOpts::default());
    let t0 = Instant::now();
    let res = loop {
        let job = over.submit(spec.encode()).unwrap();
        let res = over.drain_job(job, |_| {}).unwrap();
        if res.code == CODE_REJECTED {
            break res;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "a full job table must shed, got only code {}",
            res.code
        );
    };
    assert!(res.message.contains("job table full"), "{}", res.message);
    assert!(handle.stats().rejected >= 1, "every shed submit is counted");

    // Cancelling the hog frees the table; the next submit is admitted.
    holder.cancel(held).unwrap();
    let res = holder.drain_job(held, |_| {}).unwrap();
    assert_eq!(res.code, CODE_CANCELLED);
    let (code, _cells) = run_sweep(&mut over, &sweep_spec(64));
    assert_eq!(code, 0, "the table drains and admission recovers");
    assert_eq!(handle.stats().timed_out, 0);
    assert_eq!(handle.stats().stalled_clients, 0);
    drop((holder, over));
    handle.stop();
}

#[test]
fn drain_sheds_new_submits_and_force_cancels_the_hung_job() {
    let socket = socket_path("drain-shed");
    let _armed =
        mperf_fault::arm_scoped(FaultPlan::new(4).inject("serve.job_hang", 1, FaultKind::Stall, 1));
    let sopts = ServeOptions {
        job_deadline_ticks: 0,
        drain_deadline_ticks: 25,
        ..fast_opts()
    };
    let mut handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();

    let mut session = connect(&socket);
    let hung = session
        .submit(JobSpec::from_opts(JobKind::Record, &CommonOpts::default()).encode())
        .unwrap();
    // A connection's frames are handled in order: once a malformed
    // submit's status is back, the hung job has been admitted (as
    // daemon seq 1), so the drain below cannot shed it.
    let probe = session.submit(vec![0xff]).unwrap();
    assert_eq!(session.drain_job(probe, |_| {}).unwrap().code, 2);
    let drainer = std::thread::spawn(move || {
        handle.drain();
        handle
    });

    // Drain flips the shed switch before anything else; malformed
    // payloads make pre-drain submits terminate instantly (code 2,
    // decoded on the job thread) so the poll loop is fast either way.
    let mut statuses: std::collections::HashMap<u64, (u32, String)> =
        std::collections::HashMap::new();
    let t0 = Instant::now();
    'outer: loop {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "drain mode must start shedding submits"
        );
        let job = session.submit(vec![0xff]).unwrap();
        loop {
            match session.next_event() {
                Ok(Msg::JobStatus {
                    job: j,
                    code,
                    message,
                    ..
                }) => {
                    if code == CODE_REJECTED && message.contains("draining") {
                        assert_eq!(j, job, "the shed answer names the submit");
                        break 'outer;
                    }
                    statuses.insert(j, (code, message));
                    if j == job {
                        break;
                    }
                }
                Ok(_) => continue,
                Err(e) => panic!("daemon vanished while draining: {e}"),
            }
        }
    }

    // The hung job cannot finish; the drain deadline force-cancels it
    // and its terminal status still reaches the client.
    let t0 = Instant::now();
    while !statuses.contains_key(&hung) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the drain deadline must force-cancel the hung job"
        );
        match session.next_event() {
            Ok(Msg::JobStatus {
                job: j,
                code,
                message,
                ..
            }) => {
                statuses.insert(j, (code, message));
            }
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let (code, message) = statuses
        .get(&hung)
        .expect("terminal status for the hung job");
    assert_eq!(*code, CODE_CANCELLED);
    assert!(message.contains("draining"), "{message}");

    let handle = drainer.join().unwrap();
    assert!(handle.stats().rejected >= 1);
    assert!(!socket.exists(), "drain reclaims the socket file");
}

#[test]
fn a_panicking_job_answers_101_and_its_connection_keeps_serving() {
    let socket = socket_path("panic");
    let _armed =
        mperf_fault::arm_scoped(FaultPlan::new(5).inject("serve.job_hang", 1, FaultKind::Panic, 1));
    let sopts = ServeOptions {
        tick: Duration::from_millis(5),
        drain_deadline_ticks: 200,
        ..ServeOptions::default()
    };
    let mut handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();

    let mut session = connect(&socket);
    let job = session.submit(sweep_spec(64).encode()).unwrap();
    let res = session.drain_job(job, |_| {}).unwrap();
    assert_eq!(res.code, CODE_PANICKED, "{}", res.message);
    assert!(
        res.message.starts_with("job panicked: ")
            && res.message.contains(mperf_fault::PANIC_PREFIX),
        "{}",
        res.message
    );

    // Same connection, next job: unaffected, byte-identical to batch.
    let (code, cells) = run_sweep(&mut session, &sweep_spec(64));
    assert_eq!(code, 0);
    assert_eq!(cells, batch_reference(64));

    // The panicked job released its table entry: drain has nothing to
    // wait for.
    let t0 = Instant::now();
    handle.drain();
    assert!(
        t0.elapsed() < sopts.tick * sopts.drain_deadline_ticks,
        "drain took {:?}",
        t0.elapsed()
    );
    drop(session);
}

#[test]
fn accept_fault_sheds_the_connection_before_the_handshake() {
    let socket = socket_path("accept");
    let _armed =
        mperf_fault::arm_scoped(FaultPlan::new(5).inject("serve.accept", 1, FaultKind::Exit, 1));
    let handle = serve::start(&socket, &CommonOpts::default(), &fast_opts()).unwrap();

    // The first connection is accepted and immediately dropped: the
    // client's handshake read sees EOF, never a Hello.
    let stream = UnixStream::connect(&socket).expect("connect itself succeeds");
    let reader = BufReader::new(stream.try_clone().unwrap());
    assert!(
        ClientSession::connect(reader, stream).is_err(),
        "the shed connection dies before the handshake"
    );
    // The second connection (conn 2) is served normally.
    let mut session = connect(&socket);
    let job = session.submit(vec![0x00]).unwrap();
    assert_eq!(session.drain_job(job, |_| {}).unwrap().code, 2);

    let t0 = Instant::now();
    while handle.stats().shed_conns == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(handle.stats().shed_conns, 1, "exactly the injected drop");
    drop(session);
    handle.stop();
}

#[test]
fn combined_stall_and_hang_account_exactly_and_spare_the_healthy_client() {
    const N: u64 = 128;
    let socket = socket_path("combined");
    // Conn 1 stalls; the job submitted second (seq 2, from conn 2)
    // hangs. Conn 3 is healthy and must stream byte-identical results
    // while both faults are being handled.
    let _armed = mperf_fault::arm_scoped(
        FaultPlan::new(6)
            .inject("serve.client_stall", 1, FaultKind::Stall, 1)
            .inject("serve.job_hang", 2, FaultKind::Stall, 1),
    );
    let sopts = ServeOptions {
        queue_frames: 2,
        stall_ticks: 10,
        job_deadline_ticks: 500,
        ..fast_opts()
    };
    let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();

    // Conn 1 (job seq 1): submits, never reads.
    let mut stalled = connect(&socket);
    stalled.submit(sweep_spec(N).encode()).unwrap();
    // Conn 2 (job seq 2): hung job, reaped by the deadline.
    let mut hung = connect(&socket);
    let hung_job = hung
        .submit(JobSpec::from_opts(JobKind::Stat, &CommonOpts::default()).encode())
        .unwrap();
    // Conn 3: business as usual.
    let mut healthy = connect(&socket);
    let (code, cells) = run_sweep(&mut healthy, &sweep_spec(N));
    assert_eq!(code, 0);
    assert_eq!(cells, batch_reference(N), "healthy stream ≡ batch");

    let res = hung.drain_job(hung_job, |_| {}).unwrap();
    assert_eq!(res.code, CODE_TIMEOUT);

    let t0 = Instant::now();
    while handle.stats().stalled_clients == 0 {
        assert!(t0.elapsed() < Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = handle.stats();
    assert_eq!(
        (
            stats.stalled_clients,
            stats.timed_out,
            stats.rejected,
            stats.shed_conns
        ),
        (1, 1, 0, 0),
        "counters match the injected faults exactly: {stats:?}"
    );
    drop((stalled, hung, healthy));
    handle.stop();
}
