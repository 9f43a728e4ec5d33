//! Property tests over the serve daemon's client supervision: for
//! *arbitrary* mixes of healthy, slow, dead, and stalled clients, every
//! surviving job's stream is bit-identical to the fault-free batch run
//! and the stall/shed/timeout counters account for exactly the injected
//! faults — nothing more. Runs only with `--features failpoints` (the
//! CI fault job), which arms the `serve.client_stall` failpoint.

#![cfg(feature = "failpoints")]

use miniperf::cli::{self, JobKind, JobSpec};
use miniperf::serve;
use miniperf::sweep_supervisor::encode_run;
use miniperf::{CommonOpts, RooflineRequest, ServeOptions};
use mperf_fault::{FaultKind, FaultPlan};
use mperf_sim::Platform;
use mperf_sweep::proto::Msg;
use mperf_sweep::serve::ClientSession;
use proptest::prelude::*;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const N: u64 = 64;

/// How one client misbehaves (or doesn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Submits and drains normally; must see the exact batch stream.
    Healthy,
    /// Drains with a delay per event: backpressure, but progress — the
    /// stall clock must keep resetting and the stream stay intact.
    Slow,
    /// Submits, then vanishes (dropped socket mid-job).
    Dead,
    /// Submits, then never reads: the armed `serve.client_stall`
    /// failpoint times its first write out exactly as full kernel
    /// buffers would.
    Stalled,
}

fn batch_reference() -> &'static Vec<Vec<u8>> {
    static EXPECTED: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let modules: Vec<_> = Platform::ALL
            .iter()
            .map(|&p| cli::triad_module(p))
            .collect();
        let cells = cli::triad_sweep_cells(&modules, None, N);
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
    })
}

fn sweep_spec() -> JobSpec {
    JobSpec {
        n: N,
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

/// Drain a sweep with `delay` between events; return its sorted cells.
fn drain_sweep(session: &mut Session, delay: Duration) -> (u32, Vec<Vec<u8>>) {
    let job = session.submit(sweep_spec().encode()).unwrap();
    let mut cells: Vec<(u64, Vec<u8>)> = Vec::new();
    let res = session
        .drain_job(job, |m| {
            if let Msg::CellDone { index, payload, .. } = m {
                cells.push((*index, payload.clone()));
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        })
        .unwrap();
    cells.sort_by_key(|(i, _)| *i);
    (res.code, cells.into_iter().map(|(_, p)| p).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any sequential mix of client behaviours: survivors are
    /// byte-identical, exactly the stalled clients are counted, and
    /// nothing is shed or timed out.
    #[test]
    fn arbitrary_client_subsets_leave_survivors_byte_identical(
        role_codes in proptest::collection::vec(0u8..4, 2..5),
        seed in 0u64..1_000_000,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let socket = std::env::temp_dir().join(format!(
            "mperf-props-{}-{case}.sock",
            std::process::id()
        ));
        let roles: Vec<Role> = role_codes
            .iter()
            .map(|c| match c {
                1 => Role::Slow,
                2 => Role::Dead,
                3 => Role::Stalled,
                _ => Role::Healthy,
            })
            .collect();

        // Clients connect sequentially, so client i is conn id i+1 —
        // the stall failpoint keys off exactly the stalled subset.
        let mut plan = FaultPlan::new(seed);
        for (i, role) in roles.iter().enumerate() {
            if *role == Role::Stalled {
                plan = plan.inject(
                    "serve.client_stall",
                    (i + 1) as u64,
                    FaultKind::Stall,
                    1,
                );
            }
        }
        let _armed = mperf_fault::arm_scoped(plan);

        let sopts = ServeOptions {
            stall_ticks: 10,
            tick: Duration::from_millis(2),
            ..ServeOptions::default()
        };
        let handle = serve::start(&socket, &CommonOpts::default(), &sopts).unwrap();
        let expected = batch_reference();

        // Keep faulty sessions alive until the end: dropping a stalled
        // client's socket early would look like a plain disconnect.
        let mut parked: Vec<Session> = Vec::new();
        for role in &roles {
            match role {
                Role::Healthy | Role::Slow => {
                    let delay = if *role == Role::Slow {
                        Duration::from_millis(1)
                    } else {
                        Duration::ZERO
                    };
                    let mut s = connect(&socket);
                    let (code, cells) = drain_sweep(&mut s, delay);
                    prop_assert_eq!(code, 0);
                    prop_assert_eq!(&cells, expected, "survivor ≡ batch, byte for byte");
                    parked.push(s);
                }
                Role::Dead => {
                    let mut s = connect(&socket);
                    s.submit(sweep_spec().encode()).unwrap();
                    drop(s); // mid-job disconnect
                }
                Role::Stalled => {
                    let mut s = connect(&socket);
                    s.submit(sweep_spec().encode()).unwrap();
                    parked.push(s); // alive, but never reads
                }
            }
        }

        let stalls = roles.iter().filter(|r| **r == Role::Stalled).count() as u64;
        let t0 = Instant::now();
        while handle.stats().stalled_clients < stalls {
            prop_assert!(
                t0.elapsed() < Duration::from_secs(60),
                "every stalled client must be detected within its deadline"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = handle.stats();
        prop_assert_eq!(stats.stalled_clients, stalls, "exactly the stalled subset");
        prop_assert_eq!(stats.timed_out, 0, "no deadline fired: {:?}", stats);
        prop_assert_eq!(stats.rejected, 0, "nothing was shed: {:?}", stats);
        prop_assert_eq!(stats.shed_conns, 0);
        drop(parked);
        handle.stop();
        prop_assert!(!socket.exists());
    }
}
