//! Property tests over the shard supervisor: for *arbitrary* subsets of
//! worker kills, stalls, and corrupt frames, the surviving sweep is
//! bit-identical to a fault-free serial run, with exact retry, respawn,
//! and quarantine accounting; and for arbitrary scripts of structured
//! cell outcomes, worker processes report exactly what threads report.
//!
//! Workers are in-process mocks over [`std::io::pipe`] — the supervisor
//! cannot tell a dropped pipe from a SIGKILLed child, a sleeping thread
//! from a hung process, or a flipped byte from a torn write, so the
//! recovery machinery under test is exactly what real `sweep-worker`
//! children exercise.

use mperf_sweep::proto::{encode_frame, read_msg, serve_worker, write_msg, Msg, WorkerFailure};
use mperf_sweep::shard::{run_sharded, ShardCell, ShardOptions, WorkerLink};
use mperf_sweep::{run_jobs_supervised, CellFailure, FailureClass, RetryPolicy};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{self, PipeReader, PipeWriter, Write};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// What a mock worker does to a cell's *first* attempt (`0` = behave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Die mid-cell: the request is read, then both pipes drop —
    /// indistinguishable from a `kill -9` between read and reply.
    Kill,
    /// Hang forever holding the cell (the thread leaks; so does a hung
    /// child process until the supervisor's deadline kills it).
    Stall,
    /// Reply with a CRC-corrupt `Done` frame.
    Corrupt,
}

/// The reference computation every healthy attempt applies; the serial
/// expectation the sharded results must match bit-for-bit.
fn transform(payload: &[u8]) -> Vec<u8> {
    payload
        .iter()
        .map(|b| b.wrapping_mul(3).wrapping_add(1))
        .collect()
}

fn mock_worker(mut req: PipeReader, mut resp: PipeWriter, faults: Arc<HashMap<u64, Fault>>) {
    if write_msg(&mut resp, &Msg::hello()).is_err() {
        return;
    }
    loop {
        match read_msg(&mut req) {
            Ok(Msg::Cell {
                index,
                attempt,
                payload,
            }) => {
                match (attempt, faults.get(&index)) {
                    (0, Some(Fault::Kill)) => return,
                    (0, Some(Fault::Stall)) => loop {
                        thread::sleep(Duration::from_secs(3600));
                    },
                    (0, Some(Fault::Corrupt)) => {
                        let mut frame = encode_frame(&Msg::Done {
                            index,
                            payload: transform(&payload),
                        });
                        let mid = 8 + (frame.len() - 8) / 2;
                        frame[mid] ^= 0xff;
                        if resp.write_all(&frame).and_then(|_| resp.flush()).is_err() {
                            return;
                        }
                        // Keep serving: the supervisor kills us anyway.
                        continue;
                    }
                    _ => {}
                }
                let done = Msg::Done {
                    index,
                    payload: transform(&payload),
                };
                if write_msg(&mut resp, &done).is_err() {
                    return;
                }
            }
            Ok(Msg::Shutdown) | Err(_) => return,
            Ok(_) => return,
        }
    }
}

fn spawn_mock(faults: &Arc<HashMap<u64, Fault>>) -> io::Result<WorkerLink> {
    let (req_r, req_w) = io::pipe()?;
    let (resp_r, resp_w) = io::pipe()?;
    let faults = Arc::clone(faults);
    thread::spawn(move || mock_worker(req_r, resp_w, faults));
    Ok(WorkerLink {
        stdin: Box::new(req_w),
        stdout: Box::new(resp_r),
        kill: Box::new(|| "mock worker".into()),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any mix of first-attempt kills, stalls, and corrupt frames, at
    /// any shard count: every cell still completes, survivors are
    /// bit-identical to the fault-free serial transform, each faulted
    /// cell burned exactly one attempt, and each fault cost exactly one
    /// worker respawn. Nothing is quarantined, skipped, or fatal.
    #[test]
    fn faulted_sweep_matches_serial_with_exact_accounting(
        ncells in 4usize..10,
        shards in 1usize..4,
        fault_codes in collection::vec(0u8..4, 9..10),
        seed in 0u64..1_000_000,
    ) {
        let cells: Vec<ShardCell> = (0..ncells)
            .map(|i| ShardCell {
                payload: seed
                    .wrapping_mul(i as u64 + 1)
                    .to_le_bytes()
                    .to_vec(),
                cost: (i as u64 * 37) % 11,
            })
            .collect();
        let faults: Arc<HashMap<u64, Fault>> = Arc::new(
            fault_codes
                .iter()
                .take(ncells)
                .enumerate()
                .filter_map(|(i, &code)| {
                    let f = match code {
                        1 => Fault::Kill,
                        2 => Fault::Stall,
                        3 => Fault::Corrupt,
                        _ => return None,
                    };
                    Some((i as u64, f))
                })
                .collect(),
        );
        let opts = ShardOptions {
            shards,
            policy: RetryPolicy::default(),
            deadline_ticks: 3,
            tick: Duration::from_millis(5),
        };
        let mut sunk = vec![false; ncells];
        let report = run_sharded(
            &cells,
            &opts,
            |_slot| spawn_mock(&faults),
            |i, _payload| {
                sunk[i] = true;
                Ok(())
            },
        );

        // Bit-identical to the serial transform, every cell completed.
        prop_assert!(report.fatal.is_none(), "fatal: {:?}", report.fatal);
        prop_assert_eq!(report.results.len(), ncells);
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(
                report.results[i].as_deref(),
                Some(transform(&cell.payload).as_slice()),
                "cell {} (fault {:?})", i, faults.get(&(i as u64))
            );
            prop_assert!(sunk[i], "sink never saw cell {}", i);
        }
        prop_assert!(report.all_ok());
        prop_assert!(report.failed.is_empty());
        prop_assert!(report.skipped.is_empty());
        prop_assert!(report.poisoned.is_empty());

        // Exact accounting: each faulted cell retried once (granted
        // attempt 1), each fault killed exactly one worker incarnation.
        let mut retried = report.retried.clone();
        retried.sort_unstable();
        let mut expect: Vec<(usize, u32)> =
            faults.keys().map(|&i| (i as usize, 1)).collect();
        expect.sort_unstable();
        prop_assert_eq!(retried, expect);
        prop_assert_eq!(report.respawns as usize, faults.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same seeded failure script — one outcome per `(cell,
    /// attempt)`: ok, transient, permanent or fatal — run through the
    /// thread supervisor at 1 worker and the process supervisor at 1
    /// shard (equal costs, so both dispatch in index order) yields the
    /// same results, failures, retries and skips: both drive one retry
    /// queue.
    #[test]
    fn threads_and_processes_report_alike_for_one_failure_script(
        ncells in 1usize..9,
        max_attempts in 1usize..4,
        codes in collection::vec(0u8..12, 24..25),
        seed in 0u64..1_000_000,
    ) {
        let script = Arc::new(codes);
        let cells: Vec<ShardCell> = (0..ncells)
            .map(|i| ShardCell {
                payload: seed.wrapping_mul(i as u64 + 7).to_le_bytes().to_vec(),
                cost: 0,
            })
            .collect();
        let policy = RetryPolicy {
            max_attempts: max_attempts as u32,
            ..RetryPolicy::default()
        };

        let indexes: Vec<usize> = (0..ncells).collect();
        let threads = run_jobs_supervised(
            &indexes,
            1,
            &policy,
            |_, &i, ctx| {
                scripted(&script, i, ctx.attempt).map(|()| transform(&cells[i].payload))
            },
            |&class| class,
        );
        let opts = ShardOptions {
            shards: 1,
            policy: policy.clone(),
            deadline_ticks: 600,
            tick: Duration::from_millis(5),
        };
        let shards = run_sharded(&cells, &opts, |_slot| spawn_scripted(&script), |_, _| Ok(()));

        prop_assert_eq!(&threads.results, &shards.results);
        let thread_failed: Vec<_> = threads.failed.iter().map(failure_key).collect();
        let shard_failed: Vec<_> = shards.failed.iter().map(failure_key).collect();
        prop_assert_eq!(thread_failed, shard_failed);
        prop_assert_eq!(&threads.retried, &shards.retried);
        prop_assert_eq!(&threads.skipped, &shards.skipped);
    }
}

/// One attempt's scripted outcome (`script` holds 3 attempts per cell).
fn scripted(script: &[u8], cell: usize, attempt: u32) -> Result<(), FailureClass> {
    match script[cell * 3 + attempt as usize] {
        0 => Err(FailureClass::Transient),
        1 => Err(FailureClass::Permanent),
        2 => Err(FailureClass::Fatal),
        _ => Ok(()),
    }
}

/// A worker that plays the script, reporting each failure with its
/// class across the wire.
fn spawn_scripted(script: &Arc<Vec<u8>>) -> io::Result<WorkerLink> {
    let (req_r, req_w) = io::pipe()?;
    let (resp_r, resp_w) = io::pipe()?;
    let script = Arc::clone(script);
    thread::spawn(move || {
        let _ = serve_worker(req_r, resp_w, |index, attempt, payload| {
            scripted(&script, index as usize, attempt)
                .map(|()| transform(payload))
                .map_err(|class| WorkerFailure {
                    class,
                    message: format!("scripted {class:?}"),
                    trap: None,
                })
        });
    });
    Ok(WorkerLink {
        stdin: Box::new(req_w),
        stdout: Box::new(resp_r),
        kill: Box::new(|| "mock worker".into()),
    })
}

fn failure_key<E>(f: &CellFailure<E>) -> (usize, u32, bool) {
    (f.index, f.attempts, f.quarantined)
}
