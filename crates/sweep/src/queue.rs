//! The deterministic job queue and the crate's one thread pool.
//!
//! Scheduling model: a locked `VecDeque` of `(index, job)` pairs popped
//! front-to-back by the workers of `pool`. Which *thread* runs which
//! job is timing-dependent; which *result slot* a job fills is not —
//! results land at their job's index, so the returned `Vec` is
//! bit-identical to a serial `map` regardless of interleaving. Workers
//! are plain `std::thread::scope` threads, so jobs may borrow from the
//! caller's stack (modules, setup closures) without `Arc`-wrapping
//! everything. `pool` is the crate's one thread scaffold: [`run_jobs`],
//! [`try_run_jobs`] and the supervised sweep
//! ([`crate::run_jobs_supervised`]) all spawn, join and re-raise worker
//! panics through it.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default worker count: the host's available parallelism (the
/// `--jobs` default throughout the CLI/bench surface).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `body(worker)` on `workers` workers for a queue of `n` jobs,
/// returning each worker's output in worker order.
///
/// - `workers` is clamped to `1..=n`; excess workers are never spawned.
/// - One worker runs `body(0)` strictly serially on the calling thread,
///   no thread spawned — the serial fallback the sweep determinism
///   properties test against.
/// - Otherwise the workers are scoped threads, all joined before this
///   returns; a worker's panic is re-raised on the caller with its
///   original payload (no result is silently dropped).
pub(crate) fn pool<T, F>(workers: usize, n: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return vec![body(0)];
    }
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || body(w))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Run `jobs` under at most `workers` threads, returning results in job
/// order (index `i` of the output is job `i`'s result, always).
///
/// - `workers <= 1` or a single job: strictly serial on the calling
///   thread, no threads spawned.
/// - `workers` is clamped to the job count; excess workers are never
///   spawned.
/// - A panicking job's panic is re-raised on the caller, payload
///   intact, after every worker has joined.
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let Ok(results) = try_run_jobs(jobs, workers, |i, j| Ok::<R, Infallible>(run(i, j)));
    results
}

/// [`run_jobs`] over fallible jobs: returns all results, or the error of
/// the *earliest job in serial order* that failed — so error selection
/// is as deterministic as success output (a slow worker finishing a
/// later failing job first cannot change which error the caller sees).
/// After any failure the queue stops draining: workers may finish jobs
/// already in flight, but no still-queued job starts. The earliest-error
/// contract survives cancellation because jobs are popped front-to-back —
/// every never-started job has a higher index than every failure already
/// observed.
///
/// # Errors
/// The first (by job index) job error.
pub fn try_run_jobs<J, R, E, F>(jobs: Vec<J>, workers: usize, run: F) -> Result<Vec<R>, E>
where
    J: Send,
    R: Send,
    E: Send,
    F: Fn(usize, J) -> Result<R, E> + Sync,
{
    let n = jobs.len();
    let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let failed = AtomicBool::new(false);
    let chunks = pool(workers, n, |_| {
        let mut done = Vec::new();
        while !failed.load(Ordering::Acquire) {
            // Pop under the lock, run outside it.
            let Some((idx, j)) = queue.lock().expect("sweep queue lock").pop_front() else {
                break;
            };
            let r = run(idx, j);
            if r.is_err() {
                failed.store(true, Ordering::Release);
            }
            done.push((idx, r));
        }
        done
    });
    let mut done: Vec<(usize, Result<R, E>)> = chunks.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(idx, _)| idx);
    // Earliest failure by job index wins; absent that, every job ran
    // (the queue only stops draining after a failure).
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_job_order_at_any_worker_count() {
        let jobs: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j + 1).collect();
        for workers in [1, 2, 3, 4, 8, 64] {
            let got = run_jobs(jobs.clone(), workers, |idx, j| {
                assert_eq!(idx as u64, j, "index matches enumeration");
                j * j + 1
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn serial_fallback_spawns_no_threads() {
        let main_id = std::thread::current().id();
        let ran_on = run_jobs(vec![(); 5], 1, |_, ()| std::thread::current().id());
        assert!(ran_on.iter().all(|id| *id == main_id));
    }

    #[test]
    fn workers_clamp_to_job_count() {
        // 1 job, 16 workers: must still complete (and serially).
        let out = run_jobs(vec![41], 16, |_, j| j + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_jobs(Vec::<u32>::new(), 4, |_, j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let n = 101;
        let out = run_jobs((0..n).collect(), 4, |_, j: usize| {
            count.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_reports_earliest_error_in_job_order() {
        // Jobs 3 and 1 both fail; job 1's error must win regardless of
        // which worker finishes first.
        for workers in [1, 2, 4] {
            let r: Result<Vec<u32>, String> = try_run_jobs((0..6u32).collect(), workers, |_, j| {
                if j == 3 || j == 1 {
                    Err(format!("job {j} failed"))
                } else {
                    Ok(j)
                }
            });
            assert_eq!(r.unwrap_err(), "job 1 failed", "workers={workers}");
        }
    }

    #[test]
    fn serial_try_run_short_circuits_after_an_error() {
        let executed = AtomicUsize::new(0);
        let r: Result<Vec<u32>, &str> = try_run_jobs((0..8u32).collect(), 1, |_, j| {
            executed.fetch_add(1, Ordering::Relaxed);
            if j == 2 {
                Err("boom")
            } else {
                Ok(j)
            }
        });
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(executed.load(Ordering::Relaxed), 3, "jobs 3..8 skipped");
    }

    #[test]
    fn parallel_try_run_stops_draining_after_a_failure() {
        use std::sync::atomic::AtomicBool;
        // Job 0 (always popped first — FIFO) fails immediately; every
        // other job waits until that failure has happened, then gives the
        // scheduler ample time to publish the cancellation flag before
        // finishing. Only jobs already in flight when job 0 failed may
        // complete, so at most `workers` jobs ever execute.
        let workers = 4;
        let n = 64u32;
        let job0_failed = AtomicBool::new(false);
        let executed = AtomicUsize::new(0);
        let r: Result<Vec<u32>, &str> = try_run_jobs((0..n).collect(), workers, |_, j| {
            executed.fetch_add(1, Ordering::Relaxed);
            if j == 0 {
                job0_failed.store(true, Ordering::Release);
                return Err("boom");
            }
            while !job0_failed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            Ok(j)
        });
        assert_eq!(r.unwrap_err(), "boom");
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran <= workers, "queue kept draining: {ran} of {n} jobs ran");
    }

    #[test]
    fn a_job_panic_is_re_raised_on_the_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(u32);
        let job = |_: usize, j: u32| {
            if j == 5 {
                std::panic::panic_any(Boom(j));
            }
            j
        };
        for workers in [1, 4] {
            let ran = std::panic::catch_unwind(|| run_jobs((0..8).collect(), workers, job));
            let payload = ran.expect_err("run_jobs re-raises");
            assert_eq!(payload.downcast_ref(), Some(&Boom(5)), "workers={workers}");
            let ran = std::panic::catch_unwind(|| {
                try_run_jobs((0..8).collect(), workers, |i, j| Ok::<_, ()>(job(i, j)))
            });
            let payload = ran.expect_err("try_run_jobs re-raises");
            assert_eq!(payload.downcast_ref(), Some(&Boom(5)), "workers={workers}");
        }
    }

    #[test]
    fn jobs_may_borrow_caller_stack() {
        let data = [10u64, 20, 30];
        let out = run_jobs(vec![0usize, 1, 2], 2, |_, i| data[i] * 2);
        assert_eq!(out, vec![20, 40, 60]);
    }
}
