//! Supervised job execution: panic isolation, retry with quarantine,
//! and cooperative cancellation on fatal errors.
//!
//! The rules both sweep supervisors share live in one crate-private
//! retry queue: pending attempts with pop-counted backoff, the
//! retry-or-quarantine decision, fatal cancellation, and the
//! [`SweepReport`] accounting. [`run_jobs_supervised`] drives it from
//! threads, isolating each job behind `catch_unwind`;
//! [`crate::run_sharded`] drives it from worker processes.
//!
//! Determinism contract: a job's result lands at its job index, so the
//! `results` vector of a supervised run is bit-identical to a serial
//! run of the same jobs at any worker count — faults in one cell never
//! perturb the values computed by healthy cells. Retry backoff is
//! counted in queue pops, not wall-clock time, so scheduling stays
//! reproducible under test, and the same failure script yields the
//! same accounting under either supervisor.

use crate::queue::pool;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// How a job failure should be treated by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Worth retrying: the failure is expected to go away (I/O hiccup,
    /// injected fuel exhaustion). Retried up to
    /// [`RetryPolicy::max_attempts`], then quarantined.
    Transient,
    /// Deterministic: retrying would reproduce it. Fails immediately,
    /// other jobs continue.
    Permanent,
    /// The sweep itself can no longer be trusted (journal write failed,
    /// environment gone). Cancels all still-queued jobs.
    Fatal,
}

/// Retry budget and backoff, shared by [`run_jobs_supervised`] and
/// [`crate::run_sharded`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per job (first run included). `1` disables
    /// retries entirely.
    pub max_attempts: u32,
    /// Whether a panicking job is retried like a transient failure
    /// before being quarantined. Panics never cancel other jobs either
    /// way. Only the thread supervisor reads this: a worker process
    /// that panics surfaces as a crash, which is always transient.
    pub retry_panics: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            retry_panics: true,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based retries), counted
    /// in queue pops rather than wall-clock time: a delayed entry is
    /// skipped (and its delay decremented) that many times before it
    /// runs again. Exponential, capped.
    pub fn backoff_pops(&self, attempt: u32) -> u32 {
        1u32 << attempt.min(6)
    }
}

/// Why a job ultimately failed under [`run_jobs_supervised`].
#[derive(Debug)]
pub enum CellError<E> {
    /// The job panicked; the payload is the panic message.
    Panicked { payload: String },
    /// The job returned an error.
    Failed(E),
}

impl<E: fmt::Display> fmt::Display for CellError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Panicked { payload } => write!(f, "panicked: {payload}"),
            CellError::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// A job the supervisor gave up on — the one failure record of both
/// supervisors ([`CellError`] under threads,
/// [`crate::ShardCellError`] under worker processes).
#[derive(Debug)]
pub struct CellFailure<E> {
    /// Job index (slot in [`SweepReport::results`]).
    pub index: usize,
    /// Attempts consumed (1 = failed on first run, no retry granted).
    pub attempts: u32,
    /// True when the job exhausted its retry budget (it failed
    /// repeatedly); false when its failure class never allowed a retry.
    pub quarantined: bool,
    pub error: E,
}

/// Outcome of a supervised run. `results[i]` is job `i`'s value —
/// `None` when it failed or was skipped; completed slots are
/// bit-identical to a serial run of the same jobs.
#[derive(Debug)]
pub struct SweepReport<R, E> {
    pub results: Vec<Option<R>>,
    /// Jobs that ultimately failed, sorted by index.
    pub failed: Vec<CellFailure<E>>,
    /// Every granted retry as `(index, attempt granted)`: the 0-based
    /// attempt the retry runs as (its [`JobCtx::attempt`]), sorted.
    pub retried: Vec<(usize, u32)>,
    /// Jobs a fatal failure cancelled before they could finish: still
    /// queued, or in flight in a worker process that was shut down.
    /// Sorted by index.
    pub skipped: Vec<usize>,
}

impl<R, E> SweepReport<R, E> {
    /// Number of jobs that produced a result.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// True when every job produced a result.
    pub fn all_ok(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }
}

/// Per-attempt context handed to a supervised job.
pub struct JobCtx<'a> {
    /// 0-based attempt number (0 = first run).
    pub attempt: u32,
    cancelled: &'a (dyn Fn() -> bool + Sync),
}

impl JobCtx<'_> {
    /// True once a fatal failure has cancelled the sweep; long-running
    /// jobs may poll this and bail early (their result is discarded
    /// only if they return an error).
    pub fn cancelled(&self) -> bool {
        (self.cancelled)()
    }
}

/// One queued (or in-flight) attempt: the job index, the 0-based
/// attempt it runs as, and the backoff pops left before it may run.
#[derive(Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) idx: usize,
    pub(crate) attempt: u32,
    delay: u32,
}

/// The retry bookkeeping both supervisors drive: pending attempts,
/// pop-counted backoff, the retry-or-quarantine decision, fatal
/// cancellation, and the report. Not synchronized — the thread
/// supervisor wraps it in a `Mutex`, the process supervisor owns it on
/// its one event-loop thread.
pub(crate) struct RetryQueue<R, E> {
    pending: VecDeque<Entry>,
    policy: RetryPolicy,
    cancelled: bool,
    results: Vec<Option<R>>,
    failed: Vec<CellFailure<E>>,
    retried: Vec<(usize, u32)>,
}

impl<R, E> RetryQueue<R, E> {
    /// First attempts of jobs `0..n`, dispatched in `order` (a
    /// permutation of `0..n`).
    pub(crate) fn new(order: impl IntoIterator<Item = usize>, policy: &RetryPolicy) -> Self {
        let pending: VecDeque<Entry> = order
            .into_iter()
            .map(|idx| Entry {
                idx,
                attempt: 0,
                delay: 0,
            })
            .collect();
        let results = pending.iter().map(|_| None).collect();
        RetryQueue {
            pending,
            policy: policy.clone(),
            cancelled: false,
            results,
            failed: Vec::new(),
            retried: Vec::new(),
        }
    }

    /// The next attempt allowed to run, or `None` once nothing is
    /// pending or the queue is cancelled. A delayed entry burns one
    /// backoff pop and goes to the back.
    pub(crate) fn pop_ready(&mut self) -> Option<Entry> {
        while !self.cancelled {
            let mut e = self.pending.pop_front()?;
            if e.delay == 0 {
                return Some(e);
            }
            e.delay -= 1;
            self.pending.push_back(e);
        }
        None
    }

    /// True while attempts are queued (ready or backing off).
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    pub(crate) fn succeed(&mut self, entry: Entry, result: R) {
        self.results[entry.idx] = Some(result);
    }

    /// Record a failed attempt; returns whether a retry was granted. A
    /// transient failure within the attempt budget is requeued behind
    /// its backoff. Anything else is recorded as the job's failure —
    /// quarantined iff it was transient — and a fatal one cancels the
    /// queue.
    pub(crate) fn fail(&mut self, entry: Entry, error: E, class: FailureClass) -> bool {
        let attempt = entry.attempt + 1;
        let transient = class == FailureClass::Transient;
        if transient && attempt < self.policy.max_attempts {
            self.retried.push((entry.idx, attempt));
            self.pending.push_back(Entry {
                idx: entry.idx,
                attempt,
                delay: self.policy.backoff_pops(attempt),
            });
            return true;
        }
        self.failed.push(CellFailure {
            index: entry.idx,
            attempts: attempt,
            quarantined: transient,
            error,
        });
        self.cancelled |= class == FailureClass::Fatal;
        false
    }

    /// Cancel for a condition no job caused (a worker that cannot be
    /// spawned, protocol version skew).
    pub(crate) fn cancel(&mut self) {
        self.cancelled = true;
    }

    /// The report: `skipped` is every still-queued job plus `in_flight`
    /// (jobs whose attempt was abandoned mid-run); `failed`, `retried`
    /// and `skipped` come back sorted.
    pub(crate) fn finish(self, in_flight: impl IntoIterator<Item = usize>) -> SweepReport<R, E> {
        let mut failed = self.failed;
        failed.sort_by_key(|f| f.index);
        let mut retried = self.retried;
        retried.sort_unstable();
        let queued = self.pending.iter().map(|e| e.idx);
        let mut skipped: Vec<usize> = queued.chain(in_flight).collect();
        skipped.sort_unstable();
        SweepReport {
            results: self.results,
            failed,
            retried,
            skipped,
        }
    }
}

/// Run `jobs` under at most `workers` threads with panic isolation,
/// retry, quarantine, and fatal-error cancellation. Jobs are borrowed
/// (`&J`) so a retried job re-runs against identical input.
///
/// - A panic in a job is caught and recorded as
///   [`CellError::Panicked`]; it never unwinds the caller and never
///   disturbs other jobs. [`RetryPolicy::retry_panics`] makes it
///   transient, otherwise it is permanent.
/// - `classify` maps a job error onto its [`FailureClass`];
///   [`FailureClass::Fatal`] cancels the sweep, so still-queued jobs
///   never start (they are reported in [`SweepReport::skipped`]).
/// - `workers <= 1` runs strictly serially on the calling thread (the
///   reference order the determinism tests compare against).
pub fn run_jobs_supervised<J, R, E, F, C>(
    jobs: &[J],
    workers: usize,
    policy: &RetryPolicy,
    run: F,
    classify: C,
) -> SweepReport<R, CellError<E>>
where
    J: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &J, &JobCtx) -> Result<R, E> + Sync,
    C: Fn(&E) -> FailureClass + Sync,
{
    let queue = Mutex::new(RetryQueue::new(0..jobs.len(), policy));
    // Jobs run (and panic) outside the lock, so the queue is never left
    // half-updated.
    let lock = || queue.lock().unwrap_or_else(|e| e.into_inner());
    let cancelled = || lock().is_cancelled();
    let panic_class = if policy.retry_panics {
        FailureClass::Transient
    } else {
        FailureClass::Permanent
    };
    pool(workers, jobs.len(), |_| loop {
        // `let … else` drops the guard before the job runs.
        let Some(entry) = lock().pop_ready() else {
            break;
        };
        let ctx = JobCtx {
            attempt: entry.attempt,
            cancelled: &cancelled,
        };
        let (error, class) =
            match catch_unwind(AssertUnwindSafe(|| run(entry.idx, &jobs[entry.idx], &ctx))) {
                Ok(Ok(r)) => {
                    lock().succeed(entry, r);
                    continue;
                }
                Ok(Err(e)) => {
                    let class = classify(&e);
                    (CellError::Failed(e), class)
                }
                // `&*`: downcast the payload, not the box.
                Err(panic) => (
                    CellError::Panicked {
                        payload: panic_payload(&*panic),
                    },
                    panic_class,
                ),
            };
        lock().fail(entry, error, class);
    });
    queue
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .finish([])
}

/// Best-effort render of a panic payload (the `&str`/`String` payloads
/// `panic!` produces; anything else gets a placeholder).
pub fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            retry_panics: false,
        }
    }

    #[test]
    fn all_healthy_jobs_match_serial_at_any_worker_count() {
        let jobs: Vec<u64> = (0..23).collect();
        let serial = run_jobs_supervised(
            &jobs,
            1,
            &RetryPolicy::default(),
            |_, j, _| Ok::<u64, String>(j * 3 + 1),
            |_| FailureClass::Permanent,
        );
        for workers in [2, 4, 8] {
            let par = run_jobs_supervised(
                &jobs,
                workers,
                &RetryPolicy::default(),
                |_, j, _| Ok::<u64, String>(j * 3 + 1),
                |_| FailureClass::Permanent,
            );
            assert_eq!(par.results, serial.results, "workers={workers}");
            assert!(par.all_ok());
        }
    }

    #[test]
    fn panics_are_isolated_and_other_results_are_bit_identical() {
        let jobs: Vec<u64> = (0..16).collect();
        for workers in [1, 4] {
            let report = run_jobs_supervised(
                &jobs,
                workers,
                &no_retry(),
                |_, j, _| {
                    if *j == 5 || *j == 11 {
                        panic!("injected {j}");
                    }
                    Ok::<u64, String>(j + 100)
                },
                |_| FailureClass::Permanent,
            );
            for (i, r) in report.results.iter().enumerate() {
                if i == 5 || i == 11 {
                    assert_eq!(*r, None);
                } else {
                    assert_eq!(*r, Some(i as u64 + 100), "workers={workers}");
                }
            }
            assert_eq!(report.failed.len(), 2);
            assert_eq!(report.failed[0].index, 5);
            assert!(
                matches!(&report.failed[0].error, CellError::Panicked { payload } if payload.contains("injected 5"))
            );
            assert_eq!(report.failed[1].index, 11);
            assert!(report.skipped.is_empty(), "panics are not fatal");
        }
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let attempts_seen = AtomicUsize::new(0);
        let jobs = [0u64];
        let report = run_jobs_supervised(
            &jobs,
            1,
            &RetryPolicy::default(),
            |_, _, ctx| {
                attempts_seen.fetch_add(1, Ordering::Relaxed);
                if ctx.attempt < 2 {
                    Err("flaky".to_string())
                } else {
                    Ok(7u64)
                }
            },
            |_| FailureClass::Transient,
        );
        assert_eq!(report.results, vec![Some(7)]);
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 3);
        assert_eq!(report.retried, vec![(0, 1), (0, 2)]);
        assert!(report.failed.is_empty());
    }

    #[test]
    fn repeatedly_failing_jobs_are_quarantined() {
        let jobs = [0u64];
        let report = run_jobs_supervised(
            &jobs,
            1,
            &RetryPolicy::default(),
            |_, _, _| Err::<u64, _>("always down".to_string()),
            |_| FailureClass::Transient,
        );
        assert_eq!(report.results, vec![None]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].attempts, 3);
        assert!(report.failed[0].quarantined);
        assert_eq!(report.retried.len(), 2);
    }

    #[test]
    fn permanent_failures_do_not_retry() {
        let runs = AtomicUsize::new(0);
        let jobs = [0u64];
        let report = run_jobs_supervised(
            &jobs,
            1,
            &RetryPolicy::default(),
            |_, _, _| {
                runs.fetch_add(1, Ordering::Relaxed);
                Err::<u64, _>("deterministic".to_string())
            },
            |_| FailureClass::Permanent,
        );
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert!(!report.failed[0].quarantined);
        assert!(report.retried.is_empty());
    }

    #[test]
    fn fatal_failures_cancel_queued_jobs() {
        // Serial: job 2 is fatal, so jobs 3..8 never start.
        let ran = AtomicUsize::new(0);
        let jobs: Vec<u64> = (0..8).collect();
        let report = run_jobs_supervised(
            &jobs,
            1,
            &no_retry(),
            |_, j, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if *j == 2 {
                    Err("disk gone".to_string())
                } else {
                    Ok(*j)
                }
            },
            |_| FailureClass::Fatal,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        assert_eq!(report.skipped, vec![3, 4, 5, 6, 7]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].index, 2);
        assert_eq!(report.completed(), 2);
    }

    #[test]
    fn fatal_cancellation_is_observable_from_job_ctx() {
        // Parallel shape of the same property, deterministic via the
        // ctx: job 0 fails fatally; every other job waits until it
        // observes the cancellation flag, so no later job can finish
        // before cancellation and the still-queued tail is skipped.
        let jobs: Vec<u64> = (0..32).collect();
        let report = run_jobs_supervised(
            &jobs,
            2,
            &no_retry(),
            |_, j, ctx| {
                if *j == 0 {
                    return Err("fatal".to_string());
                }
                while !ctx.cancelled() {
                    std::thread::yield_now();
                }
                Err::<u64, _>("cancelled".to_string())
            },
            |e| {
                if e == "fatal" {
                    FailureClass::Fatal
                } else {
                    FailureClass::Permanent
                }
            },
        );
        assert!(!report.skipped.is_empty(), "tail was cancelled");
        assert!(report.failed.iter().any(|f| f.index == 0));
        // Cancelled + failed + skipped covers every job.
        assert_eq!(report.failed.len() + report.skipped.len(), jobs.len());
    }

    #[test]
    fn backoff_is_counted_in_pops_not_time() {
        // One flaky job plus filler: the retried job must come back
        // after its backoff pops, with filler jobs unaffected.
        let jobs: Vec<u64> = (0..6).collect();
        let report = run_jobs_supervised(
            &jobs,
            1,
            &RetryPolicy::default(),
            |_, j, ctx| {
                if *j == 0 && ctx.attempt == 0 {
                    Err("flaky".to_string())
                } else {
                    Ok(*j * 2)
                }
            },
            |_| FailureClass::Transient,
        );
        assert_eq!(
            report.results,
            (0..6).map(|j| Some(j * 2)).collect::<Vec<_>>()
        );
        assert_eq!(report.retried, vec![(0, 1)]);
    }
}
