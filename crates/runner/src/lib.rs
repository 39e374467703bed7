//! Deterministic parallel fan-out for the experiment suite.
//!
//! Every sweep in the workspace — `Vctrl` grids, frequency points,
//! noise-amplitude steps, ablation cells, bus channels — is a batch of
//! **independent** tasks. This crate runs such batches on a scoped thread
//! pool while guaranteeing that results are *bit-identical at every
//! thread count*:
//!
//! * results are collected by task index, never by completion order;
//! * no task shares mutable state (or an RNG) with another task — code
//!   that needs randomness derives one private stream per task with
//!   [`task_seed`], instead of drawing from a sequential generator whose
//!   consumption order would depend on scheduling.
//!
//! The thread count comes from `std::thread::available_parallelism`,
//! overridable with the `VARDELAY_THREADS` environment variable
//! (`VARDELAY_THREADS=1` is the serial baseline). See DESIGN.md §8 for
//! the determinism rules.
//!
//! Two failure disciplines are offered: [`Runner::run`] propagates the
//! first task panic to the caller (the default — a bug in experiment code
//! should abort loudly), while [`Runner::try_run`] isolates each task
//! under `catch_unwind` and returns `Vec<Result<T, TaskError>>`, with an
//! optional deterministic bounded-[`RetryPolicy`] — the substrate of the
//! fault-injection campaigns (DESIGN.md §10).
//!
//! Every batch is instrumented through `vardelay-obs` (DESIGN.md §9):
//! batch/task counters, a per-batch duration span, worker-balance and
//! queue-drain histograms. Instrumentation is purely observational — the
//! determinism tests run with it on and off and assert byte-identical
//! CSVs.
//!
//! # Examples
//!
//! ```
//! use vardelay_runner::Runner;
//!
//! let squares = Runner::new(4).run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // A different thread count produces the identical result.
//! assert_eq!(squares, Runner::new(1).run(8, |i| i * i));
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vardelay_obs as obs;
use vardelay_siggen::SplitMix64;

mod memo;
pub use memo::{cache_enabled, Memo};

/// Error describing one failed task in a fallible batch run through
/// [`Runner::try_run`] or [`Runner::run_with_deadline`].
///
/// For [`TaskError::Panicked`] the message is the panic payload when it
/// was a `&str`/`String` (the overwhelmingly common case — `panic!`,
/// `assert!`, `expect`), so the error is a deterministic function of the
/// task's inputs and campaign results containing it stay
/// bit-reproducible at every thread count. [`TaskError::DeadlineExceeded`]
/// is inherently wall-clock dependent — deadline runs are robustness
/// gates, not byte-pinned outputs (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked on its final attempt.
    Panicked {
        /// Index of the failed task within its batch.
        task: usize,
        /// How many times the task was attempted (≥ 1).
        attempts: u32,
        /// The panic message of the final attempt.
        message: String,
    },
    /// The task ran past its [`Deadline`] budget — either it bailed
    /// cooperatively at a [`Deadline::check`] point, or the supervisor
    /// flagged it as a straggler and it finished late.
    DeadlineExceeded {
        /// Index of the flagged task within its batch.
        task: usize,
        /// The per-task budget it was given, milliseconds.
        budget_ms: u64,
        /// How long it actually ran, milliseconds.
        elapsed_ms: u64,
    },
}

impl TaskError {
    /// Index of the failed task within its batch, for either variant.
    pub fn task(&self) -> usize {
        match *self {
            TaskError::Panicked { task, .. } | TaskError::DeadlineExceeded { task, .. } => task,
        }
    }

    /// Whether this is a [`TaskError::DeadlineExceeded`].
    pub fn is_deadline(&self) -> bool {
        matches!(self, TaskError::DeadlineExceeded { .. })
    }
}

impl core::fmt::Display for TaskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TaskError::Panicked {
                task,
                attempts,
                message,
            } => write!(
                f,
                "task {task} panicked after {attempts} attempt(s): {message}"
            ),
            TaskError::DeadlineExceeded {
                task,
                budget_ms,
                elapsed_ms,
            } => write!(
                f,
                "task {task} exceeded its {budget_ms} ms deadline (ran {elapsed_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// Cooperative deadline token threaded into [`Runner::run_with_deadline`]
/// tasks.
///
/// The token is cheap to clone (an `Arc<AtomicBool>` plus two plain
/// values) and answers [`Deadline::expired`] from either side: the flag
/// the supervisor thread flips when it spots a straggler — a relaxed
/// atomic load, no clock syscall — or, as a fallback that works without
/// any supervisor, a direct elapsed-vs-budget comparison. Long-running
/// tasks call [`Deadline::check`] at natural cancellation points (once
/// per sweep step, per channel, per scenario) to bail as soon as the
/// budget is gone instead of wasting the rest of the campaign's wall
/// clock.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
    flagged: Arc<AtomicBool>,
}

/// Sentinel panic payload for a cooperative deadline bail — recognized
/// by [`Runner::run_with_deadline`] (and any other supervisor that
/// catches task unwinds, e.g. the `vardelay-serve` worker pool) and
/// converted to [`TaskError::DeadlineExceeded`] instead of a panic
/// error. Probe a caught payload with `payload.is::<DeadlineBail>()`.
pub struct DeadlineBail;

impl Deadline {
    /// A deadline starting now with the given per-task budget.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            budget,
            flagged: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The per-task budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Time since the task started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Budget remaining (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.elapsed())
    }

    /// Whether the budget is gone — flagged by the supervisor, or past
    /// the budget by this task's own clock.
    pub fn expired(&self) -> bool {
        self.flagged.load(Ordering::Relaxed) || self.elapsed() > self.budget
    }

    /// Marks the deadline expired (supervisor side; idempotent).
    pub fn expire(&self) {
        self.flagged.store(true, Ordering::Relaxed);
    }

    /// Cooperative cancellation point: returns immediately while the
    /// budget holds, bails out of the task (unwinds with a sentinel the
    /// runner converts to [`TaskError::DeadlineExceeded`]) once it is
    /// gone.
    pub fn check(&self) {
        if self.expired() {
            std::panic::panic_any(DeadlineBail);
        }
    }

    /// The per-task budget configured in the environment:
    /// `VARDELAY_DEADLINE_MS=N` (N > 0). `None` when unset or
    /// unparseable — deadline enforcement is strictly opt-in, because
    /// flagging is wall-clock dependent.
    pub fn budget_from_env() -> Option<Duration> {
        std::env::var("VARDELAY_DEADLINE_MS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis)
    }
}

/// Bounded-retry policy for [`Runner::try_run_with_retry`].
///
/// Retries are for *transient* faults (a flaky measurement, an injected
/// soft error); each retry simply re-invokes the task closure with the
/// same index. The backoff schedule is **deterministic and simulated**:
/// `backoff_base_us << (attempt − 1)` is recorded in the
/// `runner.retry_backoff_us` histogram but never slept on, so retrying
/// changes no experiment bytes and costs no wall clock (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (clamped to at least 1).
    pub max_attempts: u32,
    /// Base of the simulated exponential backoff schedule, microseconds.
    pub backoff_base_us: u64,
}

impl RetryPolicy {
    /// No retries: one attempt per task.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_us: 0,
        }
    }

    /// Up to `max_attempts` attempts with a 100 µs simulated backoff base.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base_us: 100,
        }
    }

    /// The simulated backoff before retry number `attempt` (1-based count
    /// of attempts already made).
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.backoff_base_us << (attempt - 1).min(16)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Renders a caught panic payload as a stable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Parses a `VARDELAY_THREADS`-style override string into a worker
/// count. The rules — shared by every consumer of the variable
/// ([`Runner::from_env`], the `vardelay-serve` worker pool, `repro`) so
/// they cannot drift: surrounding whitespace is ignored, the value must
/// parse as a positive integer, and anything else (`0`, garbage, empty)
/// means "no override".
pub fn parse_thread_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolves the process's worker-thread count: the `VARDELAY_THREADS`
/// override when set and valid (see [`parse_thread_override`]), else
/// `std::thread::available_parallelism`, else 1. Always ≥ 1.
pub fn worker_threads_from_env() -> usize {
    std::env::var("VARDELAY_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_thread_override)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Derives the seed of task `task_index`'s private RNG stream from the
/// experiment's root seed.
///
/// The rule (documented in DESIGN.md §8, fixed forever for
/// reproducibility): XOR the root seed with `(index + 1) · φ64` — the
/// 64-bit golden-ratio constant SplitMix64 itself increments by — then
/// advance one SplitMix64 step. Distinct indices land in statistically
/// independent regions of the generator's sequence, and the `+ 1` keeps
/// task 0 from collapsing onto the raw root seed.
///
/// # Examples
///
/// ```
/// use vardelay_runner::task_seed;
///
/// let a = task_seed(20080310, 0);
/// let b = task_seed(20080310, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, task_seed(20080310, 0)); // pure function of (seed, index)
/// ```
pub fn task_seed(root_seed: u64, task_index: u64) -> u64 {
    const PHI64: u64 = 0x9e37_79b9_7f4a_7c15;
    SplitMix64::new(root_seed ^ task_index.wrapping_add(1).wrapping_mul(PHI64)).next_u64()
}

/// A fixed-width scoped thread pool that maps tasks by index.
///
/// `Runner` is `Copy` — it is a policy (a thread count), not a pool of
/// live threads; threads are scoped to each call and joined before it
/// returns, so a panicking task propagates to the caller exactly as in
/// the serial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner using `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runner — the serial reference path.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// A runner sized from the `VARDELAY_THREADS` environment variable,
    /// falling back to `std::thread::available_parallelism` (see
    /// [`worker_threads_from_env`]).
    pub fn from_env() -> Self {
        Runner::new(worker_threads_from_env())
    }

    /// The process-wide default runner (first use fixes the size from the
    /// environment, see [`Runner::from_env`]).
    pub fn global() -> Runner {
        static GLOBAL: OnceLock<Runner> = OnceLock::new();
        *GLOBAL.get_or_init(Runner::from_env)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, fanning tasks out across the pool; the
    /// result vector is ordered by item index regardless of which thread
    /// computed what, so the output is identical at every thread count.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first panicking task (by join order).
    pub fn par_map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Runs tasks `0..n` through `f`, returning results in task order.
    ///
    /// Instrumented with `vardelay-obs` (observational only — never
    /// touches task results): `runner.batches` / `runner.tasks` counters,
    /// a `runner.batch_us` span over the whole fan-out, a
    /// `runner.tasks_per_worker` histogram exposing scheduling balance,
    /// and `runner.queue_drain_us` — the tail latency between the last
    /// task being *claimed* and the last worker *finishing*, i.e. how
    /// long the batch runs starved with an empty queue.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first panicking task (by join order).
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let instrumented = obs::enabled() && n > 0;
        let batch_span = instrumented.then(|| {
            obs::counter("runner.batches").incr();
            obs::counter("runner.tasks").add(n as u64);
            obs::span("runner.batch_us")
        });
        let workers = self.threads.min(n);
        if workers <= 1 {
            let out = (0..n).map(f).collect();
            if instrumented {
                obs::histogram("runner.tasks_per_worker").record(n as u64);
                obs::histogram("runner.queue_drain_us").record(0);
            }
            drop(batch_span);
            return out;
        }

        // Work-stealing by atomic index; each worker keeps (index, value)
        // pairs locally so no result ever waits on a lock.
        let next = AtomicUsize::new(0);
        // Micros from batch start to the moment a worker first saw the
        // queue empty (u64::MAX until then).
        let drained_at_us = AtomicU64::new(u64::MAX);
        let batch_start = Instant::now();
        let f = &f;
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        if instrumented {
                            drained_at_us.fetch_min(
                                batch_start.elapsed().as_micros() as u64,
                                Ordering::Relaxed,
                            );
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });
        if instrumented {
            let balance = obs::histogram("runner.tasks_per_worker");
            for worker in &per_worker {
                balance.record(worker.len() as u64);
            }
            let drained = drained_at_us.load(Ordering::Relaxed);
            if drained != u64::MAX {
                let total = batch_start.elapsed().as_micros() as u64;
                obs::histogram("runner.queue_drain_us").record(total.saturating_sub(drained));
            }
        }
        drop(batch_span);

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in per_worker.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "task {i} computed twice");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("task {i} never ran")))
            .collect()
    }

    /// Fallible variant of [`Runner::run`]: every task runs under
    /// [`catch_unwind`] isolation, so one panicking task degrades the
    /// batch to a per-task [`TaskError`] instead of aborting it. Results
    /// keep task order, and since the error message is derived from the
    /// panic payload, the whole `Vec` is bit-identical at every thread
    /// count.
    ///
    /// The default [`Runner::run`] stays panic-propagating — use this
    /// path when a batch must survive faulty members (fault-injection
    /// campaigns, degraded-mode deskew).
    pub fn try_run<T, F>(&self, n: usize, f: F) -> Vec<Result<T, TaskError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_run_with_retry(n, RetryPolicy::none(), f)
    }

    /// [`Runner::try_run`] with a deterministic bounded-retry policy: a
    /// panicking task is re-invoked up to `policy.max_attempts` times
    /// before its [`TaskError`] is recorded. Backoff is simulated (see
    /// [`RetryPolicy`]) — recorded in `runner.retry_backoff_us`, never
    /// slept on — so retried batches stay bit-reproducible.
    ///
    /// Instrumented with `runner.task_panics` / `runner.task_retries`
    /// counters and a `runner.task_attempts` histogram.
    pub fn try_run_with_retry<T, F>(
        &self,
        n: usize,
        policy: RetryPolicy,
        f: F,
    ) -> Vec<Result<T, TaskError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let max_attempts = policy.max_attempts.max(1);
        let f = &f;
        self.run(n, move |i| {
            let mut attempt = 0;
            loop {
                attempt += 1;
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(value) => {
                        if obs::enabled() {
                            obs::histogram("runner.task_attempts").record(attempt as u64);
                        }
                        return Ok(value);
                    }
                    Err(payload) => {
                        if obs::enabled() {
                            obs::counter("runner.task_panics").incr();
                        }
                        if attempt < max_attempts {
                            if obs::enabled() {
                                obs::counter("runner.task_retries").incr();
                                obs::histogram("runner.retry_backoff_us")
                                    .record(policy.backoff_us(attempt));
                            }
                            continue;
                        }
                        if obs::enabled() {
                            obs::histogram("runner.task_attempts").record(attempt as u64);
                        }
                        return Err(TaskError::Panicked {
                            task: i,
                            attempts: attempt,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        })
    }

    /// Runs tasks `0..n` like [`Runner::try_run`], but with a per-task
    /// wall-clock `budget`: each task receives a cooperative [`Deadline`]
    /// token, and a **supervisor thread** watches the batch, flagging any
    /// straggler whose elapsed time passes the budget. A flagged task's
    /// result becomes [`TaskError::DeadlineExceeded`] whether it bailed
    /// at a [`Deadline::check`] point or ran to completion late — the
    /// supervisor cannot kill a thread, so a non-cooperative straggler
    /// still occupies its worker until it returns, but its overrun is
    /// observed live (`runner.deadline_flagged`) and its result is
    /// quarantined rather than trusted.
    ///
    /// Instrumented with the `runner.deadline_exceeded` counter and the
    /// `runner.task_overrun_us` histogram (overrun past budget, µs).
    ///
    /// Determinism caveat: whether a borderline task beats its budget is
    /// wall-clock dependent. Use deadlines as a robustness gate
    /// (`VARDELAY_DEADLINE_MS`, chaos runs), not inside byte-pinned
    /// experiment paths (DESIGN.md §11).
    pub fn run_with_deadline<T, F>(
        &self,
        n: usize,
        budget: Duration,
        f: F,
    ) -> Vec<Result<T, TaskError>>
    where
        T: Send,
        F: Fn(usize, &Deadline) -> T + Sync,
    {
        // Supervisor plumbing: tasks register their deadline tokens as
        // they start; the supervisor ticks until the batch signals done,
        // flipping the flag of any registered deadline past its budget.
        let active: Arc<Mutex<Vec<Deadline>>> = Arc::new(Mutex::new(Vec::new()));
        #[allow(clippy::mutex_atomic)] // Condvar needs the Mutex<bool>
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let supervisor = std::thread::spawn({
            let active = Arc::clone(&active);
            let done = Arc::clone(&done);
            move || {
                let (lock, cv) = &*done;
                let mut finished = lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*finished {
                    let (guard, _) = cv
                        .wait_timeout(finished, Duration::from_millis(1))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    finished = guard;
                    let registered = active
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    for d in registered.iter() {
                        if !d.flagged.load(Ordering::Relaxed) && d.elapsed() > d.budget {
                            d.expire();
                            if obs::enabled() {
                                obs::counter("runner.deadline_flagged").incr();
                            }
                        }
                    }
                }
            }
        });

        let f = &f;
        let active_ref = &active;
        let out = self.run(n, move |i| {
            let deadline = Deadline::after(budget);
            active_ref
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(deadline.clone());
            let result = catch_unwind(AssertUnwindSafe(|| f(i, &deadline)));
            let elapsed = deadline.elapsed();
            let deadline_err = || {
                if obs::enabled() {
                    obs::counter("runner.deadline_exceeded").incr();
                    obs::histogram("runner.task_overrun_us")
                        .record(elapsed.saturating_sub(budget).as_micros() as u64);
                }
                Err(TaskError::DeadlineExceeded {
                    task: i,
                    budget_ms: budget.as_millis() as u64,
                    elapsed_ms: elapsed.as_millis() as u64,
                })
            };
            match result {
                Err(payload) if payload.is::<DeadlineBail>() => deadline_err(),
                Err(payload) => {
                    if obs::enabled() {
                        obs::counter("runner.task_panics").incr();
                    }
                    Err(TaskError::Panicked {
                        task: i,
                        attempts: 1,
                        message: panic_message(payload.as_ref()),
                    })
                }
                Ok(_) if elapsed > budget => deadline_err(),
                Ok(value) => Ok(value),
            }
        });

        {
            let (lock, cv) = &*done;
            *lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
            cv.notify_all();
        }
        let _ = supervisor.join();
        out
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_index() {
        let out = Runner::new(8).run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let work = |i: usize| {
            let mut rng = SplitMix64::new(task_seed(42, i as u64));
            (0..50).map(|_| rng.next_f64()).sum::<f64>()
        };
        let serial = Runner::serial().run(37, work);
        for threads in [2, 3, 8, 16] {
            let parallel = Runner::new(threads).run(37, work);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_passes_items_and_indices() {
        let items = vec![10, 20, 30];
        let out = Runner::new(2).par_map(&items, |i, &x| x + i);
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn empty_and_single_batches() {
        let empty: Vec<usize> = Runner::new(4).run(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(Runner::new(4).run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Runner::new(0).threads(), 1);
    }

    #[test]
    fn thread_override_parsing_rejects_zero_and_garbage() {
        // Pure probes on the shared parse rules (env mutation in tests
        // races other threads, so the env wrapper is exercised by the
        // CI matrix instead).
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override("  8\n"), Some(8));
        assert_eq!(parse_thread_override("0"), None, "0 is not a worker count");
        assert_eq!(parse_thread_override("-3"), None);
        assert_eq!(parse_thread_override("four"), None);
        assert_eq!(parse_thread_override("4.5"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("  "), None);
        assert_eq!(parse_thread_override("18446744073709551616"), None);
    }

    #[test]
    fn worker_threads_from_env_is_at_least_one() {
        // Whatever the ambient environment says, the resolution never
        // returns 0 — both serve's worker pool and the runner divide by
        // it.
        assert!(worker_threads_from_env() >= 1);
        assert_eq!(Runner::from_env().threads(), worker_threads_from_env());
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn task_panics_propagate() {
        Runner::new(4).run(8, |i| {
            if i == 5 {
                panic!("task boom");
            }
            i
        });
    }

    #[test]
    fn task_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..1000).map(|i| task_seed(20080310, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "collision in task seeds");
        assert_eq!(task_seed(20080310, 123), seeds[123]);
    }

    #[test]
    fn instrumentation_counts_batches_and_tasks() {
        obs::set_enabled(true);
        let batches = obs::counter("runner.batches").get();
        let tasks = obs::counter("runner.tasks").get();
        let out = Runner::new(4).run(12, |i| i);
        assert_eq!(out.len(), 12);
        assert!(obs::counter("runner.batches").get() > batches);
        assert!(obs::counter("runner.tasks").get() >= tasks + 12);
        // Worker balance histogram observed the batch.
        assert!(obs::histogram("runner.tasks_per_worker").count() > 0);
    }

    #[test]
    fn try_run_isolates_a_panicking_task() {
        // Acceptance pin: a 64-task batch with one injected panic returns
        // 63 Ok results and 1 Err(TaskError), identically at every thread
        // count.
        let work = |i: usize| {
            if i == 17 {
                panic!("injected fault on task 17");
            }
            i * 2
        };
        let serial = Runner::serial().try_run(64, work);
        for threads in [2, 4, 8, 16] {
            let parallel = Runner::new(threads).try_run(64, work);
            assert_eq!(serial, parallel, "try_run diverged at {threads} threads");
        }
        assert_eq!(serial.iter().filter(|r| r.is_ok()).count(), 63);
        let err = serial[17].as_ref().unwrap_err();
        assert_eq!(err.task(), 17);
        assert_eq!(
            *err,
            TaskError::Panicked {
                task: 17,
                attempts: 1,
                message: "injected fault on task 17".to_owned()
            }
        );
        assert!(err.to_string().contains("task 17"));
        // Healthy neighbours are untouched.
        assert_eq!(serial[16], Ok(32));
        assert_eq!(serial[18], Ok(36));
    }

    #[test]
    fn retry_policy_recovers_transient_faults_deterministically() {
        use std::sync::atomic::AtomicU32;
        // Task 3 fails on its first two attempts, then succeeds; task 9
        // fails forever. Attempt counters are per-task so the transient
        // schedule is independent of scheduling order.
        let failures: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
        let work = |i: usize| {
            let attempt = failures[i].fetch_add(1, Ordering::Relaxed) + 1;
            if i == 3 && attempt <= 2 {
                panic!("transient fault");
            }
            if i == 9 {
                panic!("permanent fault");
            }
            i
        };
        let out = Runner::new(4).try_run_with_retry(16, RetryPolicy::attempts(3), work);
        assert_eq!(out[3], Ok(3), "transient fault must be retried away");
        match out[9].as_ref().unwrap_err() {
            TaskError::Panicked {
                attempts, message, ..
            } => {
                assert_eq!(*attempts, 3);
                assert_eq!(message, "permanent fault");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 15);
    }

    #[test]
    fn retry_backoff_schedule_is_exponential_and_bounded() {
        let p = RetryPolicy::attempts(4);
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 200);
        assert_eq!(p.backoff_us(3), 400);
        // The shift is clamped so absurd attempt counts cannot overflow.
        assert_eq!(p.backoff_us(1000), 100 << 16);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::attempts(0).max_attempts, 1);
    }

    #[test]
    fn try_run_without_faults_matches_run() {
        let fallible = Runner::new(4).try_run(32, |i| i * i);
        let infallible = Runner::new(4).run(32, |i| i * i);
        assert_eq!(
            fallible.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            infallible
        );
    }

    #[test]
    fn deadline_run_passes_fast_tasks_through() {
        let out = Runner::new(4).run_with_deadline(16, Duration::from_secs(30), |i, d| {
            assert!(!d.expired(), "generous budget must not expire");
            d.check(); // cooperative point is a no-op while the budget holds
            i * i
        });
        assert_eq!(
            out.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            (0..16).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cooperative_straggler_is_flagged_by_the_supervisor() {
        // Task 2 spins forever, checking its deadline each lap; the
        // supervisor must flip the flag so `check` bails it out.
        let out = Runner::new(4).run_with_deadline(8, Duration::from_millis(25), |i, d| {
            if i == 2 {
                loop {
                    d.check();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            i
        });
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 7);
        match out[2].as_ref().unwrap_err() {
            TaskError::DeadlineExceeded {
                task,
                budget_ms,
                elapsed_ms,
            } => {
                assert_eq!(*task, 2);
                assert_eq!(*budget_ms, 25);
                assert!(*elapsed_ms >= 25, "elapsed {elapsed_ms} ms");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert!(out[2].as_ref().unwrap_err().is_deadline());
    }

    #[test]
    fn non_cooperative_straggler_is_flagged_on_completion() {
        obs::set_enabled(true);
        let exceeded = obs::counter("runner.deadline_exceeded").get();
        // The task never checks its deadline — it just takes too long.
        // The supervisor cannot kill it, but its late result must be
        // quarantined as DeadlineExceeded, not returned as Ok.
        let out = Runner::new(2).run_with_deadline(3, Duration::from_millis(10), |i, _| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(40));
            }
            i
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(2));
        assert!(out[1].as_ref().unwrap_err().is_deadline(), "{:?}", out[1]);
        assert!(obs::counter("runner.deadline_exceeded").get() > exceeded);
        assert!(obs::histogram("runner.task_overrun_us").count() > 0);
    }

    #[test]
    fn panics_under_deadline_stay_panic_errors() {
        let out = Runner::new(2).run_with_deadline(4, Duration::from_secs(30), |i, _| {
            assert!(i != 3, "boom on task 3");
            i
        });
        match out[3].as_ref().unwrap_err() {
            TaskError::Panicked { task, message, .. } => {
                assert_eq!(*task, 3);
                assert!(message.contains("boom on task 3"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn deadline_budget_env_parsing() {
        // Pure parsing probe on the token itself (env mutation in tests
        // races other threads, so probe Deadline's arithmetic instead).
        let d = Deadline::after(Duration::from_millis(50));
        assert!(!d.expired());
        assert!(d.remaining() <= Duration::from_millis(50));
        assert_eq!(d.budget(), Duration::from_millis(50));
        d.expire();
        assert!(d.expired(), "supervisor flag forces expiry");
    }

    #[test]
    fn task_streams_decorrelate() {
        // Adjacent tasks' streams must behave independently.
        let mut a = SplitMix64::new(task_seed(7, 0));
        let mut b = SplitMix64::new(task_seed(7, 1));
        let n = 2000;
        let corr: f64 = (0..n)
            .map(|_| (a.next_f64() - 0.5) * (b.next_f64() - 0.5))
            .sum::<f64>()
            / n as f64;
        assert!(corr.abs() < 0.02, "corr {corr}");
    }
}
