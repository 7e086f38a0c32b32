//! Work-stealing parallel mining runtime.
//!
//! All three mining kernels parallelise the same way: the search space
//! splits at the root into independent first-item subtrees (LCM: first-rank
//! projections; Eclat: equivalence classes; FP-growth: per-item conditional
//! trees), each subtree is mined serially by whichever worker picks it up,
//! and per-worker outputs are merged back in subtree rank order so the
//! result is bit-identical to a serial run. This crate owns the middle of
//! that sandwich: a fixed-task work-stealing scheduler with a deterministic
//! merge, built on `std::thread::scope` only (no external dependencies).
//!
//! Scheduling model:
//!
//! * Tasks are fixed up front — mining a subtree never spawns new tasks —
//!   so termination is simply "every deque is empty" and no worker ever
//!   blocks on another. No condition variables, no deadlock.
//! * Tasks are dealt round-robin in rank order. Kernels order subtrees so
//!   low ranks are the biggest (most frequent first item), and round-robin
//!   spreads those hot subtrees across workers, the same static balance the
//!   original per-kernel code used.
//! * An idle worker first drains its own deque from the front, then steals
//!   up to [`ParConfig::steal_granularity`] tasks from the *back* of the
//!   nearest non-empty victim. Stealing from the back takes the tasks the
//!   owner would reach last, minimising contention on the deque front.
//! * Each worker records `(task_index, result)` pairs; after the scoped
//!   join the results are re-slotted by task index, so callers observe
//!   task order — never thread interleaving order.
//!
//! Panic safety: a panicking task poisons nothing. Each task closure runs
//! inside a per-task unwind catch; the first failure is recorded as a
//! [`TaskPanic`] (task index + payload), the failed task's result slot
//! stays `None` — explicitly incomplete, so a prefix replay can never
//! treat it as finished — and every worker abandons its remaining queue.
//! The one driver, [`run_with_state_until_settled`], hands the failure
//! back as a value after the join, so a panic can never deadlock the pool
//! or unwind across the mining API.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The first task panic of a settled run: which task failed and the
/// unwind payload its closure raised.
pub struct TaskPanic {
    /// Index (in the submitted task list) of the task whose closure
    /// panicked. Its result slot is `None`.
    pub task_index: usize,
    /// The captured panic payload, as [`std::thread::JoinHandle::join`]
    /// would deliver it.
    pub payload: Box<dyn std::any::Any + Send + 'static>,
}

impl std::fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPanic")
            .field("task_index", &self.task_index)
            .finish_non_exhaustive()
    }
}

/// Parallel runtime configuration, shared by every kernel through the
/// `fpm-exec` plan executor and surfaced via the CLI `--threads` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker thread count. `0` means "pick for me": the host's available
    /// parallelism. The effective count is also clamped to the task count,
    /// so oversubscription is harmless.
    pub n_threads: usize,
    /// Maximum tasks taken from a victim per steal. `1` (the default)
    /// maximises balance; larger values amortise lock traffic when tasks
    /// are tiny and plentiful.
    pub steal_granularity: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            n_threads: 0,
            steal_granularity: 1,
        }
    }
}

impl ParConfig {
    /// A config with an explicit thread count and default stealing.
    pub fn with_threads(n_threads: usize) -> Self {
        ParConfig {
            n_threads,
            ..Default::default()
        }
    }

    /// Single-threaded config (still runs through the scheduler, which
    /// degenerates to a plain in-order loop).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// The worker count actually used for `n_tasks` tasks.
    ///
    /// Total for every input: clamped to the task count from above and to
    /// `1` from below, so `n_tasks == 0` (and any `n_threads`) yields `1`
    /// — callers sizing a pool before they know whether work exists (the
    /// serve layer does) can call this unconditionally and never receive
    /// a zero-width pool. Locked in by `effective_threads_with_no_tasks`.
    pub fn effective_threads(&self, n_tasks: usize) -> usize {
        let requested = if self.n_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.n_threads
        };
        requested.min(n_tasks).max(1)
    }
}

/// One worker's deque of `(task_index, task)` pairs.
type Deque<T> = Mutex<VecDeque<(usize, T)>>;

/// Locks a deque, ignoring poisoning: a panicked sibling can only leave
/// the deque in a consistent state (push/pop are single operations).
fn lock<T>(q: &Deque<T>) -> std::sync::MutexGuard<'_, VecDeque<(usize, T)>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scans victims nearest-first and moves up to `steal_max` tasks from the
/// back of the first non-empty victim deque into `stolen`. Returns whether
/// anything was taken.
///
/// This is the hottest part of an idle worker's life, so it must not
/// allocate: `stolen` is preallocated to `steal_max` by the worker and is
/// always drained before the next steal, so the pushes below stay within
/// capacity (proven at runtime by `steal_path_is_allocation_free`).
// also-lint: hot
fn steal_batch<T>(
    deques: &[Deque<T>],
    w: usize,
    steal_max: usize,
    stolen: &mut VecDeque<(usize, T)>,
) -> bool {
    let n_workers = deques.len();
    let mut got = false;
    for d in 1..n_workers {
        let v = (w + d) % n_workers;
        // In range by the modulo; a missing deque just means no victim.
        let Some(victim) = deques.get(v) else {
            continue;
        };
        let mut victim = lock(victim);
        for _ in 0..steal_max {
            match victim.pop_back() {
                Some(t) => {
                    // also-lint: allow(hot-loop-alloc) — within capacity: stolen is preallocated to steal_max and drained between steals
                    stolen.push_back(t);
                    got = true;
                }
                None => break,
            }
        }
        if got {
            break;
        }
    }
    got
}

/// Runs `f` over every task on a work-stealing pool and returns the
/// results **in task order**, regardless of which worker ran what, plus
/// the first task panic if one occurred.
///
/// Each worker gets a private state value built by `init` (a per-worker
/// sink, scratch miner, …) and reuses it across all tasks it executes;
/// `init` receives the worker index (0-based). Results are deterministic
/// in the task list: the merge re-slots each `(task_index, result)` pair
/// after the join, so neither the thread count nor steal timing can
/// reorder output.
///
/// `stop` is the cooperative cancellation hook. Every worker polls it
/// before executing each task and before scanning victims to steal; once
/// it returns `true`, workers finish the task they are on, abandon
/// everything still queued, and join. The slot of every task that ran
/// holds `Some`, the abandoned ones `None`. `stop` must be monotonic
/// (once `true`, stays `true`) — `fpm`'s `MineControl::should_stop` is,
/// and it is the intended predicate: pass `|| control.should_stop()`.
/// Which tasks are abandoned depends on steal timing and is *not*
/// deterministic; callers that need a deterministic output (the kernels'
/// controlled parallel drivers) replay completed task buffers in rank
/// order only up to the first incomplete task.
///
/// A task panic *settles* instead of unwinding: it is caught at the task
/// boundary, the failed task's slot is left `None` — explicitly
/// incomplete, so `replay_merged_prefix` can never replay a task that
/// did not finish — every worker abandons its remaining queue, and the
/// `(task index, payload)` pair comes back as the second tuple element.
/// Completed sibling results (including tasks *after* the failed index
/// that finished before the failure was observed) keep their slots,
/// exactly like a cooperative stop. `fpm-exec` converts the failure into
/// a `StopCause::TaskPanicked` summary.
pub fn run_with_state_until_settled<T, S, R, C, I, F>(
    tasks: Vec<T>,
    par: &ParConfig,
    stop: C,
    init: I,
    f: F,
) -> (Vec<Option<R>>, Option<TaskPanic>)
where
    T: Send,
    R: Send,
    C: Fn() -> bool + Sync,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n_tasks = tasks.len();
    if n_tasks == 0 {
        return (Vec::new(), None);
    }
    let n_workers = par.effective_threads(n_tasks);
    let steal_max = par.steal_granularity.max(1);

    // Deal tasks round-robin in rank order: task i -> deque i % n_workers.
    let deques: Vec<Deque<T>> = (0..n_workers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (idx, task) in tasks.into_iter().enumerate() {
        // idx % n_workers is in range by construction of `deques`.
        if let Some(q) = deques.get(idx % n_workers) {
            lock(q).push_back((idx, task));
        }
    }

    let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();

    // Task failure bookkeeping, shared by both scheduling paths: the
    // flag makes every worker bail like a cooperative stop, the mutex
    // records the first (task index, payload) pair.
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<TaskPanic>> = Mutex::new(None);

    // Runs one task inside an unwind catch. `None` means the task
    // panicked (its slot must stay incomplete); the chaos worker-panic
    // site lives inside the catch so an injected panic takes the same
    // path a real kernel bug would.
    let run_one = |state: &mut S, idx: usize, task: T| -> Option<R> {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if fpm::faults::worker_panic(idx) {
                // The chaos injection site itself: the panic is raised
                // *inside* this catch_unwind on purpose, taking the
                // exact path a real kernel bug would.
                // also-lint: allow(panic-path)
                panic!("chaos: injected worker panic at task {idx}");
            }
            f(state, task)
        }));
        match result {
            Ok(r) => Some(r),
            Err(payload) => {
                // ORDERING: Relaxed — advisory early-exit flag; the
                // authoritative panic payload travels under the
                // `first_panic` mutex and the scope join, so nothing
                // is published through this store.
                failed.store(true, Ordering::Relaxed);
                let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(TaskPanic {
                        task_index: idx,
                        payload,
                    });
                }
                None
            }
        }
    };

    if n_workers == 1 {
        // Serial fast path: same code path shape, no thread spawn.
        let mut state = init(0);
        loop {
            // ORDERING: Relaxed — monotonic flag, control-flow only; a
            // stale read runs at most one extra task.
            if stop() || failed.load(Ordering::Relaxed) {
                break;
            }
            match deques.first().and_then(|q| lock(q).pop_front()) {
                Some((idx, task)) => {
                    if let Some(r) = run_one(&mut state, idx, task) {
                        if let Some(slot) = slots.get_mut(idx) {
                            *slot = Some(r);
                        }
                    }
                }
                None => break,
            }
        }
    } else {
        let deques = &deques;
        let stop = &stop;
        let init = &init;
        let run_one = &run_one;
        let failed = &failed;
        let mut done: Vec<Vec<(usize, R)>> = Vec::with_capacity(n_workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut state = init(w);
                        let mut out: Vec<(usize, R)> = Vec::new();
                        let mut stolen: VecDeque<(usize, T)> =
                            VecDeque::with_capacity(steal_max);
                        // w < n_workers by the spawn range; a missing
                        // deque means this worker was dealt nothing.
                        let Some(own_queue) = deques.get(w) else {
                            return out;
                        };
                        loop {
                            // Cooperative cancellation — or a sibling's
                            // task failure: abandon whatever is still
                            // queued. Other workers observe the same
                            // (monotonic) predicates and do likewise.
                            // ORDERING: Relaxed — same advisory flag; a
                            // stale read costs one extra task, never
                            // correctness (results merge after join).
                            if stop() || failed.load(Ordering::Relaxed) {
                                return out;
                            }
                            // Own deque first, front to back.
                            let own = lock(own_queue).pop_front();
                            if let Some((idx, task)) = own {
                                if let Some(r) = run_one(&mut state, idx, task) {
                                    out.push((idx, r));
                                }
                                continue;
                            }
                            // Then locally buffered steals.
                            if let Some((idx, task)) = stolen.pop_front() {
                                if let Some(r) = run_one(&mut state, idx, task) {
                                    out.push((idx, r));
                                }
                                continue;
                            }
                            // Chaos injection site: steal-timing latency
                            // (constant no-op without the feature; must
                            // never change merged output).
                            fpm::faults::steal_delay();
                            // Then scan victims, nearest first, taking up
                            // to steal_max tasks from the victim's back.
                            if !steal_batch(deques, w, steal_max, &mut stolen) {
                                // Every deque empty and tasks are never
                                // spawned dynamically: we are done.
                                return out;
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    // Task panics are caught inside run_one; a join
                    // error means `init` itself panicked — an
                    // infrastructure bug, not a task failure, so it
                    // propagates.
                    Ok(out) => done.push(out),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        for (idx, r) in done.into_iter().flatten() {
            if let Some(slot) = slots.get_mut(idx) {
                debug_assert!(slot.is_none(), "task {idx} ran twice");
                *slot = Some(r);
            }
        }
    }

    let panic = first_panic
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    (slots, panic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs every task through the driver with no stop predicate and no
    /// worker state, asserting that nothing panicked and every slot is
    /// filled.
    fn run_all<T: Send, R: Send>(
        tasks: Vec<T>,
        par: &ParConfig,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let (slots, panic) =
            run_with_state_until_settled(tasks, par, || false, |_w| (), |(), t| f(t));
        assert!(panic.is_none(), "unexpected task panic: {panic:?}");
        slots
            .into_iter()
            .map(|r| r.expect("every task runs without a stop"))
            .collect()
    }

    #[test]
    fn empty_task_list_returns_empty() {
        for threads in [1, 4] {
            let out = run_all(
                Vec::<u32>::new(),
                &ParConfig::with_threads(threads),
                |x| x * 2,
            );
            assert!(out.is_empty());
        }
    }

    #[test]
    fn single_task_single_result() {
        for threads in [1, 2, 8] {
            let out = run_all(vec![21u64], &ParConfig::with_threads(threads), |x| x * 2);
            assert_eq!(out, vec![42]);
        }
    }

    #[test]
    fn more_threads_than_tasks() {
        // 7 threads, 3 tasks: effective pool clamps to 3, all complete.
        let out = run_all(vec![1, 2, 3], &ParConfig::with_threads(7), |x| x + 10);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn results_are_in_task_order_for_any_thread_count() {
        let tasks: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = tasks.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let cfg = ParConfig {
                n_threads: threads,
                steal_granularity: 1 + threads % 3,
            };
            let out = run_all(tasks.clone(), &cfg, |x| x * x);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Worker 0's deque gets the slow task plus half the quick ones;
        // other workers run dry and must steal to finish. Completion of
        // all tasks in order proves the steal path terminates correctly.
        let tasks: Vec<u64> = (0..64).collect();
        let out = run_all(tasks, &ParConfig::with_threads(4), |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn per_worker_state_is_private_and_reused() {
        // Each worker counts its own tasks; totals must equal the task
        // count without any cross-worker interference.
        let grand_total = AtomicUsize::new(0);
        let n = 100;
        let (out, panic) = run_with_state_until_settled(
            (0..n).collect::<Vec<usize>>(),
            &ParConfig::with_threads(4),
            || false,
            |_w| 0usize,
            |local, task| {
                *local += 1;
                grand_total.fetch_add(1, Ordering::Relaxed);
                task
            },
        );
        assert!(panic.is_none());
        assert_eq!(out, (0..n).map(Some).collect::<Vec<_>>());
        assert_eq!(grand_total.load(Ordering::Relaxed), n);
    }

    #[test]
    fn settled_marks_the_panicked_task_incomplete_at_every_index() {
        // The replay-prefix contract depends on a panicked task's slot
        // being None — explicitly incomplete — never a phantom result.
        // Sweep the panic across every task index at several thread
        // counts; whatever else completes, slot k must stay empty and
        // the failure must name task k.
        let n = 12usize;
        for threads in [1usize, 2, 4] {
            for k in 0..n {
                let (slots, panic) = run_with_state_until_settled(
                    (0..n).collect::<Vec<usize>>(),
                    &ParConfig::with_threads(threads),
                    || false,
                    |_w| (),
                    |(), x| {
                        if x == k {
                            panic!("boom at task {x}");
                        }
                        x * 10
                    },
                );
                assert_eq!(slots.len(), n, "threads={threads} k={k}");
                assert!(
                    slots[k].is_none(),
                    "threads={threads} k={k}: panicked task must stay incomplete"
                );
                let p = panic.expect("the failure must be reported");
                assert_eq!(p.task_index, k, "threads={threads} k={k}");
                let msg = p
                    .payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(msg.contains("boom"), "threads={threads} k={k}: {msg:?}");
                // Slots that did complete hold the right values.
                for (i, s) in slots.iter().enumerate() {
                    if let Some(v) = s {
                        assert_eq!(*v, i * 10, "threads={threads} k={k} slot={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn settled_without_a_panic_behaves_like_until() {
        for threads in [1usize, 3] {
            let (slots, panic) = run_with_state_until_settled(
                (0..40u32).collect::<Vec<u32>>(),
                &ParConfig::with_threads(threads),
                || false,
                |_w| (),
                |(), x| x + 1,
            );
            assert!(panic.is_none(), "threads={threads}");
            assert_eq!(
                slots,
                (1..=40u32).map(Some).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn steal_path_is_allocation_free() {
        // Build four deques, pile tasks onto every victim, and drain them
        // all through worker 0's steal path under the alloc guard: the
        // `// also-lint: hot` claim on steal_batch, proven at runtime.
        let n_workers = 4;
        let steal_max = 3;
        let deques: Vec<Deque<u64>> = (0..n_workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..48 {
            lock(&deques[i % n_workers]).push_back((i, i as u64));
        }
        let mut stolen: VecDeque<(usize, u64)> = VecDeque::with_capacity(steal_max);
        let mut seen = 0u64;
        fpm::alloc_guard::assert_no_alloc(|| {
            while steal_batch(&deques, 0, steal_max, &mut stolen) {
                while let Some((_, t)) = stolen.pop_front() {
                    seen += t;
                }
            }
        });
        // Worker 0 never steals from itself, so its own 12 tasks remain.
        let own: u64 = (0..48).filter(|i| i % n_workers == 0).map(|i| i as u64).sum();
        assert_eq!(seen, (0..48u64).sum::<u64>() - own);
        assert_eq!(lock(&deques[0]).len(), 12);
    }

    #[test]
    fn zero_threads_means_auto() {
        let cfg = ParConfig::default();
        assert!(cfg.effective_threads(64) >= 1);
        assert_eq!(cfg.effective_threads(0), 1);
        // Explicit counts clamp to the task count.
        assert_eq!(ParConfig::with_threads(100).effective_threads(3), 3);
    }

    #[test]
    fn effective_threads_with_no_tasks() {
        // The serve worker pool sizes itself before knowing whether any
        // work exists; n_tasks == 0 must be total and never return 0,
        // whatever the configured thread count.
        for n_threads in [0usize, 1, 2, 7, 100] {
            assert_eq!(
                ParConfig::with_threads(n_threads).effective_threads(0),
                1,
                "n_threads={n_threads}"
            );
        }
        // And the scheduler accepts the degenerate call outright.
        let out = run_all(Vec::<u8>::new(), &ParConfig::default(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn stop_predicate_abandons_remaining_tasks() {
        use std::sync::atomic::AtomicBool;
        for threads in [1usize, 4] {
            let hit = AtomicBool::new(false);
            let (out, _) = run_with_state_until_settled(
                (0..128u32).collect::<Vec<u32>>(),
                &ParConfig::with_threads(threads),
                || hit.load(Ordering::Relaxed),
                |_w| (),
                |(), x| {
                    // Small per-task pause so the trip lands while other
                    // workers still have queued work to abandon.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    if x == 5 {
                        hit.store(true, Ordering::Relaxed);
                    }
                    x
                },
            );
            assert_eq!(out.len(), 128);
            let ran = out.iter().flatten().count();
            assert!(ran < 128, "threads={threads}: stop must abandon work");
            // Task 5 itself always completes (stop is polled *between*
            // tasks, never mid-task).
            assert_eq!(out[5], Some(5), "threads={threads}");
        }
    }

    #[test]
    fn never_stopping_predicate_runs_everything() {
        let (out, _) = run_with_state_until_settled(
            (0..64u32).collect::<Vec<u32>>(),
            &ParConfig::with_threads(3),
            || false,
            |_w| (),
            |(), x| x * 2,
        );
        assert_eq!(
            out,
            (0..64u32).map(|x| Some(x * 2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pre_tripped_stop_runs_nothing() {
        for threads in [1usize, 4] {
            let (out, _) = run_with_state_until_settled(
                (0..32u32).collect::<Vec<u32>>(),
                &ParConfig::with_threads(threads),
                || true,
                |_w| (),
                |(), x| x,
            );
            assert!(out.iter().all(|r| r.is_none()), "threads={threads}");
        }
    }
}
