//! One work-stealing executor for the workspace's parallel regions: the
//! sweep driver (`merch_bench::par`) and the multi-tenant service's
//! concurrent rounds share one process-global pool of persistent workers
//! and *task classes* that encode nesting depth:
//!
//! * [`TaskClass::Sweep`] — one (app × policy × seed) sweep cell;
//! * [`TaskClass::Tenant`] — one tenant's placement rounds inside the
//!   service;
//! * [`TaskClass::Shard`] — the innermost class, for fan-out inside one
//!   round (the page engine itself is sequential).
//!
//! **Cooperative split budget.** A parallel region does not get dedicated
//! threads; it splits its work into tasks, pushes them on the shared
//! queues, and the *submitting thread participates*: [`scope`] executes
//! queued tasks while waiting for its own batch. Workers and helpers pop
//! deepest-class-first (tenant rounds before new sweep cells), and a
//! helper blocked on a batch of class `C` only executes tasks at least as
//! deep as `C` — it never picks up a coarser task that would delay its own
//! batch behind seconds of unrelated work. Total concurrency is bounded by
//! `workers + blocked submitters` no matter how deeply regions nest.
//!
//! **Determinism.** The pool adds none of its own: every caller writes
//! results into pre-assigned slots, so outputs are byte-identical at any
//! worker count — the property the `--jobs`-independence tests assert.
//!
//! **Wakeup.** All waiting — idle workers, helpers out of eligible tasks,
//! service consumers blocked on a result pipe — parks on one condvar and is
//! woken by task pushes, batch completions, and [`notify`]; nothing
//! sleep-polls.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Scheduling class of a task: its nesting depth in the
/// sweep → tenant → shard hierarchy. Deeper classes are popped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskClass {
    /// An independent sweep cell (outermost).
    Sweep,
    /// One tenant's placement rounds inside the multi-tenant service.
    Tenant,
    /// Fan-out inside one round (innermost).
    Shard,
}

impl TaskClass {
    fn depth(self) -> usize {
        match self {
            TaskClass::Sweep => 0,
            TaskClass::Tenant => 1,
            TaskClass::Shard => 2,
        }
    }

    /// Human label used in propagated panic messages
    /// (`"<label> task panicked: <original message>"`).
    pub fn label(self) -> &'static str {
        match self {
            TaskClass::Sweep => "sweep-cell",
            TaskClass::Tenant => "tenant-round",
            TaskClass::Shard => "shard-phase",
        }
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// format string yields `String`, with a literal yields `&str`).
pub fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// 0 = auto (one worker per available core).
static POOL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Override the pool's target worker count (`repro --jobs N`). `0`
/// restores auto-detection; `1` makes pool-aware callers take their
/// strictly sequential paths.
pub fn set_pool_jobs(n: usize) {
    POOL_JOBS.store(n, Ordering::SeqCst);
}

/// Effective pool job count (the knob, not the live worker count).
pub fn pool_jobs() -> usize {
    match POOL_JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    job: Job,
    class: TaskClass,
    batch: Arc<BatchState>,
}

struct BatchState {
    remaining: AtomicUsize,
    /// First panic of the batch, already formatted with the class label.
    panic: Mutex<Option<String>>,
}

struct PoolState {
    /// Pending tasks, one FIFO queue per class depth.
    queues: [VecDeque<Task>; 3],
    /// Worker threads ever spawned (grow-only).
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    cond: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            workers: 0,
        }),
        cond: Condvar::new(),
    })
}

fn lock_state(p: &'static Pool) -> MutexGuard<'static, PoolState> {
    // A panicking `done` predicate can poison the lock; the pool state
    // itself is only ever mutated under short, panic-free sections.
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl PoolState {
    /// Pop the deepest pending task whose class depth is ≥ `min_depth`.
    fn pop(&mut self, min_depth: usize) -> Option<Task> {
        for d in (min_depth..3).rev() {
            if let Some(t) = self.queues[d].pop_front() {
                return Some(t);
            }
        }
        None
    }
}

/// Grow the pool to at least `n` persistent workers. Workers never exit;
/// extra ones idle on the condvar. Correctness never depends on workers
/// existing — a submitting thread executes its own batch if nobody helps —
/// so this is purely a parallelism target.
pub fn ensure_workers(n: usize) {
    let p = pool();
    let to_spawn = {
        let mut st = lock_state(p);
        let k = n.saturating_sub(st.workers);
        st.workers += k;
        k
    };
    for spawned in 0..to_spawn {
        if std::thread::Builder::new()
            .name("merch-sched".into())
            .spawn(worker_loop)
            .is_err()
        {
            // Thread exhaustion is not fatal: scopes complete via caller
            // helping. Roll the target back so a later call may retry.
            let mut st = lock_state(p);
            st.workers -= to_spawn - spawned;
            return;
        }
    }
}

/// Wake every parked worker and helper. Call after changing external state
/// a [`help_until`] predicate reads (e.g. pushing into a result pipe).
pub fn notify() {
    let p = pool();
    let _st = lock_state(p);
    p.cond.notify_all();
}

fn worker_loop() {
    let p = pool();
    loop {
        let task = {
            let mut st = lock_state(p);
            loop {
                if let Some(t) = st.pop(0) {
                    break t;
                }
                st = p.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_task(task);
    }
}

fn run_task(t: Task) {
    let class = t.class;
    let batch = t.batch;
    if let Err(p) = catch_unwind(AssertUnwindSafe(t.job)) {
        let mut slot = batch.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(format!(
                "{} task panicked: {}",
                class.label(),
                payload_msg(p.as_ref())
            ));
        }
    }
    if batch.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        notify();
    }
}

/// Execute queued tasks of class depth ≥ `min` until `done()` returns
/// true, parking on the pool condvar when no eligible task is pending.
/// `done` is re-checked under the pool lock before parking, so a state
/// change followed by [`notify`] is never lost. The service's consumer
/// loop uses this to drain tenant-round results while donating its own
/// cycles to the pool.
pub fn help_until(min: TaskClass, done: &mut dyn FnMut() -> bool) {
    let p = pool();
    loop {
        if done() {
            return;
        }
        let task = {
            let mut st = lock_state(p);
            loop {
                if let Some(t) = st.pop(min.depth()) {
                    break Some(t);
                }
                if done() {
                    break None;
                }
                st = p.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(t) => run_task(t),
            None => return,
        }
    }
}

/// A scoped task batch: tasks spawned on `Scope` may borrow anything that
/// outlives the [`scope`] call, because `scope` does not return until every
/// spawned task has finished.
pub struct Scope<'s> {
    class: TaskClass,
    batch: Arc<BatchState>,
    /// Invariant over 's (the marker mirrors `crossbeam::thread::Scope`).
    _marker: std::marker::PhantomData<&'s mut &'s ()>,
}

impl<'s> Scope<'s> {
    /// Queue `f` on the pool as a task of this scope's class.
    pub fn spawn<F: FnOnce() + Send + 's>(&self, f: F) {
        self.batch.remaining.fetch_add(1, Ordering::SeqCst);
        let job: Box<dyn FnOnce() + Send + 's> = Box::new(f);
        // SAFETY: `scope` (and its drop guard, if the scope body panics)
        // blocks until `remaining` reaches zero, so every borrow inside the
        // closure — bounded below by 's — strictly outlives its execution.
        // The transmute only erases the lifetime; the layout of a boxed
        // trait object does not depend on it.
        let job: Job = unsafe { std::mem::transmute(job) };
        let p = pool();
        {
            let mut st = lock_state(p);
            st.queues[self.class.depth()].push_back(Task {
                job,
                class: self.class,
                batch: Arc::clone(&self.batch),
            });
            p.cond.notify_one();
        }
    }
}

/// Waits for `batch.remaining == 0`, helping with tasks at least as deep
/// as `class` in the meantime.
fn wait_batch(class: TaskClass, batch: &Arc<BatchState>) {
    let b = Arc::clone(batch);
    help_until(class, &mut move || b.remaining.load(Ordering::SeqCst) == 0);
}

/// Run-to-completion drop guard: if the scope body panics, spawned tasks
/// still borrow the stack and must finish before unwinding continues.
struct ScopeGuard<'a> {
    class: TaskClass,
    batch: &'a Arc<BatchState>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        wait_batch(self.class, self.batch);
    }
}

/// Open a task scope of the given class: `body` receives a [`Scope`] to
/// spawn borrowing tasks on, and `scope` returns only after the body *and
/// every spawned task* completed. The calling thread helps execute pending
/// tasks (of class depth ≥ `class`) while waiting, so a scope makes
/// progress even with zero pool workers and nested scopes never deadlock.
///
/// # Panics
///
/// If a spawned task panicked, re-panics with
/// `"<class label> task panicked: <original message>"` (first failing task
/// wins). A panic in `body` itself propagates unchanged — after every
/// already-spawned task has finished.
pub fn scope<'s, R>(class: TaskClass, body: impl FnOnce(&Scope<'s>) -> R) -> R {
    let batch = Arc::new(BatchState {
        remaining: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    let guard = ScopeGuard {
        class,
        batch: &batch,
    };
    let scope = Scope {
        class,
        batch: Arc::clone(&batch),
        _marker: std::marker::PhantomData,
    };
    let r = body(&scope);
    std::mem::forget(guard); // normal path: wait without double-waiting
    wait_batch(class, &batch);
    if let Some(payload) = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
        panic!("{payload}");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_with_borrows() {
        ensure_workers(2);
        let mut out = vec![0u64; 64];
        scope(TaskClass::Sweep, |s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * 3);
            }
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scopes_complete() {
        ensure_workers(2);
        let total = AtomicU64::new(0);
        scope(TaskClass::Tenant, |s| {
            for _ in 0..4 {
                let total = &total;
                s.spawn(move || {
                    scope(TaskClass::Shard, |inner| {
                        for _ in 0..8 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn zero_worker_scope_is_executed_by_the_caller() {
        // Workers may exist from other tests; what this asserts is that
        // completion never *requires* them: a scope with tasks targeted
        // at an empty class queue still finishes via caller helping.
        let mut hits = [false; 8];
        scope(TaskClass::Shard, |s| {
            for h in hits.iter_mut() {
                s.spawn(move || *h = true);
            }
        });
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn task_panic_carries_class_label() {
        ensure_workers(1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            scope(TaskClass::Shard, |s| {
                s.spawn(|| panic!("inner boom"));
            });
        }));
        let msg = payload_msg(r.expect_err("task panic must propagate").as_ref());
        assert!(msg.contains("shard-phase task panicked"), "{msg}");
        assert!(msg.contains("inner boom"), "{msg}");
    }

    #[test]
    fn help_until_drains_results_without_polling() {
        ensure_workers(2);
        let pipe: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let mut seen = Vec::new();
        scope(TaskClass::Tenant, |s| {
            for i in 0..16u64 {
                let pipe = &pipe;
                s.spawn(move || {
                    pipe.lock().unwrap().push(i);
                    notify();
                });
            }
            while seen.len() < 16 {
                help_until(TaskClass::Tenant, &mut || !pipe.lock().unwrap().is_empty());
                seen.append(&mut pipe.lock().unwrap());
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_knob_roundtrips() {
        set_pool_jobs(3);
        assert_eq!(pool_jobs(), 3);
        set_pool_jobs(0);
        assert!(pool_jobs() >= 1);
    }
}
