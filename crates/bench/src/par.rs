//! Deterministic sweep driver on the unified scheduler.
//!
//! Every sweep in [`crate::experiments`] is a cross product of independent
//! (application × policy × seed) cells: each cell builds its own
//! [`merch_hm::HmSystem`], workload and policy from the seed, so cells share
//! no mutable state and their results do not depend on scheduling.
//! [`par_map`] runs the cells as [`merch_sched::TaskClass::Sweep`] tasks on
//! the process-wide [`merch_sched`] pool — the same pool that executes
//! the service's tenant rounds, so a sweep whose cells run a concurrent
//! service never oversubscribes the machine — and returns the
//! results **in input order**, so the emitted tables are byte-identical to
//! a sequential sweep no matter how the OS interleaves the workers. All
//! waiting is condvar-based (the pool parks idle workers and wakes them on
//! submission); nothing sleep-polls.
//!
//! A panic inside a cell aborts the sweep, but not anonymously: the pool
//! catches it, stops handing out further cells, and re-raises a panic that
//! names the failing cell index and carries the original message — a
//! `repro` run that dies in cell 37 of a 200-cell sweep says so, instead of
//! "a scoped thread panicked".

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serialises tests that set the process-global pool job count.
#[cfg(test)]
pub(crate) static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// The first failing cell of an aborted sweep: its input index and the
/// original panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAbort {
    /// Input index of the failing cell (first by dispatch order).
    pub cell: usize,
    /// The cell's original panic message.
    pub message: String,
}

impl std::fmt::Display for SweepAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep cell {} panicked: {}", self.cell, self.message)
    }
}

/// Map `f` over `items` on the sweep worker pool, returning results in
/// input order regardless of completion order — or, if a cell panics, the
/// per-cell results that *did* complete (in input order, `None` for cells
/// never finished) plus the [`SweepAbort`] naming the failing cell.
///
/// This is the non-panicking surface behind [`par_map`]: callers that emit
/// ordered output incrementally (the `repro` sweep driver, the soak
/// harness) use it to flush the completed prefix and a marker line instead
/// of losing every finished cell to an unwinding panic.
pub fn try_par_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, (Vec<Option<R>>, SweepAbort)>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // At least one puller (the submitting thread), even for no items.
    let jobs = merch_sched::pool_jobs().min(items.len()).max(1);
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..work.len()).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let puller = || loop {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        if i >= work.len() {
            break;
        }
        let item = work[i]
            .lock()
            .expect("work slot poisoned")
            .take()
            .expect("each cell is claimed exactly once");
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(r) => *slots[i].lock().expect("result slot poisoned") = Some(r),
            Err(p) => {
                let mut fail = failure.lock().expect("failure slot poisoned");
                if fail.is_none() {
                    *fail = Some((i, merch_sched::payload_msg(p.as_ref())));
                }
                // Park the cursor past the end so no worker starts
                // another cell of a doomed sweep.
                cursor.store(work.len(), Ordering::SeqCst);
                break;
            }
        }
    };
    merch_sched::ensure_workers(jobs - 1);
    merch_sched::scope(merch_sched::TaskClass::Sweep, |scope| {
        // `jobs - 1` queued pullers plus the submitting thread running one
        // inline: at most `jobs` concurrent cell executors, even when the
        // pool is shared with deeper task classes.
        for _ in 1..jobs {
            scope.spawn(puller);
        }
        puller();
    });
    let done: Vec<Option<R>> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect();
    match failure.into_inner().expect("failure slot poisoned") {
        Some((cell, message)) => Err((done, SweepAbort { cell, message })),
        None => Ok(done
            .into_iter()
            .map(|r| r.expect("no cell failed"))
            .collect()),
    }
}

/// Map `f` over `items` on the sweep worker pool, returning results in
/// input order regardless of completion order.
///
/// Workers pull cells from a shared cursor, so a straggler cell (a slow
/// application run) never idles the rest of the pool. With one worker (or
/// one item) the submitting thread runs every cell in order and no helper
/// is spawned.
///
/// # Panics
///
/// If a cell's `f` panics, the pool stops dispatching new cells, waits for
/// in-flight cells, and panics with `sweep cell <index> panicked: <original
/// message>`. The first failing cell (by dispatch order) wins. Callers
/// that must survive a cell failure (to flush partial ordered output) use
/// [`try_par_map`] instead.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    match try_par_map(items, f) {
        Ok(out) => out,
        Err((_, abort)) => panic!("{abort}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(items.clone(), |i| {
            // Make early cells slow so completion order differs from
            // input order.
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item() {
        assert_eq!(par_map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    fn jobs_override_roundtrips() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        merch_sched::set_pool_jobs(1);
        assert_eq!(merch_sched::pool_jobs(), 1);
        let out = par_map(vec![1u32, 2, 3], |i| i * i);
        assert_eq!(out, vec![1, 4, 9]);
        merch_sched::set_pool_jobs(0);
        assert!(merch_sched::pool_jobs() >= 1);
    }

    #[test]
    fn pool_panic_names_the_failing_cell() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        merch_sched::set_pool_jobs(4);
        let r = catch_unwind(|| {
            par_map((0u32..8).collect(), |i| {
                if i == 5 {
                    panic!("boom {i}");
                }
                i
            })
        });
        merch_sched::set_pool_jobs(0);
        let msg = merch_sched::payload_msg(r.expect_err("the cell panic must propagate").as_ref());
        assert!(msg.contains("sweep cell 5 panicked"), "{msg}");
        assert!(msg.contains("boom 5"), "{msg}");
    }

    #[test]
    fn try_par_map_returns_completed_prefix_sequentially() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        merch_sched::set_pool_jobs(1);
        let r = try_par_map((0u32..8).collect(), |i| {
            if i == 5 {
                panic!("boom {i}");
            }
            i * 10
        });
        merch_sched::set_pool_jobs(0);
        let (done, abort) = r.expect_err("cell 5 must abort the sweep");
        assert_eq!(abort.cell, 5);
        assert_eq!(abort.message, "boom 5");
        // Sequential dispatch: exactly the cells before the failure completed.
        assert_eq!(
            done,
            vec![
                Some(0),
                Some(10),
                Some(20),
                Some(30),
                Some(40),
                None,
                None,
                None
            ]
        );
        assert_eq!(abort.to_string(), "sweep cell 5 panicked: boom 5");
    }

    #[test]
    fn try_par_map_pool_abort_names_cell_and_keeps_finished_cells() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        merch_sched::set_pool_jobs(4);
        let r = try_par_map((0u32..32).collect(), |i| {
            if i == 9 {
                panic!("kaboom");
            }
            i
        });
        merch_sched::set_pool_jobs(0);
        let (done, abort) = r.expect_err("cell 9 must abort the sweep");
        assert_eq!(abort.cell, 9);
        assert_eq!(abort.message, "kaboom");
        assert_eq!(done.len(), 32);
        assert!(done[9].is_none(), "the failing cell has no result");
        // Whatever completed is in its input-order slot with the right value.
        for (i, slot) in done.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v as usize, i);
            }
        }
        // With 4 workers at least the cells dispatched before the failure
        // window produced results.
        assert!(done.iter().flatten().count() >= 1);
    }

    #[test]
    fn try_par_map_clean_sweep_matches_par_map() {
        let items: Vec<u64> = (0..37).collect();
        let a = try_par_map(items.clone(), |i| i * 7).expect("no cell fails");
        let b = par_map(items, |i| i * 7);
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_panic_names_the_failing_cell() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        merch_sched::set_pool_jobs(1);
        let r = catch_unwind(|| {
            par_map(vec![1u32, 2], |i| {
                if i == 2 {
                    panic!("kapow");
                }
                i
            })
        });
        merch_sched::set_pool_jobs(0);
        let msg = merch_sched::payload_msg(r.expect_err("the cell panic must propagate").as_ref());
        assert!(msg.contains("sweep cell 1 panicked"), "{msg}");
        assert!(msg.contains("kapow"), "{msg}");
    }
}
