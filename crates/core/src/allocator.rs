//! Algorithm 1: the greedy load-balance heuristic deciding how many DRAM
//! accesses each task gets (§6).
//!
//! Deciding the placement is a knapsack problem (DRAM capacity = knapsack
//! weight, pages = items valued by predicted benefit), hence NP-hard; the
//! paper's heuristic repeatedly takes the task with the longest predicted
//! execution time and grows its DRAM accesses in 5 % steps until it drops
//! below the second-longest task, stopping when DRAM is exhausted.
//!
//! **Fast path (DESIGN.md §11).** The production entry point
//! [`plan_dram_accesses_cached`] replaces the per-round linear scans with
//! two lazily-invalidated [`BinaryHeap`]s (selection over non-maxed tasks,
//! second-longest over all tasks) and replaces the per-step Equation 2
//! traversal with lookups into per-task [`TaskCurve`]s — `T_hybrid`
//! materialized lazily at exactly the `acc` values Algorithm 1's `step`
//! recurrence visits, memoised across rounds in a [`CurveCache`] keyed on
//! everything a prediction depends on. The emitted plan is **bitwise
//! identical** to the retained scan-based [`plan_dram_accesses_reference`]
//! (`tests/planner_props.rs` proves it property-wise).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use merch_profiling::PmcEvents;

use crate::perfmodel::Eq2Model;

/// Per-task input of Algorithm 1.
#[derive(Debug, Clone)]
pub struct TaskInput {
    /// Task index.
    pub task: usize,
    /// `D_i`: execution time using the PM-only configuration, ns (predicted
    /// by §5.2 for the new input).
    pub d_pm_only_ns: f64,
    /// DRAM-only execution time for the new input, ns (the second bound of
    /// Equation 2).
    pub d_dram_only_ns: f64,
    /// `PCs_i`: hardware events measured on the PM-only configuration.
    pub events: PmcEvents,
    /// `Total_Acc_i`: estimated total main-memory accesses (Equation 1).
    pub total_accesses: f64,
    /// Bytes of data the task touches (for `MAP_TO_PAGES`).
    pub bytes: u64,
}

/// Full input of Algorithm 1.
#[derive(Debug)]
pub struct AllocatorInput<'m> {
    /// Per-task information.
    pub tasks: Vec<TaskInput>,
    /// `DC`: total DRAM capacity available for placement, bytes.
    pub dram_capacity: u64,
    /// The Equation 2 performance model — the interpreted
    /// [`crate::perfmodel::PerformanceModel`] or its compiled fast-path
    /// twin (both coerce; predictions are bitwise identical).
    pub model: &'m dyn Eq2Model,
    /// Step size of the inner loop (the paper uses 5 %).
    pub step: f64,
}

/// Output of Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocatorPlan {
    /// `DRAM_Acc_i`: DRAM accesses granted to each task.
    pub dram_accesses: Vec<f64>,
    /// Predicted execution time of each task under the plan, ns.
    pub predicted_ns: Vec<f64>,
    /// `DC_i`: DRAM bytes mapped to each task (`MAP_TO_PAGES`).
    pub dram_bytes: Vec<u64>,
    /// Outer-loop iterations executed.
    pub rounds: usize,
}

impl AllocatorPlan {
    /// DRAM access fraction per task (`DRAM_Acc_i / Total_Acc_i`).
    pub fn fractions(&self, tasks: &[TaskInput]) -> Vec<f64> {
        self.dram_accesses
            .iter()
            .zip(tasks)
            .map(|(&a, t)| {
                if t.total_accesses > 0.0 {
                    (a / t.total_accesses).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// `MAP_TO_PAGES` (Algorithm 1, line 18): the algorithm "assumes that the
/// memory accesses are evenly distributed to memory pages of the task", so
/// granting x % of accesses costs x % of the task's pages.
fn map_to_pages(task: &TaskInput, dram_accesses: f64) -> u64 {
    if task.total_accesses <= 0.0 {
        return 0;
    }
    let frac = (dram_accesses / task.total_accesses).clamp(0.0, 1.0);
    (task.bytes as f64 * frac).round() as u64
}

/// Equation 2 evaluated at an absolute DRAM-access grant — the closure body
/// of the reference implementation, hoisted so both planners share one
/// definition (and therefore one rounding behaviour).
#[inline]
fn predict_at(t: &TaskInput, acc: f64, model: &dyn Eq2Model) -> f64 {
    let r = if t.total_accesses > 0.0 {
        (acc / t.total_accesses).clamp(0.0, 1.0)
    } else {
        0.0
    };
    model.predict(t.d_pm_only_ns, t.d_dram_only_ns, &t.events, r)
}

/// FNV-1a over one little-endian `u64`.
fn fnv64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cache key of a task's time curve: every bit a grid sample depends on —
/// the Equation 2 bounds, total accesses, step size, the 14 PMC events, and
/// the model fingerprint. Bytes and task index are deliberately excluded
/// (they never enter a prediction).
fn curve_key(t: &TaskInput, step: f64, model_fp: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [t.d_pm_only_ns, t.d_dram_only_ns, t.total_accesses, step] {
        h = fnv64(h, v.to_bits());
    }
    for &e in &t.events.values {
        h = fnv64(h, e.to_bits());
    }
    fnv64(h, model_fp)
}

/// Lazily materialised `T_hybrid` samples of one task at exactly the `acc`
/// iterates Algorithm 1's inner-loop recurrence visits:
/// `acc_0 = 0`, `acc_{k+1} = min(acc_k + step·Total_Acc, Total_Acc)`.
///
/// The iterates are stored (rather than recomputed as `k·step·Total_Acc`,
/// which differs in the last ulp) so the grid stays bitwise identical to
/// the reference loop's running accumulation.
#[derive(Debug, Default, Clone)]
pub struct TaskCurve {
    /// See [`curve_key`].
    key: u64,
    /// Grid accesses; `acc[0] == 0.0`.
    acc: Vec<f64>,
    /// Predicted time at each grid point. Index 0 is a placeholder: the
    /// planner seeds every task with `D_pm_only` and never asks for a
    /// prediction at zero grant.
    pred: Vec<f64>,
}

/// Cross-round memo of per-task time curves. [`sync`](Self::sync) keys each
/// slot on everything its samples depend on, so policy inputs that repeat
/// between rounds (the steady state once measurements settle) reuse every
/// Equation 2 evaluation, while any change — retrained model, fresh PMC
/// measurement, different step — invalidates exactly the affected task.
#[derive(Debug, Default)]
pub struct CurveCache {
    tasks: Vec<TaskCurve>,
    evals: u64,
}

impl CurveCache {
    /// Align the cache with `input`: one slot per task, resetting any slot
    /// whose key no longer matches the task it now holds.
    fn sync(&mut self, input: &AllocatorInput<'_>) {
        self.tasks
            .resize_with(input.tasks.len(), TaskCurve::default);
        let model_fp = input.model.fingerprint();
        for (slot, t) in self.tasks.iter_mut().zip(&input.tasks) {
            let key = curve_key(t, input.step, model_fp);
            if slot.key != key || slot.acc.is_empty() {
                slot.key = key;
                slot.acc.clear();
                slot.acc.push(0.0);
                slot.pred.clear();
                slot.pred.push(f64::NAN);
            }
        }
    }

    /// Grid point `k` (k ≥ 1) of task `ti`'s curve, extending it lazily.
    fn point(
        &mut self,
        ti: usize,
        k: usize,
        t: &TaskInput,
        step: f64,
        model: &dyn Eq2Model,
    ) -> (f64, f64) {
        let Self { tasks, evals } = self;
        let c = &mut tasks[ti];
        while c.acc.len() <= k {
            let prev = *c.acc.last().unwrap();
            let next = (prev + step * t.total_accesses).min(t.total_accesses);
            c.acc.push(next);
            c.pred.push(predict_at(t, next, model));
            *evals += 1;
        }
        (c.acc[k], c.pred[k])
    }

    /// Equation 2 evaluations performed since construction. Grid points
    /// served from cache cost none — the benchmark and tests use this to verify
    /// the warm path really skips the model.
    pub fn evals(&self) -> u64 {
        self.evals
    }
}

/// Max-heap entry ordered exactly like the reference scan's `max_by`
/// (`f64::total_cmp`, then task index): among equal times the heap pops the
/// highest index, which is the element `Iterator::max_by` keeps.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    task: usize,
    version: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.task.cmp(&other.task))
    }
}

/// Pop the live maximum. Entries whose version was superseded are discarded
/// on the way down — the lazy-invalidation contract keeps exactly one live
/// entry per task in each heap.
fn pop_live(heap: &mut BinaryHeap<HeapEntry>, versions: &[u64]) -> Option<HeapEntry> {
    while let Some(e) = heap.pop() {
        if versions[e.task] == e.version {
            return Some(e);
        }
    }
    None
}

/// Live maximum over every task except `skip` — Algorithm 1's line 11,
/// with the reference scan's `fold(0.0, f64::max)` semantics (clamps to
/// ≥ 0, ignores NaN). Inspected live entries are pushed back; stale ones
/// are dropped for good.
fn peek_second(heap: &mut BinaryHeap<HeapEntry>, versions: &[u64], skip: usize) -> f64 {
    let mut skipped: Option<HeapEntry> = None;
    let mut inspected: Vec<HeapEntry> = Vec::new();
    while let Some(e) = heap.pop() {
        if versions[e.task] != e.version {
            continue;
        }
        if e.task == skip {
            skipped = Some(e); // exactly one live entry per task
            continue;
        }
        // `total_cmp` descends NaN-first, so the first non-NaN live entry
        // is the fold's maximum; anything before it is NaN the fold skips.
        let stop = !e.time.is_nan();
        inspected.push(e);
        if stop {
            break;
        }
    }
    let second = inspected.iter().fold(0.0f64, |a, e| f64::max(a, e.time));
    for e in inspected {
        heap.push(e);
    }
    if let Some(e) = skipped {
        heap.push(e);
    }
    second
}

/// Run Algorithm 1 through the fast path: heap-driven task selection plus
/// `cache`-memoised time curves. The emitted plan is bitwise identical to
/// [`plan_dram_accesses_reference`] for every input.
pub fn plan_dram_accesses_cached(
    input: &AllocatorInput<'_>,
    cache: &mut CurveCache,
) -> AllocatorPlan {
    cache.sync(input);
    let n = input.tasks.len();
    let mut dram_acc = vec![0.0f64; n]; // DRAM_Acc_i ← 0  (line 7)
    let mut dc = vec![0u64; n]; // DC_i ← 0        (line 6)
    let mut d_prime: Vec<f64> = input.tasks.iter().map(|t| t.d_pm_only_ns).collect(); // line 8
    let mut maxed = vec![false; n];
    let mut maxed_count = 0usize;
    let mut steps = vec![0usize; n]; // grid index of each task's grant
    let mut used = 0u64; // Σ DC_i, maintained incrementally (integer-exact)
    let mut rounds = 0usize;

    let mut versions = vec![0u64; n];
    let mut sel: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(n + 1);
    let mut all: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(n + 1);
    for (k, &time) in d_prime.iter().enumerate() {
        let e = HeapEntry {
            time,
            task: k,
            version: 0,
        };
        sel.push(e);
        all.push(e);
    }
    let round_cap = 10 * n.max(1) * ((1.0 / input.step) as usize + 1);

    loop {
        rounds += 1;
        // Line 10: the longest task not yet at 100 % DRAM. Only non-maxed
        // tasks keep a live entry in `sel`.
        let Some(top) = pop_live(&mut sel, &versions) else {
            break; // every task maxed out
        };
        let i = top.task;
        // Line 11: the second longest execution time (maxed tasks count).
        let second = peek_second(&mut all, &versions, i);

        // Lines 12-16: walk the task's time curve until it drops to the
        // second-longest. Each step is two array loads once the curve has
        // been materialised (typically on a previous round or plan call).
        let t = &input.tasks[i];
        let mut acc;
        let mut pred;
        loop {
            steps[i] += 1;
            let p = cache.point(i, steps[i], t, input.step, input.model);
            acc = p.0;
            pred = p.1;
            if pred <= second || acc >= t.total_accesses {
                break;
            }
        }
        d_prime[i] = pred;
        if acc >= t.total_accesses {
            maxed[i] = true;
            maxed_count += 1;
        }
        dram_acc[i] = acc; // line 17
        let new_dc = map_to_pages(t, acc); // line 18
        used = used - dc[i] + new_dc;
        dc[i] = new_dc;

        versions[i] += 1;
        let e = HeapEntry {
            time: d_prime[i],
            task: i,
            version: versions[i],
        };
        all.push(e);
        if !maxed[i] {
            sel.push(e);
        }

        // Line 19: stop when the DRAM capacity is reached. Scale the last
        // grant back so the plan never over-commits.
        if used >= input.dram_capacity {
            let overshoot = used - input.dram_capacity;
            let trimmed_bytes = dc[i].saturating_sub(overshoot);
            let trim_frac = if dc[i] > 0 {
                trimmed_bytes as f64 / dc[i] as f64
            } else {
                0.0
            };
            dram_acc[i] *= trim_frac;
            dc[i] = trimmed_bytes;
            // The trimmed grant sits off the step grid; evaluate directly.
            d_prime[i] = predict_at(t, dram_acc[i], input.model);
            break;
        }
        if maxed_count == n || rounds > round_cap {
            break;
        }
    }

    AllocatorPlan {
        dram_accesses: dram_acc,
        predicted_ns: d_prime,
        dram_bytes: dc,
        rounds,
    }
}

/// Run Algorithm 1 (fast path with a throwaway curve cache).
pub fn plan_dram_accesses(input: &AllocatorInput<'_>) -> AllocatorPlan {
    let mut cache = CurveCache::default();
    plan_dram_accesses_cached(input, &mut cache)
}

/// The original scan-based Algorithm 1, retained verbatim as the
/// differential-testing reference for the fast path: every round re-scans
/// all tasks for the longest/second-longest and re-evaluates Equation 2 at
/// every step. `tests/planner_props.rs` asserts
/// [`plan_dram_accesses_cached`] matches it bit for bit.
pub fn plan_dram_accesses_reference(input: &AllocatorInput<'_>) -> AllocatorPlan {
    let n = input.tasks.len();
    let mut dram_acc = vec![0.0f64; n]; // DRAM_Acc_i ← 0  (line 7)
    let mut dc = vec![0u64; n]; // DC_i ← 0        (line 6)
    let mut d_prime: Vec<f64> = input.tasks.iter().map(|t| t.d_pm_only_ns).collect(); // line 8
    let mut maxed = vec![false; n];
    let mut rounds = 0usize;

    let predict = |t: &TaskInput, acc: f64| -> f64 {
        let r = if t.total_accesses > 0.0 {
            (acc / t.total_accesses).clamp(0.0, 1.0)
        } else {
            0.0
        };
        input
            .model
            .predict(t.d_pm_only_ns, t.d_dram_only_ns, &t.events, r)
    };

    loop {
        rounds += 1;
        // Line 10: the longest task not yet at 100 % DRAM.
        let Some(i) = (0..n)
            .filter(|&k| !maxed[k])
            .max_by(|&a, &b| d_prime[a].total_cmp(&d_prime[b]))
        else {
            break; // every task maxed out
        };
        // Line 11: the second longest execution time.
        let second = (0..n)
            .filter(|&k| k != i)
            .map(|k| d_prime[k])
            .fold(0.0f64, f64::max);

        // Lines 12-16: grow DRAM accesses in `step` increments until the
        // predicted time drops to the second-longest.
        let t = &input.tasks[i];
        let mut acc = dram_acc[i];
        loop {
            acc = (acc + input.step * t.total_accesses).min(t.total_accesses);
            d_prime[i] = predict(t, acc);
            if d_prime[i] <= second || acc >= t.total_accesses {
                break;
            }
        }
        if acc >= t.total_accesses {
            maxed[i] = true;
        }
        dram_acc[i] = acc; // line 17
        dc[i] = map_to_pages(t, acc); // line 18

        // Line 19: stop when the DRAM capacity is reached. Scale the last
        // grant back so the plan never over-commits.
        let used: u64 = dc.iter().sum();
        if used >= input.dram_capacity {
            let overshoot = used - input.dram_capacity;
            let trimmed_bytes = dc[i].saturating_sub(overshoot);
            let trim_frac = if dc[i] > 0 {
                trimmed_bytes as f64 / dc[i] as f64
            } else {
                0.0
            };
            dram_acc[i] *= trim_frac;
            dc[i] = trimmed_bytes;
            d_prime[i] = predict(t, dram_acc[i]);
            break;
        }
        if maxed.iter().all(|&m| m) || rounds > 10 * n.max(1) * ((1.0 / input.step) as usize + 1) {
            break;
        }
    }

    AllocatorPlan {
        dram_accesses: dram_acc,
        predicted_ns: d_prime,
        dram_bytes: dc,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfmodel::PerformanceModel;
    use merch_models::{GradientBoostedRegressor, Regressor};

    /// A model whose f ≡ 1 (linear interpolation between the bounds) —
    /// enough to test the allocator's control flow deterministically.
    fn linear_model() -> PerformanceModel {
        let mut f = GradientBoostedRegressor::new(1, 0.1, 1, 0);
        f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
        PerformanceModel { f, num_events: 8 }
    }

    fn task(i: usize, pm_ns: f64, accesses: f64, bytes: u64) -> TaskInput {
        TaskInput {
            task: i,
            d_pm_only_ns: pm_ns,
            d_dram_only_ns: pm_ns / 3.0,
            events: PmcEvents { values: [0.5; 14] },
            total_accesses: accesses,
            bytes,
        }
    }

    #[test]
    fn longest_task_gets_dram_first() {
        let model = linear_model();
        let input = AllocatorInput {
            tasks: vec![
                task(0, 10e6, 1e6, 1 << 24),
                task(1, 30e6, 3e6, 1 << 24), // slowest
                task(2, 12e6, 1e6, 1 << 24),
            ],
            dram_capacity: 8 << 20, // less than half of one task's bytes
            model: &model,
            step: 0.05,
        };
        let plan = plan_dram_accesses(&input);
        assert!(plan.dram_accesses[1] > plan.dram_accesses[0]);
        assert!(plan.dram_accesses[1] > plan.dram_accesses[2]);
        let used: u64 = plan.dram_bytes.iter().sum();
        assert!(used <= input.dram_capacity, "{used}");
    }

    #[test]
    fn plan_reduces_imbalance() {
        let model = linear_model();
        let input = AllocatorInput {
            tasks: vec![task(0, 10e6, 1e6, 1 << 24), task(1, 30e6, 3e6, 1 << 24)],
            dram_capacity: 1 << 30, // plenty
            model: &model,
            step: 0.05,
        };
        let plan = plan_dram_accesses(&input);
        // Before: the slow task needed 30 ms. With ample DRAM the allocator
        // drives it fully into DRAM (its floor is d_dram_only = 10 ms), and
        // the predicted makespan drops accordingly.
        let makespan = plan.predicted_ns.iter().cloned().fold(0.0f64, f64::max);
        assert!(makespan <= 10e6 + 1e-6, "makespan {makespan}");
        assert!((plan.fractions(&input.tasks)[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_never_exceeded() {
        let model = linear_model();
        for cap in [1u64 << 20, 8 << 20, 1 << 28] {
            let input = AllocatorInput {
                tasks: (0..6)
                    .map(|i| task(i, (i + 1) as f64 * 1e7, 1e6, 1 << 24))
                    .collect(),
                dram_capacity: cap,
                model: &model,
                step: 0.05,
            };
            let plan = plan_dram_accesses(&input);
            assert!(plan.dram_bytes.iter().sum::<u64>() <= cap);
        }
    }

    #[test]
    fn balanced_tasks_share_evenly_ish() {
        let model = linear_model();
        let input = AllocatorInput {
            tasks: (0..4).map(|i| task(i, 10e6, 1e6, 1 << 24)).collect(),
            dram_capacity: 1 << 30,
            model: &model,
            step: 0.05,
        };
        let plan = plan_dram_accesses(&input);
        // All equal → everyone eventually maxes out (capacity permitting).
        let fr = plan.fractions(&input.tasks);
        let min = fr.iter().cloned().fold(1.0, f64::min);
        assert!(min > 0.9, "fractions {fr:?}");
    }

    #[test]
    fn zero_access_task_gets_nothing() {
        let model = linear_model();
        let input = AllocatorInput {
            tasks: vec![task(0, 1e7, 0.0, 1 << 24), task(1, 2e7, 1e6, 1 << 24)],
            dram_capacity: 1 << 30,
            model: &model,
            step: 0.05,
        };
        let plan = plan_dram_accesses(&input);
        assert_eq!(plan.dram_accesses[0], 0.0);
        assert_eq!(plan.dram_bytes[0], 0);
    }

    #[test]
    fn terminates_with_single_task() {
        let model = linear_model();
        let input = AllocatorInput {
            tasks: vec![task(0, 1e7, 1e6, 1 << 24)],
            dram_capacity: 1 << 30,
            model: &model,
            step: 0.05,
        };
        let plan = plan_dram_accesses(&input);
        // Second-longest is 0 → the task maxes out at 100 % DRAM.
        assert!((plan.fractions(&input.tasks)[0] - 1.0).abs() < 1e-9);
    }

    fn assert_plans_bit_identical(a: &AllocatorPlan, b: &AllocatorPlan, ctx: &str) {
        assert_eq!(a.rounds, b.rounds, "{ctx}: rounds");
        assert_eq!(a.dram_bytes, b.dram_bytes, "{ctx}: dram_bytes");
        for (k, (x, y)) in a.dram_accesses.iter().zip(&b.dram_accesses).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: dram_accesses[{k}]");
        }
        for (k, (x, y)) in a.predicted_ns.iter().zip(&b.predicted_ns).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: predicted_ns[{k}]");
        }
    }

    #[test]
    fn cached_matches_reference_cold_and_warm() {
        let model = linear_model();
        let mut cache = CurveCache::default();
        // One cache reused across capacities: capacity is not part of a
        // curve key (it never enters a prediction), so later iterations
        // exercise the warm path.
        for cap in [1u64 << 20, 8 << 20, 1 << 28, 1 << 30] {
            let input = AllocatorInput {
                tasks: (0..7)
                    .map(|i| task(i, (i % 3 + 1) as f64 * 1e7, (i + 1) as f64 * 5e5, 1 << 24))
                    .collect(),
                dram_capacity: cap,
                model: &model,
                step: 0.05,
            };
            let reference = plan_dram_accesses_reference(&input);
            for pass in 0..2 {
                let fast = plan_dram_accesses_cached(&input, &mut cache);
                assert_plans_bit_identical(&fast, &reference, &format!("cap {cap} pass {pass}"));
            }
        }
    }

    #[test]
    fn tied_times_select_the_same_task() {
        // `Iterator::max_by` keeps the LAST maximum; the heap must pop the
        // same task or grants land on different tasks.
        let model = linear_model();
        let input = AllocatorInput {
            tasks: (0..5).map(|i| task(i, 2e7, 1e6, 1 << 24)).collect(),
            dram_capacity: 20 << 20,
            model: &model,
            step: 0.05,
        };
        let reference = plan_dram_accesses_reference(&input);
        let fast = plan_dram_accesses(&input);
        assert_plans_bit_identical(&fast, &reference, "all-tied");
    }

    #[test]
    fn warm_cache_skips_model_evaluations() {
        let model = linear_model();
        let input = AllocatorInput {
            tasks: (0..6)
                .map(|i| task(i, (i + 1) as f64 * 1e7, 1e6, 1 << 24))
                .collect(),
            dram_capacity: 1 << 30,
            model: &model,
            step: 0.05,
        };
        let mut cache = CurveCache::default();
        let cold = plan_dram_accesses_cached(&input, &mut cache);
        let cold_evals = cache.evals();
        assert!(cold_evals > 0);
        let warm = plan_dram_accesses_cached(&input, &mut cache);
        assert_eq!(cache.evals(), cold_evals, "warm pass must be eval-free");
        assert_plans_bit_identical(&warm, &cold, "warm vs cold");
    }

    #[test]
    fn changed_input_invalidates_only_that_task() {
        let model = linear_model();
        let mut tasks: Vec<TaskInput> = (0..4)
            .map(|i| task(i, (i + 1) as f64 * 1e7, 1e6, 1 << 24))
            .collect();
        let mut cache = CurveCache::default();
        let input = AllocatorInput {
            tasks: tasks.clone(),
            dram_capacity: 1 << 30,
            model: &model,
            step: 0.05,
        };
        plan_dram_accesses_cached(&input, &mut cache);
        let warm_evals = cache.evals();
        // Perturb one task: its curve resets, the rest stay warm — so the
        // next call evaluates the model strictly less than a cold run.
        tasks[2].d_pm_only_ns *= 1.5;
        let input2 = AllocatorInput {
            tasks,
            dram_capacity: 1 << 30,
            model: &model,
            step: 0.05,
        };
        let fast = plan_dram_accesses_cached(&input2, &mut cache);
        let incremental = cache.evals() - warm_evals;
        assert!(incremental > 0);
        assert!(
            incremental < warm_evals,
            "only the perturbed task should re-evaluate ({incremental} vs cold {warm_evals})"
        );
        let reference = plan_dram_accesses_reference(&input2);
        assert_plans_bit_identical(&fast, &reference, "after perturbation");
    }
}
