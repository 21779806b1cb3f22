//! The task-parallel application abstraction.
//!
//! A [`Workload`] is an application in the paper's model (§2): a set of
//! tasks executed repeatedly (each repetition is a *task instance*, possibly
//! with a new input), synchronising at the end of every round. Round 0 uses
//! the *base input* (the paper's profiling run).

use std::collections::BTreeMap;

use crate::object::ObjectSpec;
use crate::system::HmSystem;
use crate::trace::TaskWork;

/// Task index within an application.
pub type TaskId = usize;

/// A task-parallel HPC application runnable on the emulated HM.
pub trait Workload: Send {
    /// Application name ("SpGEMM", "WarpX", ...).
    fn name(&self) -> &str;

    /// Data objects the user registers through the `LB_HM_config` API,
    /// sized for the largest input the run will see (pages are allocated
    /// once; per-round logical sizes shrink within this envelope).
    fn object_specs(&self) -> Vec<ObjectSpec>;

    /// Number of parallel tasks (MPI ranks / OpenMP threads).
    fn num_tasks(&self) -> usize;

    /// Number of task instances (rounds) the run executes; round 0 is the
    /// base input.
    fn num_instances(&self) -> usize;

    /// Logical object sizes for `round`'s input, as `(name, bytes)` pairs:
    /// the `LB_HM_config(objects, sizes)` call of §4, made right before
    /// each task instance. Defaults to the allocation sizes (inputs that
    /// do not vary).
    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        let _ = round;
        self.object_specs()
            .into_iter()
            .map(|s| (s.name, s.size))
            .collect()
    }

    /// Produce the work of every task for `round`. `sys` provides object
    /// ids (lookup by name).
    fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork>;

    /// Kernel IR of the application's hot loops for Spindle-like
    /// classification (Table 1). Default: empty.
    fn kernel_ir(&self) -> merch_patterns::KernelIr {
        merch_patterns::KernelIr::new(self.name())
    }

    /// Statically-known blocking-reuse hints per object name (the tiling
    /// factors dense kernels declare; feeds the offline α path). Default:
    /// none (reuse 1).
    fn reuse_hints(&self) -> BTreeMap<String, f64> {
        BTreeMap::new()
    }

    /// Objects whose hot-page distribution is re-drawn for `round`
    /// (name, skew): inputs like "a different sparse matrix each
    /// iteration" move their hot entries between instances, which is what
    /// makes one-shot static placements go stale. Default: none.
    fn hot_page_drift(&self, round: usize) -> Vec<(String, f64)> {
        let _ = round;
        Vec::new()
    }
}

/// Synthetic workloads for tests, benchmarks and documentation examples.
pub mod testutil {
    use super::*;
    use crate::object::ObjectId;
    use crate::trace::{ObjectAccess, Phase};
    use merch_patterns::AccessPattern;

    /// A deliberately imbalanced synthetic workload: task k performs
    /// (k+1)·base accesses to its private object. Used by runtime tests.
    pub struct SkewedWorkload {
        pub tasks: usize,
        pub rounds: usize,
        pub base_accesses: f64,
        pub obj_bytes: u64,
    }

    impl Workload for SkewedWorkload {
        fn name(&self) -> &str {
            "skewed"
        }
        fn object_specs(&self) -> Vec<ObjectSpec> {
            (0..self.tasks)
                .map(|t| ObjectSpec::new(&format!("obj{t}"), self.obj_bytes).owned_by(t))
                .collect()
        }
        fn num_tasks(&self) -> usize {
            self.tasks
        }
        fn num_instances(&self) -> usize {
            self.rounds
        }
        fn instance(&mut self, _round: usize, sys: &HmSystem) -> Vec<TaskWork> {
            (0..self.tasks)
                .map(|t| {
                    let oid: ObjectId = sys.object_by_name(&format!("obj{t}")).unwrap();
                    TaskWork::new(t).with_phase(Phase::new("work", 0.0).with_access(
                        ObjectAccess::new(
                            oid,
                            self.base_accesses * (t + 1) as f64,
                            8,
                            AccessPattern::Stream,
                            0.2,
                        ),
                    ))
                })
                .collect()
        }
    }
}
