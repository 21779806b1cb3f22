//! Merchandiser: load-balance-aware data placement on heterogeneous memory
//! for task-parallel HPC applications (PPoPP'23).
//!
//! The system's thesis: profiling-guided data placement that is unaware of
//! *task semantics* migrates hot pages without asking which task they belong
//! to, creating load imbalance — a task whose pages happen to reach DRAM
//! finishes early and waits at the synchronisation point. Merchandiser
//! instead coordinates the fast-memory budget across tasks so that *all*
//! tasks finish fast.
//!
//! Pipeline (mirroring §3's overview figure):
//!
//! 1. the `LB_HM_config` user API — the data objects to manage, with sizes
//!    known right before task execution — is
//!    [`Workload::object_sizes`](merch_hm::Workload::object_sizes);
//! 2. [`estimator`] — input-aware memory-access quantification (§4,
//!    Equation 1) using pattern classification and α;
//! 3. [`homog`] — execution-time prediction on homogeneous memory (§5.2);
//! 4. [`perfmodel`] — the Equation 2 performance model with the learned
//!    correlation function f(·) (§5, §5.1);
//! 5. [`training`] — offline construction of f(·) from code samples and
//!    event selection;
//! 6. [`allocator`] — the greedy load-balancing heuristic (Algorithm 1);
//! 7. [`policy`] — the runtime: profiling with task semantics on the base
//!    input, per-instance prediction, quota-gated page migration (§6).

pub mod allocator;
pub mod estimator;
pub mod homog;
pub mod perfmodel;
pub mod policy;
pub mod sentinel;
pub mod training;

pub use allocator::{plan_dram_accesses, AllocatorInput, AllocatorPlan, TaskInput};
pub use estimator::{AccessEstimator, ObjectEstimate};
pub use homog::HomogeneousPredictor;
pub use perfmodel::PerformanceModel;
pub use policy::MerchandiserPolicy;
pub use sentinel::{DriftSentinel, SentinelVerdict, TaskSample};
pub use training::{generate_code_samples, train_correlation_function, TrainingArtifacts};
