//! Phase-level access summaries and the caching-effect model.
//!
//! A task instance consists of [`Phase`]s (the paper's basic blocks /
//! execution phases, e.g. NWChem-TC's five phases). Each phase declares how
//! many *program-level* accesses it makes to each data object, with what
//! pattern, and how much pure compute it performs. The
//! [`memory_accesses`] function converts program accesses into
//! *main-memory* accesses — the quantity Equation 1 estimates — applying
//! the caching effects that make α non-trivial:
//!
//! * stream/strided accesses coalesce into cache lines;
//! * stencil neighbourhood reuse collapses `points` program accesses per
//!   element into one line fetch;
//! * random accesses hit in the LLC with a probability that grows as the
//!   object shrinks relative to the cache (this size-*dependent* miss rate
//!   is exactly why random patterns need online α refinement);
//! * statically-known tiling/blocking reuse (`reuse`) divides accesses for
//!   blocked dense kernels (DMRG's high α comes from here).

use serde::{Deserialize, Serialize};

use merch_patterns::AccessPattern;

use crate::object::ObjectId;
use crate::CACHE_LINE_BYTES;

/// Program-level access summary of one phase to one object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectAccess {
    /// Object accessed.
    pub object: ObjectId,
    /// Element-level program accesses this phase performs on the object.
    pub accesses: f64,
    /// Element size in bytes.
    pub elem_bytes: u32,
    /// Access pattern of this object in this phase.
    pub pattern: AccessPattern,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Statically-known blocking/tiling reuse factor (≥ 1): dense kernels
    /// touch each element `reuse` times per one main-memory fetch.
    pub reuse: f64,
}

impl ObjectAccess {
    /// Convenience constructor with no blocking reuse.
    pub fn new(
        object: ObjectId,
        accesses: f64,
        elem_bytes: u32,
        pattern: AccessPattern,
        write_fraction: f64,
    ) -> Self {
        Self {
            object,
            accesses,
            elem_bytes,
            pattern,
            write_fraction,
            reuse: 1.0,
        }
    }

    /// Set the blocking reuse factor.
    pub fn with_reuse(mut self, reuse: f64) -> Self {
        self.reuse = reuse.max(1.0);
        self
    }
}

/// LLC hit probability of a random-pattern access into an object of
/// `object_size` bytes given `llc_bytes` of last-level cache. A small
/// temporal-locality boost (repeated hot indices) lets objects a few times
/// larger than the LLC still see some hits.
pub fn random_hit_rate(object_size: u64, llc_bytes: u64) -> f64 {
    if object_size == 0 {
        return 1.0;
    }
    (3.0 * llc_bytes as f64 / object_size as f64).min(0.95)
}

/// Convert program-level accesses into main-memory accesses (cache lines
/// fetched from / written to main memory) — the ground truth the
/// Merchandiser estimator approximates through Equation 1.
pub fn memory_accesses(acc: &ObjectAccess, object_size: u64, llc_bytes: u64) -> f64 {
    if acc.accesses <= 0.0 {
        return 0.0;
    }
    let d = acc.elem_bytes.max(1) as f64;
    let line = CACHE_LINE_BYTES as f64;
    let per_access_lines = match acc.pattern {
        // Unit-stride: d bytes of each line are new per access.
        AccessPattern::Stream => (d / line).min(1.0),
        // Constant stride s: each access advances s·d bytes; accesses within
        // one line coalesce, accesses beyond a line each fetch a line.
        AccessPattern::Strided { stride, elem_bytes } => {
            let step = stride.max(1) as f64 * elem_bytes.max(1) as f64;
            (step / line).min(1.0)
        }
        // p-point stencil: p program accesses per element, one line fetch
        // per line of the object per sweep (leading edge).
        AccessPattern::Stencil { points, .. } => (d / line).min(1.0) / points.max(1) as f64,
        // Random: every miss fetches a full line; hit rate depends on the
        // object size relative to the LLC.
        AccessPattern::Random => 1.0 - random_hit_rate(object_size, llc_bytes),
    };
    (acc.accesses * per_access_lines / acc.reuse.max(1.0)).max(0.0)
}

/// Bytes moved to/from main memory for `mem_accesses` line-granular accesses.
pub fn bytes_for(mem_accesses: f64) -> f64 {
    mem_accesses * CACHE_LINE_BYTES as f64
}

/// One execution phase of a task instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Phase {
    /// Phase name (doubles as the basic-block label for §5.2 timing).
    pub name: String,
    /// Object accesses performed by the phase.
    pub accesses: Vec<ObjectAccess>,
    /// Pure compute time (arithmetic that would proceed from cache/registers
    /// with memory removed), ns.
    pub compute_ns: f64,
}

impl Phase {
    /// New phase.
    pub fn new(name: &str, compute_ns: f64) -> Self {
        Self {
            name: name.to_string(),
            accesses: Vec::new(),
            compute_ns,
        }
    }

    /// Add an object access (builder style).
    pub fn with_access(mut self, a: ObjectAccess) -> Self {
        self.accesses.push(a);
        self
    }
}

/// The work of one task in one task instance (one round): an ordered list
/// of phases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskWork {
    /// Task index within the application.
    pub task: usize,
    /// Phases executed in order.
    pub phases: Vec<Phase>,
}

impl TaskWork {
    /// New task work item.
    pub fn new(task: usize) -> Self {
        Self {
            task,
            phases: Vec::new(),
        }
    }

    /// Add a phase (builder style).
    pub fn with_phase(mut self, p: Phase) -> Self {
        self.phases.push(p);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LLC: u64 = 32 << 20;

    fn acc(pattern: AccessPattern, n: f64, d: u32) -> ObjectAccess {
        ObjectAccess::new(ObjectId(0), n, d, pattern, 0.0)
    }

    #[test]
    fn stream_coalesces_to_lines() {
        // 8 f64 accesses per 64 B line.
        let m = memory_accesses(&acc(AccessPattern::Stream, 8000.0, 8), 1 << 20, LLC);
        assert!((m - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn large_stride_one_line_per_access() {
        let p = AccessPattern::Strided {
            stride: 64,
            elem_bytes: 8,
        };
        let m = memory_accesses(&acc(p, 1000.0, 8), 1 << 20, LLC);
        assert!((m - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn small_stride_partial_lines() {
        let p = AccessPattern::Strided {
            stride: 2,
            elem_bytes: 8,
        }; // 16 B per step → 1/4 line per access
        let m = memory_accesses(&acc(p, 1000.0, 8), 1 << 20, LLC);
        assert!((m - 250.0).abs() < 1e-9);
    }

    #[test]
    fn stencil_reuses_neighbourhood() {
        let p = AccessPattern::Stencil {
            points: 5,
            input_dependent: false,
        };
        // 5n program accesses over n elements → n·d/64 line fetches.
        let n = 10_000.0;
        let m = memory_accesses(&acc(p, 5.0 * n, 8), 1 << 20, LLC);
        assert!((m - n * 8.0 / 64.0).abs() < 1e-6);
    }

    #[test]
    fn random_miss_rate_depends_on_size() {
        let small = memory_accesses(&acc(AccessPattern::Random, 1000.0, 8), LLC / 2, LLC);
        let large = memory_accesses(&acc(AccessPattern::Random, 1000.0, 8), LLC * 64, LLC);
        assert!(small < large, "small-object gathers should hit in LLC");
        // Huge object: miss rate → ~1.
        assert!(large > 900.0);
        // Small object: capped 95 % hit rate → ≥ 5 % misses.
        assert!(small >= 1000.0 * 0.05 - 1e-9);
    }

    #[test]
    fn blocking_reuse_divides() {
        let a = acc(AccessPattern::Stream, 8000.0, 8).with_reuse(4.0);
        let m = memory_accesses(&a, 1 << 20, LLC);
        assert!((m - 250.0).abs() < 1e-9);
    }

    #[test]
    fn zero_accesses_zero_memory() {
        let m = memory_accesses(&acc(AccessPattern::Random, 0.0, 8), 1 << 20, LLC);
        assert_eq!(m, 0.0);
    }

    #[test]
    fn phase_builders() {
        let p = Phase::new("numeric", 1e6)
            .with_access(acc(AccessPattern::Stream, 10.0, 8))
            .with_access(acc(AccessPattern::Random, 20.0, 8));
        let w = TaskWork::new(2).with_phase(p);
        assert_eq!(w.task, 2);
        assert_eq!(w.phases.len(), 1);
    }
}
