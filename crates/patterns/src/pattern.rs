//! The four access patterns of §4 and their microarchitectural properties.

use serde::{Deserialize, Serialize};

/// Latency regime an access stream falls into on a memory tier.
///
/// The Optane characterisation the paper cites (§2) distinguishes sequential
/// from random read latency (2.08× vs 3.77× slower than DRAM), so the cost
/// model needs to know which regime a pattern exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyClass {
    /// Next address is predictable; hardware prefetchers hide most latency.
    Sequential,
    /// Addresses are data-dependent; each access pays full latency.
    Random,
}

/// Object-level memory access pattern (§4, "Classification of memory access
/// patterns").
///
/// The paper depicts the four patterns with loop bodies:
///
/// ```text
/// Stream:  A[i] = B[i] + C[i]
/// Strided: A[i*stride] = B[i*stride]
/// Stencil: A[i] = A[i-1] + A[i+1]
/// Random:  A[i] = B[C[i]]
/// ```
///
/// Unknown patterns are treated as [`AccessPattern::Random`] (§4, "Handling
/// unknown patterns") and rely on online α refinement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Unit-stride walk over an array; includes delta, reduction and
    /// transpose forms per §4.
    Stream,
    /// Constant-stride walk; `stride` is in elements of `elem_bytes`.
    Strided { stride: u32, elem_bytes: u32 },
    /// Neighbourhood access with loop-carried reuse (e.g. 5/7/9-point
    /// stencils). `input_dependent` stencils change shape across inputs and
    /// take the online-refinement α path.
    Stencil { points: u32, input_dependent: bool },
    /// Indirect addressing: pointer chase, gather, scatter.
    Random,
}

impl AccessPattern {
    /// Short lowercase label used in reports (matches Table 1 terminology).
    pub fn label(&self) -> &'static str {
        match self {
            AccessPattern::Stream => "stream",
            AccessPattern::Strided { .. } => "strided",
            AccessPattern::Stencil { .. } => "stencil",
            AccessPattern::Random => "random",
        }
    }

    /// Latency regime this pattern exercises on main memory.
    pub fn latency_class(&self) -> LatencyClass {
        match self {
            AccessPattern::Stream | AccessPattern::Stencil { .. } => LatencyClass::Sequential,
            AccessPattern::Strided { stride, elem_bytes } => {
                // Small strides stay within the prefetch window; large
                // strides defeat next-line prefetch and behave like random.
                if (*stride as usize) * (*elem_bytes as usize) <= 4 * crate::CACHE_LINE {
                    LatencyClass::Sequential
                } else {
                    LatencyClass::Random
                }
            }
            AccessPattern::Random => LatencyClass::Random,
        }
    }

    /// Effective memory-level parallelism the pattern sustains: how many
    /// outstanding misses the core keeps in flight. Streams prefetch deeply;
    /// dependent random accesses serialise.
    pub fn effective_mlp(&self) -> f64 {
        match self {
            AccessPattern::Stream => 10.0,
            AccessPattern::Strided { .. } => match self.latency_class() {
                LatencyClass::Sequential => 8.0,
                LatencyClass::Random => 4.0,
            },
            AccessPattern::Stencil { points, .. } => 6.0 + (*points as f64).min(9.0) * 0.2,
            AccessPattern::Random => 1.6,
        }
    }

    /// Fraction of accesses covered by hardware prefetch (0..1). Feeds the
    /// synthetic `PRF_Miss` event and the overlap model.
    pub fn prefetch_coverage(&self) -> f64 {
        match self {
            AccessPattern::Stream => 0.92,
            AccessPattern::Strided { .. } => match self.latency_class() {
                LatencyClass::Sequential => 0.80,
                LatencyClass::Random => 0.35,
            },
            AccessPattern::Stencil { .. } => 0.75,
            AccessPattern::Random => 0.05,
        }
    }

    /// Temporal/spatial locality score in 0..1, used by the Memory Mode
    /// baseline to model how well a hardware-managed direct-mapped DRAM
    /// cache captures the pattern (§7.1 observation 2: sparse/random
    /// patterns "have bad locality in the hardware-managed cache").
    pub fn cache_locality(&self) -> f64 {
        match self {
            AccessPattern::Stream => 0.85,
            AccessPattern::Strided { .. } => match self.latency_class() {
                LatencyClass::Sequential => 0.75,
                LatencyClass::Random => 0.45,
            },
            AccessPattern::Stencil { .. } => 0.80,
            AccessPattern::Random => 0.20,
        }
    }
}

impl std::fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPattern::Strided { stride, elem_bytes } => {
                write!(f, "strided(stride={stride},elem={elem_bytes}B)")
            }
            AccessPattern::Stencil {
                points,
                input_dependent,
            } => write!(
                f,
                "stencil({points}-point{})",
                if *input_dependent { ",input-dep" } else { "" }
            ),
            _ => f.write_str(self.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_sequential_and_prefetchable() {
        assert_eq!(
            AccessPattern::Stream.latency_class(),
            LatencyClass::Sequential
        );
        assert!(AccessPattern::Stream.prefetch_coverage() > 0.9);
        assert!(AccessPattern::Stream.effective_mlp() > AccessPattern::Random.effective_mlp());
    }

    #[test]
    fn small_stride_sequential_large_stride_random() {
        let small = AccessPattern::Strided {
            stride: 2,
            elem_bytes: 8,
        };
        let large = AccessPattern::Strided {
            stride: 1024,
            elem_bytes: 8,
        };
        assert_eq!(small.latency_class(), LatencyClass::Sequential);
        assert_eq!(large.latency_class(), LatencyClass::Random);
        assert!(small.effective_mlp() > large.effective_mlp());
    }

    #[test]
    fn random_has_worst_cache_locality() {
        let pats = [
            AccessPattern::Stream,
            AccessPattern::Strided {
                stride: 4,
                elem_bytes: 8,
            },
            AccessPattern::Stencil {
                points: 7,
                input_dependent: false,
            },
        ];
        for p in pats {
            assert!(p.cache_locality() > AccessPattern::Random.cache_locality());
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(AccessPattern::Stream.to_string(), "stream");
        assert_eq!(
            AccessPattern::Strided {
                stride: 3,
                elem_bytes: 4
            }
            .to_string(),
            "strided(stride=3,elem=4B)"
        );
        assert_eq!(
            AccessPattern::Stencil {
                points: 7,
                input_dependent: false
            }
            .to_string(),
            "stencil(7-point)"
        );
    }
}
