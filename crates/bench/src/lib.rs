//! Experiment harness: one function per table/figure of the paper, shared
//! by the `repro` binary and the integration tests.

pub mod experiments;
pub mod par;
pub mod replay;
pub mod scenario;
pub mod stats;

pub use experiments::*;
pub use stats::BoxStats;
