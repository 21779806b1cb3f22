//! Emulated two-tier heterogeneous memory (HM) and task-parallel runtime.
//!
//! The paper evaluates on a two-socket server with 192 GB DRAM + 1.5 TB
//! Intel Optane PM in App Direct mode. This crate replaces that hardware
//! with a software emulation whose *relative* performance is calibrated to
//! the published Optane-vs-DRAM characterisation the paper cites in §2:
//! sequential/random read latency 2.08×/3.77× longer on PM, read/write peak
//! bandwidth 3.87×/4.74× lower on PM, and the peak lines of Figure 6
//! (DRAM ≈ 180 GB/s, PM ≈ 52 GB/s).
//!
//! Components:
//!
//! * [`config`] — tier parameters and the calibrated defaults;
//! * [`object`]/[`page`] — data objects and the extent page table: 4 KiB
//!   pages with access weights and counters (the emulated PTE accessed
//!   bits) stored as contiguous same-state runs in one run store;
//! * [`system`] — [`system::HmSystem`]: allocation, placement, migration
//!   with capacity management, page-level profiling state;
//! * [`trace`] — phase-level access summaries emitted by workloads and the
//!   program-access → main-memory-access model (caching effect);
//! * [`cost`] — the roofline-style execution-time model (latency, bandwidth,
//!   MLP, compute overlap) that converts a placement into task time;
//! * [`telemetry`] — per-tier bandwidth timelines (Figure 6);
//! * [`workload`] — the [`workload::Workload`] trait task-parallel
//!   applications implement;
//! * [`runtime`] — [`runtime::PlacementPolicy`] and the executor that runs
//!   task instances in parallel rounds with a synchronisation barrier;
//! * [`checkpoint`] — round-granular checkpoint/WAL for supervised runs
//!   (crash→restore→replay is bit-identical to an uninterrupted run);
//! * [`topk`] — deterministic top-k hot/cold page selection shared by
//!   migration, eviction, and every policy ranking;
//! * [`backoff`] — bounded retry with deterministic jitter, shared by page
//!   migration, checkpoint writes, and admission retry-after responses;
//! * [`fault`] — deterministic fault injection (migration failures, sample
//!   dropout, co-tenant pressure, telemetry blackout, scripted crashes);
//! * [`service`] — placement-as-a-service: a multi-tenant registry with
//!   per-tenant DRAM quotas, bounded-queue admission control, deficit
//!   round-robin scheduling, hard fault isolation, and per-tenant SLO
//!   reports.

pub mod backoff;
pub mod checkpoint;
pub mod config;
pub mod cost;
pub mod epoch;
pub mod fault;
pub mod object;
pub mod page;
pub mod runtime;
pub mod service;
pub mod system;
pub mod telemetry;
pub mod topk;
pub mod trace;
pub mod workload;

/// Cache-line size of the emulated machine (bytes).
pub const CACHE_LINE_BYTES: usize = merch_patterns::CACHE_LINE;

pub use backoff::Backoff;
pub use checkpoint::{BreakerFrame, Checkpoint, Wal, WalStats, CHECKPOINT_VERSION};
pub use config::{HmConfig, Tier, TierParams};
pub use cost::{phase_cost_detail, PhaseCostDetail, Regime};
pub use epoch::EpochOutcome;
pub use fault::{CrashPoint, FaultInjector, FaultKind, FaultPlan, FaultStats, FaultSummary};
pub use object::{DataObject, ObjectId, ObjectSpec};
pub use page::{PageId, PageInfo, PageTable, RefTable, Run, PAGE_SIZE, SHARD_PAGES};
pub use runtime::{Executor, PlacementPolicy, RoundReport, RunReport, TaskResult, WatchdogConfig};
pub use service::{
    BreakerState, PlacementService, ServiceConfig, ServiceReport, ShedReason, SubmitOutcome,
    TenantId, TenantJob, TenantReport, TenantSpec, TenantStatus,
};
pub use system::HmSystem;
pub use telemetry::{BandwidthTimeline, Warning};
pub use topk::{
    cold_pages_top_k, expand_cold_runs_top_k, expand_hot_runs_top_k, hot_pages_top_k, CandidateRun,
};
pub use trace::{memory_accesses, ObjectAccess, Phase, TaskWork};
pub use workload::{TaskId, Workload};
