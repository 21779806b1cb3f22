//! The wrappers the benchmark puts around the product's extension points:
//! a recording and a replaying [`Workload`], a [`PlacementPolicy`] that
//! opens a span around each hook, and a [`TenantJob`] that times each step.
//! All three only delegate; none changes what the wrapped value computes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use merch_hm::checkpoint::BreakerFrame;
use merch_hm::runtime::{Executor, PlacementPolicy, RoundReport, RunReport};
use merch_hm::service::TenantJob;
use merch_hm::system::HmError;
use merch_hm::{HmConfig, HmSystem, ObjectAccess, ObjectSpec, TaskWork, Workload};
use merch_patterns::{KernelIr, ObjectPatternMap};

use crate::trace::{Tracer, NO_ROUND};

/// Object-safe placement policy the executor can share across its threads.
pub trait PolicyObj: PlacementPolicy + Sync {}
impl<T: PlacementPolicy + Sync> PolicyObj for T {}

/// Everything a [`Workload`] answers, captured from one live run, plus the
/// machine the application asks for.
#[derive(Debug, Clone)]
pub struct Recording {
    pub name: String,
    pub config: HmConfig,
    pub specs: Vec<ObjectSpec>,
    pub num_tasks: usize,
    pub sizes: Vec<Vec<(String, u64)>>,
    pub drift: Vec<Vec<(String, f64)>>,
    pub works: Vec<Vec<TaskWork>>,
    pub pattern_map: ObjectPatternMap,
    pub reuse_hints: BTreeMap<String, f64>,
}

impl Recording {
    pub fn rounds(&self) -> usize {
        self.works.len()
    }
}

/// Passes a live application through while keeping each round's
/// [`TaskWork`], so one live run yields both the reference report and the
/// inputs every timed pass replays.
pub struct Tee<W> {
    inner: W,
    works: Vec<Vec<TaskWork>>,
    /// Host time spent inside the application's own `instance`, ns.
    pub instance_ns: u64,
}

impl<W: Workload> Tee<W> {
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            works: Vec::new(),
            instance_ns: 0,
        }
    }

    /// The recording of the rounds run so far.
    pub fn into_recording(self, config: HmConfig, pattern_map: ObjectPatternMap) -> Recording {
        let w = &self.inner;
        let rounds = self.works.len();
        Recording {
            name: w.name().to_string(),
            config,
            specs: w.object_specs(),
            num_tasks: w.num_tasks(),
            sizes: (0..rounds).map(|r| w.object_sizes(r)).collect(),
            drift: (0..rounds).map(|r| w.hot_page_drift(r)).collect(),
            pattern_map,
            reuse_hints: w.reuse_hints(),
            works: self.works,
        }
    }
}

impl<W: Workload> Workload for Tee<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        self.inner.object_specs()
    }
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }
    fn num_instances(&self) -> usize {
        self.inner.num_instances()
    }
    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        self.inner.object_sizes(round)
    }
    fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
        let t = Instant::now();
        let works = self.inner.instance(round, sys);
        self.instance_ns += t.elapsed().as_nanos() as u64;
        debug_assert_eq!(round, self.works.len());
        self.works.push(works.clone());
        works
    }
    fn kernel_ir(&self) -> KernelIr {
        self.inner.kernel_ir()
    }
    fn reuse_hints(&self) -> BTreeMap<String, f64> {
        self.inner.reuse_hints()
    }
    fn hot_page_drift(&self, round: usize) -> Vec<(String, f64)> {
        self.inner.hot_page_drift(round)
    }
}

/// Replays a [`Recording`]: the timed passes run the runtime on exactly the
/// inputs the live application produced, without its kernels. The executor
/// never asks a workload for its kernel IR or reuse hints — policies get the
/// recording's pattern map and hints when they are built — so those two keep
/// the trait's defaults.
pub struct Recorded {
    rec: Arc<Recording>,
    tracer: Option<Arc<Tracer>>,
    member: u32,
}

impl Recorded {
    pub fn new(rec: Arc<Recording>, tracer: Option<Arc<Tracer>>, member: u32) -> Self {
        Self {
            rec,
            tracer,
            member,
        }
    }
}

impl Workload for Recorded {
    fn name(&self) -> &str {
        &self.rec.name
    }
    fn object_specs(&self) -> Vec<ObjectSpec> {
        self.rec.specs.clone()
    }
    fn num_tasks(&self) -> usize {
        self.rec.num_tasks
    }
    fn num_instances(&self) -> usize {
        self.rec.works.len()
    }
    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        self.rec.sizes[round].clone()
    }
    fn instance(&mut self, round: usize, _sys: &HmSystem) -> Vec<TaskWork> {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.span("apps.replay", self.member, round as i32));
        self.rec.works[round].clone()
    }
    fn hot_page_drift(&self, round: usize) -> Vec<(String, f64)> {
        self.rec.drift[round].clone()
    }
}

/// A policy with a span around each of the three hooks that do work. With
/// no tracer it is a plain delegate, so timed and traced passes run the
/// same executor type.
pub struct TracedPolicy {
    pub inner: Box<dyn PolicyObj>,
    tracer: Option<Arc<Tracer>>,
    member: u32,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn PolicyObj>, tracer: Option<Arc<Tracer>>, member: u32) -> Self {
        Self {
            inner,
            tracer,
            member,
        }
    }
}

impl PlacementPolicy for TracedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_allocate(&mut self, sys: &mut HmSystem) {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.span("core.policy.on_allocate", self.member, NO_ROUND));
        self.inner.on_allocate(sys)
    }
    fn before_round(&mut self, sys: &mut HmSystem, round: usize, works: &[TaskWork]) {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.span("core.policy.before_round", self.member, round as i32));
        self.inner.before_round(sys, round, works)
    }
    fn after_round(&mut self, sys: &mut HmSystem, round: usize, report: &RoundReport) {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.span("core.policy.after_round", self.member, round as i32));
        self.inner.after_round(sys, round, report)
    }
    fn dram_fraction_override(&self, sys: &HmSystem, access: &ObjectAccess) -> Option<f64> {
        self.inner.dram_fraction_override(sys, access)
    }
    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
    fn save_state(&self) -> String {
        self.inner.save_state()
    }
    fn restore_state(&mut self, blob: &str) -> Result<(), HmError> {
        self.inner.restore_state(blob)
    }
    fn round_deadlines_ns(&self, round: usize) -> Option<Vec<f64>> {
        self.inner.round_deadlines_ns(round)
    }
    fn on_straggler(
        &mut self,
        sys: &mut HmSystem,
        round: usize,
        task: usize,
        observed_ns: f64,
        deadline_ns: f64,
    ) -> bool {
        self.inner
            .on_straggler(sys, round, task, observed_ns, deadline_ns)
    }
}

/// The executor type every pass runs.
pub type Exec = Executor<Recorded, TracedPolicy>;

/// Step durations of one tenant, ms, filled by its [`TimedJob`].
pub type StepSamples = Arc<Mutex<Vec<f64>>>;

/// A tenant's executor with a clock around `step`: the service owns the job
/// while it runs, so the samples leave through a shared vector (one per
/// tenant, so pool threads never contend for it).
pub struct TimedJob {
    inner: Exec,
    samples: StepSamples,
    tracer: Option<Arc<Tracer>>,
    /// Span of the `PlacementService::run` call that steps this job; set by
    /// the driver just before it calls `run`.
    run_span: Arc<AtomicU32>,
    member: u32,
}

impl TimedJob {
    pub fn new(
        inner: Exec,
        samples: StepSamples,
        tracer: Option<Arc<Tracer>>,
        run_span: Arc<AtomicU32>,
        member: u32,
    ) -> Self {
        Self {
            inner,
            samples,
            tracer,
            run_span,
            member,
        }
    }
}

impl TenantJob for TimedJob {
    fn step(&mut self) -> Result<Option<RoundReport>, HmError> {
        let _span = self.tracer.as_ref().map(|t| {
            // SeqCst pairs with the driver's store before `run`.
            t.span_under(
                self.run_span.load(Ordering::SeqCst),
                "hm.service.tenant_step",
                self.member,
                self.inner.next_round() as i32,
            )
        });
        let t = Instant::now();
        let out = TenantJob::step(&mut self.inner);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if matches!(out, Ok(Some(_))) {
            self.samples
                .lock()
                .expect("no tenant thread panics while holding its own samples")
                .push(ms);
        }
        out
    }
    fn rounds_total(&self) -> usize {
        self.inner.rounds_total()
    }
    fn rounds_done(&self) -> usize {
        self.inner.rounds_done()
    }
    fn dram_resident_bytes(&self) -> u64 {
        self.inner.dram_resident_bytes()
    }
    fn set_dram_quota(&mut self, quota: Option<u64>) {
        self.inner.set_dram_quota(quota)
    }
    fn run_report(&self) -> RunReport {
        self.inner.run_report()
    }
    fn checkpoint_text(&self, breaker: &BreakerFrame) -> String {
        self.inner.checkpoint_text(breaker)
    }
    fn restore_text(&mut self, text: &str) -> Result<BreakerFrame, HmError> {
        self.inner.restore_text(text)
    }
}
