//! The execution-time model of the emulated machine.
//!
//! Converts a task's phases plus the current data placement into simulated
//! execution time with a roofline-style model:
//!
//! * per tier, memory time is the max of a **latency term** (misses ×
//!   load-to-use latency / memory-level parallelism) and a **bandwidth
//!   term** (bytes / effective bandwidth, with read/write asymmetry and
//!   per-task bandwidth sharing);
//! * DRAM-side and PM-side memory time overlap partially
//!   ([`crate::config::HmConfig::tier_overlap`]);
//! * memory time overlaps with compute proportionally to how prefetchable
//!   the access mix is — the effect the paper's Figure 3 demonstrates
//!   (halving PM accesses cut NWChem-TC's Writeback phase by 47.5 % but
//!   Input Processing by only 26.2 %), and the reason Equation 2 needs the
//!   learned correlation function f(·) rather than linear interpolation.

use serde::{Deserialize, Serialize};

use crate::config::{HmConfig, Tier};
use crate::object::ObjectId;
use crate::trace::{bytes_for, memory_accesses, Phase, TaskWork};

/// Per-object placement view the cost model needs: object size and the
/// fraction of accesses served from DRAM. The DRAM fraction takes the whole
/// [`crate::trace::ObjectAccess`] so hardware-cache policies (Memory Mode) can condition
/// on the access pattern, not just the object.
pub trait PlacementView: Sync {
    /// Size of `object` in bytes (logical size of the current input).
    fn object_size(&self, object: ObjectId) -> u64;
    /// Fraction of this access stream served from DRAM (0..1).
    fn dram_fraction(&self, access: &crate::trace::ObjectAccess) -> f64;
}

/// Cost breakdown of one phase.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Simulated execution time, ns.
    pub time_ns: f64,
    /// Bytes transferred from/to DRAM.
    pub dram_bytes: f64,
    /// Bytes transferred from/to PM.
    pub pm_bytes: f64,
    /// Main-memory accesses served by DRAM.
    pub dram_accesses: f64,
    /// Main-memory accesses served by PM.
    pub pm_accesses: f64,
    /// Pure compute time, ns.
    pub compute_ns: f64,
}

impl PhaseCost {
    /// Total main-memory accesses.
    pub fn total_accesses(&self) -> f64 {
        self.dram_accesses + self.pm_accesses
    }

    /// Accumulate another phase's cost (time adds serially; phases of one
    /// task run back-to-back).
    pub fn accumulate(&mut self, other: &PhaseCost) {
        self.time_ns += other.time_ns;
        self.dram_bytes += other.dram_bytes;
        self.pm_bytes += other.pm_bytes;
        self.dram_accesses += other.dram_accesses;
        self.pm_accesses += other.pm_accesses;
        self.compute_ns += other.compute_ns;
    }
}

/// Effective per-task bandwidth share on a tier when `concurrency` tasks
/// contend: fair share of the socket peak, capped by what a single task's
/// load/store streams can draw.
fn bw_share(config: &HmConfig, concurrency: usize) -> f64 {
    (1.0 / concurrency.max(1) as f64).min(config.per_task_bw_cap)
}

/// Which roofline term binds a tier's memory time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Regime {
    /// Load-to-use latency × misses dominates (dependent accesses).
    LatencyBound,
    /// Bytes / effective bandwidth dominates (streaming).
    BandwidthBound,
    /// No traffic on this tier.
    Idle,
}

/// Diagnostic breakdown of one phase's cost (inspection / tests / docs).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PhaseCostDetail {
    /// The aggregate cost.
    pub cost: PhaseCost,
    /// Latency-term time per tier [DRAM, PM], ns.
    pub latency_ns: [f64; 2],
    /// Bandwidth-term time per tier [DRAM, PM], ns.
    pub bandwidth_ns: [f64; 2],
    /// Binding regime per tier [DRAM, PM].
    pub regime: [Regime; 2],
    /// Compute/memory overlap factor applied (0..1).
    pub overlap: f64,
}

/// [`phase_cost`] plus the roofline breakdown.
pub fn phase_cost_detail<V: PlacementView>(
    config: &HmConfig,
    phase: &Phase,
    view: &V,
    concurrency: usize,
) -> PhaseCostDetail {
    let (cost, lat, bw, overlap) = phase_cost_inner(config, phase, view, concurrency);
    let regime = [0, 1].map(|t| {
        if lat[t] <= 0.0 && bw[t] <= 0.0 {
            Regime::Idle
        } else if lat[t] >= bw[t] {
            Regime::LatencyBound
        } else {
            Regime::BandwidthBound
        }
    });
    PhaseCostDetail {
        cost,
        latency_ns: lat,
        bandwidth_ns: bw,
        regime,
        overlap,
    }
}

/// Compute the cost of one phase under the placement described by `view`,
/// with `concurrency` tasks sharing the memory system.
pub fn phase_cost<V: PlacementView>(
    config: &HmConfig,
    phase: &Phase,
    view: &V,
    concurrency: usize,
) -> PhaseCost {
    phase_cost_inner(config, phase, view, concurrency).0
}

fn phase_cost_inner<V: PlacementView>(
    config: &HmConfig,
    phase: &Phase,
    view: &V,
    concurrency: usize,
) -> (PhaseCost, [f64; 2], [f64; 2], f64) {
    let mut lat = [0.0f64; 2]; // [dram, pm] latency-term ns
    let mut bytes = [0.0f64; 2];
    let mut wr_bytes = [0.0f64; 2];
    let mut acc = [0.0f64; 2];
    let mut prefetch_weighted = 0.0f64;
    let mut total_mem = 0.0f64;

    for a in &phase.accesses {
        let size = view.object_size(a.object);
        let mem = memory_accesses(a, size, config.llc_bytes);
        if mem <= 0.0 {
            continue;
        }
        let r = view.dram_fraction(a).clamp(0.0, 1.0);
        let mlp = a.pattern.effective_mlp();
        let split = [mem * r, mem * (1.0 - r)];
        for (t, tier) in [Tier::Dram, Tier::Pm].into_iter().enumerate() {
            let p = config.tier(tier);
            let lat_ns = match a.pattern.latency_class() {
                merch_patterns::LatencyClass::Sequential => p.latency_seq_ns,
                merch_patterns::LatencyClass::Random => p.latency_rand_ns,
            };
            lat[t] += split[t] * lat_ns / mlp;
            let b = bytes_for(split[t]);
            bytes[t] += b;
            wr_bytes[t] += b * a.write_fraction;
            acc[t] += split[t];
        }
        prefetch_weighted += mem * a.pattern.prefetch_coverage();
        total_mem += mem;
    }

    let share = bw_share(config, concurrency);
    let mut tier_time = [0.0f64; 2];
    for (t, tier) in [Tier::Dram, Tier::Pm].into_iter().enumerate() {
        if bytes[t] <= 0.0 {
            continue;
        }
        let wf = wr_bytes[t] / bytes[t];
        let bw = config.tier(tier).mixed_bw_gbps(wf) * share; // GB/s == bytes/ns
        let bw_time = bytes[t] / bw;
        tier_time[t] = lat[t].max(bw_time);
    }

    let (hi, lo) = if tier_time[0] >= tier_time[1] {
        (tier_time[0], tier_time[1])
    } else {
        (tier_time[1], tier_time[0])
    };
    let mem_time = hi + (1.0 - config.tier_overlap) * lo;

    // Compute/memory overlap: prefetchable access mixes keep the pipeline
    // fed, dependent random accesses stall it.
    let overlap = if total_mem > 0.0 {
        prefetch_weighted / total_mem
    } else {
        1.0
    };
    let c = phase.compute_ns;
    let time_ns = c.max(mem_time) + (1.0 - overlap) * c.min(mem_time);

    let mut bw_term = [0.0f64; 2];
    for (t, tier) in [Tier::Dram, Tier::Pm].into_iter().enumerate() {
        if bytes[t] > 0.0 {
            let wf = wr_bytes[t] / bytes[t];
            bw_term[t] = bytes[t] / (config.tier(tier).mixed_bw_gbps(wf) * share);
        }
    }
    (
        PhaseCost {
            time_ns,
            dram_bytes: bytes[0],
            pm_bytes: bytes[1],
            dram_accesses: acc[0],
            pm_accesses: acc[1],
            compute_ns: c,
        },
        lat,
        bw_term,
        overlap,
    )
}

/// Cost of a whole task instance (phases run serially).
pub fn task_cost<V: PlacementView>(
    config: &HmConfig,
    work: &TaskWork,
    view: &V,
    concurrency: usize,
) -> PhaseCost {
    let mut total = PhaseCost::default();
    for phase in &work.phases {
        total.accumulate(&phase_cost(config, phase, view, concurrency));
    }
    total
}

/// Time to migrate `pages` pages, overlapped across the configured
/// migration parallelism.
pub fn migration_time_ns(config: &HmConfig, pages: u64) -> f64 {
    pages as f64 * config.page_migration_ns / config.migration_parallelism.max(1.0)
}

/// A fixed placement view backed by closures-free data: every object has
/// the same DRAM fraction. Useful for bounds (PM-only: 0.0, DRAM-only: 1.0)
/// and for the performance model's what-if queries.
#[derive(Debug, Clone)]
pub struct UniformPlacement {
    sizes: Vec<u64>,
    /// DRAM fraction applied to every object.
    pub dram_fraction: f64,
}

impl UniformPlacement {
    /// Build from object sizes (indexed by `ObjectId`).
    pub fn new(sizes: Vec<u64>, dram_fraction: f64) -> Self {
        Self {
            sizes,
            dram_fraction,
        }
    }
}

impl PlacementView for UniformPlacement {
    fn object_size(&self, object: ObjectId) -> u64 {
        self.sizes[object.0 as usize]
    }
    fn dram_fraction(&self, _access: &crate::trace::ObjectAccess) -> f64 {
        self.dram_fraction
    }
}

impl PlacementView for crate::system::HmSystem {
    fn object_size(&self, object: ObjectId) -> u64 {
        self.object(object).size
    }
    fn dram_fraction(&self, access: &crate::trace::ObjectAccess) -> f64 {
        // Resolves to the inherent page-table-backed method (inherent
        // methods take precedence over trait methods).
        crate::system::HmSystem::dram_fraction(self, access.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ObjectAccess;
    use merch_patterns::AccessPattern;

    fn config() -> HmConfig {
        HmConfig::default()
    }

    fn stream_phase(n: f64) -> Phase {
        Phase::new("p", 0.0).with_access(ObjectAccess::new(
            ObjectId(0),
            n,
            8,
            AccessPattern::Stream,
            0.0,
        ))
    }

    fn random_phase(n: f64) -> Phase {
        Phase::new("p", 0.0).with_access(ObjectAccess::new(
            ObjectId(0),
            n,
            8,
            AccessPattern::Random,
            0.0,
        ))
    }

    #[test]
    fn dram_faster_than_pm() {
        let cfg = config();
        let sizes = vec![1 << 30];
        let phase = stream_phase(1e7);
        let pm = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 0.0), 12);
        let dram = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes, 1.0), 12);
        assert!(pm.time_ns > dram.time_ns);
        let speedup = pm.time_ns / dram.time_ns;
        assert!(speedup > 1.5 && speedup < 6.0, "speedup {speedup}");
    }

    #[test]
    fn random_suffers_more_on_pm_than_stream() {
        let cfg = config();
        let sizes = vec![1 << 30];
        let s = stream_phase(1e7);
        let r = random_phase(1e6);
        let ratio = |p: &Phase| {
            let pm = phase_cost(&cfg, p, &UniformPlacement::new(sizes.clone(), 0.0), 12);
            let d = phase_cost(&cfg, p, &UniformPlacement::new(sizes.clone(), 1.0), 12);
            pm.time_ns / d.time_ns
        };
        assert!(
            ratio(&r) > ratio(&s),
            "random PM penalty {} should exceed stream {}",
            ratio(&r),
            ratio(&s)
        );
    }

    #[test]
    fn time_monotone_in_dram_fraction() {
        let cfg = config();
        let sizes = vec![1 << 30];
        let phase = random_phase(2e6);
        let mut last = f64::INFINITY;
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            let c = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), r), 12);
            assert!(
                c.time_ns <= last * (1.0 + 1e-9) + 1e-6,
                "time should not increase with DRAM fraction (r={r}): {} > {last}",
                c.time_ns
            );
            last = c.time_ns;
        }
    }

    #[test]
    fn hybrid_time_bounded_by_endpoints() {
        let cfg = config();
        let sizes = vec![1 << 28];
        let phase = stream_phase(5e6);
        let pm = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 0.0), 8).time_ns;
        let dram = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 1.0), 8).time_ns;
        for i in 1..10 {
            let r = i as f64 / 10.0;
            let t = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), r), 8).time_ns;
            assert!(t <= pm + 1e-9 && t >= dram - 1e-9);
        }
    }

    #[test]
    fn nonlinearity_hybrid_below_linear_interpolation() {
        // With partial tier overlap the hybrid point beats the linear mix —
        // the effect f(·) must learn.
        let cfg = config();
        let sizes = vec![1 << 30];
        let phase = stream_phase(1e7);
        let pm = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 0.0), 12).time_ns;
        let dram = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 1.0), 12).time_ns;
        let half = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 0.5), 12).time_ns;
        let linear = 0.5 * pm + 0.5 * dram;
        assert!(half < linear, "hybrid {half} vs linear {linear}");
    }

    #[test]
    fn compute_bound_phase_insensitive_to_placement() {
        let cfg = config();
        let sizes = vec![1 << 20];
        let mut phase = stream_phase(1e3);
        phase.compute_ns = 1e9;
        let pm = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 0.0), 4).time_ns;
        let dram = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes, 1.0), 4).time_ns;
        assert!((pm - dram).abs() / pm < 0.05, "pm {pm} dram {dram}");
    }

    #[test]
    fn contention_slows_bandwidth_bound_phases() {
        let cfg = config();
        let sizes = vec![1 << 30];
        let phase = stream_phase(3e7);
        let solo = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes.clone(), 0.0), 1).time_ns;
        let crowded = phase_cost(&cfg, &phase, &UniformPlacement::new(sizes, 0.0), 24).time_ns;
        assert!(crowded > solo);
    }

    #[test]
    fn write_heavy_pm_slower_than_read_heavy() {
        let cfg = config();
        let sizes = vec![1 << 30];
        let mk = |wf: f64| {
            Phase::new("p", 0.0).with_access(ObjectAccess::new(
                ObjectId(0),
                2e7,
                8,
                AccessPattern::Stream,
                wf,
            ))
        };
        let rd = phase_cost(
            &cfg,
            &mk(0.0),
            &UniformPlacement::new(sizes.clone(), 0.0),
            12,
        )
        .time_ns;
        let wr = phase_cost(&cfg, &mk(1.0), &UniformPlacement::new(sizes, 0.0), 12).time_ns;
        assert!(wr > rd * 1.5, "write {wr} vs read {rd}");
    }

    #[test]
    fn task_cost_accumulates_phases() {
        let cfg = config();
        let view = UniformPlacement::new(vec![1 << 24], 0.5);
        let w = TaskWork::new(0)
            .with_phase(stream_phase(1e6))
            .with_phase(random_phase(1e5));
        let total = task_cost(&cfg, &w, &view, 4);
        let p0 = phase_cost(&cfg, &w.phases[0], &view, 4);
        let p1 = phase_cost(&cfg, &w.phases[1], &view, 4);
        assert!((total.time_ns - (p0.time_ns + p1.time_ns)).abs() < 1e-6);
        assert!(
            (total.total_accesses() - (p0.total_accesses() + p1.total_accesses())).abs() < 1e-6
        );
    }

    #[test]
    fn migration_time_scales_with_pages() {
        let cfg = config();
        assert_eq!(migration_time_ns(&cfg, 0), 0.0);
        assert!(migration_time_ns(&cfg, 1000) > migration_time_ns(&cfg, 10));
    }

    #[test]
    fn detail_identifies_regimes() {
        let cfg = config();
        // Dependent random chain on PM: latency-bound.
        let r = phase_cost_detail(
            &cfg,
            &random_phase(1e6),
            &UniformPlacement::new(vec![1 << 30], 0.0),
            2,
        );
        assert_eq!(r.regime[1], Regime::LatencyBound);
        assert_eq!(r.regime[0], Regime::Idle);
        // Heavy stream with many contenders: bandwidth-bound.
        let s = phase_cost_detail(
            &cfg,
            &stream_phase(3e7),
            &UniformPlacement::new(vec![1 << 30], 0.0),
            24,
        );
        assert_eq!(s.regime[1], Regime::BandwidthBound);
        // Detail's aggregate equals the plain cost.
        let plain = phase_cost(
            &cfg,
            &stream_phase(3e7),
            &UniformPlacement::new(vec![1 << 30], 0.0),
            24,
        );
        assert_eq!(s.cost.time_ns, plain.time_ns);
        // Overlap reflects stream prefetchability.
        assert!(s.overlap > 0.9);
        assert!(r.overlap < 0.1);
    }
}
