//! Synthetic performance-monitor-counter (PMC) collection.
//!
//! The paper collects hardware events with performance counters in sampling
//! mode (PEBS/IBS) and selects 8 of them as workload characteristics for
//! the correlation function (§5.1): `LLC_MPKI, IPC, PRF_Miss, MEM_WCY,
//! L2_LD_Miss, BR_MSP, VEC_INS, L3_LD_Miss` (decreasing importance).
//!
//! Without hardware counters, the emulation derives the event values from
//! the same task properties the real events reflect — pattern mix,
//! memory-boundedness, write share, vectorisability — plus a small
//! deterministic measurement noise. Six further events are generated so the
//! Figure 7 feature-selection experiment has a full event pool to prune.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use merch_hm::cost::{task_cost, UniformPlacement};
use merch_hm::{HmConfig, TaskWork};
use merch_patterns::AccessPattern;

/// Number of events the generator produces.
pub const NUM_EVENTS: usize = 14;

/// All event names, stored in the paper's decreasing-importance order for
/// the first eight, followed by the six auxiliary events.
pub const ALL_EVENTS: [&str; NUM_EVENTS] = [
    "LLC_MPKI",
    "IPC",
    "PRF_Miss",
    "MEM_WCY",
    "L2_LD_Miss",
    "BR_MSP",
    "VEC_INS",
    "L3_LD_Miss",
    "L1_LD_Miss",
    "TLB_Miss",
    "UOPS_Retired",
    "CYC_Stall",
    "RD_BW",
    "Page_Faults",
];

/// The paper's selected 8 events (§5.1).
pub const TOP8_EVENTS: [&str; 8] = [
    "LLC_MPKI",
    "IPC",
    "PRF_Miss",
    "MEM_WCY",
    "L2_LD_Miss",
    "BR_MSP",
    "VEC_INS",
    "L3_LD_Miss",
];

/// One collected event vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmcEvents {
    /// Event values in [`ALL_EVENTS`] order.
    pub values: [f64; NUM_EVENTS],
}

impl PmcEvents {
    /// The first `k` events (importance order) as a feature vector.
    pub fn features(&self, k: usize) -> Vec<f64> {
        self.values[..k.min(NUM_EVENTS)].to_vec()
    }

    /// Mark event `i` as lost (sample dropout). Missing events are the NaN
    /// sentinel so existing event vectors stay plain `[f64; 14]` arrays;
    /// the performance model detects them and degrades its prediction.
    pub fn mark_missing(&mut self, i: usize) {
        if i < NUM_EVENTS {
            self.values[i] = f64::NAN;
        }
    }

    /// True when no event was lost.
    pub fn is_complete(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Value of a named event.
    pub fn get(&self, name: &str) -> Option<f64> {
        ALL_EVENTS
            .iter()
            .position(|&n| n == name)
            .map(|i| self.values[i])
    }
}

/// Synthetic PMC collector.
#[derive(Debug, Clone)]
pub struct PmcGenerator {
    /// Core frequency used to convert simulated ns to cycles.
    pub freq_ghz: f64,
    /// Relative measurement noise (std of a multiplicative perturbation).
    pub noise: f64,
    seed: u64,
}

impl PmcGenerator {
    /// New generator with 10 % multiplicative noise at 2.5 GHz. Sampled
    /// PEBS/IBS counters carry substantial per-event noise; several
    /// correlated events let a model average it out, which is why the
    /// Figure 7 accuracy curve rises with the number of events.
    pub fn new(seed: u64) -> Self {
        Self {
            freq_ghz: 2.5,
            noise: 0.10,
            seed,
        }
    }

    /// Collect the event vector for `work` measured on the PM-only
    /// configuration (Algorithm 1 takes "measured hardware events of each
    /// task using PM-only configuration"). `sizes` maps `ObjectId` index to
    /// logical object size; `concurrency` is the number of co-running tasks.
    pub fn collect(
        &self,
        config: &HmConfig,
        work: &TaskWork,
        sizes: &[u64],
        concurrency: usize,
    ) -> PmcEvents {
        let view = UniformPlacement::new(sizes.to_vec(), 0.0);
        let cost = task_cost(config, work, &view, concurrency);

        // Aggregate pattern-weighted properties.
        let mut program = 0.0f64;
        let mut prefetch_w = 0.0f64;
        let mut random_w = 0.0f64;
        let mut vec_w = 0.0f64;
        let mut br_w = 0.0f64;
        let mut write_bytes_frac_num = 0.0f64;
        for ph in &work.phases {
            for a in &ph.accesses {
                program += a.accesses;
                prefetch_w += a.accesses * a.pattern.prefetch_coverage();
                vec_w += a.accesses * vectorizability(&a.pattern);
                br_w += a.accesses * branch_mispredict_rate(&a.pattern);
                if matches!(a.pattern, AccessPattern::Random) {
                    random_w += a.accesses;
                }
                write_bytes_frac_num += a.accesses * a.write_fraction;
            }
        }
        let program = program.max(1.0);
        let mem = cost.total_accesses().max(1e-9);
        let write_frac = write_bytes_frac_num / program;

        // Instruction stream: a few instructions per program access plus
        // the compute portion at the core's issue rate.
        let instructions = program * 3.0 + cost.compute_ns * self.freq_ghz * 1.2;
        let cycles = (cost.time_ns * self.freq_ghz).max(1.0);
        let ipc = instructions / cycles;
        let llc_mpki = mem / instructions * 1000.0;
        let prf_miss = 1.0 - prefetch_w / program;
        let mem_wcy = write_frac * (mem / program).min(1.0);
        let l2_ld_miss = (mem * 1.6 / program).min(1.0);
        let br_msp = br_w / program;
        let vec_ins = vec_w / program;
        let l3_ld_miss = (mem / program).min(1.0);
        // Auxiliary (largely redundant) events.
        let l1_ld_miss = (mem * 3.0 / program).min(1.0);
        let tlb_miss = (random_w / program) * 0.3 + (mem / program).min(1.0) * 0.01;
        let uops = instructions * 1.3 / cycles;
        let mem_time = cost.time_ns - cost.compute_ns.min(cost.time_ns);
        let cyc_stall = (mem_time / cost.time_ns.max(1e-9)).clamp(0.0, 1.0);
        let rd_bw = (cost.dram_bytes + cost.pm_bytes) * (1.0 - write_frac) / cost.time_ns.max(1e-9);
        let page_faults = (sizes.iter().sum::<u64>() as f64 / 4096.0).ln().max(0.0);

        let mut values = [
            llc_mpki,
            ipc,
            prf_miss,
            mem_wcy,
            l2_ld_miss,
            br_msp,
            vec_ins,
            l3_ld_miss,
            l1_ld_miss,
            tlb_miss,
            uops,
            cyc_stall,
            rd_bw,
            page_faults,
        ];

        // Deterministic multiplicative measurement noise.
        if self.noise > 0.0 {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (work.task as u64).wrapping_mul(0x9E3779B97F4A7C15),
            );
            for v in &mut values {
                let eps: f64 = rng.gen_range(-1.0..1.0) * self.noise;
                *v *= 1.0 + eps;
            }
        }
        PmcEvents { values }
    }
}

fn vectorizability(p: &AccessPattern) -> f64 {
    match p {
        AccessPattern::Stream => 0.55,
        AccessPattern::Strided { .. } => 0.35,
        AccessPattern::Stencil { .. } => 0.45,
        AccessPattern::Random => 0.05,
    }
}

fn branch_mispredict_rate(p: &AccessPattern) -> f64 {
    match p {
        AccessPattern::Stream => 0.004,
        AccessPattern::Strided { .. } => 0.006,
        AccessPattern::Stencil { .. } => 0.008,
        AccessPattern::Random => 0.035,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merch_hm::{ObjectAccess, ObjectId, Phase};

    fn work(pattern: AccessPattern, n: f64, compute_ns: f64) -> TaskWork {
        TaskWork::new(0).with_phase(Phase::new("k", compute_ns).with_access(ObjectAccess::new(
            ObjectId(0),
            n,
            8,
            pattern,
            0.1,
        )))
    }

    #[test]
    fn names_consistent() {
        assert_eq!(ALL_EVENTS.len(), NUM_EVENTS);
        assert_eq!(&ALL_EVENTS[..8], &TOP8_EVENTS[..]);
    }

    #[test]
    fn random_pattern_raises_llc_mpki_and_prf_miss() {
        let cfg = HmConfig::default();
        let gen = PmcGenerator::new(1);
        let sizes = [1u64 << 30];
        let stream = gen.collect(&cfg, &work(AccessPattern::Stream, 1e6, 0.0), &sizes, 8);
        let random = gen.collect(&cfg, &work(AccessPattern::Random, 1e6, 0.0), &sizes, 8);
        assert!(random.get("LLC_MPKI").unwrap() > stream.get("LLC_MPKI").unwrap());
        assert!(random.get("PRF_Miss").unwrap() > stream.get("PRF_Miss").unwrap());
        assert!(random.get("VEC_INS").unwrap() < stream.get("VEC_INS").unwrap());
        assert!(random.get("BR_MSP").unwrap() > stream.get("BR_MSP").unwrap());
    }

    #[test]
    fn compute_bound_task_has_higher_ipc() {
        let cfg = HmConfig::default();
        let gen = PmcGenerator::new(1);
        let sizes = [1u64 << 30];
        let memory_bound = gen.collect(&cfg, &work(AccessPattern::Random, 1e6, 0.0), &sizes, 8);
        let compute_bound = gen.collect(&cfg, &work(AccessPattern::Random, 1e4, 1e8), &sizes, 8);
        assert!(compute_bound.get("IPC").unwrap() > memory_bound.get("IPC").unwrap());
        assert!(compute_bound.get("CYC_Stall").unwrap() < memory_bound.get("CYC_Stall").unwrap());
    }

    #[test]
    fn features_truncate() {
        let cfg = HmConfig::default();
        let gen = PmcGenerator::new(1);
        let ev = gen.collect(&cfg, &work(AccessPattern::Stream, 1e5, 0.0), &[1 << 20], 4);
        assert_eq!(ev.features(3).len(), 3);
        assert_eq!(ev.features(100).len(), NUM_EVENTS);
        assert!(ev.get("nope").is_none());
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_task() {
        let cfg = HmConfig::default();
        let gen = PmcGenerator::new(9);
        let w = work(AccessPattern::Stream, 1e5, 1e6);
        let sizes = [1u64 << 20];
        let a = gen.collect(&cfg, &w, &sizes, 4);
        let b = gen.collect(&cfg, &w, &sizes, 4);
        assert_eq!(a, b);
        let other = PmcGenerator::new(10).collect(&cfg, &w, &sizes, 4);
        assert_ne!(a, other);
    }

    #[test]
    fn missing_event_helpers() {
        let cfg = HmConfig::default();
        let gen = PmcGenerator::new(2);
        let mut ev = gen.collect(&cfg, &work(AccessPattern::Stream, 1e5, 0.0), &[1 << 20], 4);
        assert!(ev.is_complete());
        ev.mark_missing(1);
        ev.mark_missing(12);
        ev.mark_missing(999); // out of range: no-op
        assert!(!ev.is_complete());
        assert!(ev.get("IPC").unwrap().is_nan());
    }

    #[test]
    fn event_values_finite_and_sane() {
        let cfg = HmConfig::default();
        let gen = PmcGenerator::new(2);
        let ev = gen.collect(
            &cfg,
            &work(
                AccessPattern::Stencil {
                    points: 7,
                    input_dependent: false,
                },
                1e6,
                1e6,
            ),
            &[1 << 26],
            12,
        );
        for (name, v) in ALL_EVENTS.iter().zip(ev.values.iter()) {
            assert!(v.is_finite(), "{name} = {v}");
            assert!(*v >= 0.0, "{name} = {v}");
        }
        assert!(ev.get("IPC").unwrap() < 8.0);
        assert!(ev.get("PRF_Miss").unwrap() <= 1.0 + 0.05);
    }
}
