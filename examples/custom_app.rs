//! Bring your own application: implement [`Workload`] for a custom
//! task-parallel code and manage it with Merchandiser.
//!
//! The scenario is a streaming analytics pipeline: 8 worker tasks each scan
//! a private shard (stream), join against a shared dictionary (random
//! gathers), and append results (stream writes). Shards are deliberately
//! unequal. The example walks through the full user workflow the paper
//! describes: register objects through the `LB_HM_config` API, let the
//! Spindle-like classifier derive patterns from the kernel IR, train f(·)
//! once, then run.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use std::collections::BTreeMap;

use merchandiser_suite::core::training::{self, TrainingOptions};
use merchandiser_suite::core::MerchandiserPolicy;
use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::StaticPolicy;
use merchandiser_suite::hm::{
    Executor, HmConfig, HmSystem, ObjectAccess, ObjectSpec, Phase, TaskWork, Tier, Workload,
};
use merchandiser_suite::patterns::{
    classify_kernel, AccessPattern, AccessStmt, IndexExpr, KernelIr, LoopNest,
};

const WORKERS: usize = 8;
const SEED: u64 = 99;

struct JoinPipeline {
    rounds: usize,
    /// Rows per shard (unequal on purpose).
    shard_rows: Vec<u64>,
}

impl JoinPipeline {
    fn new(rounds: usize) -> Self {
        Self {
            rounds,
            shard_rows: (0..WORKERS)
                .map(|w| 2e5 as u64 * (1 + w as u64 % 4))
                .collect(),
        }
    }

    /// The `LB_HM_config` call the user inserts right before execution:
    /// objects and their sizes for the upcoming batch.
    fn lb_hm_config(&self, round: usize) -> BTreeMap<String, u64> {
        let mut c = BTreeMap::from([("dict".to_string(), 6 << 20)]);
        for (w, rows) in self.shard_rows.iter().enumerate() {
            let scale = 1.0 + round as f64 * 0.05;
            c.insert(format!("shard{w}"), (*rows as f64 * 32.0 * scale) as u64);
            c.insert(format!("out{w}"), (*rows as f64 * 16.0 * scale) as u64);
        }
        c
    }
}

impl Workload for JoinPipeline {
    fn name(&self) -> &str {
        "join-pipeline"
    }

    fn object_specs(&self) -> Vec<ObjectSpec> {
        let max = self.lb_hm_config(self.rounds - 1);
        let mut specs = vec![ObjectSpec::new("dict", max["dict"]).with_skew(1.0)];
        for w in 0..WORKERS {
            specs
                .push(ObjectSpec::new(&format!("shard{w}"), max[&format!("shard{w}")]).owned_by(w));
            specs.push(ObjectSpec::new(&format!("out{w}"), max[&format!("out{w}")]).owned_by(w));
        }
        specs
    }

    fn num_tasks(&self) -> usize {
        WORKERS
    }

    fn num_instances(&self) -> usize {
        self.rounds
    }

    fn object_sizes(&self, round: usize) -> Vec<(String, u64)> {
        self.lb_hm_config(round).into_iter().collect()
    }

    fn instance(&mut self, round: usize, sys: &HmSystem) -> Vec<TaskWork> {
        let dict = sys.object_by_name("dict").unwrap();
        let scale = 1.0 + round as f64 * 0.05;
        (0..WORKERS)
            .map(|w| {
                let shard = sys.object_by_name(&format!("shard{w}")).unwrap();
                let out = sys.object_by_name(&format!("out{w}")).unwrap();
                let rows = self.shard_rows[w] as f64 * scale;
                TaskWork::new(w).with_phase(
                    Phase::new("scan_join", rows * 6.0)
                        .with_access(ObjectAccess::new(
                            shard,
                            rows * 4.0,
                            8,
                            AccessPattern::Stream,
                            0.0,
                        ))
                        .with_access(ObjectAccess::new(dict, rows, 8, AccessPattern::Random, 0.0))
                        .with_access(ObjectAccess::new(
                            out,
                            rows * 2.0,
                            8,
                            AccessPattern::Stream,
                            1.0,
                        )),
                )
            })
            .collect()
    }

    fn kernel_ir(&self) -> KernelIr {
        // for i { k = shard[i]; v = dict[h(k)]; out[j++] = v }
        KernelIr::new("join-pipeline").with_loop(LoopNest {
            name: "scan_join".into(),
            depth: 1,
            input_dependent_bounds: false,
            body: vec![
                AccessStmt::read(
                    "shard",
                    IndexExpr::Affine {
                        stride: 1,
                        offset: 0,
                    },
                    8,
                ),
                AccessStmt::read(
                    "dict",
                    IndexExpr::Indirect {
                        index_object: "shard".into(),
                    },
                    8,
                ),
                AccessStmt::write(
                    "out",
                    IndexExpr::Affine {
                        stride: 1,
                        offset: 0,
                    },
                    8,
                ),
            ],
        })
    }

    fn reuse_hints(&self) -> BTreeMap<String, f64> {
        // Popular dictionary keys are hit repeatedly per batch.
        [("dict".to_string(), 2.5)].into()
    }
}

fn main() {
    // The working set must exceed DRAM for placement to matter.
    let ws: u64 = JoinPipeline::new(10)
        .object_specs()
        .iter()
        .map(|s| s.size.div_ceil(PAGE_SIZE) * PAGE_SIZE)
        .sum();
    let cfg = HmConfig::calibrated(ws / 3, ws * 4);
    println!(
        "join pipeline: {WORKERS} workers, working set {:.1} MB, DRAM {:.1} MB",
        ws as f64 / 1e6,
        cfg.dram.capacity as f64 / 1e6
    );

    // The classifier reproduces Table 1 for the custom app.
    let app = JoinPipeline::new(10);
    let map = classify_kernel(&app.kernel_ir());
    println!("detected patterns:");
    for (obj, pat) in &map {
        println!("  {obj:<8} {pat}");
    }

    println!("training f(·) ...");
    let samples = training::generate_code_samples(100, SEED);
    let dataset = training::build_training_dataset(&HmConfig::default(), &samples, 10, SEED);
    let opts = TrainingOptions {
        include_mlp: false,
        include_all_models: false,
        ..Default::default()
    };
    let artifacts = training::train_correlation_function(&dataset, &opts, SEED);

    let pm = Executor::new(
        HmSystem::new(cfg.clone(), SEED),
        JoinPipeline::new(10),
        StaticPolicy { tier: Tier::Pm },
    )
    .run();
    let policy = MerchandiserPolicy::new(artifacts.model, map, app.reuse_hints(), SEED);
    let merch = Executor::new(HmSystem::new(cfg, SEED), app, policy).run();

    println!(
        "\nPM-only {:.1} ms (A.C.V {:.3})  →  Merchandiser {:.1} ms (A.C.V {:.3}): {:.2}× speedup",
        pm.total_time_ns() / 1e6,
        pm.acv(),
        merch.total_time_ns() / 1e6,
        merch.acv(),
        pm.total_time_ns() / merch.total_time_ns()
    );
}
