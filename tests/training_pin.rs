//! Pins the §5.1 offline pipeline's output bit for bit: code samples →
//! training dataset → Table 3 comparison, Gini event ranking, Figure 7
//! accuracy curve and the final pruned GBR. A change to any model family,
//! the split, the ranking or the compile step moves the digest.

use merchandiser_suite::core::training::{self, TrainingOptions};
use merchandiser_suite::hm::checkpoint::fnv1a64;
use merchandiser_suite::hm::HmConfig;

const SEED: u64 = 51;

/// fnv1a64 of the `{:?}` text below at `SEED`.
const GOLDEN: u64 = 0xff1b3be72eb47787;

#[test]
fn section_5_1_pipeline_output_is_pinned() {
    let samples = training::generate_code_samples(15, SEED);
    let dataset = training::build_training_dataset(&HmConfig::default(), &samples, 10, SEED);
    let opts = TrainingOptions {
        include_mlp: false,
        include_all_models: true,
        ..Default::default()
    };
    let art = training::train_correlation_function(&dataset, &opts, SEED);

    let table3: Vec<(&str, u64)> = art
        .table3
        .iter()
        .map(|m| (m.name, m.r2.to_bits()))
        .collect();
    let curve: Vec<(usize, u64)> = art
        .accuracy_by_k
        .iter()
        .map(|&(k, r2)| (k, r2.to_bits()))
        .collect();
    let fingerprint = art.model.compile().f.fingerprint();
    let text = format!("{:?}", (table3, &art.event_ranking, curve, fingerprint));
    let got = fnv1a64(text.as_bytes());
    assert_eq!(got, GOLDEN, "digest {got:#018x} of {text}");
}
