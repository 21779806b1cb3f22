//! Decoder totality: every state decoder that reads bytes from outside the
//! process — `Checkpoint::decode`, `Wal::latest`,
//! `MerchandiserPolicy::restore_state` and `PerformanceModel::decode` —
//! returns a typed error or a value for any input, never a panic or an
//! allocation abort, and a decoded model's prediction returns. Inputs are
//! arbitrary bytes and mutated valid payloads: byte flips, truncations,
//! and a numeric (count) token replaced by `u64::MAX` or `2^40`. Each
//! count field and each way bad bytes reach `Wal::latest` also has its own
//! regression test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use merchandiser_suite::core::perfmodel::PerformanceModel;
use merchandiser_suite::core::policy::MerchandiserPolicy;
use merchandiser_suite::hm::checkpoint::fnv1a64;
use merchandiser_suite::hm::page::PAGE_SIZE;
use merchandiser_suite::hm::runtime::{Executor, PlacementPolicy};
use merchandiser_suite::hm::system::HmError;
use merchandiser_suite::hm::workload::testutil::SkewedWorkload;
use merchandiser_suite::hm::{Checkpoint, FaultPlan, HmConfig, HmSystem, Wal, Warning};
use merchandiser_suite::models::{GradientBoostedRegressor, Regressor};
use merchandiser_suite::patterns::ObjectPatternMap;
use merchandiser_suite::profiling::PmcEvents;

fn linear_model() -> PerformanceModel {
    let mut f = GradientBoostedRegressor::new(1, 0.1, 1, 0);
    f.fit(&[vec![0.0; 9], vec![1.0; 9]], &[1.0, 1.0]);
    PerformanceModel { f, num_events: 8 }
}

fn policy() -> MerchandiserPolicy {
    MerchandiserPolicy::new(
        linear_model(),
        ObjectPatternMap::new(),
        Default::default(),
        5,
    )
}

/// Unique temp path per invocation (tests run concurrently).
fn temp_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("merch-total-{}-{n}.wal", std::process::id()))
}

/// Valid inputs for every decoder, built once: a fault-armed supervised
/// run's WAL, its last checkpoint payload, that checkpoint's Merchandiser
/// state blob, and a trained model file.
struct Valid {
    wal: Vec<u8>,
    checkpoint: String,
    policy: String,
    model: String,
}

fn valid() -> &'static Valid {
    static VALID: OnceLock<Valid> = OnceLock::new();
    VALID.get_or_init(|| {
        let plan = FaultPlan::none()
            .with_seed(3)
            .with_migration_failures(0.2, 2)
            .with_page_poison(0.05)
            .with_telemetry_blackout(0.5);
        let mut sys = HmSystem::new(HmConfig::calibrated(24 * PAGE_SIZE, 1024 * PAGE_SIZE), 5);
        sys.set_fault_plan(plan).unwrap();
        let app = SkewedWorkload {
            tasks: 2,
            rounds: 4,
            base_accesses: 1e5,
            obj_bytes: 32 * PAGE_SIZE,
        };
        let path = temp_path();
        let mut wal = Wal::create(&path).unwrap();
        Executor::new(sys, app, policy())
            .run_supervised(&mut wal)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let ck = Wal::latest(&path).unwrap().expect("a durable checkpoint");
        std::fs::remove_file(&path).ok();
        assert!(!ck.policy_state.is_empty());

        let mut f = GradientBoostedRegressor::new(8, 0.1, 3, 1);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..9).map(|j| ((i * 5 + j) % 7) as f64).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.5 + r[8]).collect();
        f.fit(&x, &y);
        Valid {
            wal: bytes,
            checkpoint: ck.encode(),
            policy: ck.policy_state,
            model: PerformanceModel { f, num_events: 8 }.encode(),
        }
    })
}

/// Count values no decoder may pre-allocate from.
const HUGE: [u64; 2] = [u64::MAX, 1 << 40];

/// The whitespace-terminated pieces of `text`, and the indices of those
/// whose token is a `u64` (every count field is one).
fn numeric_pieces(text: &str) -> (Vec<&str>, Vec<usize>) {
    let pieces: Vec<&str> = text.split_inclusive(char::is_whitespace).collect();
    let numeric = (0..pieces.len())
        .filter(|&i| pieces[i].trim_end().parse::<u64>().is_ok())
        .collect();
    (pieces, numeric)
}

/// `valid` mutated by `how`: 0 flips byte `at` by `mask`, 1 truncates at
/// `at`, 2 / 3 set numeric token `at` to `HUGE[0]` / `HUGE[1]`.
fn mutate(valid: &[u8], how: u8, at: usize, mask: u8) -> Vec<u8> {
    let mut out = valid.to_vec();
    match how {
        0 => out[at % valid.len()] ^= mask | 1,
        1 => out.truncate(at % (valid.len() + 1)),
        _ => {
            let text = String::from_utf8_lossy(valid);
            let (mut pieces, numeric) = numeric_pieces(&text);
            let k = numeric[at % numeric.len()];
            let ws = &pieces[k][pieces[k].trim_end().len()..];
            let huge = format!("{}{ws}", HUGE[usize::from(how - 2)]);
            pieces[k] = &huge;
            out = pieces.concat().into_bytes();
        }
    }
    out
}

fn checkpoint_decode(bytes: &[u8]) {
    let _ = Checkpoint::decode(&String::from_utf8_lossy(bytes));
}

fn wal_latest(bytes: &[u8]) {
    let path = temp_path();
    std::fs::write(&path, bytes).unwrap();
    let got = Wal::latest(&path);
    std::fs::remove_file(&path).ok();
    got.expect("an unreadable WAL is the only error, and this file reads");
}

fn restore_state(bytes: &[u8]) {
    let _ = policy().restore_state(&String::from_utf8_lossy(bytes));
}

/// Decode a model file, and predict through whatever decodes: a decoded
/// tree must not hang or panic the walk.
fn model_decode(bytes: &[u8]) {
    if let Ok(m) = PerformanceModel::decode(&String::from_utf8_lossy(bytes)) {
        let events = PmcEvents { values: [0.5; 14] };
        for r in [0.0, 0.5] {
            m.predict(10.0, 4.0, &events, r);
            m.compile().predict(10.0, 4.0, &events, r);
        }
    }
}

#[test]
fn valid_inputs_decode() {
    let v = valid();
    assert!(Checkpoint::decode(&v.checkpoint).is_ok());
    policy().restore_state(&v.policy).unwrap();
    PerformanceModel::decode(&v.model).unwrap();
}

/// `decode` of `payload` with each numeric token set to each huge count.
fn every_count_token_set_huge(payload: &[u8], decode: fn(&[u8])) {
    let (_, numeric) = numeric_pieces(std::str::from_utf8(payload).unwrap());
    for at in 0..numeric.len() {
        decode(&mutate(payload, 2, at, 0));
        decode(&mutate(payload, 3, at, 0));
    }
}

#[test]
fn every_count_token_set_huge_is_handled() {
    let v = valid();
    every_count_token_set_huge(v.checkpoint.as_bytes(), checkpoint_decode);
    every_count_token_set_huge(v.policy.as_bytes(), restore_state);
    every_count_token_set_huge(v.model.as_bytes(), model_decode);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        checkpoint_decode(&bytes);
        wal_latest(&bytes);
        restore_state(&bytes);
        model_decode(&bytes);
    }

    #[test]
    fn mutated_payloads_never_panic(how in 0u8..4, at in any::<usize>(), mask in any::<u8>()) {
        let v = valid();
        checkpoint_decode(&mutate(v.checkpoint.as_bytes(), how, at, mask));
        wal_latest(&mutate(&v.wal, how, at, mask));
        restore_state(&mutate(v.policy.as_bytes(), how, at, mask));
        model_decode(&mutate(v.model.as_bytes(), how, at, mask));
    }
}

// One regression test per count field: `u64::MAX` and `2^40` are typed
// errors, never a capacity-overflow panic or an out-of-memory abort.

/// `text` with token `i` (after the tag) of its first `tag` line set to `n`.
fn with_token(text: &str, tag: &str, i: usize, n: impl std::fmt::Display) -> String {
    let mut done = false;
    let mut out = String::new();
    for line in text.lines() {
        let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        if !done && toks.first().is_some_and(|t| t == tag) {
            done = true;
            toks[i + 1] = n.to_string();
        }
        out += &toks.join(" ");
        out.push('\n');
    }
    assert!(done, "no `{tag}` line");
    out
}

fn assert_corrupt<T: std::fmt::Debug>(got: Result<T, HmError>) {
    assert!(matches!(got, Err(HmError::CheckpointCorrupt(_))), "{got:?}");
}

fn checkpoint_count_rejected(tag: &str, i: usize) {
    for n in HUGE {
        assert_corrupt(Checkpoint::decode(&with_token(
            &valid().checkpoint,
            tag,
            i,
            n,
        )));
    }
}

fn policy_count_rejected(tag: &str, i: usize) {
    for n in HUGE {
        assert_corrupt(policy().restore_state(&with_token(&valid().policy, tag, i, n)));
    }
}

fn model_count_rejected(tag: &str, i: usize) {
    for n in HUGE {
        assert_corrupt(PerformanceModel::decode(&with_token(
            &valid().model,
            tag,
            i,
            n,
        )));
    }
}

#[test]
fn huge_completed_count_is_corrupt() {
    checkpoint_count_rejected("completed", 0);
}

#[test]
fn huge_round_task_count_is_corrupt() {
    checkpoint_count_rejected("round", 11);
}

#[test]
fn huge_object_count_is_corrupt() {
    checkpoint_count_rejected("objects", 0);
}

#[test]
fn huge_bin_count_is_corrupt() {
    checkpoint_count_rejected("timeline", 2);
}

#[test]
fn huge_lost_bin_count_is_corrupt() {
    checkpoint_count_rejected("timeline", 3);
}

/// Token `i` (after the tag) of the valid checkpoint's first `tag` line.
fn checkpoint_token(tag: &str, i: usize) -> &'static str {
    let line = valid()
        .checkpoint
        .lines()
        .find(|l| l.split_whitespace().next() == Some(tag))
        .unwrap();
    line.split_whitespace().nth(i + 1).unwrap()
}

#[test]
fn lost_bin_past_the_bin_count_is_corrupt() {
    let bins: u64 = checkpoint_token("timeline", 2).parse().unwrap();
    assert_ne!(checkpoint_token("timeline", 3), "0", "the run lost bins");
    for bin in [bins, bins + 1, u64::MAX] {
        assert_corrupt(Checkpoint::decode(&with_token(
            &valid().checkpoint,
            "timeline",
            4,
            bin,
        )));
    }
}

/// The timeline is rebuilt from the rounds, so a round that disagrees with
/// the header is caught: a longer round moves the rebuilt clock off the
/// header's, and a task stretched past the header's bins is rejected before
/// the rebuild allocates for it.
#[test]
fn rounds_that_disagree_with_the_timeline_are_corrupt() {
    let round_time: f64 = checkpoint_token("round", 10).parse().unwrap();
    let longer = format!("{:?}", round_time + 1.0);
    assert_corrupt(Checkpoint::decode(&with_token(
        &valid().checkpoint,
        "round",
        10,
        longer,
    )));
    for time in ["1e300", "inf"] {
        let text = with_token(&valid().checkpoint, "task", 1, time);
        assert_corrupt(Checkpoint::decode(&text));
    }
}

#[test]
fn huge_extent_and_quarantine_counts_are_corrupt() {
    checkpoint_count_rejected("extents", 0);
    checkpoint_count_rejected("extents", 1);
    checkpoint_count_rejected("x", 0);
    checkpoint_count_rejected("quarantine", 0);
}

#[test]
fn huge_task_object_count_is_corrupt() {
    policy_count_rejected("task", 1);
}

#[test]
fn huge_prediction_log_count_is_corrupt() {
    policy_count_rejected("predlog", 0);
}

#[test]
fn huge_policy_task_count_is_corrupt() {
    policy_count_rejected("tasks", 0);
}

#[test]
fn overflowing_prediction_length_is_corrupt() {
    let bad = with_token(&valid().policy, "pred", 0, 0);
    assert_corrupt(policy().restore_state(&with_token(&bad, "pred", 1, u64::MAX)));
}

#[test]
fn overflowing_pending_length_is_corrupt() {
    let bad = with_token(&valid().policy, "pending", 0, u64::MAX);
    assert_corrupt(policy().restore_state(&bad));
}

/// A bad token names its line and its record's tag: one case per decoder
/// that reads through the shared field cursor.
#[test]
fn corrupt_tokens_name_their_line_and_tag() {
    /// `got` must be `CheckpointCorrupt` naming the line of `text`'s first
    /// `tag` record, the tag and the bad token.
    fn assert_located(text: &str, tag: &str, got: Result<(), HmError>) {
        let line_no = 1
            + (text.lines())
                .position(|l| l.split_whitespace().next() == Some(tag))
                .unwrap_or_else(|| panic!("no `{tag}` line"));
        let Err(HmError::CheckpointCorrupt(msg)) = got else {
            panic!("a bad `{tag}` token must be CheckpointCorrupt: {got:?}");
        };
        assert!(
            msg.contains(&format!("line {line_no},"))
                && msg.contains(&format!("`{tag}`"))
                && msg.contains("bad value `x7`"),
            "{msg}"
        );
    }
    let v = valid();
    for (tag, i) in [("round", 9), ("x", 3), ("faultplan", 1)] {
        let bad = with_token(&v.checkpoint, tag, i, "x7");
        assert_located(&v.checkpoint, tag, Checkpoint::decode(&bad).map(drop));
    }
    for (tag, i) in [("e", 2), ("ste", 1)] {
        let bad = with_token(&v.policy, tag, i, "x7");
        assert_located(&v.policy, tag, policy().restore_state(&bad));
    }
    for (tag, i) in [("gbr", 3), ("tree", 2), ("node", 2)] {
        let bad = with_token(&v.model, tag, i, "x7");
        assert_located(&v.model, tag, PerformanceModel::decode(&bad).map(drop));
    }
}

#[test]
fn huge_tree_node_count_is_corrupt() {
    model_count_rejected("tree", 3);
}

#[test]
fn huge_stage_count_is_corrupt() {
    model_count_rejected("gbr", 7);
}

// `Wal::latest` finds frames on bytes: bad bytes after a valid record never
// lose that record, and never panic the scan.

/// One WAL frame around `payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = format!("record 9 {} {:016x}\n", payload.len(), fnv1a64(payload)).into_bytes();
    f.extend_from_slice(payload);
    f
}

/// Recovery from the valid WAL followed by `tail`: the surviving round and
/// whether a torn tail was reported.
fn recover_with_tail(tail: &[u8]) -> (usize, Option<Warning>) {
    let path = temp_path();
    std::fs::write(&path, [&valid().wal[..], tail].concat()).unwrap();
    let (ck, warning) = Wal::latest_with_warning(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (ck.expect("the valid record survives").next_round, warning)
}

fn last_round() -> usize {
    Checkpoint::decode(&valid().checkpoint).unwrap().next_round
}

#[test]
fn non_utf8_tail_is_dropped_with_a_warning() {
    let (round, warning) = recover_with_tail(b"rec\xffrd 1 2 3\n\xfe\n");
    assert_eq!(round, last_round());
    assert!(
        matches!(warning, Some(Warning::WalTornTail { .. })),
        "{warning:?}"
    );
}

#[test]
fn frame_length_inside_a_multibyte_char_does_not_panic() {
    // `é` is two bytes; a frame length of 1 ends between them.
    let mut tail = frame(&"é".as_bytes()[..1]);
    tail.push("é".as_bytes()[1]);
    let (round, warning) = recover_with_tail(&tail);
    assert_eq!(round, last_round());
    assert!(warning.is_some(), "the stray byte is a torn tail");
}

#[test]
fn non_utf8_record_mid_file_is_skipped() {
    let bad = frame(b"merchckpt 7\n\xff\n");
    let (round, warning) = recover_with_tail(&bad);
    assert_eq!(round, last_round());
    assert!(warning.is_none(), "a framed record is skipped, not a tail");
    // The scan continues past it: a later valid record wins.
    let mut later = Checkpoint::decode(&valid().checkpoint).unwrap();
    later.next_round += 1;
    let (round, _) = recover_with_tail(&[bad, frame(later.encode().as_bytes())].concat());
    assert_eq!(round, last_round() + 1);
}
