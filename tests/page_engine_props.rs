//! Property-based tests for the extent page engine: after *any*
//! interleaving of allocate / migrate / evict / age / record / re-weight /
//! poison / offline / epoch-boundary / crash-replay operations, the O(1)
//! per-tier byte counters must equal a from-scratch recount, and the
//! per-object weighted-fraction fast path must be bitwise identical to the
//! documented streak-spec scan — both before a flush (dirty aggregates
//! fall back to the scan) and after one (the fast path actually fires).
//!
//! Two further disciplines guard the extent representation itself: the
//! engine must stay bitwise-equal to the retained per-page [`RefTable`]
//! model under random split/merge/poison interleavings, and it must stay
//! so on a table spanning several `SHARD_PAGES` blocks, where runs break at
//! every block boundary and weighted sums fold per-block partials in block
//! order.

use std::ops::Range;

use proptest::prelude::*;

use merchandiser_suite::hm::checkpoint::Reader;
use merchandiser_suite::hm::page::page_weights;
use merchandiser_suite::hm::{
    FaultPlan, HmConfig, HmSystem, ObjectId, ObjectSpec, PageTable, RefTable, Tier, PAGE_SIZE,
    SHARD_PAGES,
};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a fresh object (PM first, like the apps do).
    Allocate { pages: u64, skew_centi: u16 },
    /// Object-granular migration of up to `max_pages` hottest/coldest.
    MigrateObject {
        obj: u8,
        to_dram: bool,
        max_pages: u8,
    },
    /// Page-granular batch migration (with LFU eviction when DRAM fills).
    MigratePages { lo: u16, n: u8, to_dram: bool },
    /// Direct LFU eviction sweep.
    Evict { n: u8 },
    /// Record accesses against an object (touches counters + accessed bits).
    Record { obj: u8, accesses_deci: u32 },
    /// Reassign per-page weights of an object (input change between rounds).
    Reweight { obj: u8, skew_centi: u16, seed: u16 },
    /// Exponential aging of the LFU counters.
    Age,
    /// ECC poison strike: quarantine a frame (extent punch-out).
    Poison { idx: u16 },
    /// Permanently offline a slice of DRAM capacity.
    Offline,
    /// Close the open migration epoch (commit or rollback) and open a new
    /// one — rollbacks restore the extent table bitwise.
    EpochBoundary,
    /// Crash: encode the full state, decode into a fresh system.
    CrashReplay,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..40, 0u16..250).prop_map(|(pages, skew_centi)| Op::Allocate { pages, skew_centi }),
        (any::<u8>(), any::<bool>(), 1u8..32).prop_map(|(obj, to_dram, max_pages)| {
            Op::MigrateObject {
                obj,
                to_dram,
                max_pages,
            }
        }),
        (any::<u16>(), 1u8..32, any::<bool>()).prop_map(|(lo, n, to_dram)| Op::MigratePages {
            lo,
            n,
            to_dram
        }),
        (1u8..24).prop_map(|n| Op::Evict { n }),
        (any::<u8>(), 1u32..5000)
            .prop_map(|(obj, accesses_deci)| Op::Record { obj, accesses_deci }),
        (any::<u8>(), 0u16..250, any::<u16>()).prop_map(|(obj, skew_centi, seed)| Op::Reweight {
            obj,
            skew_centi,
            seed
        }),
        Just(Op::Age),
        (any::<u16>()).prop_map(|idx| Op::Poison { idx }),
        Just(Op::Offline),
        Just(Op::EpochBoundary),
        Just(Op::CrashReplay),
    ]
}

/// The engine's weighted-sum streak spec, replicated independently over
/// per-page `get()` reads: within each block, maximal streaks of pages
/// sharing `(weight bits, tier)` contribute `weight * len` to block-local
/// partials, and the partials fold into the totals in block order. This is
/// the *only* accumulation order the engine is allowed to produce,
/// whatever the run layout or job count.
fn scan_fraction(sys: &HmSystem, range: std::ops::Range<u64>, tier: Tier) -> f64 {
    let pt = sys.page_table();
    let (mut total, mut inn) = (0.0f64, 0.0f64);
    let mut id = range.start;
    while id < range.end {
        let chunk_end = ((id / SHARD_PAGES + 1) * SHARD_PAGES).min(range.end);
        let (mut t, mut i) = (0.0f64, 0.0f64);
        while id < chunk_end {
            let p = pt.get(id);
            let (wb, tr) = (p.weight().to_bits(), p.tier());
            let mut len = 1u64;
            while id + len < chunk_end {
                let q = pt.get(id + len);
                if q.weight().to_bits() != wb || q.tier() != tr {
                    break;
                }
                len += 1;
            }
            let contrib = f64::from_bits(wb) * len as f64;
            t += contrib;
            if tr == tier {
                i += contrib;
            }
            id += len;
        }
        total += t;
        inn += i;
    }
    if total <= 0.0 {
        0.0
    } else {
        inn / total
    }
}

/// Counters == recount, and fraction fast path == scan (bitwise).
fn check_invariants(sys: &mut HmSystem, label: &str) {
    // Dirty-aggregate path: queries must be right even before a flush.
    for tier in [Tier::Dram, Tier::Pm] {
        assert_eq!(
            sys.page_table().bytes_in(tier),
            sys.page_table().recount_bytes_in(tier),
            "{label}: tier byte counter diverged ({tier:?})"
        );
    }
    let ranges: Vec<std::ops::Range<u64>> = sys.objects().iter().map(|o| o.pages()).collect();
    for r in &ranges {
        for tier in [Tier::Dram, Tier::Pm] {
            let got = sys.page_table().weighted_fraction_in(r.clone(), tier);
            let want = scan_fraction(sys, r.clone(), tier);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: pre-flush fraction {got} != scan {want} ({tier:?}, {r:?})"
            );
        }
    }
    // Clean-aggregate path: flush, then the O(1) fast path must fire with
    // the identical bits.
    sys.page_table_mut().flush_aggregates();
    for r in &ranges {
        for tier in [Tier::Dram, Tier::Pm] {
            let got = sys.page_table().weighted_fraction_in(r.clone(), tier);
            let want = scan_fraction(sys, r.clone(), tier);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: post-flush fraction {got} != scan {want} ({tier:?}, {r:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental counters always equal a from-scratch recount after
    /// arbitrary operation interleavings, including quarantine punch-outs,
    /// capacity offlining, epoch rollbacks, and crash-replay through the
    /// v5 extent checkpoint.
    #[test]
    fn incremental_accounting_matches_recount(ops in proptest::collection::vec(arb_op(), 1..40), seed in any::<u64>()) {
        let mut cfg = HmConfig::default();
        // Small tiers so eviction pressure and OutOfCapacity paths trigger.
        cfg.dram.capacity = 64 * PAGE_SIZE;
        cfg.pm.capacity = 2048 * PAGE_SIZE;
        let mut sys = HmSystem::new(cfg, seed);
        // Odd seeds arm migration-failure faults: failure bursts abandon
        // pages mid-epoch, so EpochBoundary exercises real rollbacks (the
        // per-page migration path). Even seeds stay fault-free and keep
        // the batch extent-migration path under test.
        if seed % 2 == 1 {
            sys.set_fault_plan(
                FaultPlan::none()
                    .with_seed(seed ^ 0x5eed)
                    .with_migration_failures(0.3, 3),
            )
            .unwrap();
        }
        sys.begin_epoch(0);
        let mut n_alloc = 0u32;
        for (step, op) in ops.iter().cloned().enumerate() {
            match op {
                Op::Allocate { pages, skew_centi } => {
                    let spec = ObjectSpec {
                        name: format!("o{n_alloc}"),
                        size: pages * PAGE_SIZE - PAGE_SIZE / 2, // non-multiple sizes
                        owner_task: None,
                        hot_page_skew: skew_centi as f64 / 100.0,
                    };
                    n_alloc += 1;
                    let _ = sys.allocate(&spec, Tier::Pm);
                }
                Op::MigrateObject { obj, to_dram, max_pages } => {
                    if !sys.objects().is_empty() {
                        let oid = sys.objects()[obj as usize % sys.objects().len()].id;
                        let to = if to_dram { Tier::Dram } else { Tier::Pm };
                        let _ = sys.migrate_object_pages(oid, to, max_pages as u64);
                    }
                }
                Op::MigratePages { lo, n, to_dram } => {
                    let len = sys.page_table().len() as u64;
                    if len > 0 {
                        let lo = lo as u64 % len;
                        let hi = (lo + n as u64).min(len);
                        let to = if to_dram { Tier::Dram } else { Tier::Pm };
                        let _ = sys.migrate_pages(lo..hi, to);
                    }
                }
                Op::Evict { n } => {
                    let _ = sys.evict_lfu_dram_pages(n as u64, None);
                }
                Op::Record { obj, accesses_deci } => {
                    if !sys.objects().is_empty() {
                        let oid = sys.objects()[obj as usize % sys.objects().len()].id;
                        sys.record_accesses(oid, accesses_deci as f64 / 10.0);
                    }
                }
                Op::Reweight { obj, skew_centi, seed } => {
                    if !sys.objects().is_empty() {
                        let oid = sys.objects()[obj as usize % sys.objects().len()].id;
                        sys.reassign_page_weights(oid, skew_centi as f64 / 100.0, seed as u64);
                    }
                }
                Op::Age => sys.age_access_counts(0.5),
                Op::Poison { idx } => {
                    let len = sys.page_table().len() as u64;
                    if len > 0 {
                        sys.poison_page(idx as u64 % len);
                    }
                }
                Op::Offline => sys.offline_dram(3 * PAGE_SIZE),
                Op::EpochBoundary => {
                    let _ = sys.end_epoch();
                    sys.begin_epoch(step as u64);
                }
                Op::CrashReplay => {
                    // Round boundaries close the epoch before checkpointing.
                    let _ = sys.end_epoch();
                    let mut text = String::new();
                    sys.encode_state(&mut text);
                    let mut r = Reader::new(&text);
                    let restored = HmSystem::decode_state(&mut r).expect("state must round-trip");
                    // The replay must resurrect identical counters too.
                    for tier in [Tier::Dram, Tier::Pm] {
                        prop_assert_eq!(
                            restored.page_table().bytes_in(tier),
                            sys.page_table().bytes_in(tier)
                        );
                    }
                    prop_assert_eq!(
                        format!("{:?}", restored.page_table()),
                        format!("{:?}", sys.page_table())
                    );
                    sys = restored;
                    sys.begin_epoch(step as u64);
                }
            }
            check_invariants(&mut sys, &format!("step {step}"));
        }
        let _ = sys.end_epoch();
        check_invariants(&mut sys, "final");
    }
}

/// Extent-table operations mirrored against the per-page reference model.
#[derive(Debug, Clone)]
enum TOp {
    /// Append a new object's pages (uniform runs or skewed per-page).
    Extend {
        pages: u64,
        uniform: bool,
        dram: bool,
        wseed: u16,
    },
    /// Batch tier flip over an arbitrary range (extent split/merge).
    SetTierRange { lo: u16, n: u16, dram: bool },
    /// Single-page weight change (splits a run out of an extent).
    SetWeight { idx: u16, wmilli: u16 },
    /// Profiling sweep over a range.
    Record { lo: u16, n: u16, accesses_deci: u32 },
    /// Exponential aging of every counter.
    Age,
    /// Clear all profiling state (round boundary).
    Reset,
    /// Migration-counter bump over a range (journal replay shape).
    Bump { lo: u16, n: u16 },
    /// Quarantine punch-out of a single frame.
    Poison { idx: u16 },
}

fn arb_top() -> impl Strategy<Value = TOp> {
    prop_oneof![
        (1u64..120, any::<bool>(), any::<bool>(), any::<u16>()).prop_map(
            |(pages, uniform, dram, wseed)| TOp::Extend {
                pages,
                uniform,
                dram,
                wseed
            }
        ),
        (any::<u16>(), 1u16..90, any::<bool>()).prop_map(|(lo, n, dram)| TOp::SetTierRange {
            lo,
            n,
            dram
        }),
        (any::<u16>(), 1u16..2000).prop_map(|(idx, wmilli)| TOp::SetWeight { idx, wmilli }),
        (any::<u16>(), 1u16..90, 1u32..5000).prop_map(|(lo, n, accesses_deci)| TOp::Record {
            lo,
            n,
            accesses_deci
        }),
        Just(TOp::Age),
        Just(TOp::Reset),
        (any::<u16>(), 1u16..90).prop_map(|(lo, n)| TOp::Bump { lo, n }),
        (any::<u16>()).prop_map(|idx| TOp::Poison { idx }),
    ]
}

/// Maps an op's u16 anchor and length onto a table of `len` pages.
type Span<'a> = &'a dyn Fn(u64, u16, u16) -> Range<u64>;

/// [`Span`] that wraps the anchor into the table and clips the range.
fn clip(len: u64, lo: u16, n: u16) -> Range<u64> {
    let lo = lo as u64 % len;
    lo..(lo + n as u64).min(len)
}

/// Apply one [`TOp`] to both the extent engine and the per-page model,
/// placing its range (or page) with `span`.
fn apply_top(pt: &mut PageTable, rt: &mut RefTable, op: &TOp, n_objs: &mut u32, span: Span) {
    let len = pt.len() as u64;
    let clip = |lo: u16, n: u16| span(len, lo, n);
    match *op {
        TOp::Extend {
            pages,
            uniform,
            dram,
            wseed,
        } => {
            let tier = if dram { Tier::Dram } else { Tier::Pm };
            let obj = ObjectId(*n_objs);
            *n_objs += 1;
            if uniform {
                let w = 1.0 / pages as f64;
                pt.extend_for_object(obj, tier, std::iter::repeat_n(w, pages as usize));
                rt.extend_for_object(obj, tier, std::iter::repeat_n(w, pages as usize));
            } else {
                let ws = page_weights(pages, 1.3, wseed as u64);
                pt.extend_for_object(obj, tier, ws.iter().copied());
                rt.extend_for_object(obj, tier, ws.iter().copied());
            }
        }
        TOp::SetTierRange { lo, n, dram } if len > 0 => {
            let to = if dram { Tier::Dram } else { Tier::Pm };
            pt.set_tier_range(clip(lo, n), to);
            rt.set_tier_range(clip(lo, n), to);
        }
        TOp::SetWeight { idx, wmilli } if len > 0 => {
            let w = wmilli as f64 / 1000.0;
            pt.set_weight(clip(idx, 1).start, w);
            rt.set_weight(clip(idx, 1).start, w);
        }
        TOp::Record {
            lo,
            n,
            accesses_deci,
        } if len > 0 => {
            let acc = accesses_deci as f64 / 10.0;
            pt.record_accesses(clip(lo, n), acc);
            rt.record_accesses(clip(lo, n), acc);
        }
        TOp::Age => {
            pt.age_access_counts(0.5);
            rt.age_access_counts(0.5);
        }
        TOp::Reset => {
            pt.reset_profiling_counters();
            rt.reset_profiling_counters();
        }
        TOp::Bump { lo, n } if len > 0 => {
            pt.bump_migrations_range(clip(lo, n));
            rt.bump_migrations_range(clip(lo, n));
        }
        TOp::Poison { idx } if len > 0 => {
            pt.quarantine_page(clip(idx, 1).start);
            rt.quarantine_page(clip(idx, 1).start);
        }
        _ => {} // range op against an empty table: nothing to do
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random split/merge/poison interleavings leave the extent engine
    /// bitwise-equal to the flat per-page reference model: every page's
    /// full state, the tier byte counters, the quarantine set, and the
    /// streak-spec weighted sums.
    #[test]
    fn extent_engine_matches_per_page_model(ops in proptest::collection::vec(arb_top(), 1..48)) {
        let mut pt = PageTable::default();
        let mut rt = RefTable::default();
        let mut n_objs = 0u32;
        for (step, op) in ops.iter().enumerate() {
            apply_top(&mut pt, &mut rt, op, &mut n_objs, &clip);
            rt.assert_matches(&pt);
            let len = pt.len() as u64;
            if len > 0 {
                // Weighted sums over a full and a partial range, bitwise.
                for range in [0..len, len / 3..(2 * len / 3).max(len / 3 + 1)] {
                    let (gt, gin) = pt.scan_weight_sums(range.clone());
                    let (wt, win) = rt.scan_weight_sums(range);
                    prop_assert_eq!(gt.to_bits(), wt.to_bits(), "total @ step {}", step);
                    prop_assert_eq!(gin[0].to_bits(), win[0].to_bits(), "dram @ step {}", step);
                    prop_assert_eq!(gin[1].to_bits(), win[1].to_bits(), "pm @ step {}", step);
                }
            }
        }
        // The structural invariants hold at the end of every interleaving.
        pt.debug_verify();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Block boundaries: the same operation sequence stretched over a
    /// table of several `SHARD_PAGES` blocks leaves the extent engine
    /// bitwise-equal to the per-page model, with streak-spec weighted sums
    /// (per-block partials folded in block order) bit-identical over the
    /// full range and a partial one that starts and ends mid-block.
    #[test]
    fn multi_shard_table_matches_per_page_model(
        ops in proptest::collection::vec(arb_top(), 8..24),
        probe in any::<u32>(),
    ) {
        // Two full blocks plus a partial third.
        const N: u64 = SHARD_PAGES * 2 + 123;
        // Stretch each op's u16-sized anchor and length (up to 89, so up
        // to the whole table) over the three blocks so splits land in
        // every block and most ranges cross a block boundary,
        // deterministically from the proptest inputs.
        let stretch = |len: u64, lo: u16, n: u16| {
            let lo = (lo as u64 * 48_271 + probe as u64) % len;
            lo..(lo + n as u64 * 1_459).min(len)
        };
        let mut pt = PageTable::default();
        let mut rt = RefTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, std::iter::repeat_n(1.0 / N as f64, N as usize));
        rt.extend_for_object(ObjectId(0), Tier::Pm, std::iter::repeat_n(1.0 / N as f64, N as usize));
        let mut n_objs = 1;
        // Extends are skipped to keep the table at exactly N pages.
        for op in ops.iter().filter(|op| !matches!(op, TOp::Extend { .. })) {
            apply_top(&mut pt, &mut rt, op, &mut n_objs, &stretch);
        }
        rt.assert_matches(&pt);
        for range in [0..N, SHARD_PAGES / 2..N - 50] {
            let (gt, gin) = pt.scan_weight_sums(range.clone());
            let (wt, win) = rt.scan_weight_sums(range.clone());
            prop_assert_eq!(gt.to_bits(), wt.to_bits(), "total over {:?}", range);
            prop_assert_eq!(gin[0].to_bits(), win[0].to_bits(), "dram over {:?}", range);
            prop_assert_eq!(gin[1].to_bits(), win[1].to_bits(), "pm over {:?}", range);
        }
        pt.debug_verify();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint v5 is representation-independent of the run store: a
    /// fragmentation-adversarial table (alternating-tier stripes — one run
    /// per page at stripe 1, near the arena's maximal node count) encodes,
    /// decodes into a fresh system, and re-encodes to the byte-identical
    /// blob, with the decoded extent table `{:?}`-identical to the
    /// original. The arena's node order and free lists never leak into the
    /// format.
    #[test]
    fn fragmented_arena_round_trips_checkpoint_v5(
        objs in proptest::collection::vec((8u64..48, 0u16..250), 1..5),
        stripe in 1u64..4,
        seed in any::<u64>(),
    ) {
        let cfg = HmConfig::calibrated(4096 * PAGE_SIZE, 16384 * PAGE_SIZE);
        let mut sys = HmSystem::new(cfg, seed);
        sys.begin_epoch(0);
        for (i, (pages, skew_centi)) in objs.iter().enumerate() {
            let spec = ObjectSpec {
                name: format!("o{i}"),
                size: pages * PAGE_SIZE - PAGE_SIZE / 2,
                owner_task: None,
                hot_page_skew: *skew_centi as f64 / 100.0,
            };
            sys.allocate(&spec, Tier::Pm).expect("PM sized for every draw");
        }
        // Adversarial fragmentation: promote alternating stripes so
        // neighboring runs can never coalesce (no faults armed, ample DRAM
        // — every single-stripe migration succeeds deterministically).
        let len = sys.page_table().len() as u64;
        let mut lo = 0u64;
        while lo < len {
            let hi = (lo + stripe).min(len);
            let _ = sys.migrate_pages(lo..hi, Tier::Dram);
            lo += 2 * stripe;
        }
        prop_assert!(
            sys.page_table().num_extents() as u64 >= len / (2 * stripe),
            "build was not adversarial: {} extents over {} pages",
            sys.page_table().num_extents(), len
        );
        let _ = sys.end_epoch();
        let mut text = String::new();
        sys.encode_state(&mut text);
        let mut r = Reader::new(&text);
        let restored = HmSystem::decode_state(&mut r).expect("state must round-trip");
        let mut text2 = String::new();
        restored.encode_state(&mut text2);
        prop_assert_eq!(&text2, &text, "re-encode diverged from the original blob");
        prop_assert_eq!(
            format!("{:?}", restored.page_table()),
            format!("{:?}", sys.page_table())
        );
    }
}
