//! Pages and the emulated page table — extent/run-length edition.
//!
//! Each 4 KiB page carries the state real tiering systems read and write:
//! current tier, an *accessed* bit (the PTE bit profilers scan and reset),
//! and a saturating access counter. A per-page *weight* models how the
//! object's accesses distribute over its pages (uniform for streaming
//! objects, skewed for random-pattern objects with hot entries) — this is
//! what makes hot-page detection meaningful in the emulation.
//!
//! Instead of one `PageInfo` per page, the table stores maximal *runs*:
//! contiguous page ranges whose full state (object, tier, weight bits,
//! accessed, access-count bits, migration count) is bitwise identical.
//! Uniform objects start as a handful of runs regardless of size, batch
//! migrations split and re-merge runs instead of writing every page, and
//! whole-table sweeps (record, age, reset) cost O(runs), not O(pages).
//!
//! All runs live in one store: an index-linked arena whose live chain
//! lists them in page order. The page space is cut into [`SHARD_PAGES`]
//! blocks that are not a storage unit but a boundary: no run crosses one
//! (which bounds the `u16` node length), and weighted streak sums break
//! at each one.
//!
//! Weighted sums follow one fixed *streak* specification everywhere (see
//! [`PageTable::scan_weight_sums`]): within each block, maximal
//! (weight-bits, tier)-equal streaks contribute `weight * streak_len`, and
//! per-block partial sums fold in block order. The per-page [`RefTable`]
//! oracle implements the identical spec, so extent-engine outputs can be
//! compared bitwise against a straightforward per-page model in tests.

use std::collections::BTreeSet;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::config::Tier;
use crate::object::ObjectId;

/// Page size of the emulated system (4 KiB, as in the paper's profilers).
pub const PAGE_SIZE: u64 = 4096;

/// Pages per 2 MiB huge region (Thermostat samples one 4 KiB page per 2 MiB).
pub const PAGES_PER_HUGE_REGION: u64 = (2 << 20) / PAGE_SIZE;

/// Pages per run-length block: no run crosses a multiple of this, and
/// weighted streak sums break and fold here. 2^16 pages = 256 MiB of
/// address space; every table the workloads build fits in one block.
pub const SHARD_PAGES: u64 = 1 << 16;

/// Global page identifier.
pub type PageId = u64;

fn tier_idx(tier: Tier) -> usize {
    match tier {
        Tier::Dram => 0,
        Tier::Pm => 1,
    }
}

/// Per-page metadata (an emulated PTE plus profiling counters).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PageInfo {
    /// Object the page belongs to.
    pub object: ObjectId,
    /// Tier the page currently resides on. Private: tier changes must go
    /// through [`PageTable::set_tier`] to keep the tier counters exact.
    tier: Tier,
    /// Fraction of the object's accesses that land on this page (sums to 1
    /// over the object's pages). Private: weight changes must go through
    /// [`PageTable::set_weight`] to invalidate the object aggregate.
    weight: f64,
    /// Emulated PTE accessed bit; set by execution, cleared by profilers.
    pub accessed: bool,
    /// Accumulated access count since the last profiler reset.
    pub access_count: f64,
    /// Lifetime migration count (for overhead accounting / tests).
    pub migrations: u32,
}

impl PageInfo {
    /// Tier the page currently resides on.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Fraction of the object's accesses landing on this page.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Rebuild a fully-specified page (checkpoint restore only; normal
    /// allocation goes through
    /// [`extend_for_object`](PageTable::extend_for_object)).
    pub fn restore(
        object: ObjectId,
        tier: Tier,
        weight: f64,
        accessed: bool,
        access_count: f64,
        migrations: u32,
    ) -> Self {
        Self {
            object,
            tier,
            weight,
            accessed,
            access_count,
            migrations,
        }
    }

    /// Bitwise state equality — the run-coalescing relation: two pages are
    /// mergeable exactly when every field (floats compared by bits) matches.
    pub fn bits_eq(&self, o: &PageInfo) -> bool {
        self.object == o.object
            && self.tier == o.tier
            && self.weight.to_bits() == o.weight.to_bits()
            && self.accessed == o.accessed
            && self.access_count.to_bits() == o.access_count.to_bits()
            && self.migrations == o.migrations
    }
}

/// One extent: `len` contiguous pages starting at `start` whose full state
/// is bitwise identical. Runs are maximal (always coalesced) within their
/// [`SHARD_PAGES`] block, which makes the table representation — and
/// therefore its `Debug` output — canonical for a given page-level state.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Run {
    /// First page of the run.
    pub start: PageId,
    /// Pages in the run (≥ 1).
    pub len: u64,
    /// Shared state of every page in the run.
    pub info: PageInfo,
}

impl Run {
    /// One-past-the-end page id.
    pub fn end(&self) -> PageId {
        self.start + self.len
    }
}

/// Arena handle sentinel: no node.
const NIL: u32 = u32::MAX;

/// One arena node: a run's full page state plus its intrusive `next` link.
/// Run *starts* are implicit — traversal accumulates lengths from page 0
/// — which packs a node into 32 bytes. At the fragmentation-adversarial
/// limit (one run per page) a 1e9-page table costs ~32 GB of run store,
/// where a `Vec<Run>` (48-byte runs plus growth slack) would not fit the
/// machine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RunNode {
    /// Fraction of the object's accesses landing on each page of the run.
    weight: f64,
    /// Accumulated access count since the last profiler reset.
    access_count: f64,
    /// Owning object (dense `ObjectId` payload).
    object: u32,
    /// Lifetime migration count.
    migrations: u32,
    /// Next run in page order (live nodes) or next free node (free-listed
    /// nodes); `NIL` terminates both chains.
    next: u32,
    /// Run length minus one (1..=`SHARD_PAGES` pages, exactly a u16).
    len_m1: u16,
    /// Bit 0: `tier_idx` of the run's tier; bit 1: the PTE accessed bit.
    flags: u8,
    _pad: u8,
}

impl RunNode {
    fn new(len: u64, info: &PageInfo) -> Self {
        debug_assert!((1..=SHARD_PAGES).contains(&len));
        Self {
            weight: info.weight,
            access_count: info.access_count,
            object: info.object.0,
            migrations: info.migrations,
            next: NIL,
            len_m1: (len - 1) as u16,
            flags: tier_idx(info.tier) as u8 | ((info.accessed as u8) << 1),
            _pad: 0,
        }
    }

    fn len(&self) -> u64 {
        self.len_m1 as u64 + 1
    }

    fn info(&self) -> PageInfo {
        PageInfo {
            object: ObjectId(self.object),
            tier: if self.flags & 1 == 0 {
                Tier::Dram
            } else {
                Tier::Pm
            },
            weight: self.weight,
            accessed: self.flags & 2 != 0,
            access_count: self.access_count,
            migrations: self.migrations,
        }
    }

    /// Bitwise-state match against a `PageInfo` — the coalescing relation,
    /// [`PageInfo::bits_eq`] expressed against the packed node fields.
    fn matches(&self, info: &PageInfo) -> bool {
        self.object == info.object.0
            && self.flags == (tier_idx(info.tier) as u8 | ((info.accessed as u8) << 1))
            && self.weight.to_bits() == info.weight.to_bits()
            && self.access_count.to_bits() == info.access_count.to_bits()
            && self.migrations == info.migrations
    }
}

/// The run store: every run of the table in one compact index-linked
/// arena. Live runs form a singly-linked chain from `head` in page order,
/// covering `0..used`; reclaimed nodes form a free list that is reused
/// before the backing vector grows, so steady-state rebuild phases
/// allocate nothing.
#[derive(Clone, Serialize, Deserialize)]
struct RunStore {
    /// First live run, or `NIL` when the table is empty.
    head: u32,
    /// Last live run (append coalescing), or `NIL`.
    tail: u32,
    /// Head of the free list.
    free: u32,
    /// Live run count.
    live: u32,
    /// Pages covered by live runs (the append cursor).
    used: u64,
    /// Node arena.
    nodes: Vec<RunNode>,
}

impl Default for RunStore {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            free: NIL,
            live: 0,
            used: 0,
            nodes: Vec::new(),
        }
    }
}

impl std::fmt::Debug for RunStore {
    /// Canonical logical view: the run list. Node order, free-listed
    /// garbage and vector capacity differ between op histories; every
    /// bitwise table comparison in the workspace goes through `{:?}`, so
    /// only the (always-coalesced, therefore canonical) runs may appear.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the store's live runs, reconstructing absolute starts.
struct RunIter<'a> {
    store: &'a RunStore,
    cur: u32,
    start: PageId,
}

impl Iterator for RunIter<'_> {
    type Item = Run;
    fn next(&mut self) -> Option<Run> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.store.nodes[self.cur as usize];
        let run = Run {
            start: self.start,
            len: n.len(),
            info: n.info(),
        };
        self.start += n.len();
        self.cur = n.next;
        Some(run)
    }
}

impl RunStore {
    fn alloc(&mut self, node: RunNode) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        } else {
            assert!(self.nodes.len() < NIL as usize, "run arena full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, i: u32) {
        self.nodes[i as usize].next = self.free;
        self.free = i;
    }

    /// Append `len` pages of `info` at the current end, coalesced into
    /// the tail run when the state matches and the tail does not end on a
    /// [`SHARD_PAGES`] boundary. The segment must be non-empty and end in
    /// the current block: allocation appends one page at a time and chain
    /// rebuilds re-push pieces of runs that already respect the
    /// boundaries, so only [`push_split`](Self::push_split) has to cut.
    /// All appends are contiguous in page order, so this one relation
    /// keeps the runs canonical.
    fn push_seg(&mut self, len: u64, info: &PageInfo) {
        let offset = self.used % SHARD_PAGES;
        debug_assert!(
            len > 0 && offset + len <= SHARD_PAGES,
            "segment crosses a block"
        );
        self.used += len;
        if offset != 0 {
            let t = &mut self.nodes[self.tail as usize];
            if t.matches(info) {
                t.len_m1 = (t.len() + len - 1) as u16;
                return;
            }
        }
        let i = self.alloc(RunNode::new(len, info));
        if self.tail == NIL {
            self.head = i;
        } else {
            self.nodes[self.tail as usize].next = i;
        }
        self.tail = i;
        self.live += 1;
    }

    /// [`push_seg`](Self::push_seg) for a segment of any length (checkpoint
    /// restore): one piece per block it covers.
    fn push_split(&mut self, mut len: u64, info: &PageInfo) {
        while len > 0 {
            let seg = len.min(SHARD_PAGES - self.used % SHARD_PAGES);
            self.push_seg(seg, info);
            len -= seg;
        }
    }

    /// Iterate live runs in page order.
    fn iter(&self) -> RunIter<'_> {
        RunIter {
            store: self,
            cur: self.head,
            start: 0,
        }
    }

    /// Rebuild the live chain, passing every run segment overlapping
    /// `range` (its uniform state and page range) to `mid`, which pushes
    /// the replacement pages; segments outside `range` pass through as
    /// they were. Consumed nodes are released before the rebuilt segments
    /// allocate, so the arena reuses them in place.
    fn rebuild(
        &mut self,
        range: &Range<PageId>,
        mut mid: impl FnMut(&mut Self, PageInfo, Range<PageId>),
    ) {
        if range.start >= range.end.min(self.used) {
            return;
        }
        let (mut cur, mut start) = (self.head, 0);
        self.head = NIL;
        self.tail = NIL;
        self.live = 0;
        self.used = 0;
        while cur != NIL {
            let node = self.nodes[cur as usize];
            self.release(cur);
            cur = node.next;
            let (r_start, r_len) = (start, node.len());
            start += r_len;
            let info = node.info();
            let lo = r_start.max(range.start);
            let hi = (r_start + r_len).min(range.end);
            if lo >= hi {
                self.push_seg(r_len, &info);
                continue;
            }
            if lo > r_start {
                self.push_seg(lo - r_start, &info);
            }
            mid(self, info, lo..hi);
            if r_start + r_len > hi {
                self.push_seg(r_start + r_len - hi, &info);
            }
        }
    }

    /// Split-apply-coalesce over every run segment in `range`: `f` sees
    /// the segment's (uniform) state and length. Because every mutation
    /// the engine performs depends only on the page's prior state, one
    /// application per segment equals one application per page.
    fn apply(&mut self, range: &Range<PageId>, mut f: impl FnMut(&mut PageInfo, u64)) {
        self.rebuild(range, |s, mut info, seg| {
            f(&mut info, seg.end - seg.start);
            s.push_seg(seg.end - seg.start, &info);
        });
    }

    /// Per-page variant of [`RunStore::apply`] for mutations that differ
    /// page to page (weight reassignment): inside `range`, `f` runs once
    /// per page.
    fn apply_paged(&mut self, range: &Range<PageId>, mut f: impl FnMut(&mut PageInfo, PageId)) {
        self.rebuild(range, |s, info, seg| {
            for id in seg {
                let mut m = info;
                f(&mut m, id);
                s.push_seg(1, &m);
            }
        });
    }
}

/// Per-object weighted-residency aggregate: the running sums
/// `weighted_fraction_in` needs, maintained incrementally so whole-object
/// queries skip the run scan.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ObjAgg {
    /// First page of the object's range.
    first_page: PageId,
    /// Pages in the object's range.
    num_pages: u64,
    /// Streak-spec weight total over the range (see
    /// [`PageTable::scan_weight_sums`]).
    weight_total: f64,
    /// Per-tier streak-spec weight sums (indexed by `tier_idx`) — bitwise
    /// identical to what a fresh [`PageTable::scan_weight_sums`] returns.
    weight_in: [f64; 2],
    /// True when a tier/weight write invalidated the float sums.
    dirty: bool,
}

/// The emulated page table: one run-length extent store plus incremental
/// tier accounting.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct PageTable {
    /// Every run, in page order; its `used` cursor is the page count.
    store: RunStore,
    /// Pages resident per tier (indexed by `tier_idx`). Exact integers,
    /// updated eagerly on every tier change — `bytes_in` never scans.
    tier_pages: [u64; 2],
    /// Per-object aggregates, indexed by `ObjectId`.
    aggs: Vec<ObjAgg>,
    /// Objects whose aggregate needs recomputation (deduplicated via the
    /// per-aggregate `dirty` flag).
    dirty: Vec<u32>,
    /// Set when pages were appended in a layout the per-object aggregates
    /// cannot represent (non-dense object ids). All fraction queries then
    /// take the scan path; tier counters stay exact regardless.
    irregular: bool,
    /// Pages whose DRAM frame was poisoned by an uncorrectable ECC error.
    /// Quarantined pages are permanently pinned off DRAM; the set is part
    /// of the derived `Debug` output, so every bitwise page-table
    /// comparison (epoch rollback, replay determinism) covers it. In run
    /// terms a quarantined page is a punch-out: batch promotions split
    /// around it and leave it behind on PM. Ordered so serialization is
    /// canonical.
    quarantine: BTreeSet<PageId>,
}

impl PageTable {
    /// Number of pages.
    pub fn len(&self) -> usize {
        self.store.used as usize
    }

    /// True when no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.store.used == 0
    }

    /// Number of extents currently in the table (fragmentation gauge;
    /// 1 run per object per [`SHARD_PAGES`] block when fully coalesced).
    pub fn num_extents(&self) -> usize {
        self.store.live as usize
    }

    fn push_object_agg(&mut self, object: ObjectId, first: PageId, num_pages: u64) {
        if object.0 as usize == self.aggs.len() {
            let (weight_total, weight_in) = self.scan_weight_sums(first..first + num_pages);
            self.aggs.push(ObjAgg {
                first_page: first,
                num_pages,
                weight_total,
                weight_in,
                dirty: false,
            });
        } else {
            self.irregular = true;
        }
    }

    /// Append pages for a new object; returns the first new page id.
    pub fn extend_for_object(
        &mut self,
        object: ObjectId,
        tier: Tier,
        weights: impl IntoIterator<Item = f64>,
    ) -> PageId {
        let first = self.store.used;
        for w in weights {
            self.store.push_seg(
                1,
                &PageInfo {
                    object,
                    tier,
                    weight: w,
                    accessed: false,
                    access_count: 0.0,
                    migrations: 0,
                },
            );
        }
        let num_pages = self.store.used - first;
        self.tier_pages[tier_idx(tier)] += num_pages;
        self.push_object_agg(object, first, num_pages);
        first
    }

    /// Restore one whole run (checkpoint restore only; normal allocation
    /// goes through [`extend_for_object`](Self::extend_for_object)): `len`
    /// pages sharing `info`, appended at the current end of the table.
    /// Call [`flush_aggregates`](Self::flush_aggregates) once after the
    /// last run so whole-object queries regain their O(1) path.
    pub fn push_raw_run(&mut self, len: u64, info: PageInfo) {
        let first = self.store.used;
        self.tier_pages[tier_idx(info.tier)] += len;
        let oi = info.object.0 as usize;
        if oi == self.aggs.len() {
            self.aggs.push(ObjAgg {
                first_page: first,
                num_pages: len,
                weight_total: 0.0,
                weight_in: [0.0; 2],
                dirty: true,
            });
            self.dirty.push(info.object.0);
        } else if oi + 1 == self.aggs.len()
            && self.aggs[oi].first_page + self.aggs[oi].num_pages == first
        {
            self.aggs[oi].num_pages += len;
        } else if len > 0 {
            self.irregular = true;
        }
        self.store.push_split(len, &info);
    }

    /// Page state by value (`PageInfo` is `Copy`; mutation goes through
    /// the targeted mutators so runs and counters stay consistent). An
    /// O(runs) chain walk: no hot path does per-page lookups.
    pub fn get(&self, id: PageId) -> PageInfo {
        match self.runs().find(|r| id < r.end()) {
            Some(r) => r.info,
            None => panic!("page {id} out of bounds"),
        }
    }

    /// Iterate over `(PageId, PageInfo)` by value, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, PageInfo)> + '_ {
        self.runs()
            .flat_map(|r| (r.start..r.end()).map(move |id| (id, r.info)))
    }

    /// Iterate all runs in page order.
    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.store.iter()
    }

    /// Iterate runs clipped to `range`, in page order.
    pub fn runs_in(&self, range: Range<PageId>) -> impl Iterator<Item = Run> + '_ {
        let (start, end) = (range.start, range.end);
        self.runs()
            .skip_while(move |r| r.end() <= start)
            .map_while(move |r| {
                let lo = r.start.max(start);
                let hi = r.end().min(end);
                (lo < hi).then(|| Run {
                    start: lo,
                    len: hi - lo,
                    info: r.info,
                })
            })
    }

    /// `idx`-th page (ascending id order) currently resident in `tier` —
    /// an O(runs) order-statistic walk replacing O(pages) resident-list
    /// materialization (fault-victim selection).
    pub fn nth_page_in_tier(&self, tier: Tier, mut idx: u64) -> Option<PageId> {
        for r in self.runs() {
            if r.info.tier == tier {
                if idx < r.len {
                    return Some(r.start + idx);
                }
                idx -= r.len;
            }
        }
        None
    }

    /// Pages currently resident in `tier` (O(1) from the counters).
    pub fn pages_in(&self, tier: Tier) -> u64 {
        self.tier_pages[tier_idx(tier)]
    }

    fn mark_dirty(&mut self, object: ObjectId) {
        match self.aggs.get_mut(object.0 as usize) {
            Some(a) if !a.dirty => {
                a.dirty = true;
                self.dirty.push(object.0);
            }
            Some(_) => {}
            None => self.irregular = true,
        }
    }

    /// Move page `id` to `to`, keeping the tier counters exact and marking
    /// the owning object's aggregate for recomputation.
    pub fn set_tier(&mut self, id: PageId, to: Tier) {
        let mut changed: Option<(Tier, ObjectId)> = None;
        self.store.apply(&(id..id + 1), |p, _| {
            if p.tier != to {
                changed = Some((p.tier, p.object));
                p.tier = to;
            }
        });
        if let Some((from, object)) = changed {
            self.tier_pages[tier_idx(from)] -= 1;
            self.tier_pages[tier_idx(to)] += 1;
            self.mark_dirty(object);
        }
    }

    /// Batch tier move: every page of `range` not already on `to` moves in
    /// one extent split/merge sweep. The tier delta and the moved objects
    /// (in ascending id order) are applied after the sweep, so counters
    /// and aggregates end up exactly as the equivalent per-page
    /// [`set_tier`](Self::set_tier) loop would leave them.
    pub fn set_tier_range(&mut self, range: Range<PageId>, to: Tier) {
        let mut from_counts = [0u64; 2];
        let mut objs = BTreeSet::new();
        self.store.apply(&range, |p, len| {
            if p.tier != to {
                from_counts[tier_idx(p.tier)] += len;
                objs.insert(p.object.0);
                p.tier = to;
            }
        });
        self.tier_pages[0] -= from_counts[0];
        self.tier_pages[1] -= from_counts[1];
        self.tier_pages[tier_idx(to)] += from_counts[0] + from_counts[1];
        for o in objs {
            self.mark_dirty(ObjectId(o));
        }
    }

    /// Overwrite page `id`'s weight, marking the owning object's aggregate
    /// for recomputation.
    pub fn set_weight(&mut self, id: PageId, weight: f64) {
        let mut object = None;
        self.store.apply(&(id..id + 1), |p, _| {
            p.weight = weight;
            object = Some(p.object);
        });
        if let Some(object) = object {
            self.mark_dirty(object);
        }
    }

    /// Overwrite the weights of `first..first + weights.len()` in one
    /// per-page sweep (weight reassignment) — equivalent to a
    /// [`set_weight`](Self::set_weight) loop, one run rebuild in all.
    pub fn set_weights_range(&mut self, first: PageId, weights: &[f64]) {
        let range = first..first + weights.len() as u64;
        let mut objs = BTreeSet::new();
        self.store.apply_paged(&range, |p, id| {
            p.weight = weights[(id - first) as usize];
            objs.insert(p.object.0);
        });
        for o in objs {
            self.mark_dirty(ObjectId(o));
        }
    }

    /// Clear page `id`'s profiling state (PTE-scan reset).
    pub fn reset_page_profiling(&mut self, id: PageId) {
        self.store.apply(&(id..id + 1), |p, _| {
            p.accessed = false;
            p.access_count = 0.0;
        });
    }

    /// Read-and-clear the accessed bit (DAMON / AutoNUMA sampling).
    pub fn take_accessed(&mut self, id: PageId) -> bool {
        let mut was = false;
        self.store.apply(&(id..id + 1), |p, _| {
            was = p.accessed;
            p.accessed = false;
        });
        was
    }

    /// Overwrite page `id`'s access counter (profiler estimates).
    pub fn set_access_count(&mut self, id: PageId, count: f64) {
        self.store
            .apply(&(id..id + 1), |p, _| p.access_count = count);
    }

    /// Restore page `id`'s migration counter (epoch rollback).
    pub fn set_migrations(&mut self, id: PageId, migrations: u32) {
        self.store
            .apply(&(id..id + 1), |p, _| p.migrations = migrations);
    }

    /// Increment page `id`'s migration counter (poison remap accounting).
    pub fn bump_migrations(&mut self, id: PageId) {
        self.store.apply(&(id..id + 1), |p, _| p.migrations += 1);
    }

    /// Increment the migration counter of every page in `range`
    /// (batch-migration bookkeeping).
    pub fn bump_migrations_range(&mut self, range: Range<PageId>) {
        self.store.apply(&range, |p, _| p.migrations += 1);
    }

    /// Scale every access counter by `factor` (aging sweep). O(runs).
    pub fn age_access_counts(&mut self, factor: f64) {
        self.store
            .apply(&(0..self.store.used), |p, _| p.access_count *= factor);
    }

    /// Clear every accessed bit and counter (start-of-interval reset).
    pub fn reset_profiling_counters(&mut self) {
        self.store.apply(&(0..self.store.used), |p, _| {
            p.accessed = false;
            p.access_count = 0.0;
        });
    }

    /// Record `accesses` object-level accesses over the page range
    /// `range`, distributing them by page weight. The accessed bit is only
    /// set when at least half an access is expected to land on the page
    /// this interval — a page touched once every hundred rounds does not
    /// have its PTE bit set every round on real hardware. Each run is
    /// updated once (share depends only on weight).
    pub fn record_accesses(&mut self, range: Range<PageId>, accesses: f64) {
        self.store.apply(&range, |p, _| {
            let share = accesses * p.weight;
            if share > 0.0 {
                p.access_count += share;
                if share >= 0.5 {
                    p.accessed = true;
                }
            }
        });
    }

    /// Streak-spec weighted sums over `range`: within each
    /// [`SHARD_PAGES`] block, maximal (weight-bits, tier)-equal streaks
    /// contribute `weight * streak_len` to the block's partial; the
    /// partials fold in block order. This one specification defines every
    /// weighted sum in the engine — the aggregates, the fraction queries,
    /// and the [`RefTable`] oracle all produce bitwise-identical values,
    /// independent of run fragmentation (streaks ignore object and run
    /// boundaries).
    pub fn scan_weight_sums(&self, range: Range<PageId>) -> (f64, [f64; 2]) {
        type Sums = (f64, [f64; 2]);
        // The open streak: (weight bits, tier, pages).
        type Streak = Option<(u64, Tier, u64)>;
        let flush = |streak: &mut Streak, part: &mut Sums| {
            if let Some((wb, t, l)) = streak.take() {
                let c = f64::from_bits(wb) * l as f64;
                part.0 += c;
                part.1[tier_idx(t)] += c;
            }
        };
        let fold = |part: &mut Sums, sums: &mut Sums| {
            sums.0 += part.0;
            sums.1[0] += part.1[0];
            sums.1[1] += part.1[1];
            *part = (0.0, [0.0; 2]);
        };
        let (mut sums, mut part) = ((0.0, [0.0; 2]), (0.0, [0.0; 2]));
        let (mut streak, mut block): (Streak, u64) = (None, 0);
        for r in self.runs_in(range) {
            if r.start / SHARD_PAGES != block {
                flush(&mut streak, &mut part);
                fold(&mut part, &mut sums);
                block = r.start / SHARD_PAGES;
            }
            let key = (r.info.weight.to_bits(), r.info.tier);
            match &mut streak {
                Some((wb, t, l)) if (*wb, *t) == key => *l += r.len,
                _ => {
                    flush(&mut streak, &mut part);
                    streak = Some((key.0, key.1, r.len));
                }
            }
        }
        flush(&mut streak, &mut part);
        fold(&mut part, &mut sums);
        sums
    }

    /// Recompute every dirty object aggregate from its range. Batched
    /// callers (migration loops) call this once at the end; a query
    /// against a still-dirty object falls back to the scan and stays
    /// correct either way.
    pub fn flush_aggregates(&mut self) {
        while let Some(oi) = self.dirty.pop() {
            let Some(a) = self.aggs.get(oi as usize) else {
                continue;
            };
            let range = a.first_page..a.first_page + a.num_pages;
            let (weight_total, weight_in) = self.scan_weight_sums(range);
            let a = &mut self.aggs[oi as usize];
            a.weight_total = weight_total;
            a.weight_in = weight_in;
            a.dirty = false;
        }
    }

    /// True when every per-object aggregate is valid: no pending dirty
    /// entries and a regular (dense object id) layout. Whole-object
    /// [`weighted_fraction_in`](Self::weighted_fraction_in) queries then
    /// all take the O(1) aggregate path. Batched mutators uphold this by
    /// flushing once per batch; fraction-heavy callers assert it in debug
    /// builds.
    pub fn aggregates_clean(&self) -> bool {
        self.dirty.is_empty() && !self.irregular
    }

    /// Weighted fraction of the range currently resident in `tier`. O(1)
    /// when the range is exactly one object with a clean aggregate (the
    /// policy's per-object queries); otherwise falls back to
    /// [`scan_weight_sums`](Self::scan_weight_sums), which implements the
    /// same specification and therefore returns the bitwise-identical
    /// value.
    pub fn weighted_fraction_in(&self, range: Range<PageId>, tier: Tier) -> f64 {
        if !self.irregular && range.start < range.end && range.start < self.store.used {
            // Regular layouts keep `aggs` sorted by `first_page`, so the
            // owning object comes from a binary search over the aggregates
            // — O(log objects) instead of an O(runs) chain walk.
            let oi = self
                .aggs
                .partition_point(|a| a.first_page <= range.start)
                .wrapping_sub(1);
            if let Some(a) = self.aggs.get(oi) {
                if !a.dirty && a.first_page == range.start && a.num_pages == range.end - range.start
                {
                    return if a.weight_total > 0.0 {
                        a.weight_in[tier_idx(tier)] / a.weight_total
                    } else {
                        0.0
                    };
                }
            }
        }
        self.scan_weighted_fraction_in(range, tier)
    }

    /// Forced-scan fraction (no aggregate fast path) — the reference the
    /// fast path is tested against.
    pub fn scan_weighted_fraction_in(&self, range: Range<PageId>, tier: Tier) -> f64 {
        let (total, in_) = self.scan_weight_sums(range);
        if total > 0.0 {
            in_[tier_idx(tier)] / total
        } else {
            0.0
        }
    }

    /// Quarantine page `id`: its DRAM frame is dead and the page may never
    /// reside on DRAM again. Returns `true` when the page was newly
    /// quarantined. Does not move the page — the system remaps it via
    /// [`set_tier`](Self::set_tier) and charges the repair cost.
    pub fn quarantine_page(&mut self, id: PageId) -> bool {
        debug_assert!(id < self.store.used);
        self.quarantine.insert(id)
    }

    /// Is page `id` quarantined (its DRAM frame poisoned)?
    pub fn is_quarantined(&self, id: PageId) -> bool {
        self.quarantine.contains(&id)
    }

    /// Quarantined pages in ascending page-id order.
    pub fn quarantined(&self) -> impl Iterator<Item = PageId> + '_ {
        self.quarantine.iter().copied()
    }

    /// Quarantined pages inside `range`, ascending (batch-promotion
    /// punch-outs).
    pub fn quarantined_in_range(&self, range: Range<PageId>) -> impl Iterator<Item = PageId> + '_ {
        self.quarantine.range(range).copied()
    }

    /// Number of quarantined pages.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantine.len() as u64
    }

    /// Bytes of DRAM lost to poisoned frames (each dead frame shrinks the
    /// physical pool by one page).
    pub fn quarantine_bytes(&self) -> u64 {
        self.quarantine.len() as u64 * PAGE_SIZE
    }

    /// Bytes of the whole table resident in `tier`. O(1) from the
    /// incremental tier counters.
    pub fn bytes_in(&self, tier: Tier) -> u64 {
        self.tier_pages[tier_idx(tier)] * PAGE_SIZE
    }

    /// From-scratch recount of [`bytes_in`](Self::bytes_in) — verification
    /// only (proptests, explicit oracle checks); release hot
    /// paths must rely on the incremental counters instead. O(runs) now,
    /// but still a full-table walk.
    pub fn recount_bytes_in(&self, tier: Tier) -> u64 {
        self.runs()
            .filter(|r| r.info.tier == tier)
            .map(|r| r.len)
            .sum::<u64>()
            * PAGE_SIZE
    }

    /// Debug-only structural verification: counters match a recount, runs
    /// are contiguous from page 0, inside one block, maximal (coalesced
    /// up to block boundaries) and cover exactly `0..len`, and every arena
    /// node is live or free. A no-op in release builds — this is the
    /// "O(pages) verification scans stay off hot paths" contract.
    pub fn debug_verify(&self) {
        #[cfg(debug_assertions)]
        {
            for tier in [Tier::Dram, Tier::Pm] {
                debug_assert_eq!(self.bytes_in(tier), self.recount_bytes_in(tier));
            }
            let s = &self.store;
            let (mut expect, mut live) = (0u64, 0u32);
            let mut prev: Option<Run> = None;
            for r in s.iter() {
                debug_assert_eq!(r.start, expect, "gap before run");
                debug_assert!(r.len > 0);
                debug_assert_eq!(
                    r.start / SHARD_PAGES,
                    (r.end() - 1) / SHARD_PAGES,
                    "run crosses block"
                );
                if let Some(p) = prev.filter(|p| p.end() % SHARD_PAGES != 0) {
                    debug_assert!(!p.info.bits_eq(&r.info), "uncoalesced neighbors");
                }
                expect = r.end();
                prev = Some(r);
                live += 1;
            }
            debug_assert_eq!(live, s.live, "live-run counter drift");
            debug_assert_eq!(s.used, expect, "used-pages cursor drift");
            let mut free = 0usize;
            let mut cur = s.free;
            while cur != NIL {
                free += 1;
                debug_assert!(free <= s.nodes.len(), "free-list cycle");
                cur = s.nodes[cur as usize].next;
            }
            debug_assert_eq!(live as usize + free, s.nodes.len(), "leaked arena node");
        }
    }
}

/// Per-page reference model implementing the identical observable
/// semantics as [`PageTable`] — the retained oracle the extent engine is
/// compared against bitwise in proptests. Deliberately
/// simple: a flat `Vec<PageInfo>` with O(pages) everything.
#[derive(Debug, Default, Clone)]
pub struct RefTable {
    pages: Vec<PageInfo>,
    quarantine: BTreeSet<PageId>,
}

impl RefTable {
    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Mirror of [`PageTable::extend_for_object`].
    pub fn extend_for_object(
        &mut self,
        object: ObjectId,
        tier: Tier,
        weights: impl IntoIterator<Item = f64>,
    ) -> PageId {
        let first = self.pages.len() as PageId;
        for w in weights {
            self.pages.push(PageInfo {
                object,
                tier,
                weight: w,
                accessed: false,
                access_count: 0.0,
                migrations: 0,
            });
        }
        first
    }

    /// Page state by value.
    pub fn get(&self, id: PageId) -> PageInfo {
        self.pages[id as usize]
    }

    /// Mirror of [`PageTable::set_tier`].
    pub fn set_tier(&mut self, id: PageId, to: Tier) {
        self.pages[id as usize].tier = to;
    }

    /// Per-page equivalent of [`PageTable::set_tier_range`].
    pub fn set_tier_range(&mut self, range: Range<PageId>, to: Tier) {
        for id in range {
            self.pages[id as usize].tier = to;
        }
    }

    /// Mirror of [`PageTable::set_weight`].
    pub fn set_weight(&mut self, id: PageId, weight: f64) {
        self.pages[id as usize].weight = weight;
    }

    /// Mirror of [`PageTable::record_accesses`].
    pub fn record_accesses(&mut self, range: Range<PageId>, accesses: f64) {
        for id in range {
            let p = &mut self.pages[id as usize];
            let share = accesses * p.weight;
            if share > 0.0 {
                p.access_count += share;
                if share >= 0.5 {
                    p.accessed = true;
                }
            }
        }
    }

    /// Mirror of [`PageTable::age_access_counts`].
    pub fn age_access_counts(&mut self, factor: f64) {
        for p in &mut self.pages {
            p.access_count *= factor;
        }
    }

    /// Mirror of [`PageTable::reset_profiling_counters`].
    pub fn reset_profiling_counters(&mut self) {
        for p in &mut self.pages {
            p.accessed = false;
            p.access_count = 0.0;
        }
    }

    /// Mirror of [`PageTable::bump_migrations_range`].
    pub fn bump_migrations_range(&mut self, range: Range<PageId>) {
        for id in range {
            self.pages[id as usize].migrations += 1;
        }
    }

    /// Mirror of [`PageTable::quarantine_page`].
    pub fn quarantine_page(&mut self, id: PageId) -> bool {
        self.quarantine.insert(id)
    }

    /// Per-page recount of bytes resident in `tier`.
    pub fn bytes_in(&self, tier: Tier) -> u64 {
        self.pages.iter().filter(|p| p.tier == tier).count() as u64 * PAGE_SIZE
    }

    /// The streak-spec weighted sums over the per-page vector: streaks of
    /// equal (weight-bits, tier) break at `SHARD_PAGES` boundaries and
    /// contribute `w * len`, per-block partials folding in block order —
    /// exactly [`PageTable::scan_weight_sums`], derived from pages instead
    /// of runs.
    pub fn scan_weight_sums(&self, range: Range<PageId>) -> (f64, [f64; 2]) {
        let mut total = 0.0;
        let mut in_ = [0.0; 2];
        let start = range.start.min(self.pages.len() as u64);
        let end = range.end.min(self.pages.len() as u64);
        let mut block = start / SHARD_PAGES;
        while block * SHARD_PAGES < end {
            let lo = start.max(block * SHARD_PAGES);
            let hi = end.min((block + 1) * SHARD_PAGES);
            let mut st = 0.0;
            let mut si2 = [0.0; 2];
            let mut cur: Option<(u64, Tier, u64)> = None;
            for id in lo..hi {
                let p = &self.pages[id as usize];
                let key = (p.weight.to_bits(), p.tier);
                match &mut cur {
                    Some((wb, t, l)) if *wb == key.0 && *t == key.1 => *l += 1,
                    _ => {
                        if let Some((wb, t, l)) = cur.take() {
                            let c = f64::from_bits(wb) * l as f64;
                            st += c;
                            si2[tier_idx(t)] += c;
                        }
                        cur = Some((key.0, key.1, 1));
                    }
                }
            }
            if let Some((wb, t, l)) = cur.take() {
                let c = f64::from_bits(wb) * l as f64;
                st += c;
                si2[tier_idx(t)] += c;
            }
            total += st;
            in_[0] += si2[0];
            in_[1] += si2[1];
            block += 1;
        }
        (total, in_)
    }

    /// Mirror of [`PageTable::scan_weighted_fraction_in`].
    pub fn scan_weighted_fraction_in(&self, range: Range<PageId>, tier: Tier) -> f64 {
        let (total, in_) = self.scan_weight_sums(range);
        if total > 0.0 {
            in_[tier_idx(tier)] / total
        } else {
            0.0
        }
    }

    /// Assert bitwise page-level equality with an extent table: every
    /// page's full state, the tier counters and the quarantine set.
    pub fn assert_matches(&self, pt: &PageTable) {
        assert_eq!(self.pages.len(), pt.len(), "page count");
        let mut n = 0u64;
        for (id, info) in pt.iter() {
            assert!(
                self.pages[id as usize].bits_eq(&info),
                "page {id} diverged: ref {:?} vs extent {info:?}",
                self.pages[id as usize]
            );
            n += 1;
        }
        assert_eq!(n, self.pages.len() as u64, "extent iteration covers table");
        for tier in [Tier::Dram, Tier::Pm] {
            assert_eq!(self.bytes_in(tier), pt.bytes_in(tier), "{tier:?} bytes");
        }
        assert_eq!(
            self.quarantine.iter().copied().collect::<Vec<_>>(),
            pt.quarantined().collect::<Vec<_>>(),
            "quarantine set"
        );
    }
}

/// Generate per-page weights for an object of `num_pages` pages with the
/// given skew: weight(page k) ∝ 1 / (k_rank + 1)^skew (Zipf-like), with rank
/// order shuffled deterministically by `seed` so hot pages are not simply
/// the object's prefix. Skew 0 yields uniform weights.
pub fn page_weights(num_pages: u64, skew: f64, seed: u64) -> Vec<f64> {
    let n = num_pages.max(1) as usize;
    if skew <= 0.0 {
        return vec![1.0 / n as f64; n];
    }
    let mut raw: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(skew)).collect();
    // Deterministic Fisher-Yates shuffle with a splitmix64 stream.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        raw.swap(i, j);
    }
    let sum: f64 = raw.iter().sum();
    raw.iter_mut().for_each(|w| *w /= sum);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_and_uniform_without_skew() {
        let w = page_weights(10, 0.0, 7);
        assert_eq!(w.len(), 10);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&x| (x - 0.1).abs() < 1e-12));
    }

    #[test]
    fn skewed_weights_concentrate() {
        let w = page_weights(100, 1.1, 42);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top10: f64 = sorted[..10].iter().sum();
        assert!(top10 > 0.35, "top-10 share {top10}");
    }

    #[test]
    fn weights_deterministic_per_seed() {
        assert_eq!(page_weights(32, 0.9, 5), page_weights(32, 0.9, 5));
        assert_ne!(page_weights(32, 0.9, 5), page_weights(32, 0.9, 6));
    }

    #[test]
    fn record_and_fraction() {
        let mut pt = PageTable::default();
        let first = pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.5, 0.3, 0.2]);
        assert_eq!(first, 0);
        pt.record_accesses(0..3, 100.0);
        assert!((pt.get(0).access_count - 50.0).abs() < 1e-12);
        assert!(pt.get(1).accessed);
        pt.set_tier(1, Tier::Dram);
        let f = pt.weighted_fraction_in(0..3, Tier::Dram);
        assert!((f - 0.3).abs() < 1e-12);
        assert_eq!(pt.bytes_in(Tier::Dram), PAGE_SIZE);
    }

    #[test]
    fn fast_path_matches_scan_after_flush() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.4, 0.1, 0.25, 0.25]);
        pt.extend_for_object(ObjectId(1), Tier::Pm, vec![0.7, 0.3]);
        pt.set_tier(0, Tier::Dram);
        pt.set_tier(2, Tier::Dram);
        pt.set_tier(5, Tier::Dram);
        // Dirty: the query takes the scan path.
        let dirty_f = pt.weighted_fraction_in(0..4, Tier::Dram);
        pt.flush_aggregates();
        // Clean: the aggregate path must return the bit-identical value.
        let clean_f = pt.weighted_fraction_in(0..4, Tier::Dram);
        assert_eq!(dirty_f.to_bits(), clean_f.to_bits());
        assert_eq!(
            pt.weighted_fraction_in(4..6, Tier::Dram).to_bits(),
            0.3f64.to_bits()
        );
        // Counters always exact, flushed or not.
        assert_eq!(pt.bytes_in(Tier::Dram), pt.recount_bytes_in(Tier::Dram));
        assert_eq!(pt.bytes_in(Tier::Pm), pt.recount_bytes_in(Tier::Pm));
        pt.debug_verify();
    }

    #[test]
    fn partial_range_takes_scan_path() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.5, 0.3, 0.2]);
        pt.set_tier(0, Tier::Dram);
        pt.flush_aggregates();
        // A sub-range never matches an aggregate; the scan must serve it.
        let f = pt.weighted_fraction_in(0..2, Tier::Dram);
        assert!((f - 0.5 / 0.8).abs() < 1e-12);
    }

    #[test]
    fn set_weight_invalidates_aggregate() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.5, 0.5]);
        pt.set_tier(0, Tier::Dram);
        pt.flush_aggregates();
        assert_eq!(pt.weighted_fraction_in(0..2, Tier::Dram), 0.5);
        pt.set_weight(0, 0.9);
        pt.set_weight(1, 0.1);
        assert_eq!(pt.weighted_fraction_in(0..2, Tier::Dram), 0.9);
        pt.flush_aggregates();
        assert_eq!(pt.weighted_fraction_in(0..2, Tier::Dram), 0.9);
    }

    #[test]
    fn zero_weight_pages_not_marked_accessed() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![1.0, 0.0]);
        pt.record_accesses(0..2, 10.0);
        assert!(pt.get(0).accessed);
        assert!(!pt.get(1).accessed);
    }

    #[test]
    fn barely_touched_pages_keep_bit_clear_but_count() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.5, 0.5]);
        pt.record_accesses(0..2, 0.4); // 0.2 expected accesses per page
        assert!(!pt.get(0).accessed);
        assert!(pt.get(0).access_count > 0.0);
        pt.record_accesses(0..2, 10.0);
        assert!(pt.get(0).accessed);
    }

    #[test]
    fn quarantine_set_is_ordered_and_visible_in_debug() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Dram, vec![0.5, 0.3, 0.2]);
        assert!(!pt.is_quarantined(1));
        assert_eq!(pt.quarantine_bytes(), 0);
        assert!(pt.quarantine_page(2));
        assert!(pt.quarantine_page(1));
        assert!(!pt.quarantine_page(1), "double-quarantine must be a no-op");
        assert!(pt.is_quarantined(1) && pt.is_quarantined(2));
        assert_eq!(pt.quarantined().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(pt.quarantined_count(), 2);
        assert_eq!(pt.quarantine_bytes(), 2 * PAGE_SIZE);
        assert_eq!(
            pt.quarantined_in_range(0..3).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(pt.quarantined_in_range(0..1).count(), 0);
        // The set is part of the bitwise page-table fingerprint.
        let with = format!("{pt:?}");
        let mut clean = PageTable::default();
        clean.extend_for_object(ObjectId(0), Tier::Dram, vec![0.5, 0.3, 0.2]);
        assert_ne!(with, format!("{clean:?}"));
    }

    #[test]
    fn irregular_layout_falls_back_to_scan() {
        let mut pt = PageTable::default();
        // Out-of-order object id: aggregates disabled, queries still work.
        pt.extend_for_object(ObjectId(3), Tier::Pm, vec![0.5, 0.5]);
        pt.set_tier(1, Tier::Dram);
        pt.flush_aggregates();
        assert_eq!(pt.weighted_fraction_in(0..2, Tier::Dram), 0.5);
        assert_eq!(pt.bytes_in(Tier::Dram), PAGE_SIZE);
    }

    #[test]
    fn uniform_object_coalesces_to_one_run() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.125; 8]);
        assert_eq!(pt.num_extents(), 1);
        // Mid-range migration splits, reverting re-merges.
        pt.set_tier_range(3..5, Tier::Dram);
        assert_eq!(pt.num_extents(), 3);
        assert_eq!(pt.bytes_in(Tier::Dram), 2 * PAGE_SIZE);
        pt.set_tier_range(3..5, Tier::Pm);
        assert_eq!(pt.num_extents(), 1);
        pt.debug_verify();
    }

    #[test]
    fn set_tier_range_matches_per_page_loop() {
        let build = || {
            let mut pt = PageTable::default();
            pt.extend_for_object(ObjectId(0), Tier::Pm, page_weights(100, 1.3, 9));
            pt.extend_for_object(ObjectId(1), Tier::Pm, vec![0.01; 100]);
            pt
        };
        let mut batch = build();
        let mut loopy = build();
        batch.set_tier_range(37..141, Tier::Dram);
        for id in 37..141 {
            loopy.set_tier(id, Tier::Dram);
        }
        batch.flush_aggregates();
        loopy.flush_aggregates();
        assert_eq!(format!("{batch:?}"), format!("{loopy:?}"));
        batch.debug_verify();
    }

    #[test]
    fn nth_page_in_tier_walks_runs() {
        let mut pt = PageTable::default();
        pt.extend_for_object(ObjectId(0), Tier::Pm, vec![0.1; 10]);
        pt.set_tier_range(2..4, Tier::Dram);
        pt.set_tier_range(7..9, Tier::Dram);
        assert_eq!(pt.nth_page_in_tier(Tier::Dram, 0), Some(2));
        assert_eq!(pt.nth_page_in_tier(Tier::Dram, 2), Some(7));
        assert_eq!(pt.nth_page_in_tier(Tier::Dram, 3), Some(8));
        assert_eq!(pt.nth_page_in_tier(Tier::Dram, 4), None);
        assert_eq!(pt.nth_page_in_tier(Tier::Pm, 2), Some(4));
    }

    #[test]
    fn runs_never_cross_block_boundaries_and_sums_match_the_spec() {
        let n = SHARD_PAGES * 2 + 17;
        let mut pt = PageTable::default();
        pt.extend_for_object(
            ObjectId(0),
            Tier::Pm,
            std::iter::repeat_n(1.0 / n as f64, n as usize),
        );
        assert_eq!(pt.num_extents(), 3);
        pt.set_tier_range(SHARD_PAGES - 5..SHARD_PAGES + 5, Tier::Dram);
        pt.debug_verify();
        let mut reference = RefTable::default();
        reference.extend_for_object(ObjectId(0), Tier::Pm, vec![1.0 / n as f64; n as usize]);
        reference.set_tier_range(SHARD_PAGES - 5..SHARD_PAGES + 5, Tier::Dram);
        let spec = reference.scan_weight_sums(0..n);
        let got = pt.scan_weight_sums(0..n);
        assert_eq!(got.0.to_bits(), spec.0.to_bits());
        assert_eq!(got.1[0].to_bits(), spec.1[0].to_bits());
        assert_eq!(got.1[1].to_bits(), spec.1[1].to_bits());
        reference.assert_matches(&pt);
    }

    /// A table of three `SHARD_PAGES` blocks, pinned bit for bit: a
    /// skewed object straddles the first block boundary and a uniform
    /// object after it straddles the second, and a migration and access
    /// records cross both. Run boundaries, the run count and every
    /// streak-spec sum (partials folded per block) must not move when the
    /// run store changes shape.
    #[test]
    fn multi_block_table_is_pinned() {
        const S: u64 = SHARD_PAGES;
        let n = 2 * S + 17;
        let mut pt = PageTable::default();
        let head = S - 300;
        pt.extend_for_object(
            ObjectId(0),
            Tier::Pm,
            vec![1.0 / head as f64; head as usize],
        );
        pt.extend_for_object(ObjectId(1), Tier::Pm, page_weights(600, 1.2, 11));
        let tail = n - (S + 300);
        pt.extend_for_object(
            ObjectId(2),
            Tier::Pm,
            std::iter::repeat_n(1.0 / tail as f64, tail as usize),
        );
        pt.set_tier_range(S - 150..S + 200, Tier::Dram);
        pt.set_tier_range(2 * S - 10..2 * S + 5, Tier::Dram);
        pt.record_accesses(S - 400..S + 400, 1e4);
        pt.record_accesses(S + 300..n, 3e5);
        pt.flush_aggregates();
        pt.debug_verify();
        let bits = |(t, i): (f64, [f64; 2])| [t.to_bits(), i[0].to_bits(), i[1].to_bits()];
        let runs = format!("{:?}", pt.runs().collect::<Vec<_>>());
        let got = (
            pt.num_extents(),
            bits(pt.scan_weight_sums(0..n)),
            bits(pt.scan_weight_sums(S - 200..2 * S + 9)),
            crate::checkpoint::fnv1a64(runs.as_bytes()),
        );
        let whole = [
            0x4007_ffff_ffff_ffff,
            0x3fe7_9f64_b205_9a9b,
            0x4002_1826_d37e_9959,
        ];
        let mid = [
            0x3ffe_7c79_e5a3_da89,
            0x3fe7_9f64_b205_9a9b,
            0x3ff2_acc7_8ca1_0d3c,
        ];
        assert_eq!(got, (607, whole, mid, 0xa9fe_f477_bee3_efe6));
    }

    #[test]
    fn ref_table_tracks_engine_through_mixed_ops() {
        let mut pt = PageTable::default();
        let mut rt = RefTable::default();
        let w = page_weights(50, 1.1, 3);
        pt.extend_for_object(ObjectId(0), Tier::Pm, w.clone());
        rt.extend_for_object(ObjectId(0), Tier::Pm, w);
        pt.set_tier_range(10..30, Tier::Dram);
        rt.set_tier_range(10..30, Tier::Dram);
        pt.record_accesses(0..50, 64.0);
        rt.record_accesses(0..50, 64.0);
        pt.age_access_counts(0.5);
        rt.age_access_counts(0.5);
        pt.bump_migrations_range(10..30);
        rt.bump_migrations_range(10..30);
        pt.quarantine_page(12);
        rt.quarantine_page(12);
        pt.set_tier(12, Tier::Pm);
        rt.set_tier(12, Tier::Pm);
        pt.flush_aggregates();
        rt.assert_matches(&pt);
        let f = pt.weighted_fraction_in(0..50, Tier::Dram);
        assert_eq!(
            f.to_bits(),
            rt.scan_weighted_fraction_in(0..50, Tier::Dram).to_bits()
        );
    }
}
