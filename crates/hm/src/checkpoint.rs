//! Round-granular checkpointing and a write-ahead log for supervised runs.
//!
//! A long task-parallel job must survive its own death: losing the page
//! table, the Merchandiser quotas, and the online α refinements to a crash
//! means re-profiling from scratch (the cost that Online Application
//! Guidance for Heterogeneous Memory Systems and the PEBS-at-scale study
//! both warn about). This module serializes the full supervised-execution
//! state at every round boundary into an append-only WAL, so
//! `Executor::resume` can continue from the last completed round and
//! produce a `RunReport` bit-identical to an uninterrupted run.
//!
//! Design constraints:
//!
//! * **Determinism.** The vendored `serde` is a no-op stub, so records are
//!   hand-written line-oriented text. Floats are formatted with `{:?}`
//!   (shortest round-trip), which `f64::from_str` parses back bit-exact —
//!   including `NaN` and `inf`.
//! * **Torn-write tolerance.** Each WAL record is framed as
//!   `record <seq> <len> <fnv1a64-hex>` followed by exactly `len` payload
//!   bytes. Recovery checksums every frame, drops any record whose
//!   checksum fails or whose payload is truncated, and restores the *last
//!   valid* one — a torn tail from the crash never poisons recovery. It
//!   decodes newest-first and stops at the first record that decodes, so
//!   a clean WAL costs one decode however many records it holds.
//! * **Versioning.** Every payload starts with `merchckpt <version>`;
//!   decoding rejects versions it does not understand instead of
//!   misreading them.
//!
//! What is captured: `HmSystem` placement state (page tiers, weights,
//! access counters), migration counters, the fault-injector cursor
//! (plan, round clock, draw counters, crash latch, statistics), every
//! completed `RoundReport`, the bandwidth-timeline header (bin width,
//! clock, bin count, lost bins), and an opaque policy blob
//! (`PlacementPolicy::save_state`). What is *not* captured: the workload
//! (rebuilt from its constructor seed and fast-forwarded on resume), the
//! bandwidth-timeline bins (rebuilt bit-exact from the completed rounds,
//! see `BandwidthTimeline::decode_state`) and derived caches such as α
//! lookup tables (lazily recomputed).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::backoff::Backoff;
use crate::config::Tier;
use crate::fault::FaultInjector;
use crate::runtime::{RoundReport, TaskResult};
use crate::system::{HmError, HmSystem};
use crate::telemetry::BandwidthTimeline;

/// Version of the checkpoint payload format, the only one this build
/// reads and writes. The page table is framed as extents
/// (`extents <runs> <pages>` + one `x` line per run, starts implicit in
/// page order); the payload carries the transactional-epoch counters, the
/// per-tenant `dramquota`, the device fault domain (`offlined`,
/// `quarantine`), and the tenant circuit-breaker frame (`breaker`,
/// directly after `cursor`). The bandwidth timeline is a single
/// `timeline <bin_ns> <clock_ns> <bins> <n_lost> <lost bins…>` line after
/// the completed rounds: its bins are not written, the decoder rebuilds
/// them from those rounds. Any other version is rejected.
pub const CHECKPOINT_VERSION: u32 = 7;

/// Retries after a failed WAL write attempt before the checkpoint is
/// skipped for this round (the run continues; only recovery granularity
/// is lost).
pub const WAL_MAX_RETRIES: u32 = 3;

/// FNV-1a 64-bit checksum of a WAL payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A decode failure with context.
pub fn corrupt(msg: &str) -> HmError {
    HmError::CheckpointCorrupt(format!("checkpoint: {msg}"))
}

/// Infallible formatted writes into a `String` payload: every text encoder
/// (checkpoint, policy blob, scenario file) appends through this.
pub trait Put {
    /// Append `args` (callers end a line with `\n` in the format string).
    fn put(&mut self, args: std::fmt::Arguments<'_>);
}

impl Put for String {
    fn put(&mut self, args: std::fmt::Arguments<'_>) {
        // `fmt::Write for String` only fails if a `Display` impl does, and
        // every value written here is a number or a `str`.
        self.write_fmt(args)
            .expect("writing to a String is infallible");
    }
}

/// Escape a name for embedding as one whitespace-free token (`%` then
/// `%25`-style hex for `%`, space, and control characters).
pub fn esc(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        if b == b'%' || !(0x21..=0x7E).contains(&b) {
            out.put(format_args!("%{b:02X}"));
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Inverse of [`esc`]; `None` on a malformed escape.
pub fn unesc(tok: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(tok.len());
    let raw = tok.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = std::str::from_utf8(raw.get(i + 1..i + 3)?).ok()?;
            bytes.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).ok()
}

/// A value read from one whitespace-free token.
pub trait Token: Sized {
    /// Parse `tok`, or `None` when it is not a valid encoding.
    fn from_token(tok: &str) -> Option<Self>;
}

macro_rules! from_str_tokens {
    ($($t:ty),*) => {$(
        impl Token for $t {
            fn from_token(tok: &str) -> Option<Self> {
                tok.parse().ok()
            }
        }
    )*};
}

// Floats accept the `inf`/`NaN` spellings `{:?}` writes, and round-trip
// bit-exact.
from_str_tokens!(u8, u32, u64, usize, i64, f64);

/// Written as `0` / `1`.
impl Token for bool {
    fn from_token(tok: &str) -> Option<Self> {
        match tok {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

/// A name written with [`esc`].
impl Token for String {
    fn from_token(tok: &str) -> Option<Self> {
        unesc(tok)
    }
}

/// Written as `D` / `P`.
impl Token for Tier {
    fn from_token(tok: &str) -> Option<Self> {
        match tok {
            "D" => Some(Tier::Dram),
            "P" => Some(Tier::Pm),
            _ => None,
        }
    }
}

/// The token [`Tier`] decodes from.
pub fn tier_token(tier: Tier) -> &'static str {
    match tier {
        Tier::Dram => "D",
        Tier::Pm => "P",
    }
}

/// The one line reader of the checkpoint payload, the policy blob inside
/// it and the scenario file: each record line is a tag followed by
/// whitespace-separated tokens, read through a [`Fields`] cursor. Every error names the format, the 1-based line, the tag and the
/// field, e.g. ``scenario line 5, `solo` field `seed`: bad value `x7` ``.
#[derive(Debug)]
pub struct Reader<'a> {
    format: &'static str,
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line_no: usize,
    comments: bool,
}

impl<'a> Reader<'a> {
    /// Reader over a checkpoint payload: every line is a record.
    pub fn new(text: &'a str) -> Self {
        Self::named("checkpoint", text)
    }

    /// Reader over a `format` text in which every line is a record.
    pub fn named(format: &'static str, text: &'a str) -> Self {
        Self {
            format,
            lines: text.lines().enumerate(),
            line_no: 0,
            comments: false,
        }
    }

    /// Reader over a `format` file in which blank lines and `#` comments
    /// are skipped (line numbers still count them).
    pub fn commented(format: &'static str, text: &'a str) -> Self {
        Self {
            comments: true,
            ..Self::named(format, text)
        }
    }

    fn error(&self, what: impl std::fmt::Display) -> HmError {
        HmError::CheckpointCorrupt(format!("{} line {}: {what}", self.format, self.line_no))
    }

    fn next_line(&mut self) -> Option<&'a str> {
        for (i, line) in self.lines.by_ref() {
            self.line_no = i + 1;
            let skip = self.comments && {
                let trimmed = line.trim();
                trimmed.is_empty() || trimmed.starts_with('#')
            };
            if !skip {
                return Some(line);
            }
        }
        self.line_no += 1;
        None
    }

    /// Next raw line (opaque policy-blob passthrough).
    pub fn raw(&mut self) -> Result<&'a str, HmError> {
        self.next_line()
            .ok_or_else(|| self.error("unexpected end of file"))
    }

    /// Next line, which must be tagged `tag`: a cursor over its fields.
    pub fn line(&mut self, tag: &'static str) -> Result<Fields<'a>, HmError> {
        let Some(line) = self.next_line() else {
            return Err(self.error(format_args!("missing `{tag}` record (end of file)")));
        };
        let mut toks = line.split_whitespace();
        let found = toks.next().unwrap_or("");
        if found != tag {
            return Err(self.error(format_args!("expected `{tag}`, found `{found}`")));
        }
        Ok(Fields {
            format: self.format,
            line_no: self.line_no,
            tag,
            toks,
            read: 0,
        })
    }

    /// Assert that no record follows.
    pub fn finish(mut self) -> Result<(), HmError> {
        match self.next_line() {
            None => Ok(()),
            Some(line) => Err(self.error(format_args!("trailing content `{}`", line.trim()))),
        }
    }
}

/// Cursor over the fields of one record line, in order.
#[derive(Debug)]
pub struct Fields<'a> {
    format: &'static str,
    line_no: usize,
    tag: &'static str,
    toks: std::str::SplitWhitespace<'a>,
    read: usize,
}

impl<'a> Fields<'a> {
    /// 1-based line number of the record.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// A diagnostic for `field` of this record.
    pub fn invalid(&self, field: &str, what: impl std::fmt::Display) -> HmError {
        HmError::CheckpointCorrupt(format!(
            "{} line {}, `{}` field `{field}`: {what}",
            self.format, self.line_no, self.tag
        ))
    }

    /// The next raw token.
    pub fn token(&mut self, field: &str) -> Result<&'a str, HmError> {
        let tok = self.toks.next().ok_or_else(|| {
            self.invalid(
                field,
                format_args!(
                    "missing, needs {} field(s), has {}",
                    self.read + 1,
                    self.read
                ),
            )
        })?;
        self.read += 1;
        Ok(tok)
    }

    /// The next token, parsed as a `T`.
    pub fn next<T: Token>(&mut self, field: &str) -> Result<T, HmError> {
        let tok = self.token(field)?;
        T::from_token(tok).ok_or_else(|| self.invalid(field, format_args!("bad value `{tok}`")))
    }

    /// The next token, unread (`None` at the end of the record).
    pub fn peek(&self) -> Option<&'a str> {
        self.toks.clone().next()
    }

    /// The next `n` tokens, each parsed as a `T`. Nothing is reserved from
    /// `n`, so a huge count fails on the first missing token.
    pub fn items<T: Token>(&mut self, n: usize, field: &str) -> Result<Vec<T>, HmError> {
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.next(field)?);
        }
        Ok(out)
    }

    /// A counted list: a `usize` count, then that many `T`s.
    pub fn list<T: Token>(&mut self, field: &str) -> Result<Vec<T>, HmError> {
        let n = self.next(field)?;
        self.items(n, field)
    }

    /// Assert that the record has no further token.
    pub fn end(&mut self) -> Result<(), HmError> {
        match self.toks.next() {
            None => Ok(()),
            Some(tok) => Err(self.invalid("end", format_args!("trailing token `{tok}`"))),
        }
    }
}

/// Persistent state of one tenant's three-state circuit breaker
/// (DESIGN.md §17). The *frame* is plain data so it can live in a
/// checkpoint; the Closed → Open → Half-Open transition logic lives in
/// `service::breaker`. Strike windows are measured in the tenant's own
/// attempt counter (a pure function of its entry stream, identical at any
/// `--jobs`); only `open_until` is denominated in service steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerFrame {
    /// Strikes accumulated inside the current window.
    pub strikes: u32,
    /// Attempt counter value at which the current strike window opened.
    pub window_start: u64,
    /// Rounds this tenant has attempted (successful or struck).
    pub attempts: u64,
    /// While Open: the service step at which a Half-Open probe may start.
    pub open_until: u64,
    /// While Half-Open: probe rounds left before the breaker re-closes.
    pub probes_left: u32,
    /// Times the breaker tripped Closed → Open.
    pub trips: u32,
}

impl BreakerFrame {
    /// Serialize as the checkpoint `breaker` line payload.
    pub fn encode(&self, out: &mut String) {
        out.put(format_args!(
            "breaker {} {} {} {} {} {}\n",
            self.strikes,
            self.window_start,
            self.attempts,
            self.open_until,
            self.probes_left,
            self.trips
        ));
    }

    /// Decode the `breaker` line written by [`encode`](Self::encode).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, HmError> {
        let mut c = r.line("breaker")?;
        Ok(Self {
            strikes: c.next("strikes")?,
            window_start: c.next("window_start")?,
            attempts: c.next("attempts")?,
            open_until: c.next("open_until")?,
            probes_left: c.next("probes_left")?,
            trips: c.next("trips")?,
        })
    }
}

/// A complete supervised-execution snapshot at a round boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The next round to execute (every round `< next_round` is in
    /// [`completed`](Self::completed)).
    pub next_round: usize,
    /// The executor's telemetry-blackout cursor.
    pub blackout_cursor: usize,
    /// Full placement state (page table, counters, fault injector).
    pub sys: HmSystem,
    /// Bandwidth telemetry up to the boundary. It must be what
    /// [`completed`](Self::completed) recorded: only its header is
    /// encoded, and decoding rebuilds the bins from those rounds.
    pub timeline: BandwidthTimeline,
    /// Reports of the rounds already executed.
    pub completed: Vec<RoundReport>,
    /// Opaque policy state (`PlacementPolicy::save_state`), replayed into
    /// `restore_state` on resume. Empty for stateless policies.
    pub policy_state: String,
    /// Tenant circuit-breaker frame (zeroed outside the service's
    /// supervised-tenant path; always encoded so payloads stay
    /// deterministic).
    pub breaker: BreakerFrame,
}

impl Checkpoint {
    /// Serialize to the line-oriented payload text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.put(format_args!("merchckpt {CHECKPOINT_VERSION}\n"));
        out.put(format_args!(
            "cursor {} {}\n",
            self.next_round, self.blackout_cursor
        ));
        self.breaker.encode(&mut out);
        self.sys.encode_state(&mut out);
        out.put(format_args!("completed {}\n", self.completed.len()));
        for r in &self.completed {
            out.put(format_args!(
                "round {} {} {} {} {} {} {} {} {} {:?} {:?} {}\n",
                r.round,
                r.migration_pages,
                r.migration_attempts,
                r.failed_pages,
                r.degraded as u8,
                r.straggler_events,
                r.watchdog_pages,
                r.epoch_commits,
                r.epoch_rollbacks,
                r.migration_ns,
                r.round_time_ns,
                r.tasks.len()
            ));
            for t in &r.tasks {
                out.put(format_args!(
                    "task {} {:?} {:?} {:?} {:?} {:?} {:?} {:?}\n",
                    t.task,
                    t.time_ns,
                    t.cost.time_ns,
                    t.cost.dram_bytes,
                    t.cost.pm_bytes,
                    t.cost.dram_accesses,
                    t.cost.pm_accesses,
                    t.cost.compute_ns
                ));
            }
        }
        self.timeline.encode_state(&mut out);
        out.put(format_args!(
            "policy {}\n",
            self.policy_state.lines().count()
        ));
        for line in self.policy_state.lines() {
            out.put(format_args!("{line}\n"));
        }
        out.push_str("end\n");
        out
    }

    /// Decode a payload produced by [`encode`](Self::encode).
    pub fn decode(text: &str) -> Result<Self, HmError> {
        #[cfg(test)]
        tests::DECODES.with(|n| n.set(n.get() + 1));
        let mut r = Reader::new(text);
        let version: u32 = r.line("merchckpt")?.next("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(corrupt(&format!(
                "unsupported version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let mut c = r.line("cursor")?;
        let (next_round, blackout_cursor) = (c.next("next_round")?, c.next("blackout_cursor")?);
        let breaker = BreakerFrame::decode(&mut r)?;
        let sys = HmSystem::decode_state(&mut r)?;
        let n_rounds: usize = r.line("completed")?.next("rounds")?;
        let mut completed = Vec::new();
        for _ in 0..n_rounds {
            let mut c = r.line("round")?;
            let mut round = RoundReport {
                round: c.next("round")?,
                tasks: Vec::new(),
                migration_pages: c.next("migration_pages")?,
                migration_attempts: c.next("migration_attempts")?,
                failed_pages: c.next("failed_pages")?,
                degraded: c.next("degraded")?,
                straggler_events: c.next("straggler_events")?,
                watchdog_pages: c.next("watchdog_pages")?,
                epoch_commits: c.next("epoch_commits")?,
                epoch_rollbacks: c.next("epoch_rollbacks")?,
                migration_ns: c.next("migration_ns")?,
                round_time_ns: c.next("round_time_ns")?,
            };
            let n_tasks: usize = c.next("tasks")?;
            for _ in 0..n_tasks {
                let mut c = r.line("task")?;
                round.tasks.push(TaskResult {
                    task: c.next("task")?,
                    time_ns: c.next("time_ns")?,
                    cost: crate::cost::PhaseCost {
                        time_ns: c.next("cost_time_ns")?,
                        dram_bytes: c.next("dram_bytes")?,
                        pm_bytes: c.next("pm_bytes")?,
                        dram_accesses: c.next("dram_accesses")?,
                        pm_accesses: c.next("pm_accesses")?,
                        compute_ns: c.next("compute_ns")?,
                    },
                });
            }
            completed.push(round);
        }
        let timeline = BandwidthTimeline::decode_state(&mut r, &completed)?;
        let n_policy_lines: usize = r.line("policy")?.next("lines")?;
        let mut policy_state = String::new();
        for _ in 0..n_policy_lines {
            policy_state.push_str(r.raw()?);
            policy_state.push('\n');
        }
        if r.raw()?.trim() != "end" {
            return Err(corrupt("missing end marker"));
        }
        Ok(Self {
            next_round,
            blackout_cursor,
            sys,
            timeline,
            completed,
            policy_state,
            breaker,
        })
    }
}

/// Accounting of the WAL itself. Kept apart from `FaultStats` on purpose:
/// checkpointing is supervision overhead, and injecting checkpoint-write
/// failures must not perturb the run's own report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalStats {
    /// Records successfully appended.
    pub records_appended: u64,
    /// Write attempts that failed and were retried.
    pub write_retries: u64,
    /// Checkpoints abandoned after exhausting the retry budget (the run
    /// continues; recovery granularity degrades to the previous record).
    pub skipped_checkpoints: u64,
    /// Simulated backoff delay charged between write retries, ns.
    pub backoff_ns: f64,
}

/// Append-only write-ahead log of [`Checkpoint`] records.
///
/// Frame format per record:
/// ```text
/// record <seq> <payload-len-bytes> <fnv1a64-hex>\n
/// <payload>
/// ```
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    seq: u64,
    /// Supervision-side accounting (never part of a `RunReport`).
    pub stats: WalStats,
}

impl Wal {
    /// Create (truncate) the WAL file at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, HmError> {
        let path = path.into();
        std::fs::File::create(&path)
            .map_err(|e| HmError::CheckpointIo(format!("create {}: {e}", path.display())))?;
        Ok(Self {
            path,
            seq: 0,
            stats: WalStats::default(),
        })
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one checkpoint record. With `injector` armed, each write
    /// attempt may be failed by the `checkpoint_write_fail_rate` fault and
    /// retried under [`Backoff`] (jitter keyed on the system seed and the
    /// record index, so the schedule replays deterministically); after
    /// [`WAL_MAX_RETRIES`] the record is *skipped* — supervision degrades
    /// gracefully rather than killing the run. Returns whether the record
    /// was durably written. Real I/O errors are retried the same way and
    /// reported as [`HmError::CheckpointIo`] when persistent.
    pub fn append(
        &mut self,
        ck: &Checkpoint,
        injector: Option<&FaultInjector>,
    ) -> Result<bool, HmError> {
        let payload = ck.encode();
        let record = self.seq;
        let frame = format!(
            "record {record} {} {:016x}\n{payload}",
            payload.len(),
            fnv1a64(payload.as_bytes())
        );
        let mut backoff = Backoff::new(WAL_MAX_RETRIES, ck.sys.seed() ^ record.rotate_left(41));
        let mut last_io_err: Option<String> = None;
        loop {
            self.stats.backoff_ns += backoff.delay_ns();
            let injected_fail =
                injector.is_some_and(|f| f.checkpoint_write_fails(record, backoff.attempt()));
            if !injected_fail {
                match self.write_frame(&frame) {
                    Ok(()) => {
                        self.seq += 1;
                        self.stats.records_appended += 1;
                        return Ok(true);
                    }
                    Err(e) => last_io_err = Some(e.to_string()),
                }
            }
            self.stats.write_retries += 1;
            if !backoff.retry() {
                // Adjust: the budget-exhausting bump above was not a retry.
                self.stats.write_retries -= 1;
                return match last_io_err {
                    // Persistent real I/O failure: surface it.
                    Some(e) => Err(HmError::CheckpointIo(format!(
                        "append to {}: {e}",
                        self.path.display()
                    ))),
                    // Injected-only failures: skip this checkpoint, run on.
                    None => {
                        self.stats.skipped_checkpoints += 1;
                        self.seq += 1; // keep fault draws per-record stable
                        Ok(false)
                    }
                };
            }
        }
    }

    fn write_frame(&self, frame: &str) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(frame.as_bytes())?;
        f.flush()
    }

    /// Scan a WAL file and return the last record that frames, checksums,
    /// and decodes cleanly — tolerating a torn tail from the crash.
    /// `Ok(None)` when the file is missing or holds no valid record.
    /// A dropped tail is reported through the telemetry warning channel
    /// (see [`latest_with_warning`](Self::latest_with_warning)).
    pub fn latest(path: impl AsRef<Path>) -> Result<Option<Checkpoint>, HmError> {
        let (best, warning) = Self::latest_with_warning(path)?;
        if let Some(w) = warning {
            w.emit();
        }
        Ok(best)
    }

    /// [`latest`](Self::latest), additionally returning a structured
    /// [`Warning`](crate::telemetry::Warning) when recovery had to drop a
    /// torn or garbled tail — the round the surviving checkpoint resumes
    /// at and how many bytes were discarded, instead of silent truncation.
    /// Mid-file records that merely fail their checksum, UTF-8 check or
    /// decode are skipped (the scan continues) and are not tail drops.
    /// Frames are found on raw bytes, so no input can panic the scan.
    /// Every frame is checksummed, but payloads are decoded newest-first
    /// and only until one decodes: the result is the same as decoding them
    /// all, at the cost of one decode on a clean WAL.
    pub fn latest_with_warning(
        path: impl AsRef<Path>,
    ) -> Result<(Option<Checkpoint>, Option<crate::telemetry::Warning>), HmError> {
        let path = path.as_ref();
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, None)),
            Err(e) => {
                return Err(HmError::CheckpointIo(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        };
        let mut valid: Vec<&[u8]> = Vec::new();
        let mut dropped: Option<(u64, &'static str)> = None;
        let mut rest = data.as_slice();
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let header = std::str::from_utf8(&rest[..nl]).unwrap_or("");
            let after = &rest[nl + 1..];
            let toks: Vec<&str> = header.split_whitespace().collect();
            if toks.len() != 4 || toks[0] != "record" {
                // Unframed garbage: nothing after it is trustworthy.
                dropped = Some((rest.len() as u64, "unframed garbage"));
                break;
            }
            let Ok(len) = toks[2].parse::<usize>() else {
                dropped = Some((rest.len() as u64, "bad frame length"));
                break;
            };
            if after.len() < len {
                dropped = Some((rest.len() as u64, "truncated payload"));
                break;
            }
            let (payload, tail) = after.split_at(len);
            if format!("{:016x}", fnv1a64(payload)) == toks[3] {
                valid.push(payload);
            }
            rest = tail;
        }
        let best = valid.iter().rev().find_map(|payload| {
            std::str::from_utf8(payload)
                .ok()
                .and_then(|text| Checkpoint::decode(text).ok())
        });
        if dropped.is_none() && !rest.is_empty() {
            // Leftover bytes without even a newline: a torn header.
            dropped = Some((rest.len() as u64, "torn frame header"));
        }
        let round = best.as_ref().map(|ck| ck.next_round as u64).unwrap_or(0);
        let warning =
            dropped.map(
                |(dropped_bytes, reason)| crate::telemetry::Warning::WalTornTail {
                    round,
                    dropped_bytes,
                    reason: reason.to_string(),
                },
            );
        Ok((best, warning))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::io::Write as _;

    use super::*;
    use crate::config::HmConfig;
    use crate::fault::FaultPlan;
    use crate::object::ObjectSpec;
    use crate::page::PAGE_SIZE;

    thread_local! {
        /// [`Checkpoint::decode`] calls made on this test's thread.
        pub(super) static DECODES: Cell<u64> = const { Cell::new(0) };
    }

    fn wal_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("merch-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut sys = HmSystem::new(HmConfig::calibrated(16 * PAGE_SIZE, 128 * PAGE_SIZE), 7);
        sys.set_fault_plan(
            FaultPlan::none()
                .with_seed(3)
                .with_migration_failures(0.2, 2)
                .with_dram_pressure(2 * PAGE_SIZE, 3)
                .with_page_poison(0.1)
                .with_degradation(crate::config::Tier::Pm, 4, 1.5, 0.75)
                .with_dram_offlining(5, 2 * PAGE_SIZE),
        )
        .unwrap();
        let a = sys
            .allocate(
                &ObjectSpec::new("A name%1", 3 * PAGE_SIZE).with_skew(1.1),
                crate::config::Tier::Pm,
            )
            .unwrap();
        sys.begin_round(2);
        sys.record_accesses(a, 123.456);
        sys.migrate_object_pages(a, crate::config::Tier::Dram, 2);
        // Device fault state: a poisoned frame and some offlined capacity
        // must round-trip bit-exact through the payload.
        sys.poison_page(1);
        sys.offline_dram(2 * PAGE_SIZE);
        let completed = vec![RoundReport {
            round: 2,
            tasks: vec![TaskResult {
                task: 0,
                time_ns: 1234.5,
                cost: crate::cost::PhaseCost {
                    time_ns: 1234.5,
                    dram_bytes: 10.0,
                    pm_bytes: f64::NAN,
                    dram_accesses: 3.25,
                    pm_accesses: 0.0,
                    compute_ns: 99.0,
                },
            }],
            migration_pages: 2,
            migration_attempts: 3,
            failed_pages: 0,
            degraded: true,
            straggler_events: 1,
            watchdog_pages: 4,
            epoch_commits: 1,
            epoch_rollbacks: 1,
            migration_ns: 5000.0,
            round_time_ns: 6234.5,
        }];
        // The timeline is what the completed rounds recorded, with one bin
        // lost to a telemetry blackout.
        let mut timeline = BandwidthTimeline::new(100.0);
        for r in &completed {
            timeline.record_round(r.migration_ns, &r.tasks, r.round_time_ns);
        }
        timeline.blackout_bin(55);
        Checkpoint {
            next_round: 3,
            blackout_cursor: 62,
            sys,
            timeline,
            completed,
            policy_state: "alpha 0.5\nquota 17\n".to_string(),
            breaker: BreakerFrame {
                strikes: 2,
                window_start: 5,
                attempts: 7,
                open_until: 11,
                probes_left: 1,
                trips: 3,
            },
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let ck = sample_checkpoint();
        let text = ck.encode();
        let back = Checkpoint::decode(&text).unwrap();
        // Re-encoding the decoded checkpoint must reproduce the payload
        // byte for byte — the strongest round-trip statement available.
        assert_eq!(back.encode(), text);
        assert_eq!(back.next_round, 3);
        assert_eq!(back.policy_state, ck.policy_state);
        assert_eq!(format!("{:?}", back.timeline), format!("{:?}", ck.timeline));
        assert_eq!(
            format!("{:?}", back.sys.fault_stats()),
            format!("{:?}", ck.sys.fault_stats())
        );
    }

    #[test]
    fn esc_roundtrip() {
        for s in ["plain", "with space", "pct%pct", "tab\tand\nnl", "héllo"] {
            assert_eq!(unesc(&esc(s)).unwrap(), s);
            assert!(!esc(s).contains(' '));
        }
    }

    #[test]
    fn records_report_line_and_field() {
        let text = "# comment\nmerchscenario 2\n\ncase 7\nseed x7\n";
        let mut r = Reader::commented("scenario", text);
        r.line("merchscenario").unwrap();
        let mut c = r.line("case").unwrap();
        assert_eq!(c.line_no(), 4);
        assert_eq!(c.next::<u64>("case").unwrap(), 7);
        let mut s = r.line("seed").unwrap();
        let err = s.next::<u64>("seed").unwrap_err().to_string();
        assert!(
            err.contains("line 5") && err.contains("`seed`") && err.contains("`x7`"),
            "{err}"
        );
        let err = r.line("app").unwrap_err().to_string();
        assert!(err.contains("line 6") && err.contains("`app`"), "{err}");
    }

    #[test]
    fn wrong_tag_and_arity_diagnosed() {
        let text = "merchscenario 2\nfaulty 1 2\n";
        let mut r = Reader::commented("scenario", text);
        r.line("merchscenario").unwrap();
        let err = r.line("faults").unwrap_err().to_string();
        assert!(
            err.contains("line 2") && err.contains("expected `faults`") && err.contains("`faulty`"),
            "{err}"
        );
        let text = "merchscenario 2\nfaults 1 2\n";
        let mut r = Reader::commented("scenario", text);
        r.line("merchscenario").unwrap();
        let mut c = r.line("faults").unwrap();
        let err = c.items::<u64>(7, "f").unwrap_err().to_string();
        assert!(err.contains("needs 3 field(s), has 2"), "{err}");
        // A checkpoint has no comments: a `#` line is a record like any
        // other, and the wrong one.
        let mut r = Reader::new("# note\ncursor 1 2\n");
        let err = r.line("cursor").unwrap_err().to_string();
        assert!(
            err.contains("checkpoint line 1") && err.contains("`#`"),
            "{err}"
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let text = sample_checkpoint().encode();
        for version in [0, 1, 2, 3, 4, 5, 6, 8, 99] {
            let old = text.replacen("merchckpt 7", &format!("merchckpt {version}"), 1);
            let Err(HmError::CheckpointCorrupt(msg)) = Checkpoint::decode(&old) else {
                panic!("merchckpt {version} must be rejected as corrupt");
            };
            assert!(msg.contains("this build reads 7"), "{msg}");
        }
    }

    #[test]
    fn wal_append_and_latest() {
        let path = wal_path("append_and_latest.wal");
        let mut wal = Wal::create(&path).unwrap();
        let mut ck = sample_checkpoint();
        assert!(wal.append(&ck, None).unwrap());
        ck.next_round = 4;
        assert!(wal.append(&ck, None).unwrap());
        let latest = Wal::latest(&path).unwrap().unwrap();
        assert_eq!(latest.next_round, 4);
        assert_eq!(wal.stats.records_appended, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_previous_record() {
        let path = wal_path("torn_tail.wal");
        let mut wal = Wal::create(&path).unwrap();
        let ck = sample_checkpoint();
        wal.append(&ck, None).unwrap();
        // Simulate a crash mid-write of the next record: append a valid
        // header whose payload is cut short.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"record 1 10000 0123456789abcdef\ntruncated...")
            .unwrap();
        drop(f);
        let (latest, warning) = Wal::latest_with_warning(&path).unwrap();
        assert_eq!(latest.unwrap().next_round, ck.next_round);
        // The dropped tail is reported as a structured warning, not
        // silently truncated: surviving round, dropped byte count, reason.
        let crate::telemetry::Warning::WalTornTail {
            round,
            dropped_bytes,
            reason,
        } = warning.expect("a torn tail must warn")
        else {
            panic!("expected a torn-tail warning");
        };
        assert_eq!(round, ck.next_round as u64);
        assert_eq!(
            dropped_bytes,
            ("record 1 10000 0123456789abcdef\ntruncated...").len() as u64
        );
        assert_eq!(reason, "truncated payload");
        // `latest` itself still recovers (and emits the warning).
        assert_eq!(
            Wal::latest(&path).unwrap().unwrap().next_round,
            ck.next_round
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_wal_yields_no_warning() {
        let path = wal_path("clean_no_warning.wal");
        let mut wal = Wal::create(&path).unwrap();
        // Empty WAL: no records, no warning.
        let (none, warning) = Wal::latest_with_warning(&path).unwrap();
        assert!(none.is_none() && warning.is_none());
        wal.append(&sample_checkpoint(), None).unwrap();
        let (some, warning) = Wal::latest_with_warning(&path).unwrap();
        assert!(some.is_some());
        assert!(warning.is_none(), "a clean WAL must not warn");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_wal_decodes_only_the_newest_record() {
        let path = wal_path("newest_only.wal");
        let mut wal = Wal::create(&path).unwrap();
        let mut ck = sample_checkpoint();
        for next_round in 3..8 {
            ck.next_round = next_round;
            assert!(wal.append(&ck, None).unwrap());
        }
        let before = DECODES.with(Cell::get);
        let latest = Wal::latest(&path).unwrap().unwrap();
        assert_eq!(latest.next_round, 7);
        assert_eq!(DECODES.with(Cell::get) - before, 1, "5 records, 1 decode");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_newest_record_falls_back_to_the_previous() {
        let path = wal_path("undecodable_newest.wal");
        let mut wal = Wal::create(&path).unwrap();
        let ck = sample_checkpoint();
        assert!(wal.append(&ck, None).unwrap());
        // A checksum-valid frame whose payload does not decode: a timeline
        // header that its completed rounds cannot have produced.
        let text = ck.encode().replacen("timeline 100.0 ", "timeline 50.0 ", 1);
        assert!(Checkpoint::decode(&text).is_err());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(
            f,
            "record 1 {} {:016x}\n{text}",
            text.len(),
            fnv1a64(text.as_bytes())
        )
        .unwrap();
        drop(f);
        let before = DECODES.with(Cell::get);
        let (latest, warning) = Wal::latest_with_warning(&path).unwrap();
        assert_eq!(DECODES.with(Cell::get) - before, 2);
        assert_eq!(latest.unwrap().encode(), ck.encode());
        assert!(warning.is_none(), "a framed record is skipped, not a tail");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(Wal::latest("/nonexistent/nowhere.wal").unwrap().is_none());
    }

    #[test]
    fn injected_write_failures_skip_but_run_continues() {
        let path = wal_path("injected_fail.wal");
        let mut wal = Wal::create(&path).unwrap();
        let ck = sample_checkpoint();
        let always_fail = FaultInjector::new(
            FaultPlan::none()
                .with_seed(9)
                .with_checkpoint_write_failures(1.0),
        );
        assert!(!wal.append(&ck, Some(&always_fail)).unwrap());
        assert_eq!(wal.stats.skipped_checkpoints, 1);
        assert_eq!(wal.stats.write_retries, WAL_MAX_RETRIES as u64);
        assert!(wal.stats.backoff_ns > 0.0);
        assert!(Wal::latest(&path).unwrap().is_none());
        // A fault-free append still lands afterwards.
        assert!(wal.append(&ck, None).unwrap());
        assert!(Wal::latest(&path).unwrap().is_some());
        std::fs::remove_file(&path).ok();
    }
}
