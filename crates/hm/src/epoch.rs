//! Transactional migration epochs.
//!
//! A round's page moves execute inside an *epoch*: on first touch, every
//! migration captures the page's pre-epoch state into an undo map. When
//! the epoch ends cleanly the moves commit; when it ends torn — the
//! scripted crash latched mid-batch, or a `MigrationFailed` burst abandoned
//! more pages than it moved — the undo map rolls the page table back to a
//! placement bitwise identical to the pre-epoch snapshot (aggregates
//! re-flushed, so the O(1) counters stay provably clean). Physical history
//! is *not* rewound: migration attempts, backoff delay and fault
//! statistics already happened and stay charged as overhead. See
//! `DESIGN.md` §12.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::config::Tier;
use crate::page::PageId;

/// How an epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochOutcome {
    /// The epoch touched no page: nothing to commit, nothing to undo.
    Clean,
    /// The epoch's moves were kept.
    Committed,
    /// The epoch ended torn (crash latch or a failure burst) and every
    /// touched page was restored to its pre-epoch state.
    RolledBack,
}

/// In-flight epoch state owned by `HmSystem` between `begin_epoch` and
/// `end_epoch`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct EpochState {
    /// Round the epoch belongs to.
    pub round: u64,
    /// First-touch undo map: page → (tier, migrations counter) before the
    /// epoch touched it. BTreeMap so rollback order is deterministic.
    pub undo: BTreeMap<PageId, (Tier, u32)>,
    /// Pages successfully moved inside the epoch.
    pub pages_moved: u64,
    /// Pages abandoned inside the epoch after exhausting retries.
    pub pages_failed: u64,
}

impl EpochState {
    pub fn new(round: u64) -> Self {
        Self {
            round,
            ..Self::default()
        }
    }

    /// On first touch of `page`, capture its pre-epoch undo state.
    pub fn note_touch(&mut self, page: PageId, from: Tier, migrations: u32) {
        self.undo.entry(page).or_insert((from, migrations));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_keeps_the_first_touch() {
        let mut ep = EpochState::new(7);
        ep.note_touch(3, Tier::Pm, 0);
        ep.note_touch(5, Tier::Dram, 2);
        ep.note_touch(3, Tier::Dram, 1); // re-touch: one undo entry
        assert_eq!(ep.undo.len(), 2);
        assert_eq!(ep.undo[&3], (Tier::Pm, 0), "undo keeps the first touch");
    }
}
