//! Traffic accounting: who sent how many elements, per algorithm phase.
//!
//! The ledger is how Table 1 is *measured* rather than asserted: every point-to-point
//! message logs its element count under the sender's current phase label, and the
//! harness compares aggregate volumes against the paper's analytic formulas.
//!
//! Phase labels are interned to small integer ids on first use, so dynamically
//! built labels (per-bucket, per-layer) cost one allocation for the whole run
//! instead of leaking `&'static str`s; a traced event holds the shared name.
//! The counts themselves live in each rank's own `Comm`, one [`PhaseVolume`]
//! per id, so a send writes only memory its rank owns; [`crate::Cluster::run`]
//! folds every rank's cells into the [`LedgerSnapshot`] as the rank exits.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregated volume for one (rank, phase) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseVolume {
    /// Number of point-to-point messages sent.
    pub messages: u64,
    /// Total 4-byte elements sent (message bodies; headers are latency-only).
    pub elements: u64,
}

/// Interned phase-label id (index into the ledger's name table).
pub(crate) type PhaseId = u16;

/// Interned names, indexed by [`PhaseId`], and name → id.
type Names = (Vec<Arc<str>>, HashMap<Arc<str>, PhaseId>);

/// The phase-name interner of one simulation run.
#[derive(Default)]
pub(crate) struct Ledger {
    inner: Mutex<Names>,
}

impl Ledger {
    /// Intern `name`, returning its stable id for this ledger and the shared
    /// name.
    pub(crate) fn intern(&self, name: &str) -> (PhaseId, Arc<str>) {
        let mut inner = self.inner.lock();
        let (names, ids) = &mut *inner;
        if let Some(&id) = ids.get(name) {
            return (id, names[id as usize].clone());
        }
        let id = PhaseId::try_from(names.len()).expect("more than 65536 phase labels");
        let name: Arc<str> = name.into();
        names.push(name.clone());
        ids.insert(name.clone(), id);
        (id, name)
    }

    /// The snapshot of `cells`: rank `r`'s volumes indexed by [`PhaseId`].
    pub(crate) fn snapshot(&self, cells: Vec<Vec<PhaseVolume>>) -> LedgerSnapshot {
        LedgerSnapshot { names: self.inner.lock().0.clone(), cells }
    }
}

/// A point-in-time copy of the ledger, queryable without locking.
#[derive(Clone, Debug, Default)]
pub struct LedgerSnapshot {
    names: Vec<Arc<str>>,
    /// Rank `r`'s volumes indexed by phase id (shorter when it never sent
    /// under the later ids).
    cells: Vec<Vec<PhaseVolume>>,
}

impl LedgerSnapshot {
    fn id_of(&self, phase: &str) -> Option<usize> {
        self.names.iter().position(|n| **n == *phase)
    }

    fn phase_cells(&self, id: usize) -> impl Iterator<Item = &PhaseVolume> {
        self.cells.iter().filter_map(move |c| c.get(id))
    }

    /// Total elements sent by `rank` across all phases.
    pub fn rank_elements(&self, rank: usize) -> u64 {
        self.cells.get(rank).map_or(0, |c| c.iter().map(|v| v.elements).sum())
    }

    /// Total elements sent by all ranks in `phase`.
    pub fn phase_elements(&self, phase: &str) -> u64 {
        let Some(id) = self.id_of(phase) else { return 0 };
        self.phase_cells(id).map(|v| v.elements).sum()
    }

    /// Elements sent by `rank` within `phase`.
    pub fn cell(&self, rank: usize, phase: &str) -> PhaseVolume {
        let Some(id) = self.id_of(phase) else { return PhaseVolume::default() };
        self.cells.get(rank).and_then(|c| c.get(id)).copied().unwrap_or_default()
    }

    /// Total elements sent by all ranks across all phases.
    pub fn total_elements(&self) -> u64 {
        self.cells.iter().flatten().map(|v| v.elements).sum()
    }

    /// Total messages sent by all ranks across all phases.
    pub fn total_messages(&self) -> u64 {
        self.cells.iter().flatten().map(|v| v.messages).sum()
    }

    /// All phase labels that actually recorded traffic, sorted.
    pub fn phases(&self) -> Vec<&str> {
        let mut v: Vec<&str> = (0..self.names.len())
            .filter(|&id| self.phase_cells(id).any(|c| c.messages > 0))
            .map(|id| &*self.names[id])
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-rank snapshot built the way `Comm` fills its cells.
    fn snapshot_of(sends: &[(usize, &str, u64)]) -> LedgerSnapshot {
        let ledger = Ledger::default();
        let mut cells = vec![Vec::new(); 2];
        for &(rank, phase, elems) in sends {
            let id = ledger.intern(phase).0 as usize;
            let row: &mut Vec<PhaseVolume> = &mut cells[rank];
            if row.len() <= id {
                row.resize(id + 1, PhaseVolume::default());
            }
            row[id].messages += 1;
            row[id].elements += elems;
        }
        ledger.snapshot(cells)
    }

    #[test]
    fn records_and_aggregates() {
        let snap = snapshot_of(&[
            (0, "reduce", 100),
            (0, "reduce", 50),
            (1, "reduce", 30),
            (0, "gather", 7),
        ]);
        assert_eq!(snap.cell(0, "reduce"), PhaseVolume { messages: 2, elements: 150 });
        assert_eq!(snap.rank_elements(0), 157);
        assert_eq!(snap.phase_elements("reduce"), 180);
        assert_eq!(snap.total_elements(), 187);
        assert_eq!(snap.total_messages(), 4);
        assert_eq!(snap.phases(), vec!["gather", "reduce"]);
        assert_eq!(snap.cell(1, "gather"), PhaseVolume::default(), "past the end of rank 1's row");
    }

    #[test]
    fn dynamic_labels_intern_to_stable_ids() {
        let ledger = Ledger::default();
        for bucket in 0..3 {
            let label = format!("bucket-{bucket}");
            assert_eq!(ledger.intern(&label).0, bucket as PhaseId);
            // Re-interning the same dynamic string yields the same id.
            assert_eq!(ledger.intern(&label).0, bucket as PhaseId);
        }
        let snap = ledger.snapshot(vec![vec![PhaseVolume { messages: 1, elements: 10 }; 3]]);
        assert_eq!(snap.phases(), vec!["bucket-0", "bucket-1", "bucket-2"]);
        assert_eq!(snap.cell(0, "bucket-1").elements, 10);
        assert_eq!(snap.cell(0, "bucket-9"), PhaseVolume::default());
    }

    #[test]
    fn interned_phases_without_traffic_are_not_listed() {
        let snap = snapshot_of(&[(1, "sent", 4)]);
        let ledger = Ledger::default();
        ledger.intern("idle");
        assert_eq!(snap.phases(), vec!["sent"]);
        assert!(ledger.snapshot(vec![vec![PhaseVolume::default()]]).phases().is_empty());
    }
}
