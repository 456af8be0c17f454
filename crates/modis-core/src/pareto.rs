//! The ε-skyline maintenance structure (`UPareto`, Alg. 1 lines 20–30).
//!
//! States are placed in the `(|P|−1)`-dimensional discretised grid of
//! Eq. (1); each cell holds at most one representative, and a newcomer
//! replaces the occupant only when it is strictly better on the decisive
//! measure. Candidates violating an upper bound `p_u` are skipped early.

use std::collections::BTreeMap;

use modis_data::StateBitmap;

use crate::config::SkylineEntry;
use crate::dominance::dominated_flags;
use crate::measure::{position, MeasureSet};

/// A cell-indexed ε-skyline under construction.
#[derive(Debug, Clone)]
pub struct EpsilonSkyline {
    measures: MeasureSet,
    epsilon: f64,
    decisive: usize,
    /// Ordered by cell key, so the order [`EpsilonSkyline::entries`] visits
    /// the members in — the seed of DivMODis' greedy replacement and the
    /// input order the finalisation scan's comparison count depends on — is
    /// a function of the offers.
    cells: BTreeMap<Vec<i64>, SkylineEntry>,
}

impl EpsilonSkyline {
    /// Creates an empty ε-skyline for the given measure set.
    pub fn new(measures: MeasureSet, epsilon: f64, decisive: Option<usize>) -> Self {
        let decisive = decisive.unwrap_or_else(|| measures.decisive_index());
        EpsilonSkyline {
            measures,
            epsilon,
            decisive,
            cells: BTreeMap::new(),
        }
    }

    /// ε used by the grid.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Decisive measure index.
    pub fn decisive(&self) -> usize {
        self.decisive
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is occupied.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Offers a valuated state to the skyline (procedure `UPareto`).
    ///
    /// Returns `true` when the state was inserted (new cell) or replaced an
    /// occupant.
    pub fn offer(&mut self, bitmap: &StateBitmap, perf: &[f64], level: usize) -> bool {
        // Early skip: any measure above its upper bound disqualifies the
        // state from every skyline set (Alg. 1 line 23).
        if self.measures.violates_upper(perf) {
            return false;
        }
        let pos = position(perf, &self.measures, self.epsilon, self.decisive);
        match self.cells.get_mut(&pos) {
            None => {
                self.cells.insert(
                    pos,
                    SkylineEntry {
                        bitmap: bitmap.clone(),
                        perf: perf.to_vec(),
                        raw: Vec::new(),
                        size: (0, 0),
                        level,
                    },
                );
                true
            }
            Some(occupant) => {
                if perf[self.decisive] < occupant.perf[self.decisive] - 1e-12 {
                    *occupant = SkylineEntry {
                        bitmap: bitmap.clone(),
                        perf: perf.to_vec(),
                        raw: Vec::new(),
                        size: (0, 0),
                        level,
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Borrows the current members, in cell-key order. The search loops
    /// read every member once per visited child, so nothing is copied here;
    /// a caller that needs owned entries says so with `.cloned()`.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &SkylineEntry> {
        self.cells.values()
    }

    /// Replaces the member set (used by the level-wise diversification).
    pub(crate) fn replace_entries(&mut self, entries: Vec<SkylineEntry>) {
        self.cells.clear();
        for e in entries {
            let pos = position(&e.perf, &self.measures, self.epsilon, self.decisive);
            self.cells.insert(pos, e);
        }
    }

    /// Final clean-up: removes members dominated (exactly) by another member,
    /// so the output satisfies the mutual non-dominance property of §4.
    pub fn finalize(&self) -> Vec<SkylineEntry> {
        let perfs: Vec<&[f64]> = self.entries().map(|e| e.perf.as_slice()).collect();
        let flags = dominated_flags(&perfs);
        self.entries()
            .zip(flags)
            .filter(|(_, dominated)| !dominated)
            .map(|(e, _)| e)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureSpec;

    fn measures() -> MeasureSet {
        MeasureSet::new(vec![
            MeasureSpec::maximise("q").with_bounds(0.01, 0.95),
            MeasureSpec::minimise("c", 1.0).with_bounds(0.01, 0.9),
        ])
    }

    #[test]
    fn offer_inserts_and_replaces_by_decisive() {
        let mut sky = EpsilonSkyline::new(measures(), 0.3, None);
        let b = StateBitmap::full(3);
        assert!(sky.offer(&b, &[0.2, 0.5], 0));
        // Same cell (close first coordinate), better decisive (cost) replaces.
        assert!(sky.offer(&b.flipped(0), &[0.21, 0.4], 1));
        // Same cell, worse decisive is rejected.
        assert!(!sky.offer(&b.flipped(1), &[0.2, 0.6], 1));
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.entries().cloned().collect::<Vec<_>>()[0].perf[1], 0.4);
    }

    #[test]
    fn upper_bound_violation_is_skipped() {
        let mut sky = EpsilonSkyline::new(measures(), 0.3, None);
        assert!(!sky.offer(&StateBitmap::full(2), &[0.99, 0.5], 0));
        assert!(sky.is_empty());
    }

    #[test]
    fn distinct_cells_coexist() {
        let mut sky = EpsilonSkyline::new(measures(), 0.2, None);
        let b = StateBitmap::full(2);
        assert!(sky.offer(&b, &[0.05, 0.8], 0));
        assert!(sky.offer(&b.flipped(0), &[0.6, 0.1], 0));
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn finalize_prunes_dominated_members() {
        let mut sky = EpsilonSkyline::new(measures(), 0.05, None);
        let b = StateBitmap::full(2);
        sky.offer(&b, &[0.05, 0.1], 0);
        sky.offer(&b.flipped(0), &[0.5, 0.5], 0);
        let fin = sky.finalize();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].perf, vec![0.05, 0.1]);
    }

    #[test]
    fn replace_entries_reindexes() {
        let mut sky = EpsilonSkyline::new(measures(), 0.2, None);
        let b = StateBitmap::full(2);
        sky.offer(&b, &[0.05, 0.8], 0);
        sky.offer(&b.flipped(0), &[0.6, 0.1], 0);
        let mut entries: Vec<SkylineEntry> = sky.entries().cloned().collect();
        entries.truncate(1);
        sky.replace_entries(entries);
        assert_eq!(sky.len(), 1);
    }
}
