//! The search-space abstraction shared by the MODis algorithms.
//!
//! The paper formalises data generation as a finite-state transducer whose
//! states are artefacts (tables in T1–T4, bipartite graphs in T5) encoded by
//! a bitmap `L` over "reducible units" (attributes and active-domain
//! clusters). A [`Substrate`] exposes exactly what the algorithms need:
//!
//! * the bitmap universe and its start states (universal `s_U`, backward
//!   `s_b` from `BackSt`);
//! * the oracle evaluation of a state (materialise the artefact, train the
//!   model, compute raw metrics);
//! * a feature encoding of a state for the surrogate estimator `E`;
//! * reporting helpers (artefact size, unit labels).
//!
//! Two implementations are provided: [`crate::table_substrate::TableSubstrate`]
//! (tabular tasks) and [`crate::graph_substrate::GraphSubstrate`] (task T5).

use std::hash::{Hash, Hasher};

use modis_data::StateBitmap;

use crate::codec::StableHasher;
use crate::measure::MeasureSet;

/// Counters of a substrate-level evaluation memo (raw metrics / features
/// remembered per visited state). Returned by [`Substrate::memo_stats`] and
/// aggregated with the engine's shared-cache counters by
/// `modis-engine`'s `Engine::cache_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstrateCacheStats {
    /// Entries currently memoised.
    pub entries: usize,
    /// Entries evicted by the SIEVE policy so far.
    pub evictions: usize,
}

/// A search space over artefacts encoded by state bitmaps.
///
/// Substrates are required to be `Send + Sync`: the execution engine
/// (`modis-engine`) evaluates `op_gen` children and whole scenarios across
/// threads, sharing one substrate reference. Implementations that memoise
/// internally must use thread-safe interior mutability (both bundled
/// substrates guard their caches with a `Mutex`).
pub trait Substrate: Send + Sync {
    /// Number of reducible units (bitmap length).
    fn num_units(&self) -> usize;

    /// Human-readable label of a unit (attribute name / cluster literal).
    fn unit_label(&self, unit: usize) -> String;

    /// The universal start state `s_U` (everything present).
    fn forward_start(&self) -> StateBitmap {
        StateBitmap::full(self.num_units())
    }

    /// The backward start state `s_b` produced by `BackSt` (§5.3): a minimal
    /// artefact from which augmentation proceeds.
    fn backward_start(&self) -> StateBitmap;

    /// The measure set `P` of the underlying task.
    fn measures(&self) -> &MeasureSet;

    /// Oracle evaluation: materialises the artefact of `bitmap`, trains the
    /// downstream model and returns the *raw* metric values aligned with
    /// [`Self::measures`].
    fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64>;

    /// Numeric feature encoding of a state, used to train/query the
    /// surrogate estimator. Implementations should return cheap,
    /// artefact-level summary statistics (never model-inference results).
    fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64>;

    /// Reported artefact size `(rows, columns)` / `(edges, feature dims)`.
    fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize);

    /// Units that may not be flipped by reduction (e.g. the unit backing the
    /// target attribute). Default: none.
    fn protected_units(&self) -> Vec<usize> {
        Vec::new()
    }

    /// A structural fingerprint of the search space: two substrates whose
    /// fingerprints differ must never share an evaluation-cache namespace —
    /// a `StateBitmap` only identifies a dataset *relative to* the substrate
    /// that produced it, so cross-substrate sharing silently poisons
    /// valuations. The default folds everything that determines what a
    /// bitmap means (unit count and labels, start states, protected units)
    /// and what an evaluation means (the measure set) into one hash; see
    /// `structural_fingerprint`. Implementations whose valuations depend
    /// on more than the structure (e.g. a downstream model spec) should
    /// override this and mix the extra identity in.
    fn fingerprint(&self) -> u64 {
        structural_fingerprint(self)
    }

    /// Counters of the substrate's internal evaluation memo, if it keeps
    /// one. Default: an empty memo (for substrates that recompute every
    /// valuation).
    fn memo_stats(&self) -> SubstrateCacheStats {
        SubstrateCacheStats::default()
    }
}

/// The structural part of a substrate's identity: unit count and labels,
/// start states, protected units and the measure set, folded into one hash.
/// This is the default [`Substrate::fingerprint`]; overrides reuse it and
/// mix in whatever extra state their valuations depend on.
///
/// Hashed with [`StableHasher`], not std's `DefaultHasher`: fingerprints
/// are persisted inside evaluation-cache snapshots and compared across
/// processes (and toolchains) to keep a warm-started namespace from
/// serving another substrate's evaluations.
pub(crate) fn structural_fingerprint<S: Substrate + ?Sized>(substrate: &S) -> u64 {
    let mut h = StableHasher::new();
    substrate.num_units().hash(&mut h);
    for unit in 0..substrate.num_units() {
        substrate.unit_label(unit).hash(&mut h);
    }
    substrate.forward_start().hash(&mut h);
    substrate.backward_start().hash(&mut h);
    substrate.protected_units().hash(&mut h);
    for spec in substrate.measures().specs() {
        spec.name.hash(&mut h);
        (spec.direction == crate::measure::Direction::HigherIsBetter).hash(&mut h);
        spec.scale.to_bits().hash(&mut h);
        spec.lower.to_bits().hash(&mut h);
        spec.upper.to_bits().hash(&mut h);
    }
    h.finish()
}

pub mod mock {
    //! A tiny synthetic substrate used by algorithm tests (here and in
    //! `modis-engine`): the "model quality" improves when specific bits are
    //! cleared and the "cost" decreases with the number of set bits, so the
    //! Pareto front is known in closed form. Evaluation is pure and
    //! instantaneous — ideal for equivalence and determinism tests.

    use super::*;
    use crate::measure::MeasureSpec;

    /// Deterministic two-measure mock substrate over `n` units.
    pub struct MockSubstrate {
        /// Number of units.
        pub n: usize,
        measures: MeasureSet,
    }

    impl MockSubstrate {
        /// Creates a mock substrate over `n` units.
        pub fn new(n: usize) -> Self {
            MockSubstrate {
                n,
                measures: MeasureSet::new(vec![
                    MeasureSpec::maximise("p_quality"),
                    MeasureSpec::minimise("p_cost", 1.0),
                ]),
            }
        }
    }

    impl Substrate for MockSubstrate {
        fn num_units(&self) -> usize {
            self.n
        }

        fn unit_label(&self, unit: usize) -> String {
            format!("u{unit}")
        }

        fn backward_start(&self) -> StateBitmap {
            StateBitmap::empty(self.n)
        }

        fn measures(&self) -> &MeasureSet {
            &self.measures
        }

        fn evaluate_raw(&self, bitmap: &StateBitmap) -> Vec<f64> {
            // Quality: fraction of even-indexed bits that are set (those are
            // the "informative" units); odd bits are noise.
            let informative: Vec<usize> = (0..self.n).step_by(2).collect();
            let kept = informative.iter().filter(|&&i| bitmap.get(i)).count();
            let quality = if informative.is_empty() {
                0.0
            } else {
                kept as f64 / informative.len() as f64
            };
            // Cost: grows with the total number of set bits.
            let cost = 0.05 + 0.9 * bitmap.count_ones() as f64 / self.n.max(1) as f64;
            vec![quality, cost.min(1.0)]
        }

        fn state_features(&self, bitmap: &StateBitmap) -> Vec<f64> {
            vec![bitmap.count_ones() as f64, bitmap.count_zeros() as f64]
        }

        fn artifact_size(&self, bitmap: &StateBitmap) -> (usize, usize) {
            (bitmap.count_ones() * 10, bitmap.count_ones())
        }
    }

    #[test]
    fn fingerprint_separates_incompatible_spaces() {
        let a = MockSubstrate::new(6);
        let b = MockSubstrate::new(6);
        let c = MockSubstrate::new(7);
        // Same structure ⇒ same fingerprint (instances may share a cache
        // namespace); different unit universe ⇒ different fingerprint.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.memo_stats(), SubstrateCacheStats::default());
    }

    #[test]
    fn mock_substrate_quality_and_cost_move_as_designed() {
        let s = MockSubstrate::new(6);
        let full = s.evaluate_raw(&s.forward_start());
        let empty = s.evaluate_raw(&s.backward_start());
        assert!(full[0] > empty[0]);
        assert!(full[1] > empty[1]);
        // Dropping a noise (odd) bit keeps quality but lowers cost.
        let dropped = s.evaluate_raw(&s.forward_start().flipped(1));
        assert_eq!(dropped[0], full[0]);
        assert!(dropped[1] < full[1]);
        assert_eq!(s.unit_label(2), "u2");
        assert_eq!(s.artifact_size(&s.forward_start()), (60, 6));
    }
}
