//! The one enumeration of the MODis searches, shared by the engine, the
//! service's wire protocol and the experiment harness.

use crate::apx::apx_modis_with_context;
use crate::bimodis::bi_search;
use crate::config::{ModisConfig, SkylineResult};
use crate::divmodis::div_search;
use crate::estimator::ValuationContext;
use crate::exact::exact_modis_with_context;
use crate::substrate::Substrate;

/// Which MODis search to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// ApxMODis — reduce-from-universal `(N, ε)`-approximation.
    Apx,
    /// NOBiMODis — bi-directional search without correlation pruning.
    NoBi,
    /// BiMODis — bi-directional search with correlation pruning.
    Bi,
    /// DivMODis — diversified skyline generation.
    Div,
    /// The exact Pareto front over the bounded space (always
    /// oracle-valuated).
    Exact,
}

impl Algorithm {
    /// The four variants the paper's experiments compare, in its tables'
    /// order.
    pub const PAPER_VARIANTS: [Algorithm; 4] = [
        Algorithm::Apx,
        Algorithm::NoBi,
        Algorithm::Bi,
        Algorithm::Div,
    ];

    /// Human-readable algorithm name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Apx => "ApxMODis",
            Algorithm::NoBi => "NOBiMODis",
            Algorithm::Bi => "BiMODis",
            Algorithm::Div => "DivMODis",
            Algorithm::Exact => "Exact",
        }
    }

    /// Runs the search, training up to `workers` states at a time; every
    /// `workers` value returns the same result. ApxMODis, the exact
    /// algorithm, NOBiMODis and DivMODis train `s_U` with the first step's
    /// children and then every step's children that way, BiMODis its start
    /// pair and the children it valuates before its pruning is armed; the
    /// surrogate phase runs on the calling thread.
    ///
    /// # Panics
    ///
    /// [`Algorithm::Exact`] on a context that is not in
    /// [`crate::estimator::EstimatorMode::Oracle`].
    pub fn run<S: Substrate + ?Sized>(
        self,
        ctx: &ValuationContext<'_, S>,
        config: &ModisConfig,
        workers: usize,
    ) -> SkylineResult {
        match self {
            Algorithm::Apx => apx_modis_with_context(ctx, config, workers),
            Algorithm::NoBi => bi_search(ctx, config, false, workers).0,
            Algorithm::Bi => bi_search(ctx, config, true, workers).0,
            Algorithm::Div => div_search(ctx, config, workers),
            Algorithm::Exact => exact_modis_with_context(ctx, config, workers),
        }
    }
}
