//! The traced run: the per-layer metrics and the time budget.
//!
//! Layering is differential on one sequence of requests. The same pass is
//! driven at five levels, each on its own freshly set-up stack —
//!
//! ```text
//!   router   client → Router → shard daemon        (cluster_warm only)
//!   wire     client → Daemon
//!   inproc   Service::submit_many / run_pending / poll / result_line
//!   engine   Engine::run_scenario
//!   algo     the search function itself, on the engine's cache handle
//! ```
//!
//! — taking turns pass by pass, so a change in the host's speed meets every
//! level alike, and a layer's cost is the difference between two adjacent
//! levels. Levels are compared on their time *outside the substrate*: the
//! [`TracedSubstrate`] spans give each request's time in oracle valuation
//! and state features at every level, and where a valuation is paid moves
//! between levels. Inside the lowest level, replays re-issue the recorded
//! inputs to the surrogate, the ε-skyline and the cache; what remains is
//! the search's self time. The shares therefore sum to one by construction.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use modis_core::bimodis::bi_modis_with_context;
use modis_core::divmodis::div_modis_with_context;
use modis_core::estimator::{TestRecord, ValuationContext, ValuationStats};
use modis_core::pareto::EpsilonSkyline;
use modis_core::prelude::*;
use modis_core::telemetry;
use modis_data::{RowMask, StateBitmap};
use modis_engine::{Algorithm, Engine, Scenario, ScenarioOutcome, SharedEvalCache};
use modis_ml::encoding::{encode_view, Encoded};
use modis_ml::gbm::{GbmParams, MultiOutputGbm};
use modis_service::{result_line, JobState};

use crate::client::{field, Client, DoneTotals};
use crate::gate::Gate;
use crate::stats::{calibration_ms, iqr_share, median, ms_since, peak_rss_mib};
use crate::tasks::TaskDef;
use crate::trace::{Recorder, RequestTrace, TracedSubstrate, EVALUATE_RAW, STATE_FEATURES};
use crate::workloads::{
    floor, plain, prime_fixture, quiet_pass_ms, Plan, SetupTimes, Stack, Workload, Wrap,
};

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports 0 for it (no training on the warm
/// workloads, no router outside `cluster_warm`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.pools_ms", "ms"),
    ("data.mask_intersect_ns", "ns"),
    ("data.view_materialize_us", "us"),
    ("ml.encode_view_us", "us"),
    ("ml.fit_ridge_us", "us"),
    ("ml.fit_gbm_reg_ms", "ms"),
    ("ml.fit_forest_cls_ms", "ms"),
    ("ml.fit_gbm_cls_ms", "ms"),
    ("ml.mogbm_fit_ms", "ms"),
    ("ml.mogbm_predict_us", "us"),
    ("core.substrate_build_paper_ms", "ms"),
    ("core.substrate_build_churn_ms", "ms"),
    ("core.evaluate_raw_ms", "ms"),
    ("core.evaluate_raw_calls", "count"),
    ("core.task_score_ms", "ms"),
    ("core.state_features_us", "us"),
    ("core.state_features_calls", "count"),
    ("core.states_valuated", "count"),
    ("core.search_apx_us", "us"),
    ("core.search_nobi_us", "us"),
    ("core.search_bi_us", "us"),
    ("core.search_div_us", "us"),
    ("core.pareto_us", "us"),
    ("core.dominance_comparisons", "count"),
    ("engine.run_scenario_us", "us"),
    ("engine.self_us", "us"),
    ("engine.cache_lookup_ns", "ns"),
    ("engine.cache_record_ns", "ns"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.memo_evictions", "count"),
    ("engine.paid_valuations", "count"),
    ("engine.cached_valuations", "count"),
    ("service.inproc_request_us", "us"),
    ("service.self_us", "us"),
    ("service.result_line_us", "us"),
    ("service.result_bytes", "bytes"),
    ("service.register_ms", "ms"),
    ("service.snapshot_encode_ms", "ms"),
    ("service.snapshot_restore_ms", "ms"),
    ("service.snapshot_bytes", "bytes"),
    ("net.ping_rtt_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("net.bind_ms", "ms"),
    ("router.ping_rtt_us", "us"),
    ("router.added_us", "us"),
    ("router.bind_ms", "ms"),
    ("share.train", "ratio"),
    ("share.encode", "ratio"),
    ("share.materialize", "ratio"),
    ("share.score", "ratio"),
    ("share.features", "ratio"),
    ("share.surrogate", "ratio"),
    ("share.search", "ratio"),
    ("share.pareto", "ratio"),
    ("share.cache", "ratio"),
    ("share.engine", "ratio"),
    ("share.service", "ratio"),
    ("share.wire", "ratio"),
    ("share.router", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.pass_iqr_pct", "%"),
    ("host.peak_rss_mb", "MiB"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metrics that are counts of work done: two traced runs of
/// the same code at the same seed must agree on them exactly.
pub const EXACT_COUNTS: &[&str] = &[
    "engine.paid_valuations",
    "engine.cached_valuations",
    "engine.cache_evictions",
    "engine.memo_evictions",
    "core.evaluate_raw_calls",
    "core.state_features_calls",
    "core.states_valuated",
    "core.dominance_comparisons",
    "service.result_bytes",
    "service.snapshot_bytes",
];

/// What a traced run reports.
pub struct TraceReport {
    pub metrics: BTreeMap<&'static str, f64>,
    pub gate: Gate,
    /// Σ `share.*`: 1 by construction ([`budget`]); anything else means a
    /// level cost nothing or was not a number.
    pub share_sum: f64,
    /// Where the spans were written, and how many.
    pub spans: Option<(std::path::PathBuf, usize)>,
}

/// The level a pass is driven at, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Router,
    Wire,
    InProcess,
    Engine,
    Algorithm,
}

impl Level {
    fn span_name(self) -> &'static str {
        match self {
            Level::Router => "router_request",
            Level::Wire => "wire_request",
            Level::InProcess => "inproc_request",
            Level::Engine => "engine_request",
            Level::Algorithm => "algo_request",
        }
    }
}

/// Costs of one request, milliseconds; the last three are replayed at the
/// algorithm level only.
#[derive(Debug, Default, Clone, Copy)]
struct Parts {
    total: f64,
    raw: f64,
    features: f64,
    surrogate: f64,
    pareto: f64,
    cache: f64,
}

/// Samples of one level's passes.
#[derive(Default)]
struct LevelRun {
    /// `[position][pass]` request latency, ms.
    latency_ms: Vec<Vec<f64>>,
    /// `[position][pass]` part of the request inside `evaluate_raw` /
    /// `state_features`, from the wrapper's spans, ms.
    raw_ms: Vec<Vec<f64>>,
    features_ms: Vec<Vec<f64>>,
    /// `[position][pass][run in wave]` (algorithm level only).
    parts: Vec<Vec<Vec<(Algorithm, Parts)>>>,
    pass_ms: Vec<f64>,
    setups: Vec<SetupTimes>,
    /// Summed over the timed passes' `DONE` lines (wire levels).
    done: DoneTotals,
    /// Calls through the substrate seam during the timed passes.
    raw_calls: usize,
    features_calls: usize,
    /// The front-end's `STATS` line when the timed passes began (empty when
    /// the stack was built for the first timed pass) and after the last.
    stats_before: String,
    stats_line: String,
    result_line_us: Vec<f64>,
    ping_us: Vec<f64>,
}

impl LevelRun {
    /// Quiet-host cost of one pass, whole requests.
    fn pass_cost_ms(&self) -> f64 {
        quiet_pass_ms(&self.latency_ms)
    }

    /// Quiet-host cost of one pass outside the substrate: request latency
    /// minus the time the wrapper saw inside `evaluate_raw` and
    /// `state_features`. Levels are compared on this, because where a
    /// valuation is paid moves between levels (the service prewarms start
    /// states the search would otherwise train itself).
    fn other_cost_ms(&self) -> f64 {
        let other: Vec<Vec<f64>> = (0..self.latency_ms.len())
            .map(|p| {
                (0..self.latency_ms[p].len())
                    .map(|i| self.latency_ms[p][i] - self.raw_ms[p][i] - self.features_ms[p][i])
                    .collect()
            })
            .collect();
        quiet_pass_ms(&other)
    }

    /// Same estimator for one replayed component of the algorithm level.
    fn part_cost_ms(&self, part: impl Fn(&Parts) -> f64) -> f64 {
        let per_pass: Vec<Vec<f64>> = self
            .parts
            .iter()
            .map(|passes| {
                passes
                    .iter()
                    .map(|runs| runs.iter().map(|(_, p)| part(p)).sum())
                    .collect()
            })
            .collect();
        quiet_pass_ms(&per_pass)
    }
}

impl Parts {
    /// The measured components of one traced request.
    fn measured(trace: &RequestTrace) -> Parts {
        Parts {
            total: trace.total_ms,
            raw: trace.covered_ms(EVALUATE_RAW),
            features: trace.covered_ms(STATE_FEATURES),
            ..Parts::default()
        }
    }
}

/// Replay samples gathered across the algorithm level.
#[derive(Default)]
struct ReplaySamples {
    mogbm_fit_ms: Vec<f64>,
    mogbm_predict_us: Vec<f64>,
    pareto_us: Vec<f64>,
    cache_lookup_ns: Vec<f64>,
    cache_record_ns: Vec<f64>,
}

struct Tracer<'a> {
    workload: Workload,
    /// The single-daemon workload whose stack the levels below the router
    /// run on (`cluster_warm` serves `warm_paper`'s scenarios).
    base: Workload,
    plan: &'a Plan,
    snapshot: &'a [u8],
    recorder: Arc<Recorder>,
    traced: Arc<Mutex<Vec<Arc<TracedSubstrate>>>>,
    replays: ReplaySamples,
}

/// Runs the core search exactly as `Engine::run_scenario` would, minus the
/// engine: same cache handle, same estimator mode, same thread budget.
fn run_search<'s>(
    engine: &Engine,
    scenario: &'s Scenario,
) -> (SkylineResult, ValuationContext<'s, dyn Substrate>) {
    let hook = engine.cache().handle(scenario.namespace());
    let ctx = ValuationContext::new(scenario.substrate.as_ref(), scenario.config.estimator)
        .with_hook(hook);
    let threads = engine.config().worker_threads;
    let result = telemetry::with_ambient(engine.telemetry(), || match scenario.algorithm {
        Algorithm::Apx => {
            modis_engine::parallel_apx_modis_with_context(&ctx, &scenario.config, threads)
        }
        Algorithm::Exact => {
            modis_engine::parallel_exact_modis_with_context(&ctx, &scenario.config, threads)
        }
        Algorithm::Bi => bi_modis_with_context(&ctx, &scenario.config, true).0,
        Algorithm::NoBi => bi_modis_with_context(&ctx, &scenario.config, false).0,
        Algorithm::Div => div_modis_with_context(&ctx, &scenario.config),
    });
    (result, ctx)
}

/// What replaying a search's surrogate came to.
#[derive(Default)]
struct SurrogateReplay {
    fit_ms: Vec<f64>,
    predict_us: Vec<f64>,
    /// The replayed model's answer for every surrogate-valuated record, in
    /// record order, clamped as `ValuationContext::valuate` clamps it.
    predictions: Vec<Vec<f64>>,
}

/// Re-issues the recorded inputs of one search to `MultiOutputGbm`: a refit
/// once `warmup` oracle records exist and then after every `refresh` more,
/// on all oracle records so far, and one prediction per surrogate-valuated
/// record. `ValuationContext::maybe_refit` is private, so its schedule and
/// hyper-parameters are repeated here; `the_surrogate_replay_reproduces_
/// the_products_predictions` fails when the two drift apart. (A survivor the
/// search re-valuates with the oracle at its end is recorded in place, so a
/// replay of a finished search sees that record earlier than the search
/// did; the refits then fall a few records sooner, their number and sizes
/// stay.)
fn replay_surrogate(
    substrate: &dyn Substrate,
    records: &[TestRecord],
    warmup: usize,
    refresh: usize,
) -> SurrogateReplay {
    let mut out = SurrogateReplay::default();
    let (mut x, mut y): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let mut model: Option<MultiOutputGbm> = None;
    let mut fitted_at = 0;
    for record in records {
        let features = substrate.state_features(&record.bitmap);
        if record.oracle {
            x.push(features);
            y.push(record.perf.clone());
            let due = model.is_none() || x.len() >= fitted_at + refresh;
            if x.len() >= warmup && due {
                let t = Instant::now();
                model = Some(MultiOutputGbm::fit(
                    &x,
                    &y,
                    GbmParams {
                        n_estimators: 30,
                        ..GbmParams::default()
                    },
                ));
                out.fit_ms.push(ms_since(t));
                fitted_at = x.len();
            }
        } else if let Some(model) = &model {
            let t = Instant::now();
            let mut perf = std::hint::black_box(model.predict_one(&features));
            out.predict_us.push(ms_since(t) * 1e3);
            for p in &mut perf {
                *p = p.clamp(1e-6, 1.0);
            }
            out.predictions.push(perf);
        }
    }
    out
}

impl Tracer<'_> {
    /// Replays one finished search's recorded inputs against the public
    /// functions of the surrogate, the ε-skyline and the cache, returning
    /// `(surrogate, pareto, cache)` milliseconds.
    fn replay(
        &mut self,
        scenario: &Scenario,
        records: &[TestRecord],
        stats: ValuationStats,
        shards: usize,
    ) -> (f64, f64, f64) {
        let substrate = scenario.substrate.as_ref();

        // Surrogate: refits on the schedule of `ValuationContext`, one
        // prediction per surrogate-valuated state.
        let mut surrogate_ms = 0.0;
        if let EstimatorMode::Surrogate { warmup, refresh } = scenario.config.estimator {
            let replayed = replay_surrogate(substrate, records, warmup, refresh);
            surrogate_ms =
                replayed.fit_ms.iter().sum::<f64>() + replayed.predict_us.iter().sum::<f64>() / 1e3;
            self.replays.mogbm_fit_ms.extend(replayed.fit_ms);
            self.replays.mogbm_predict_us.extend(replayed.predict_us);
        }

        // ε-skyline: every valuated state offered in order, then finalised.
        let t = Instant::now();
        let mut skyline = EpsilonSkyline::new(
            substrate.measures().clone(),
            scenario.config.epsilon,
            scenario.config.decisive,
        );
        for record in records {
            skyline.offer(&record.bitmap, &record.perf, 0);
        }
        std::hint::black_box(skyline.finalize());
        let pareto_ms = ms_since(t);
        self.replays.pareto_us.push(pareto_ms * 1e3);

        // Cache: one lookup per oracle valuation asked for, one record per
        // valuation paid, on a scratch cache of the engine's geometry so
        // the live cache's clock bits stay untouched.
        let scratch = Arc::new(SharedEvalCache::with_capacity(shards, 0));
        let handle = scratch.handle(scenario.namespace());
        let oracle: Vec<&TestRecord> = records.iter().filter(|r| r.oracle).collect();
        let mut cache_ms = 0.0;
        if !oracle.is_empty() {
            let paid = stats.oracle_calls.min(oracle.len());
            let t = Instant::now();
            for record in &oracle {
                handle.record(
                    &record.bitmap,
                    &SharedEvaluation {
                        raw: record.raw.clone(),
                        perf: record.perf.clone(),
                    },
                );
            }
            let record_ns = t.elapsed().as_nanos() as f64 / oracle.len() as f64;
            let lookups = stats.shared_hits + stats.oracle_calls;
            let t = Instant::now();
            for record in &oracle {
                std::hint::black_box(handle.lookup(&record.bitmap));
            }
            let lookup_ns = t.elapsed().as_nanos() as f64 / oracle.len() as f64;
            self.replays.cache_lookup_ns.push(lookup_ns);
            if paid > 0 {
                self.replays.cache_record_ns.push(record_ns);
            }
            cache_ms = (lookups as f64 * lookup_ns + paid as f64 * record_ns) / 1e6;
        }
        (surrogate_ms, pareto_ms, cache_ms)
    }

    fn wrap(&self, traced: bool) -> Box<Wrap> {
        if !traced {
            return Box::new(plain);
        }
        let (recorder, list) = (self.recorder.clone(), self.traced.clone());
        Box::new(move |inner| {
            let wrapped = TracedSubstrate::new(inner, recorder.clone());
            list.lock()
                .expect("no panics hold this lock")
                .push(wrapped.clone());
            wrapped
        })
    }

    /// Drives one pass at `state`'s level, setting its stack up first when
    /// it has none (or, cold, always).
    fn pass(&mut self, state: &mut LevelState, timed: bool, gate: &mut Gate) {
        let level = state.level;
        let plan = self.plan;
        let on_wire = matches!(level, Level::Router | Level::Wire);
        if state.stack.is_none() {
            let stack_workload = if level == Level::Router {
                self.workload
            } else {
                self.base
            };
            let (fresh, times) =
                Stack::build(stack_workload, self.snapshot, &self.wrap(state.traced));
            state.run.setups.push(times);
            let client =
                on_wire.then(|| Client::connect(fresh.addr).expect("connect to the front-end"));
            state.stack = Some((fresh, client));
        }
        let (stack, client) = state.stack.as_mut().expect("built above");
        let run = &mut state.run;
        let pass_start = Instant::now();
        for position in 0..plan.pass.len() {
            let names = plan.wave(position);
            // What the request cost (replayed components left at 0) and
            // whether every reply matched.
            let (cost, ok) = match level {
                Level::Router | Level::Wire => {
                    let client = client.as_mut().expect("wire levels hold a client");
                    let (reply, trace) = self
                        .recorder
                        .request(level.span_name(), || client.wave(&names, gate));
                    if timed {
                        run.done.states += reply.done.states;
                        run.done.shared_hits += reply.done.shared_hits;
                        run.done.cost += reply.done.cost;
                        run.raw_calls += trace.children.get(EVALUATE_RAW).map_or(0, |c| c.1);
                        run.features_calls += trace.children.get(STATE_FEATURES).map_or(0, |c| c.1);
                    }
                    (Parts::measured(&trace), reply.ok)
                }
                Level::InProcess => {
                    let service = &stack.services[0];
                    let mut result_line_us = Vec::new();
                    let (ok, trace) = self.recorder.request(level.span_name(), || {
                        let Ok(tickets) = service.submit_many(names.iter().copied()) else {
                            return false;
                        };
                        service.run_pending();
                        names.iter().zip(tickets).all(|(name, ticket)| {
                            let Ok(JobState::Done(outcome)) = service.poll(ticket) else {
                                return false;
                            };
                            let t = Instant::now();
                            let line = result_line(ticket.0, &outcome);
                            result_line_us.push(ms_since(t) * 1e3);
                            gate.result_matches(name, ticket.0, &line)
                        })
                    });
                    if timed {
                        run.result_line_us.extend(result_line_us);
                    }
                    (Parts::measured(&trace), ok)
                }
                Level::Engine => {
                    let engine = stack.services[0].engine();
                    let scenarios = &stack.scenarios;
                    let (outcomes, trace) = self.recorder.request(level.span_name(), || {
                        names
                            .iter()
                            .map(|name| engine.run_scenario(find(scenarios, name)))
                            .collect::<Vec<_>>()
                    });
                    let ok = names.iter().zip(&outcomes).all(|(name, outcome)| {
                        gate.result_matches(name, 0, &result_line(0, outcome))
                    });
                    (Parts::measured(&trace), ok)
                }
                Level::Algorithm => {
                    let engine = stack.services[0].engine();
                    let shards = engine.cache().shard_count();
                    let mut ok = true;
                    let mut sum = Parts::default();
                    let mut runs = Vec::new();
                    for name in &names {
                        let scenario = find(&stack.scenarios, name);
                        let ((result, ctx), trace) = self
                            .recorder
                            .request(level.span_name(), || run_search(engine, scenario));
                        let (records, stats) = (ctx.records(), ctx.stats());
                        drop(ctx);
                        let outcome = ScenarioOutcome {
                            name: scenario.name.clone(),
                            algorithm: scenario.algorithm,
                            result,
                            wall_seconds: 0.0,
                            substrate_cache: SubstrateCacheStats::default(),
                        };
                        ok &= gate.result_matches(name, 0, &result_line(0, &outcome));
                        let mut parts = Parts::measured(&trace);
                        sum.total += parts.total;
                        sum.raw += parts.raw;
                        sum.features += parts.features;
                        if timed {
                            (parts.surrogate, parts.pareto, parts.cache) =
                                self.replay(scenario, &records, stats, shards);
                            runs.push((scenario.algorithm, parts));
                        }
                    }
                    if timed {
                        run.parts[position].push(runs);
                    }
                    (sum, ok)
                }
            };
            gate.book(ok);
            if timed {
                run.latency_ms[position].push(cost.total);
                run.raw_ms[position].push(cost.raw);
                run.features_ms[position].push(cost.features);
            }
        }
        if timed {
            run.pass_ms.push(ms_since(pass_start));
        }
        if self.workload.fresh_stack_per_pass() {
            state.finish();
        }
    }
}

/// The registered scenario called `name`.
fn find<'s>(scenarios: &'s [Scenario], name: &str) -> &'s Scenario {
    scenarios
        .iter()
        .find(|s| s.name == name)
        .expect("the plan names registered scenarios")
}

/// One level's stack and samples while the levels take turns pass by pass,
/// so a change in the host's speed meets every level alike.
struct LevelState {
    level: Level,
    traced: bool,
    stack: Option<(Stack, Option<Client>)>,
    run: LevelRun,
}

impl LevelState {
    fn new(level: Level, traced: bool, positions: usize) -> LevelState {
        LevelState {
            level,
            traced,
            stack: None,
            run: LevelRun {
                latency_ms: vec![Vec::new(); positions],
                raw_ms: vec![Vec::new(); positions],
                features_ms: vec![Vec::new(); positions],
                parts: vec![Vec::new(); positions],
                ..LevelRun::default()
            },
        }
    }

    /// Notes the front-end's counters as the timed passes begin, so that
    /// the `STATS`-derived counts cover the same passes as the `DONE`-derived
    /// ones.
    fn begin_timed(&mut self) {
        if let Some((_, Some(client))) = &mut self.stack {
            self.run.stats_before = client.stats().unwrap_or_default();
        }
    }

    /// Takes the level's stack down; on the wire levels its last `STATS`
    /// line and a burst of `PING`s are collected first.
    fn finish(&mut self) {
        if let Some((stack, client)) = self.stack.take() {
            if let Some(mut client) = client {
                self.run.stats_line = client.stats().unwrap_or_default();
                self.run.ping_us = (0..200)
                    .filter_map(|_| client.ping().ok())
                    .map(|d| d.as_secs_f64() * 1e6)
                    .collect();
            }
            stack.stop();
        }
    }
}

/// Where one oracle valuation's time goes, from replaying recorded states
/// on a fresh substrate through the layers' public functions.
#[derive(Default)]
struct TrainingReplay {
    materialize_us: Vec<f64>,
    encode_us: Vec<f64>,
    score_ms: Vec<f64>,
    /// Fit milliseconds by model kind.
    fit_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Σ over replayed states, milliseconds: materialise, encode, fit, score.
    sums: [f64; 4],
}

/// The metric a model's fit time is reported under.
fn fit_metric(model: ModelKind) -> Option<&'static str> {
    match model {
        ModelKind::LinearRegressor => Some("ml.fit_ridge_us"),
        ModelKind::GradientBoostingRegressor => Some("ml.fit_gbm_reg_ms"),
        ModelKind::RandomForestClassifier => Some("ml.fit_forest_cls_ms"),
        ModelKind::GradientBoostingClassifier => Some("ml.fit_gbm_cls_ms"),
        _ => None,
    }
}

/// Milliseconds the product itself measured for the model's fit inside one
/// `evaluate_dataset_view`: `TaskEvaluation::train_seconds` less the
/// size-dependent cost `modis_core::task` folds into it (1 µs per training
/// cell, bias column included). Taking the product's own clock keeps the
/// model hyper-parameters out of this file.
fn fit_ms_of(evaluation: &TaskEvaluation, train: &Encoded) -> f64 {
    let folded_s = 1e-6 * train.len() as f64 * (train.num_features() as f64 + 1.0);
    ((evaluation.train_seconds - folded_s) * 1e3).max(0.0)
}

/// States replayed per task: enough for a median, cheap next to the run.
const REPLAYED_STATES_PER_TASK: usize = 24;

fn replay_training(tasks: &[TaskDef], traced: &[Arc<TracedSubstrate>]) -> TrainingReplay {
    let mut out = TrainingReplay::default();
    for task in tasks {
        let mut seen = std::collections::HashSet::new();
        let states: Vec<StateBitmap> = traced
            .iter()
            .filter(|s| s.task_name() == task.spec.name)
            .flat_map(|s| s.raw_states())
            .filter(|state| seen.insert(state.clone()))
            .take(REPLAYED_STATES_PER_TASK)
            .collect();
        if states.is_empty() {
            continue;
        }
        let fresh = task.substrate();
        let options = task.spec.encode_options();
        for state in &states {
            let t = Instant::now();
            let view = fresh.materialize_view(state);
            let materialize_ms = ms_since(t);
            let t = Instant::now();
            let encoded = encode_view(&view, &options);
            let encode_ms = ms_since(t);
            if encoded.len() < 8 || encoded.num_features() == 0 {
                continue;
            }
            let (train, test) = encoded.split(task.spec.train_ratio, task.spec.seed);
            let train = if test.is_empty() { &encoded } else { &train };
            let t = Instant::now();
            let evaluation = evaluate_dataset_view(&task.spec, &view);
            let total_ms = ms_since(t);
            let fit_ms = fit_ms_of(&evaluation, train);
            let score_ms = (total_ms - encode_ms - fit_ms).max(0.0);
            out.materialize_us.push(materialize_ms * 1e3);
            out.encode_us.push(encode_ms * 1e3);
            out.score_ms.push(score_ms);
            if let Some(metric) = fit_metric(task.spec.model) {
                out.fit_ms.entry(metric).or_default().push(fit_ms);
            }
            for (sum, ms) in out
                .sums
                .iter_mut()
                .zip([materialize_ms, encode_ms, fit_ms, score_ms])
            {
                *sum += ms;
            }
        }
    }
    out
}

/// One row-mask subtraction over `rows` rows, nanoseconds (the word-wise
/// kernel `materialize_view` is made of). Timed in batches: one call is
/// below the clock's resolution.
fn mask_intersect_ns(rows: usize) -> f64 {
    const BATCH: u32 = 1_000;
    let other = RowMask::from_pred(rows, |r| r % 3 == 0);
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let mut mask = RowMask::all(rows);
            let t = Instant::now();
            for _ in 0..BATCH {
                mask.subtract(std::hint::black_box(&other));
            }
            let ns = t.elapsed().as_nanos() as f64 / f64::from(BATCH);
            std::hint::black_box(mask.count());
            ns
        })
        .collect();
    median(&samples)
}

/// Level and component costs of one pass, milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    /// At the outermost level: time inside `evaluate_raw`, split by the
    /// training replay into materialise / encode / fit / score …
    pub raw: f64,
    pub raw_split: [f64; 4],
    /// … and inside `state_features`.
    pub features: f64,
    /// Per level, the cost outside the substrate. Through the router:
    /// `None` where there is none.
    pub router: Option<f64>,
    pub wire: f64,
    pub inproc: f64,
    pub engine: f64,
    pub algo: f64,
    /// Inside `algo`, from the replays.
    pub surrogate: f64,
    pub pareto: f64,
    pub cache: f64,
}

/// The time budget: each layer's share of the outermost level's cost. A
/// layer between two levels gets their difference. Two levels that cost the
/// same can measure in the wrong order; the outer one is then raised to the
/// inner one (and replayed parts that overshoot the search they were part of
/// are scaled back into it), so that no share is negative and the shares sum
/// to one whatever the noise between levels was.
pub fn budget(c: &Costs) -> Vec<(&'static str, f64)> {
    let algo = c.algo.max(0.0);
    let engine = c.engine.max(algo);
    let inproc = c.inproc.max(engine);
    let wire = c.wire.max(inproc);
    let router = c.router.map(|r| r.max(wire));
    let total = c.raw + c.features + router.unwrap_or(wire);
    let share = |ms: f64| ms / total;

    let replayed = c.surrogate + c.pareto + c.cache;
    let fit = if replayed > algo {
        algo / replayed
    } else {
        1.0
    };
    let split_total: f64 = c.raw_split.iter().sum();
    let split = |i: usize| {
        if split_total > 0.0 {
            share(c.raw * c.raw_split[i] / split_total)
        } else if i == 2 {
            // No replay to split by: all of it is the oracle's training.
            share(c.raw)
        } else {
            0.0
        }
    };
    vec![
        ("share.materialize", split(0)),
        ("share.encode", split(1)),
        ("share.train", split(2)),
        ("share.score", split(3)),
        ("share.features", share(c.features)),
        ("share.surrogate", share(c.surrogate * fit)),
        ("share.pareto", share(c.pareto * fit)),
        ("share.cache", share(c.cache * fit)),
        ("share.search", share((algo - replayed * fit).max(0.0))),
        ("share.engine", share(engine - algo)),
        ("share.service", share(inproc - engine)),
        ("share.wire", share(wire - inproc)),
        ("share.router", share(router.map_or(0.0, |r| r - wire))),
    ]
}

/// Median, or 0 for a layer the workload never entered.
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The traced run of `workload` at `seed`.
pub fn run_traced(workload: Workload, seed: u64) -> TraceReport {
    let fixture = prime_fixture(workload);
    let mut gate = fixture.gate;
    let tasks = workload.tasks();
    let plan = Plan::new(workload, seed, &tasks);
    let base = if workload == Workload::ClusterWarm {
        Workload::WarmPaper
    } else {
        workload
    };
    let mut tracer = Tracer {
        workload,
        base,
        plan: &plan,
        snapshot: &fixture.snapshot,
        recorder: Recorder::new(),
        traced: Arc::new(Mutex::new(Vec::new())),
        replays: ReplaySamples::default(),
    };

    let top = if workload == Workload::ClusterWarm {
        Level::Router
    } else {
        Level::Wire
    };
    // The outermost level twice — tracing off (plain substrates) for the
    // overhead figure, then on — and every level inside it, outermost to
    // innermost.
    let positions = plan.pass.len();
    let mut levels = vec![LevelState::new(top, false, positions)];
    if top == Level::Router {
        levels.push(LevelState::new(Level::Router, true, positions));
    }
    for inner in [
        Level::Wire,
        Level::InProcess,
        Level::Engine,
        Level::Algorithm,
    ] {
        levels.push(LevelState::new(inner, true, positions));
    }
    let mut calib = vec![calibration_ms()];
    let warmup = workload.warmup_passes();
    for pass in 0..warmup + workload.fixed_passes() {
        if pass == warmup {
            levels.iter_mut().for_each(LevelState::begin_timed);
        }
        for state in &mut levels {
            tracer.pass(state, pass >= warmup, &mut gate);
        }
        calib.push(calibration_ms());
    }
    let mut runs = levels.into_iter().map(|mut state| {
        state.finish();
        state.run
    });
    let untraced = runs.next().expect("pushed above");
    let router = (top == Level::Router).then(|| runs.next().expect("pushed above"));
    let [wire, inproc, engine, algo] = [(); 4].map(|()| runs.next().expect("pushed above"));
    let outermost = router.as_ref().unwrap_or(&wire);

    let traced = tracer
        .traced
        .lock()
        .expect("no panics hold this lock")
        .clone();
    let training = replay_training(&tasks, &traced);

    let costs = Costs {
        raw: quiet_pass_ms(&outermost.raw_ms),
        raw_split: training.sums,
        features: quiet_pass_ms(&outermost.features_ms),
        router: router.as_ref().map(LevelRun::other_cost_ms),
        wire: wire.other_cost_ms(),
        inproc: inproc.other_cost_ms(),
        engine: engine.other_cost_ms(),
        algo: algo.other_cost_ms(),
        surrogate: algo.part_cost_ms(|p| p.surrogate),
        pareto: algo.part_cost_ms(|p| p.pareto),
        cache: algo.part_cost_ms(|p| p.cache),
    };

    let positions = positions as f64;
    let runs = plan.runs_per_pass() as f64;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let shards = if workload == Workload::ClusterWarm {
        2.0
    } else {
        1.0
    };
    let outer_setup =
        |f: fn(&SetupTimes) -> f64| median(&outermost.setups.iter().map(f).collect::<Vec<_>>());

    m.insert("datagen.pools_ms", outer_setup(|s| s.pools_ms));
    let build = if workload == Workload::ChurnZipf {
        "core.substrate_build_churn_ms"
    } else {
        "core.substrate_build_paper_ms"
    };
    m.insert(build, outer_setup(|s| s.substrates_ms) / shards);
    m.insert(
        "service.register_ms",
        outer_setup(|s| s.register_ms) / shards,
    );
    m.insert(
        "service.snapshot_restore_ms",
        outer_setup(|s| s.restore_ms) / shards,
    );
    m.insert("net.bind_ms", outer_setup(|s| s.bind_ms) / shards);
    m.insert("router.bind_ms", outer_setup(|s| s.router_bind_ms));
    if workload.restores_snapshot() {
        m.insert("service.snapshot_encode_ms", fixture.snapshot_encode_ms);
        m.insert("service.snapshot_bytes", fixture.snapshot.len() as f64);
    }

    let rows = tasks
        .iter()
        .map(|t| t.tables[0].num_rows())
        .max()
        .unwrap_or(0);
    m.insert("data.mask_intersect_ns", mask_intersect_ns(rows));
    m.insert(
        "data.view_materialize_us",
        median_or_zero(&training.materialize_us),
    );
    m.insert("ml.encode_view_us", median_or_zero(&training.encode_us));
    m.insert("core.task_score_ms", median_or_zero(&training.score_ms));
    for (metric, samples) in &training.fit_ms {
        let scale = if metric.ends_with("_us") { 1e3 } else { 1.0 };
        m.insert(metric, median(samples) * scale);
    }
    m.insert(
        "ml.mogbm_fit_ms",
        median_or_zero(&tracer.replays.mogbm_fit_ms),
    );
    m.insert(
        "ml.mogbm_predict_us",
        median_or_zero(&tracer.replays.mogbm_predict_us),
    );
    m.insert("core.pareto_us", median_or_zero(&tracer.replays.pareto_us));
    m.insert(
        "engine.cache_lookup_ns",
        median_or_zero(&tracer.replays.cache_lookup_ns),
    );
    m.insert(
        "engine.cache_record_ns",
        median_or_zero(&tracer.replays.cache_record_ns),
    );

    // Counts come from the outermost traced level only: one fixed sequence
    // on one fresh stack, so they repeat exactly.
    m.insert(
        "core.evaluate_raw_ms",
        median_or_zero(&tracer.recorder.durations_ms(EVALUATE_RAW, top.span_name())),
    );
    m.insert(
        "core.state_features_us",
        median_or_zero(
            &tracer
                .recorder
                .durations_ms(STATE_FEATURES, top.span_name()),
        ) * 1e3,
    );
    m.insert("core.evaluate_raw_calls", outermost.raw_calls as f64);
    m.insert("core.state_features_calls", outermost.features_calls as f64);
    m.insert("core.states_valuated", outermost.done.states as f64);
    m.insert("engine.paid_valuations", outermost.done.cost as f64);
    m.insert(
        "engine.cached_valuations",
        outermost.done.shared_hits as f64,
    );
    let stat = |key: &str| {
        let at = |line: &str| field::<f64>(line, key).unwrap_or(0.0);
        at(&outermost.stats_line) - at(&outermost.stats_before)
    };
    // From the counters, not `hit_rate=`: the router's merged line has none.
    let lookups = stat("hits") + stat("misses");
    if lookups > 0.0 {
        m.insert("engine.cache_hit_ratio", stat("hits") / lookups);
    }
    m.insert("engine.cache_evictions", stat("evictions"));
    m.insert("engine.memo_evictions", stat("memo_evictions"));
    m.insert("core.dominance_comparisons", stat("dominance_comparisons"));
    let result_bytes: usize = plan
        .pass
        .concat()
        .iter()
        .map(|&i| gate.reference_len(&plan.names[i]))
        .sum();
    m.insert(
        "service.result_bytes",
        (result_bytes * workload.fixed_passes()) as f64,
    );

    for (alg, metric) in [
        (Algorithm::Apx, "core.search_apx_us"),
        (Algorithm::NoBi, "core.search_nobi_us"),
        (Algorithm::Bi, "core.search_bi_us"),
        (Algorithm::Div, "core.search_div_us"),
    ] {
        // Per slot of the pass (position × run in the wave) the quiet-host
        // estimate of each component over passes; self time is what the
        // components leave of the total.
        let mut self_us = Vec::new();
        for passes in &algo.parts {
            for slot in 0..passes.first().map_or(0, Vec::len) {
                if passes[0][slot].0 != alg {
                    continue;
                }
                let q = |part: fn(&Parts) -> f64| {
                    let samples: Vec<f64> = passes.iter().map(|runs| part(&runs[slot].1)).collect();
                    floor(&samples)
                };
                let rest = q(|p| p.raw)
                    + q(|p| p.features)
                    + q(|p| p.surrogate)
                    + q(|p| p.pareto)
                    + q(|p| p.cache);
                self_us.push((q(|p| p.total) - rest).max(0.0) * 1e3);
            }
        }
        m.insert(metric, median_or_zero(&self_us));
    }

    m.insert("engine.run_scenario_us", engine.pass_cost_ms() / runs * 1e3);
    m.insert(
        "engine.self_us",
        (costs.engine - costs.algo).max(0.0) / runs * 1e3,
    );
    m.insert(
        "service.inproc_request_us",
        inproc.pass_cost_ms() / positions * 1e3,
    );
    m.insert(
        "service.self_us",
        (costs.inproc - costs.engine).max(0.0) / positions * 1e3,
    );
    m.insert(
        "service.result_line_us",
        median_or_zero(&inproc.result_line_us),
    );
    m.insert("net.ping_rtt_us", median_or_zero(&wire.ping_us));
    m.insert(
        "net.wire_overhead_us",
        (costs.wire - costs.inproc).max(0.0) / positions * 1e3,
    );
    if let (Some(router), Some(cost)) = (&router, costs.router) {
        m.insert("router.ping_rtt_us", median_or_zero(&router.ping_us));
        m.insert(
            "router.added_us",
            (cost - costs.wire).max(0.0) / positions * 1e3,
        );
    }
    let mut share_sum = 0.0;
    for (name, share) in budget(&costs) {
        m.insert(name, share);
        share_sum += share;
    }
    m.insert("host.calib_ms", median(&calib));
    m.insert("host.pass_iqr_pct", iqr_share(&outermost.pass_ms) * 100.0);
    m.insert("host.peak_rss_mb", peak_rss_mib());
    m.insert(
        "trace.overhead_pct",
        (outermost.pass_cost_ms() / untraced.pass_cost_ms() - 1.0) * 100.0,
    );

    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::PathBuf::from("target"),
        std::path::PathBuf::from,
    );
    let path = dir
        .join("bench_e2e")
        .join(format!("{}.spans.jsonl", workload.name()));
    let spans = match tracer.recorder.write_jsonl(&path) {
        Ok(count) => Some((path, count)),
        Err(err) => {
            eprintln!("spans not written to {}: {err}", path.display());
            None
        }
    };
    TraceReport {
        metrics: m,
        gate,
        share_sum,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_and_follow_the_differences() {
        // 120 ms through the router, 46 of them inside the substrate.
        let costs = Costs {
            raw: 40.0,
            raw_split: [1.0, 3.0, 5.0, 1.0],
            features: 6.0,
            router: Some(74.0),
            wire: 54.0,
            inproc: 46.0,
            engine: 42.0,
            algo: 40.0,
            surrogate: 20.0,
            pareto: 1.0,
            cache: 2.0,
        };
        let shares = budget(&costs);
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        let get = |name: &str| shares.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("share.router") - 20.0 / 120.0).abs() < 1e-12);
        assert!((get("share.wire") - 8.0 / 120.0).abs() < 1e-12);
        assert!((get("share.train") - 20.0 / 120.0).abs() < 1e-12);
        assert!((get("share.search") - 17.0 / 120.0).abs() < 1e-12);

        // No router: the wire level is the whole, the router's share is 0.
        let single = Costs {
            router: None,
            ..costs
        };
        let shares = budget(&single);
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(
            shares.iter().find(|(n, _)| *n == "share.router").unwrap().1,
            0.0
        );

        // A level that measured cheaper than the one inside it is raised to
        // it: its layer gets nothing, no share is negative, and the sum
        // stays one. Replayed parts that overshoot the search are scaled
        // back into it.
        let noisy = Costs {
            inproc: 41.0,
            surrogate: 50.0,
            ..single
        };
        let shares = budget(&noisy);
        assert!(shares.iter().all(|(_, s)| *s >= 0.0));
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        let get = |name: &str| shares.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("share.service"), 0.0);
        assert!(get("share.search") < 1e-12);
        assert!((get("share.wire") - 12.0 / 100.0).abs() < 1e-12);
    }

    /// `fit_ms_of` undoes the size-dependent cost the product folds into
    /// `train_seconds`. If that term changes, a microsecond ridge fit comes
    /// out negative or longer than the whole evaluation it is part of.
    #[test]
    fn the_products_own_fit_clock_fits_inside_its_evaluation() {
        let task = &crate::tasks::paper_tasks()[2];
        let substrate = task.substrate();
        let view = substrate.materialize_view(&substrate.forward_start());
        let encoded = encode_view(&view, &task.spec.encode_options());
        let (train, _) = encoded.split(task.spec.train_ratio, task.spec.seed);
        let t = Instant::now();
        let evaluation = evaluate_dataset_view(&task.spec, &view);
        let total_ms = ms_since(t);
        let folded_ms = 1e-3 * train.len() as f64 * (train.num_features() as f64 + 1.0);
        assert!(folded_ms > 1.0, "the folded term dwarfs a ridge fit");
        assert!(evaluation.train_seconds * 1e3 > folded_ms);
        let fit_ms = fit_ms_of(&evaluation, &train);
        assert!(fit_ms > 0.0 && fit_ms < total_ms, "{fit_ms} of {total_ms}");
    }

    /// The replay repeats `ValuationContext`'s private refit schedule and
    /// hyper-parameters. Drive a real context through warm-up, several
    /// refreshes and surrogate valuations; the replayed models must then
    /// answer every surrogate-valuated state exactly as the product did.
    #[test]
    fn the_surrogate_replay_reproduces_the_products_predictions() {
        let task = &crate::tasks::paper_tasks()[2];
        let substrate = task.substrate();
        let EstimatorMode::Surrogate { warmup, refresh } = task.config.estimator else {
            panic!("paper tasks search under the surrogate");
        };
        let ctx = ValuationContext::new(substrate.as_ref(), task.config.estimator);
        // Distinct states: the full bitmap with one unit cleared, then two.
        let n = substrate.num_units();
        let mut states = vec![substrate.forward_start()];
        for i in 0..n {
            for j in i..n {
                let bits = (0..n).map(|u| u != i && u != j).collect();
                states.push(StateBitmap::from_bits(bits));
            }
        }
        states.truncate(warmup + 10 * refresh);
        // Surrogate valuations interleaved with forced oracle ones, so the
        // model is refreshed several times between predictions.
        for (i, state) in states.iter().enumerate() {
            if i % 3 == 0 {
                ctx.valuate_oracle(state);
            } else {
                ctx.valuate(state);
            }
        }
        let records = ctx.records();
        let by_surrogate: Vec<&TestRecord> = records.iter().filter(|r| !r.oracle).collect();
        assert!(by_surrogate.len() >= 2 * refresh, "{}", by_surrogate.len());
        let replayed = replay_surrogate(substrate.as_ref(), &records, warmup, refresh);
        assert!(
            replayed.fit_ms.len() >= 3,
            "{} refits",
            replayed.fit_ms.len()
        );
        assert_eq!(replayed.predictions.len(), by_surrogate.len());
        for (record, prediction) in by_surrogate.iter().zip(&replayed.predictions) {
            assert_eq!(&record.perf, prediction);
        }
    }

    #[test]
    fn every_budget_share_and_exact_count_is_a_declared_metric() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for (name, _) in budget(&Costs::default()) {
            assert!(declared.contains(&name), "{name}");
        }
        for name in EXACT_COUNTS {
            assert!(declared.contains(name), "{name}");
        }
        let mut sorted = declared.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), declared.len(), "metric names are unique");
    }
}
