//! The four workloads: what is registered, what a pass asks for, how a
//! serving stack is set up, and the timed end-to-end run.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use modis_core::prelude::*;
use modis_engine::{EngineConfig, Scenario};
use modis_service::{ClusterSpec, Daemon, Router, Service, ServiceConfig};

use crate::client::Client;
use crate::gate::{Fixture, Gate};
use crate::stats::{median, ms_since, peak_rss_mib, zipf_counts, Rng};
use crate::tasks::{
    churn_tasks, paper_tasks, scenario_name, shared_namespace, TaskDef, ALL_ALGORITHMS, APX_AND_BI,
};

/// A benchmark workload. See the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPaper,
    WarmPaper,
    ChurnZipf,
    ClusterWarm,
}

/// Stacks per timed run: three fresh set-ups, so one unlucky or lucky heap
/// or thread placement cannot own a run — every end-to-end figure is a
/// median over the three.
pub const STACKS: usize = 3;
/// Times a stack is set up before it serves (the last build does): a set-up
/// is 7–15 ms of allocation and thread spawning, and one sample per stack
/// left `setup_s` moving by a fifth between two sets of ten runs.
const SETUP_REPEATS: usize = 5;
/// Scenario runs per `churn_zipf` pass, sent as waves of [`CHURN_WAVE`].
const CHURN_RUNS_PER_PASS: usize = 48;
const CHURN_WAVE: usize = 4;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdPaper,
        Workload::WarmPaper,
        Workload::ChurnZipf,
        Workload::ClusterWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold_paper",
            Workload::WarmPaper => "warm_paper",
            Workload::ChurnZipf => "churn_zipf",
            Workload::ClusterWarm => "cluster_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Untimed passes after each set-up: none when cold is the point, one
    /// to let lazy set-up finish on the warm workloads, two on churn so
    /// the bounded cache reaches its steady eviction pattern.
    pub fn warmup_passes(self) -> usize {
        match self {
            Workload::ColdPaper => 0,
            Workload::WarmPaper | Workload::ClusterWarm => 1,
            Workload::ChurnZipf => 2,
        }
    }

    /// Passes per stack of a traced run (and of `--quick`): fixed, so the
    /// count metrics repeat exactly from run to run.
    pub fn fixed_passes(self) -> usize {
        match self {
            Workload::ColdPaper => 1,
            Workload::WarmPaper | Workload::ClusterWarm => 16,
            Workload::ChurnZipf => 2,
        }
    }

    /// Whether each pass gets a fresh stack (cold: a pass must not inherit
    /// the previous pass's trained evaluations).
    pub fn fresh_stack_per_pass(self) -> bool {
        self == Workload::ColdPaper
    }

    pub fn restores_snapshot(self) -> bool {
        matches!(self, Workload::WarmPaper | Workload::ClusterWarm)
    }

    /// Generates the workload's datasets.
    pub fn tasks(self) -> Vec<TaskDef> {
        match self {
            Workload::ChurnZipf => churn_tasks(),
            _ => paper_tasks(),
        }
    }

    fn algorithms(self) -> &'static [(&'static str, modis_engine::Algorithm)] {
        match self {
            Workload::WarmPaper | Workload::ClusterWarm => &ALL_ALGORITHMS,
            Workload::ColdPaper | Workload::ChurnZipf => &APX_AND_BI,
        }
    }

    /// Scenario names in registration order.
    pub fn scenario_names(self, tasks: &[TaskDef]) -> Vec<String> {
        tasks
            .iter()
            .flat_map(|t| {
                self.algorithms()
                    .iter()
                    .map(move |(short, _)| scenario_name(&t.key, short))
            })
            .collect()
    }

    /// Builds the scenarios of one service over fresh substrate instances.
    /// `wrap` lets the traced run interpose its recording substrate.
    pub fn scenarios(self, tasks: &[TaskDef], wrap: &Wrap) -> Vec<Scenario> {
        let mut out = Vec::new();
        for task in tasks {
            // Cold: every scenario trains on its own substrate instance in
            // its own namespace, so nothing is shared. Otherwise one
            // substrate and one namespace per task.
            let shared = (!self.fresh_stack_per_pass()).then(|| wrap(task.substrate()));
            for &algorithm in self.algorithms() {
                let (substrate, namespace) = match &shared {
                    Some(substrate) => (substrate.clone(), shared_namespace(&task.key)),
                    None => (
                        wrap(task.substrate()),
                        scenario_name(&task.key, algorithm.0),
                    ),
                };
                out.push(task.scenario(substrate, algorithm, namespace));
            }
        }
        out
    }

    /// The service configuration: the default — what users run — except
    /// on churn, which is about a cache smaller than its working set.
    pub fn service_config(self) -> ServiceConfig {
        match self {
            Workload::ChurnZipf => ServiceConfig::default().with_engine(EngineConfig {
                // One cache shard so the capacity is exact; one worker so
                // the eviction order does not depend on thread timing. 310
                // entries sit in the middle of a plateau (290–335 entries
                // all give a hit ratio of 0.33–0.37; at 350 it jumps to
                // 0.59), so a change that valuates a few more or fewer
                // states does not fall off a cliff.
                cache_capacity: 310,
                cache_shards: 1,
                worker_threads: 1,
                ..EngineConfig::default()
            }),
            _ => ServiceConfig::default(),
        }
    }
}

/// Substrate interposer: identity on timed runs.
pub type Wrap = dyn Fn(Arc<TableSubstrate>) -> Arc<dyn Substrate>;

/// The identity [`Wrap`].
pub fn plain(substrate: Arc<TableSubstrate>) -> Arc<dyn Substrate> {
    substrate
}

/// One pass: the workload's fixed, seed-derived sequence of requests.
/// Every pass of a run repeats it, so every run at a seed executes the
/// same requests.
pub struct Plan {
    /// Scenario names, indexed by the pass entries.
    pub names: Vec<String>,
    /// The requests of one pass; each is a wave of scenario indices.
    pub pass: Vec<Vec<usize>>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, tasks: &[TaskDef]) -> Plan {
        let names = workload.scenario_names(tasks);
        let mut rng = Rng::new(seed, 0xA55);
        let pass = match workload {
            Workload::ChurnZipf => {
                // Zipf over pools, dealt into waves like cards: the runs,
                // sorted hottest pool first, go round the table, so every
                // wave holds one run of a hot pool, one of a cold pool and
                // two in between, and the waves cost about the same (the
                // median over positions of a mix of 10 ms and 50 ms waves
                // sits in the gap between two of them). Within a pool the
                // runs alternate between its two scenarios.
                //
                // With a cache smaller than the working set, what a pass
                // costs depends on the order of its runs (shuffling only
                // *inside* the waves moved the median wave by 24% from seed
                // to seed), so the cycle of waves is the same for every
                // seed: passes repeat back to back, hence every seed
                // settles into the same cycle of hits and evictions and
                // asks for the same work. The seed decides where the cycle
                // starts.
                let per_pool = APX_AND_BI.len();
                let by_pool = zipf_counts(tasks.len(), CHURN_RUNS_PER_PASS)
                    .into_iter()
                    .enumerate()
                    .flat_map(|(pool, count)| std::iter::repeat_n(pool, count));
                let waves_per_pass = CHURN_RUNS_PER_PASS / CHURN_WAVE;
                let mut waves = vec![Vec::new(); waves_per_pass];
                for (i, pool) in by_pool.enumerate() {
                    // Round `i / waves_per_pass` of the deal shifts the
                    // alternation, so a wave mixes both algorithms.
                    let scenario = (i + i / waves_per_pass) % per_pool;
                    waves[i % waves_per_pass].push(pool * per_pool + scenario);
                }
                let start = rng.below(waves.len());
                waves.rotate_left(start);
                waves
            }
            _ => {
                let mut order: Vec<usize> = (0..names.len()).collect();
                rng.shuffle(&mut order);
                order.into_iter().map(|i| vec![i]).collect()
            }
        };
        Plan { names, pass }
    }

    /// Scenario runs in one pass.
    pub fn runs_per_pass(&self) -> usize {
        self.pass.iter().map(Vec::len).sum()
    }

    /// The scenario names of request `position`.
    pub fn wave(&self, position: usize) -> Vec<&str> {
        self.pass[position]
            .iter()
            .map(|&i| self.names[i].as_str())
            .collect()
    }
}

/// Where one set-up's time went, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub pools_ms: f64,
    pub substrates_ms: f64,
    pub register_ms: f64,
    pub restore_ms: f64,
    pub bind_ms: f64,
    pub router_bind_ms: f64,
}

/// A serving stack: one daemon, or two shard daemons behind a router.
pub struct Stack {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// One service per daemon (two shards on `cluster_warm`).
    pub services: Vec<Arc<Service>>,
    /// The scenarios registered on `services[0]`, in registration order.
    pub scenarios: Vec<Scenario>,
    daemons: Vec<Daemon>,
    router: Option<Router>,
}

impl Stack {
    /// Sets a stack up from nothing: pools generated → substrates built →
    /// scenarios registered → (warm workloads) snapshot restored →
    /// front-end bound. This whole function is what `setup_s` times.
    pub fn build(workload: Workload, snapshot: &[u8], wrap: &Wrap) -> (Stack, SetupTimes) {
        let start = Instant::now();
        let mut times = SetupTimes::default();
        let tasks = workload.tasks();
        times.pools_ms = ms_since(start);

        let shards = if workload == Workload::ClusterWarm {
            2
        } else {
            1
        };
        let mut services = Vec::new();
        let mut daemons = Vec::new();
        let mut first_scenarios = Vec::new();
        for shard in 0..shards {
            let t = Instant::now();
            let scenarios = workload.scenarios(&tasks, wrap);
            times.substrates_ms += ms_since(t);

            let t = Instant::now();
            let service = Arc::new(Service::new(workload.service_config()));
            for scenario in &scenarios {
                service
                    .register(scenario.clone())
                    .expect("workload scenarios register cleanly");
            }
            if shard == 0 {
                first_scenarios = scenarios;
            }
            times.register_ms += ms_since(t);

            if workload.restores_snapshot() {
                let t = Instant::now();
                service
                    .restore_from_bytes(snapshot)
                    .expect("the fixture's own snapshot restores");
                times.restore_ms += ms_since(t);
            }

            let t = Instant::now();
            daemons.push(Daemon::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind daemon"));
            times.bind_ms += ms_since(t);
            services.push(service);
        }

        let mut router = None;
        let mut addr = daemons[0].addr();
        if workload == Workload::ClusterWarm {
            let t = Instant::now();
            let spec = ClusterSpec::new(tasks.iter().flat_map(|task| {
                workload.algorithms().iter().map(|(short, _)| {
                    (scenario_name(&task.key, short), shared_namespace(&task.key))
                })
            }))
            .expect("scenario and namespace names are single tokens");
            let shard_addrs = daemons
                .iter()
                .enumerate()
                .map(|(i, d)| (format!("shard{i}"), d.addr()))
                .collect();
            let bound = Router::bind(spec, shard_addrs, "127.0.0.1:0").expect("bind router");
            addr = bound.addr();
            router = Some(bound);
            times.router_bind_ms = ms_since(t);
        }
        times.total_s = start.elapsed().as_secs_f64();
        (
            Stack {
                addr,
                services,
                scenarios: first_scenarios,
                daemons,
                router,
            },
            times,
        )
    }

    /// Stops the router and every daemon, joining their threads.
    pub fn stop(self) {
        if let Some(router) = self.router {
            router.stop();
        }
        for daemon in self.daemons {
            daemon.stop();
        }
    }
}

/// Primes the workload's references (and snapshot) on fresh substrates.
pub fn prime_fixture(workload: Workload) -> Fixture {
    let tasks = workload.tasks();
    Gate::prime(&workload.scenarios(&tasks, &plain))
}

/// How much a run measures: constants, never a duration, so every run at a
/// seed executes the same requests and its counts repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Fresh set-ups, each followed by the warm-up passes.
    pub stacks: usize,
    /// Timed passes after each.
    pub passes_per_stack: usize,
}

impl Workload {
    /// Timed passes per stack of a run at the contract's `--seconds 30`:
    /// 22–28 s of timed passes at the seed commit's speed on the host the
    /// baseline was measured on.
    fn passes_per_stack_at_30s(self) -> usize {
        match self {
            Workload::ColdPaper => 3,
            Workload::WarmPaper => 120,
            Workload::ChurnZipf => 15,
            Workload::ClusterWarm => 100,
        }
    }

    /// The timed run: [`STACKS`] stacks of a constant number of passes.
    /// `--seconds` scales the constant and nothing else, so two commits run
    /// at the same `--seconds` do identical work however fast they are.
    pub fn run_length(self, seconds: u64) -> RunLength {
        let passes = (self.passes_per_stack_at_30s() as u64 * seconds).div_ceil(30);
        RunLength {
            stacks: STACKS,
            passes_per_stack: passes.max(1) as usize,
        }
    }

    /// `--quick`: one stack of [`Workload::fixed_passes`] passes.
    pub fn quick_length(self) -> RunLength {
        RunLength {
            stacks: 1,
            passes_per_stack: self.fixed_passes(),
        }
    }
}

/// Timed samples of one stack, `[position in the pass][pass]`, milliseconds.
pub struct StackSamples {
    /// From a request's first write until its last `RESULT` line was read
    /// and verified.
    pub latency_ms: Vec<Vec<f64>>,
    /// From the end of the previous request (the start of the pass for
    /// position 0) until the end of this one: the request plus the gap
    /// before it, so that the intervals of a pass add up to its duration.
    pub interval_ms: Vec<Vec<f64>>,
    /// Wall time of each pass.
    pub pass_ms: Vec<f64>,
    /// Seconds each set-up of this stack took ([`SETUP_REPEATS`] of them;
    /// on `cold_paper` that many for every pass).
    pub setup_s: Vec<f64>,
}

/// Raw samples of one end-to-end run.
pub struct Samples {
    pub stacks: Vec<StackSamples>,
    pub runs_per_pass: usize,
    pub peak_rss_mib: f64,
}

/// The fastest sample: what a fixed piece of work costs when the host
/// leaves it alone.
///
/// Interference on a shared host only ever adds time, so over repetitions of
/// identical work the floor is the code and everything above it is the
/// neighbours (Chen & Revels, "Robust benchmarking in noisy environments",
/// 2016). On this host the difference decides whether the benchmark repeats
/// at all: over two campaigns of ten runs three hours apart the median of a
/// warm request read 4.2 and 5.0 ms, its floor 3.41 and 3.42 ms (README,
/// "Why the floor, not the median").
pub fn floor(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "nothing was sampled");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What one pass costs undisturbed: Σ over positions of the floor of
/// `samples`, which is `[position][pass]`.
pub fn quiet_pass_ms(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| floor(s)).sum()
}

impl StackSamples {
    fn new(positions: usize) -> StackSamples {
        StackSamples {
            latency_ms: vec![Vec::new(); positions],
            interval_ms: vec![Vec::new(); positions],
            pass_ms: Vec::new(),
            setup_s: Vec::new(),
        }
    }

    /// The median request kind of this stack: per position of the pass the
    /// floor of its latency over the stack's passes, then the median over
    /// positions. A position is one fixed request; the pooled median of a
    /// 16-kind mix would sit on the boundary between two kinds and flip
    /// with their tails.
    fn request_ms(&self) -> f64 {
        let per_position: Vec<f64> = self.latency_ms.iter().map(|l| floor(l)).collect();
        median(&per_position)
    }

    /// The duration of a pass of this stack in which every interval —
    /// request plus the gap before it — takes its floor.
    fn pass_ms(&self) -> f64 {
        quiet_pass_ms(&self.interval_ms)
    }
}

impl Samples {
    fn over_stacks(&self, estimate: impl Fn(&StackSamples) -> f64) -> f64 {
        median(&self.stacks.iter().map(estimate).collect::<Vec<_>>())
    }

    /// Median over stacks of each stack's median request kind: no single
    /// stack — the luckiest included — sets the figure.
    pub fn request_p50_ms(&self) -> f64 {
        self.over_stacks(StackSamples::request_ms)
    }

    /// Scenario runs per pass over the median over stacks of the
    /// undisturbed pass duration. Unlike `request_p50_ms` this moves when
    /// any request kind does, and it counts the gaps between requests.
    pub fn throughput_rps(&self) -> f64 {
        self.runs_per_pass as f64 / (self.over_stacks(StackSamples::pass_ms) / 1e3)
    }

    /// Median over stacks of the floor of each stack's set-ups.
    pub fn setup_s(&self) -> f64 {
        self.over_stacks(|stack| floor(&stack.setup_s))
    }

    /// Set-ups timed.
    pub fn setups(&self) -> usize {
        self.stacks.iter().map(|s| s.setup_s.len()).sum()
    }

    /// ISSUE 13's own estimator of request latency, printed beside the
    /// metric of record: the plain median of all timed request latencies.
    pub fn median_request_ms(&self) -> f64 {
        let pooled: Vec<f64> = self
            .stacks
            .iter()
            .flat_map(|s| s.latency_ms.iter().flatten().copied())
            .collect();
        median(&pooled)
    }

    /// ISSUE 13's own estimator of throughput, printed beside the metric of
    /// record: scenario runs per pass over the median pass duration.
    pub fn median_pass_rps(&self) -> f64 {
        let passes: Vec<f64> = self
            .stacks
            .iter()
            .flat_map(|s| s.pass_ms.iter().copied())
            .collect();
        self.runs_per_pass as f64 / (median(&passes) / 1e3)
    }

    /// Timed requests.
    pub fn requests(&self) -> usize {
        self.stacks
            .iter()
            .map(|s| s.latency_ms.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Timed passes.
    pub fn passes(&self) -> usize {
        self.stacks.iter().map(|s| s.pass_ms.len()).sum()
    }
}

/// Runs one pass, appending to `samples` when timed. Every request is
/// booked on the gate either way: an untimed failure is still a failure.
fn run_pass(client: &mut Client, plan: &Plan, gate: &mut Gate, samples: Option<&mut StackSamples>) {
    let start = Instant::now();
    let mut previous_end = start;
    let mut timings = Vec::with_capacity(plan.pass.len());
    for position in 0..plan.pass.len() {
        let reply = client.wave(&plan.wave(position), gate);
        gate.book(reply.ok);
        let end = Instant::now();
        timings.push((
            reply.latency.as_secs_f64() * 1e3,
            (end - previous_end).as_secs_f64() * 1e3,
        ));
        previous_end = end;
    }
    if let Some(samples) = samples {
        samples.pass_ms.push(ms_since(start));
        for (position, (latency, interval)) in timings.into_iter().enumerate() {
            samples.latency_ms[position].push(latency);
            samples.interval_ms[position].push(interval);
        }
    }
}

/// Sets a stack up [`SETUP_REPEATS`] times, timing each, and returns the last.
fn set_up(workload: Workload, snapshot: &[u8], setup_s: &mut Vec<f64>) -> Stack {
    let mut last: Option<Stack> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            previous.stop();
        }
        let (stack, times) = Stack::build(workload, snapshot, &plain);
        setup_s.push(times.total_s);
        last = Some(stack);
    }
    last.expect("SETUP_REPEATS is at least one")
}

/// The end-to-end run: tracing off, plain substrates, default
/// configuration. Returns the samples and the gate's ledger.
pub fn run_end_to_end(workload: Workload, seed: u64, length: RunLength) -> (Samples, Gate) {
    let Fixture {
        mut gate, snapshot, ..
    } = prime_fixture(workload);
    let plan = Plan::new(workload, seed, &workload.tasks());
    let mut samples = Samples {
        stacks: Vec::new(),
        runs_per_pass: plan.runs_per_pass(),
        peak_rss_mib: 0.0,
    };
    for _ in 0..length.stacks {
        let mut timed = StackSamples::new(plan.pass.len());
        // Cold rebuilds the serving stack for every pass; the others build
        // it once per stack of passes.
        let mut live: Option<(Stack, Client)> = None;
        for _ in 0..length.passes_per_stack {
            if live.is_none() || workload.fresh_stack_per_pass() {
                if let Some((old, _)) = live.take() {
                    old.stop();
                }
                let fresh = set_up(workload, &snapshot, &mut timed.setup_s);
                let mut client = Client::connect(fresh.addr).expect("connect to the front-end");
                for _ in 0..workload.warmup_passes() {
                    run_pass(&mut client, &plan, &mut gate, None);
                }
                live = Some((fresh, client));
            }
            let (_, client) = live.as_mut().expect("built above");
            run_pass(client, &plan, &mut gate, Some(&mut timed));
        }
        if let Some((stack, _)) = live {
            stack.stop();
        }
        samples.stacks.push(timed);
    }
    samples.peak_rss_mib = peak_rss_mib();
    (samples, gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let tasks = workload.tasks();
            let a = Plan::new(workload, 1, &tasks);
            let b = Plan::new(workload, 1, &tasks);
            let c = Plan::new(workload, 2, &tasks);
            assert_eq!(a.pass, b.pass, "{}", workload.name());
            assert_ne!(a.pass, c.pass, "{}", workload.name());
            // Same work at every seed: the multiset of runs is fixed.
            let mut x: Vec<usize> = a.pass.concat();
            let mut y: Vec<usize> = c.pass.concat();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "{}", workload.name());
        }
    }

    /// Three stacks with known samples: per stack the floor per position,
    /// the median over positions and the sum over intervals; then the
    /// median over stacks, so neither the luckiest nor the unluckiest stack
    /// sets a figure.
    #[test]
    fn estimates_are_medians_over_stacks_of_per_stack_floors() {
        let stack = |scale: f64| StackSamples {
            // Three positions, two passes each.
            latency_ms: vec![
                vec![1.0 * scale, 9.0],
                vec![7.0, 2.0 * scale],
                vec![3.0 * scale, 8.0],
            ],
            interval_ms: vec![
                vec![1.5 * scale, 9.5],
                vec![7.5, 2.5 * scale],
                vec![3.5 * scale, 8.5],
            ],
            pass_ms: vec![20.0 * scale, 30.0 * scale],
            setup_s: vec![0.4, 0.3 * scale, 0.9],
        };
        let samples = Samples {
            // A lucky stack, a typical one and one that never went quiet.
            stacks: vec![stack(0.5), stack(1.0), stack(2.0)],
            runs_per_pass: 3,
            peak_rss_mib: 0.0,
        };
        assert_eq!(floor(&[5.0, 3.0, 9.0]), 3.0);
        assert_eq!(quiet_pass_ms(&[vec![5.0, 3.0], vec![2.0, 4.0]]), 5.0);
        // The typical stack: floors 1, 2, 3 → median 2; intervals 1.5 + 2.5 + 3.5.
        assert_eq!(samples.request_p50_ms(), 2.0);
        assert_eq!(samples.throughput_rps(), 3.0 / (7.5 / 1e3));
        assert_eq!(samples.setup_s(), 0.3);
        assert_eq!(
            (samples.requests(), samples.passes(), samples.setups()),
            (18, 6, 9)
        );
        // The issue's estimators see every sample, disturbed or not.
        assert_eq!(samples.median_pass_rps(), 3.0 / (25.0 / 1e3));
        assert!(samples.median_request_ms() > samples.request_p50_ms());
    }

    #[test]
    fn run_lengths_are_constants_scaled_by_seconds_only() {
        assert_eq!(
            Workload::WarmPaper.run_length(30),
            RunLength {
                stacks: STACKS,
                passes_per_stack: 120
            }
        );
        assert_eq!(Workload::WarmPaper.run_length(10).passes_per_stack, 40);
        assert_eq!(Workload::ColdPaper.run_length(30).passes_per_stack, 3);
        assert_eq!(Workload::ColdPaper.run_length(1).passes_per_stack, 1);
        assert_eq!(Workload::ChurnZipf.quick_length().stacks, 1);
    }

    #[test]
    fn workload_shapes_match_the_readme() {
        let paper = paper_tasks();
        assert_eq!(Workload::ColdPaper.scenario_names(&paper).len(), 8);
        assert_eq!(Workload::WarmPaper.scenario_names(&paper).len(), 16);
        let churn = Plan::new(Workload::ChurnZipf, 1, &churn_tasks());
        assert_eq!(churn.names.len(), 12);
        assert_eq!(churn.pass.len(), 12);
        assert_eq!(churn.runs_per_pass(), 48);
        assert!(churn.pass.iter().all(|wave| wave.len() == 4));
        // Both scenarios of every pool are asked for, and every wave holds
        // a run of the hottest pool and both algorithms.
        let runs = churn.pass.concat();
        assert!((0..12).all(|scenario| runs.contains(&scenario)));
        for wave in &churn.pass {
            assert!(wave.iter().any(|&s| s / 2 == 0), "{wave:?}");
            assert!(wave.iter().any(|&s| s % 2 == 0) && wave.iter().any(|&s| s % 2 == 1));
        }
        assert_eq!(
            Plan::new(Workload::ClusterWarm, 5, &paper).pass,
            Plan::new(Workload::WarmPaper, 5, &paper).pass,
            "cluster_warm replays warm_paper's sequence"
        );
        assert_eq!(Workload::parse("churn_zipf"), Some(Workload::ChurnZipf));
        assert_eq!(Workload::parse("open_loop"), None);
    }
}
