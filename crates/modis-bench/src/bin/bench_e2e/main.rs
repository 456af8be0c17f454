//! `bench_e2e` — the repository's benchmark: real skyline requests
//! (`SUBMIT` → `RUN` → `WAIT` → `RESULT`) over loopback TCP against
//! in-process daemons and routers, with a per-layer time budget from a
//! separate traced run. `README.md` beside this file defines every metric
//! and workload; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]
//! bench_e2e --self-check [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run's length is a constant number of passes per workload, so every run
//! does the same work; `--seconds` (default 30, the contract's
//! `run_seconds`) scales that constant and nothing else.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod client;
mod gate;
mod layers;
mod stats;
mod tasks;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use gate::Gate;
use layers::{run_traced, EXACT_COUNTS, PER_LAYER};
use stats::rel_diff;
use workloads::{run_end_to_end, RunLength, Workload};

/// The end-to-end metrics: name, unit, and the share of the parent's median
/// by which a change may worsen the metric before it is a regression.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("request_p50_ms", "ms", 0.25),
    ("throughput_rps", "1/s", 0.25),
];

/// How far Σ `share.*` of a traced run may be from 1 before the run counts
/// as incorrect.
const SHARE_SUM_TOLERANCE: f64 = 0.02;

/// Seconds one run measures unless `--seconds` says otherwise.
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    self_check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        self_check: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace 0|1`; a bare `--trace` means 1.
                out.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            "--self-check" => out.self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(out)
}

/// One run's printable result.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in declaration order.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn new(gate: &Gate, metrics: Vec<(&'static str, &'static str, f64)>) -> Outcome {
        Outcome {
            correct: gate.correct() && metrics.iter().all(|(_, _, v)| v.is_finite()),
            attempted: gate.attempted,
            failed: gate.failed,
            metrics,
        }
    }

    /// The contract's result line.
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest decimal that round-trips: the number
            // as measured, with all its digits.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |m| m.2)
    }
}

fn end_to_end(workload: Workload, seed: u64, length: RunLength) -> Outcome {
    let (samples, gate) = run_end_to_end(workload, seed, length);
    println!(
        "{} seed={seed} requests={} passes={} setups={} references={} \
         median_request_ms={:.4} median_pass_rps={:.4} host.peak_rss_mb={:.2}",
        workload.name(),
        samples.requests(),
        samples.passes(),
        samples.setups(),
        gate.digest(),
        samples.median_request_ms(),
        samples.median_pass_rps(),
        samples.peak_rss_mib,
    );
    let values = [
        samples.setup_s(),
        samples.request_p50_ms(),
        samples.throughput_rps(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (name, unit, value))
        .collect();
    Outcome::new(&gate, metrics)
}

fn traced(workload: Workload, seed: u64) -> Outcome {
    let report = run_traced(workload, seed);
    println!(
        "{} seed={seed} traced passes={} references={}",
        workload.name(),
        workload.fixed_passes(),
        report.gate.digest()
    );
    if let Some((path, count)) = &report.spans {
        println!("{count} spans written to {}", path.display());
    }
    println!("share.* sum={:.4}", report.share_sum);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, report.metrics.get(name).copied().unwrap_or(0.0)))
        .collect();
    let mut outcome = Outcome::new(&report.gate, metrics);
    // A budget that does not add up describes no request.
    outcome.correct &= (report.share_sum - 1.0).abs() <= SHARE_SUM_TOLERANCE;
    outcome
}

fn print_table(outcome: &Outcome) {
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

/// Runs every workload twice, alternating, and checks the benchmark against
/// its own bounds: each end-to-end metric within its bound between the two
/// sets, and every count metric exactly equal between two traced runs.
fn self_check(seed: u64, seconds: u64) -> bool {
    let mut ok = true;
    let sets: Vec<BTreeMap<&str, Outcome>> = (0..2)
        .map(|_| {
            Workload::ALL
                .into_iter()
                .map(|w| (w.name(), end_to_end(w, seed, w.run_length(seconds))))
                .collect()
        })
        .collect();
    println!("\nworkload       metric            first        second       diff   bound");
    for workload in Workload::ALL {
        let (a, b) = (&sets[0][workload.name()], &sets[1][workload.name()]);
        ok &= a.correct && b.correct;
        for &(name, _, bound) in END_TO_END {
            let diff = rel_diff(a.value(name), b.value(name));
            let verdict = if diff <= bound { "ok" } else { "MISSED" };
            ok &= diff <= bound;
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>6.1}% {:>6.1}%  {verdict}",
                workload.name(),
                name,
                a.value(name),
                b.value(name),
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    println!("\nworkload       count metric                     first       second");
    for workload in Workload::ALL {
        let (a, b) = (traced(workload, seed), traced(workload, seed));
        ok &= a.correct && b.correct;
        for name in EXACT_COUNTS {
            let (x, y) = (a.value(name), b.value(name));
            let verdict = if x == y { "ok" } else { "DIFFERS" };
            ok &= x == y;
            println!(
                "{:<14} {:<28} {:>12} {:>12}  {verdict}",
                workload.name(),
                name,
                x,
                y
            );
        }
    }
    println!("\nself-check {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_e2e: {err}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return if self_check(args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = args.workload.as_deref().and_then(Workload::parse) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!("bench_e2e: --workload expects one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        traced(workload, args.seed)
    } else if args.quick {
        end_to_end(workload, args.seed, workload.quick_length())
    } else {
        end_to_end(workload, args.seed, workload.run_length(args.seconds))
    };
    print_table(&outcome);
    println!("{}", outcome.json());
    // The result line is printed either way: the exit code says a run
    // happened, `correct` says whether its answers were right.
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "warm_paper",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("warm_paper"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12, false));
        assert!(parse_args(&strings(&["--trace", "1"])).unwrap().trace);
        let bare = parse_args(&strings(&["--trace", "--quick"])).unwrap();
        assert!(bare.trace && bare.quick);
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut gate = gate::tests::gate_with("a", "entries=1");
        gate.book(true);
        let line = Outcome::new(
            &gate,
            vec![("setup_s", "s", 0.8127), ("latency_ms", "ms", 1.25)],
        )
        .json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        gate.book(false);
        let failed = Outcome::new(&gate, Vec::new());
        assert!(!failed.correct);
        assert_eq!((failed.attempted, failed.failed), (2, 1));
    }

    /// `BENCHMARK.json` is the contract the driver reads; the constants in
    /// this directory are what the binary prints. They must not drift.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let contract = include_str!("../../../../../BENCHMARK.json");
        for workload in Workload::ALL {
            assert!(
                contract.contains(&format!("\"name\": \"{}\"", workload.name())),
                "workload {} missing from BENCHMARK.json",
                workload.name()
            );
        }
        for (name, unit, bound) in END_TO_END {
            let better = if *name == "throughput_rps" {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(contract.contains(&entry), "{entry} missing");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(contract.contains(&entry), "{entry}… missing");
        }
        let declared = contract.matches("\"better\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        assert!(contract.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    /// The stand-alone package and the auto-discovered bin of `modis-bench`
    /// must measure the same build: the package's release profile is the
    /// repository's.
    #[test]
    fn the_package_builds_with_the_repositorys_release_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let repository = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!repository.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), repository);
    }

    /// The smallest whole run: one stack, fixed passes, real daemon, real
    /// sockets, every skyline checked against its reference.
    #[test]
    fn quick_warm_paper_completes_and_is_correct() {
        let outcome = end_to_end(Workload::WarmPaper, 1, Workload::WarmPaper.quick_length());
        assert!(outcome.correct);
        assert_eq!(outcome.failed, 0);
        let passes =
            (Workload::WarmPaper.warmup_passes() + Workload::WarmPaper.fixed_passes()) as u64;
        assert_eq!(outcome.attempted, passes * 16);
        for (name, _, value) in &outcome.metrics {
            assert!(*value > 0.0, "{name} = {value}");
        }
        assert!(outcome.json().starts_with("{\"correct\": true, "));
    }
}
