//! The persistent skyline service, driven end-to-end as a daemon:
//!
//! 1. register scenarios over two tabular pools,
//! 2. start the daemon (one reactor thread, one executor thread),
//! 3. **pipeline** a burst of SUBMITs on one connection, then WAIT, and
//!    `RUN` on a second connection — completions stream back to the first
//!    progressively as the executor finishes them,
//! 4. drive STATS / SNAPSHOT over the same socket,
//! 5. restart a fresh service from the snapshot and show its first run
//!    answering from the warm cache.
//!
//! Run with `cargo run --release --example service_daemon`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use modis_bench::{task_t1, task_t3};
use modis_core::prelude::*;
use modis_core::substrate::Substrate;
use modis_engine::{Algorithm, Scenario};
use modis_service::{Daemon, JobState, Service, ServiceConfig, Ticket};

fn register_scenarios(service: &Service) {
    let t1: Arc<dyn Substrate> = Arc::new(task_t1(21).substrate());
    let t3: Arc<dyn Substrate> = Arc::new(task_t3(5).substrate());
    let fast = ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(25)
        .with_max_level(3)
        .with_estimator(EstimatorMode::Oracle);
    // Scenarios over one pool share a cache namespace: the first to run
    // warms the cache, and the rest answer from it.
    let scenarios = vec![
        Scenario::new("t1/apx", t1.clone(), Algorithm::Apx, fast.clone())
            .with_cache_namespace("t1-pool"),
        Scenario::new("t1/bi", t1, Algorithm::Bi, fast.clone()).with_cache_namespace("t1-pool"),
        Scenario::new("t3/apx", t3.clone(), Algorithm::Apx, fast.clone())
            .with_cache_namespace("t3-pool"),
        Scenario::new(
            "t3/div",
            t3,
            Algorithm::Div,
            fast.with_diversification(4, 0.5),
        )
        .with_cache_namespace("t3-pool"),
    ];
    for scenario in scenarios {
        service.register(scenario).expect("register scenario");
    }
}

fn main() {
    let snapshot_path =
        std::env::temp_dir().join(format!("modis_service_daemon_{}.snap", std::process::id()));

    // ── Process 1: cold service behind a TCP daemon ────────────────────
    let service = Arc::new(Service::new(ServiceConfig::default()));
    register_scenarios(&service);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind daemon");
    println!("daemon listening on {}", daemon.addr());

    // A plain TCP client drives the protocol.
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut recv = move || -> String {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    };

    // Pipelining: the LIST and all four SUBMITs go out in one burst —
    // no waiting between requests — and the reactor answers them in order.
    let names = ["t1/apx", "t1/bi", "t3/apx", "t3/div"];
    let mut burst = String::from("LIST\n");
    for name in &names {
        burst.push_str(&format!("SUBMIT {name}\n"));
    }
    writer.write_all(burst.as_bytes()).expect("send burst");
    println!("> LIST + 4×SUBMIT (one pipelined burst)");
    println!("< {}", recv());
    let mut tickets = Vec::new();
    for name in &names {
        let reply = recv();
        println!("< {reply}  ({name})");
        let id: u64 = reply
            .strip_prefix("TICKET ")
            .expect("ticket")
            .parse()
            .unwrap();
        tickets.push((name, id));
    }

    // WAIT subscribes to all four jobs; a RUN on a second connection
    // drains the queue on the executor, and each DONE line streams back
    // the moment that run finishes (completion order — no polling, no
    // sleeps).
    let ids: Vec<String> = tickets.iter().map(|(_, id)| id.to_string()).collect();
    writeln!(writer, "WAIT {}", ids.join(" ")).expect("send wait");
    println!("> WAIT {}", ids.join(" "));
    let mut runner = TcpStream::connect(daemon.addr()).expect("connect runner");
    runner.write_all(b"RUN\n").expect("send run");
    let mut drained = String::new();
    BufReader::new(&runner)
        .read_line(&mut drained)
        .expect("recv run");
    println!("> RUN (second connection)\n< {}", drained.trim_end());
    for _ in &tickets {
        println!("< {}", recv());
    }

    writeln!(writer, "STATS").expect("send stats");
    println!("> STATS\n< {}", recv());
    let mut ask = move |line: &str| -> String {
        writeln!(writer, "{line}").expect("send");
        recv()
    };

    let reply = ask(&format!("SNAPSHOT {}", snapshot_path.display()));
    println!("> SNAPSHOT …\n< {reply}");
    assert!(reply.starts_with("OK "), "snapshot failed: {reply}");
    println!("> QUIT\n< {}", ask("QUIT"));

    daemon.stop();

    // ── Process 2: a fresh service warm-started from the snapshot ──────
    println!("\nrestarting from {} …", snapshot_path.display());
    let revived =
        Service::from_snapshot(ServiceConfig::default(), &snapshot_path).expect("warm start");
    register_scenarios(&revived);
    let tickets: Vec<Ticket> = revived
        .submit_many(["t1/apx", "t1/bi", "t3/apx", "t3/div"])
        .expect("submit suite");
    revived.run_pending();

    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>12}",
        "scenario", "skyline", "states", "oracle", "shared-hits"
    );
    let mut total_shared = 0;
    for ticket in tickets {
        let JobState::Done(outcome) = revived.poll(ticket).expect("poll") else {
            panic!("run not finished");
        };
        total_shared += outcome.shared_hits();
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>12}",
            outcome.name,
            outcome.result.len(),
            outcome.result.states_valuated,
            outcome.result.stats.oracle_calls,
            outcome.shared_hits(),
        );
    }
    let stats = revived.cache_stats();
    println!(
        "\nwarm restart: {} shared hits on the first wave — cache {} entries, {:.0}% hit rate",
        total_shared,
        stats.entries,
        100.0 * stats.hit_rate(),
    );
    assert!(
        total_shared > 0,
        "a restarted service must answer from the snapshot"
    );
    let _ = std::fs::remove_file(&snapshot_path);
}
