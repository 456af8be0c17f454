//! The sharded cluster, end to end:
//!
//! 1. boot a 2-shard cluster (two full services, each with its own engine
//!    and cache, behind their own reactors) fronted by a router,
//! 2. drive a pipelined suite through the router — placement by
//!    rendezvous hashing is invisible to the client,
//! 3. print per-shard (`SHARDS`) and aggregated cluster (`STATS`)
//!    telemetry, then scrape the cluster-wide `METRICS` exposition (every
//!    shard's instruments behind one scrape, labeled `shard="…"`) and the
//!    merged `TRACE DUMP` spans,
//! 4. submit two scenarios owned by different shards on one connection and
//!    `EXPLAIN` the first ticket — the router stitches its own forward
//!    spans and both shards' queue-wait/engine spans into one
//!    wall-clock-ordered timeline under a single trace id,
//! 5. grow the cluster: a third shard joins, the namespaces it now owns
//!    are shipped as namespace snapshots (`EXPORT` → `SHIP`, no files),
//!    and its **first** request is answered entirely from the shipped
//!    warm cache (zero paid valuations).
//!
//! Run with `cargo run --release --example cluster_demo`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use modis_bench::{drive_suite, ClusterWorkload};

fn main() {
    let workload = ClusterWorkload {
        namespaces: 3,
        rows: 400,
        max_states: 12,
    };
    let cluster = workload.build_cluster(2);
    println!(
        "router on {} fronting {} shards",
        cluster.router.addr(),
        cluster.shards.len()
    );
    for i in 0..workload.namespaces {
        let namespace = workload.namespace(i);
        println!(
            "  namespace {namespace} -> {}",
            cluster.router.owner_of(&namespace).expect("owned")
        );
    }

    // ── Suite through the router (pipelined SUBMITs + RUN, WAIT, RESULT) ──
    let names = workload.scenario_names();
    let outcomes = drive_suite(cluster.router.addr(), &names);
    println!("\n{:<10} DONE payload", "scenario");
    for outcome in &outcomes {
        println!("{:<10} {}", outcome.scenario, outcome.done);
    }

    // ── Telemetry: per shard, then the cluster-wide aggregate ─────────────
    let stream = TcpStream::connect(cluster.router.addr()).expect("connect router");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut recv = move || -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        line.trim_end().to_string()
    };
    writeln!(writer, "SHARDS").expect("send SHARDS");
    let header = recv();
    println!("\n{header}");
    let count: usize = header.strip_prefix("SHARDS ").unwrap().parse().unwrap();
    for _ in 0..count {
        println!("{}", recv());
    }
    writeln!(writer, "STATS").expect("send STATS");
    let stats = recv();
    println!("{stats}");
    assert!(
        stats.contains("cluster_shards=2"),
        "aggregate line: {stats}"
    );

    // ── Cluster-wide METRICS scrape: one scrape sees every shard ──────────
    writeln!(writer, "METRICS").expect("send METRICS");
    let header = recv();
    let count: usize = header
        .strip_prefix("METRICS ")
        .expect("METRICS header")
        .parse()
        .expect("line count");
    let lines: Vec<String> = (0..count).map(|_| recv()).collect();
    let paid: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("engine_paid_valuations_total{"))
        .collect();
    println!("\nMETRICS scrape: {count} lines; paid-valuation counters:");
    for line in &paid {
        println!("  {line}");
    }
    if let Some(bucket) = lines
        .iter()
        .find(|l| l.starts_with("reactor_request_us_bucket{shard=\""))
    {
        println!("  sample per-shard histogram line: {bucket}");
    }
    assert!(
        lines.iter().any(|l| l.contains("_bucket{shard=\"")),
        "no per-shard-labeled histogram lines in the scrape"
    );
    assert!(
        paid.iter().any(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .is_some_and(|v| v > 0)
        }),
        "no shard reported paid valuations: {paid:?}"
    );
    // The skyline scan ran inside every shard's scenario runs; the merged
    // scrape must show its comparisons somewhere.
    let comparisons: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("dominance_comparisons_total{"))
        .collect();
    println!("  dominance comparison counters:");
    for line in &comparisons {
        println!("  {line}");
    }
    assert!(
        comparisons.iter().any(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .is_some_and(|v| v > 0)
        }),
        "no shard reported dominance comparisons: {comparisons:?}"
    );

    // ── Merged trace dump: the newest spans across the cluster ────────────
    writeln!(writer, "TRACE DUMP 4").expect("send TRACE DUMP");
    let header = recv();
    let spans: usize = header
        .strip_prefix("SPANS ")
        .expect("SPANS header")
        .parse()
        .expect("span count");
    println!("\nTRACE DUMP (up to 4 spans per shard):");
    for _ in 0..spans {
        println!("  {}", recv());
    }

    // ── EXPLAIN: one distributed trace, stitched across the cluster ───────
    // Two scenarios on differently-owned namespaces, submitted on this same
    // connection, ride one trace; EXPLAIN merges the router's forward spans
    // with both shards' queue-wait and engine spans into one wall-clock
    // timeline.
    let owners: Vec<String> = (0..workload.namespaces)
        .map(|i| {
            cluster
                .router
                .owner_of(&workload.namespace(i))
                .expect("owned")
        })
        .collect();
    let pool_of = |name: &str| -> usize { name[2..name.find('/').unwrap()].parse().unwrap() };
    let (first, second) = names
        .iter()
        .flat_map(|a| names.iter().map(move |b| (a, b)))
        .find(|(a, b)| owners[pool_of(a)] != owners[pool_of(b)])
        .expect("two scenarios on differently-owned namespaces");
    writeln!(writer, "SUBMIT {first}").expect("send SUBMIT");
    let reply = recv();
    let ticket: u64 = reply
        .strip_prefix("TICKET ")
        .expect("TICKET reply")
        .parse()
        .expect("ticket id");
    writeln!(writer, "SUBMIT {second}").expect("send SUBMIT");
    let reply = recv();
    let partner: u64 = reply
        .strip_prefix("TICKET ")
        .expect("TICKET reply")
        .parse()
        .expect("ticket id");
    writeln!(writer, "RUN").expect("send RUN");
    assert!(recv().starts_with("OK "), "RUN reply");
    writeln!(writer, "WAIT {ticket} {partner}").expect("send WAIT");
    for _ in 0..2 {
        assert!(recv().starts_with("DONE "), "WAIT reply");
    }
    writeln!(writer, "EXPLAIN {ticket}").expect("send EXPLAIN");
    let header = recv();
    let events: usize = header
        .strip_prefix("TIMELINE ")
        .expect("TIMELINE header")
        .parse()
        .expect("event count");
    println!("\nEXPLAIN {ticket} — stitched timeline, {events} events:");
    let mut shards_seen = std::collections::HashSet::new();
    for _ in 0..events {
        let line = recv();
        if let Some(shard) = line.rsplit(" shard=").next() {
            shards_seen.insert(shard.to_string());
        }
        println!("  {line}");
    }
    assert!(
        shards_seen.len() >= 3,
        "expected router + 2 shards in the timeline: {shards_seen:?}"
    );

    // ── Grow the cluster: join a shard, ship its namespaces' caches ───────
    // Pick a joiner name that rendezvous-owns at least one namespace
    // (ownership is a pure function of the name set, so we can plan it).
    let current = cluster.router.shard_map();
    let joiner = (2..100)
        .map(|i| format!("shard{i}"))
        .find(|candidate| {
            let mut with = current.clone();
            with.add(candidate.clone());
            (0..workload.namespaces).any(|i| {
                with.owner_of_namespace(&workload.namespace(i)) == Some(candidate.as_str())
            })
        })
        .expect("a candidate that owns something");
    let new_shard = workload.spawn_shard(&joiner);
    let shipped = cluster
        .router
        .join_shard(&joiner, new_shard.daemon.addr())
        .expect("join ships and commits");
    println!("\n{joiner} joined; shipped warm caches:");
    for shipment in &shipped {
        println!(
            "  {} : {} -> {}",
            shipment.namespace, shipment.from, shipment.to
        );
    }

    // First request on the grown cluster for a moved namespace: answered
    // from the shipped snapshot — zero paid valuation cost.
    let moved = &shipped.first().expect("something moved").namespace;
    let scenario = names
        .iter()
        .find(|n| {
            let pool: usize = n[2..n.find('/').unwrap()].parse().unwrap();
            &workload.namespace(pool) == moved
        })
        .expect("a scenario on the moved namespace");
    let rerun = drive_suite(cluster.router.addr(), std::slice::from_ref(scenario));
    let done = &rerun[0].done;
    println!("\nfirst request on {joiner} ({scenario}): {done}");
    assert!(
        done.contains(" cost=0 "),
        "the joined shard paid for valuations: {done}"
    );
    writeln!(writer, "STATS").expect("send STATS");
    let stats = recv();
    println!("cluster after join: {stats}");
    assert!(stats.contains("cluster_shards=3"), "{stats}");

    let _ = writeln!(writer, "QUIT");
    cluster.stop();
    new_shard.daemon.stop();
}
