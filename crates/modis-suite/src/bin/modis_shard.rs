//! A standalone shard daemon process for cluster tests and demos.
//!
//! Registers the T3 cluster suite (`modis_bench::register_t3_cluster`) for
//! the given pool seeds, optionally warm-starts from a snapshot, binds a
//! reactor daemon on an ephemeral port, prints `ADDR <socketaddr>` on
//! stdout, and serves until its stdin reaches EOF (or the process is
//! killed — the fault the cluster integration tests inject).
//!
//! ```text
//! modis_shard --seeds 5,9 [--max-states 14] [--snapshot /path/to.snap]
//! ```
//!
//! Every shard registers the *full* scenario set: placement is the
//! router's job (rendezvous over namespaces), and registration is
//! idempotent warmth-wise — it costs a substrate build, not a search.
//!
//! Each shard serves its own `METRICS` / `TRACE DUMP` exposition (see
//! `docs/OBSERVABILITY.md`); a fronting router merges those into one
//! cluster-wide scrape with `shard="…"` labels.
//!
//! A shard needs no replication configuration of its own: the router's
//! K-way placement drives everything through the ordinary wire protocol.
//! `PING` answers the router's heartbeat probes, `EXPORT` serializes
//! namespaces into a namespace snapshot on a primary, and `SHIP` merges
//! one pushed to a replica — so any shard can be promoted to serve a dead
//! primary's namespaces from its warm replica cache.

use std::io::Read;
use std::sync::Arc;

use modis_bench::register_t3_cluster;
use modis_service::{Daemon, Service, ServiceConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seeds: Vec<u64> = flag_value("--seeds")
        .unwrap_or_else(|| "5,9".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("--seeds takes u64s"))
        .collect();
    let max_states: usize = flag_value("--max-states")
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);

    let service = match flag_value("--snapshot") {
        Some(path) => Arc::new(
            Service::from_snapshot(ServiceConfig::default(), std::path::Path::new(&path))
                .expect("warm-start from --snapshot"),
        ),
        None => Arc::new(Service::new(ServiceConfig::default())),
    };
    register_t3_cluster(&service, &seeds, max_states);

    // The daemon's executor thread is the single drain path (`RUN`-driven).
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind shard daemon");
    // The parent parses this line to learn the ephemeral port.
    println!("ADDR {}", daemon.addr());

    // Serve until the parent closes our stdin (or kills us outright).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    daemon.stop();
}
