//! Integration tests of the cluster layer: a 2-shard cluster is
//! indistinguishable from (and byte-identical to) the single-process
//! engine, rendezvous rebalancing moves exactly the affected namespaces
//! and ships their warm caches, and a shard process killed mid-suite is
//! revived from its last snapshot without perturbing a single result
//! byte.
//!
//! Byte identity is asserted through the `RESULT` wire encoding, which
//! carries every float as its IEEE-754 bit pattern: two skylines are
//! byte-identical iff their `RESULT` payloads are string-equal.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use modis_bench::{
    drive_suite, fetch_stats, register_t3_cluster, t3_cluster_namespace, t3_cluster_scenarios,
    t3_cluster_spec, ClusterHarness, ClusterWorkload,
};
use modis_core::config::ModisConfig;
use modis_core::estimator::EstimatorMode;
use modis_core::substrate::mock::MockSubstrate;
use modis_core::substrate::Substrate;
use modis_engine::{Algorithm, Scenario, SharedEvalCache};
use modis_service::{
    result_line, CircuitState, ClusterSpec, Daemon, JobState, Router, RouterConfig, Service,
    ServiceConfig, ServiceError, ShardMap, MAX_PIPELINED,
};

static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "modis_cluster_it_{}_{}_{}",
        tag,
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs `scenarios` on an in-process service and returns each scenario's
/// `RESULT` payload (after the ticket id) — the same bytes the wire
/// protocol would serve.
fn run_in_process(service: &Service, scenarios: &[String]) -> Vec<String> {
    let tickets: Vec<_> = scenarios
        .iter()
        .map(|name| service.submit(name).expect("submit"))
        .collect();
    service.run_pending();
    scenarios
        .iter()
        .zip(&tickets)
        .map(|(name, &ticket)| {
            let JobState::Done(outcome) = service.poll(ticket).expect("poll") else {
                panic!("{name} did not finish");
            };
            let line = result_line(ticket.0, &outcome);
            line.split_once(' ')
                .and_then(|(_, rest)| rest.split_once(' '))
                .map(|(_, payload)| payload.to_string())
                .unwrap_or_default()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rendezvous-hash stability (property test)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adding a shard reassigns only namespaces the new shard now owns;
    /// removing one reassigns only namespaces it owned. No unrelated
    /// namespace ever moves — the invariant that lets a topology change
    /// ship exactly the affected snapshot slices.
    #[test]
    fn rendezvous_moves_only_the_joining_or_leaving_shards_namespaces(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        shard_count in 1usize..8,
        victim_pick in 0usize..8,
    ) {
        let names: Vec<String> = (0..shard_count).map(|i| format!("s{i}")).collect();
        let before = ShardMap::from_names(names.clone());

        // Join: everything that moves, moves to the joiner.
        let mut joined = before.clone();
        joined.add("joiner".to_string());
        for mv in before.reassigned_replicas(&joined, keys.iter().copied(), 1) {
            prop_assert_eq!(&mv.gained, &vec!["joiner".to_string()], "key {:#x} moved to an unrelated shard", mv.key);
        }
        // Ownership of unmoved keys is untouched even by name: re-check
        // against an independently rebuilt map (pure function of the set).
        let rebuilt = ShardMap::from_names(
            names.iter().cloned().chain(["joiner".to_string()]),
        );
        for &key in &keys {
            prop_assert_eq!(joined.owner_of(key), rebuilt.owner_of(key));
        }

        // Leave: everything that moves, moves off the victim.
        if shard_count > 1 {
            let victim = names[victim_pick % shard_count].clone();
            let mut left = before.clone();
            left.remove(&victim);
            for mv in before.reassigned_replicas(&left, keys.iter().copied(), 1) {
                prop_assert_eq!(&mv.lost, &vec![victim.clone()], "key {:#x} moved off a survivor", mv.key);
            }
            // Join-then-leave of the same shard is a perfect round trip.
            let mut back = joined.clone();
            back.remove("joiner");
            for &key in &keys {
                prop_assert_eq!(back.owner_of(key), before.owner_of(key));
            }
        }
    }

    /// The K-way generalisation: replica sets are always `min(K, shards)`
    /// *distinct* shards, and a topology change moves replica sets
    /// minimally — a join gains only the joiner (displacing at most one
    /// rank) with a warm surviving source to ship from; a leave loses only
    /// the leaver, promoting at most one stand-in.
    #[test]
    fn top_k_owner_sets_stay_distinct_and_move_minimally(
        keys in prop::collection::vec(any::<u64>(), 1..150),
        shard_count in 1usize..8,
        k in 1usize..4,
    ) {
        let names: Vec<String> = (0..shard_count).map(|i| format!("s{i}")).collect();
        let before = ShardMap::from_names(names.clone());
        for &key in &keys {
            let owners = before.owners_of(key, k);
            prop_assert_eq!(owners.len(), k.min(shard_count), "min(K, shards) owners");
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), owners.len(), "owners are distinct");
            prop_assert_eq!(owners.first().copied(), before.owner_of(key), "rank 0 is the primary");
        }

        // Join: every changed replica set gains exactly the joiner.
        let mut joined = before.clone();
        joined.add("joiner".to_string());
        for mv in before.reassigned_replicas(&joined, keys.iter().copied(), k) {
            prop_assert_eq!(&mv.gained, &vec!["joiner".to_string()], "only the joiner gains");
            prop_assert!(mv.lost.len() <= 1, "at most the displaced rank leaves");
            let source = mv.source.clone().expect("warm source");
            prop_assert!(names.contains(&source), "the source survives the join");
        }

        // Leave: every changed replica set loses exactly the leaver.
        if shard_count > 1 {
            let victim = names[0].clone();
            let mut left = before.clone();
            left.remove(&victim);
            for mv in before.reassigned_replicas(&left, keys.iter().copied(), k) {
                prop_assert_eq!(&mv.lost, &vec![victim.clone()], "only the leaver loses");
                prop_assert!(mv.gained.len() <= 1, "at most one stand-in is promoted");
                prop_assert!(mv.source.is_some());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cold byte-identity on a fully deterministic workload
// ---------------------------------------------------------------------------

fn mock_spec() -> ClusterSpec {
    ClusterSpec::new([
        ("m8/apx", "m8-pool"),
        ("m8/bi", "m8-pool"),
        ("m10/apx", "m10-pool"),
        ("m10/bi", "m10-pool"),
    ])
    .unwrap()
}

fn register_mock_cluster(service: &Service) {
    let config = ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(60)
        .with_max_level(4)
        .with_estimator(EstimatorMode::Oracle);
    for (units, tag) in [(8usize, "m8"), (10, "m10")] {
        let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(units));
        for (suffix, algorithm) in [("apx", Algorithm::Apx), ("bi", Algorithm::Bi)] {
            service
                .register(
                    Scenario::new(
                        format!("{tag}/{suffix}"),
                        substrate.clone(),
                        algorithm,
                        config.clone(),
                    )
                    .with_cache_namespace(format!("{tag}-pool")),
                )
                .unwrap();
        }
    }
}

/// A cold 2-shard cluster and a cold single process produce byte-identical
/// skylines on a fully deterministic workload: sharding and routing do not
/// perturb a single result byte.
#[test]
fn cold_two_shard_cluster_matches_the_single_process_engine() {
    let scenarios: Vec<String> = ["m8/apx", "m8/bi", "m10/apx", "m10/bi"]
        .map(str::to_string)
        .to_vec();

    let reference = Service::new(ServiceConfig::default());
    register_mock_cluster(&reference);
    let expected = run_in_process(&reference, &scenarios);

    let shards: Vec<(Arc<Service>, Daemon)> = (0..2)
        .map(|_| {
            let service = Arc::new(Service::new(ServiceConfig::default()));
            register_mock_cluster(&service);
            let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
            (service, daemon)
        })
        .collect();
    let router = Router::bind(
        mock_spec(),
        vec![
            ("shard0".to_string(), shards[0].1.addr()),
            ("shard1".to_string(), shards[1].1.addr()),
        ],
        "127.0.0.1:0",
    )
    .unwrap();

    let outcomes = drive_suite(router.addr(), &scenarios);
    for (outcome, expected) in outcomes.iter().zip(&expected) {
        assert_eq!(
            &outcome.result, expected,
            "{}: cluster vs single-process skyline bytes",
            outcome.scenario
        );
    }
    // The cluster aggregate sees both shards.
    let stats = fetch_stats(router.addr());
    assert!(stats.contains("cluster_shards=2"), "{stats}");

    router.stop();
    for (_, daemon) in shards {
        daemon.stop();
    }
}

// ---------------------------------------------------------------------------
// Router protocol semantics
// ---------------------------------------------------------------------------

fn recv(reader: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    assert!(reply.ends_with('\n'), "truncated reply {reply:?}");
    reply.trim_end().to_string()
}

/// LIST/SHARDS/error-path semantics of the router, plus the `SNAPSHOT`
/// fan-out writing one file per shard. Requests are pipelined in bursts —
/// exercising that the router preserves ordering end-to-end.
#[test]
fn router_serves_cluster_verbs_and_error_paths() {
    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 100,
        max_states: 5,
    };
    let cluster = workload.build_cluster(2);

    let stream = TcpStream::connect(cluster.router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // One pipelined burst covering local verbs and every error path; the
    // responses must come back strictly in request order.
    writer
        .write_all(
            b"PING\nLIST\nSHARDS\nSUBMIT ghost\nPOLL 999\nRESULT 999\nPOLL abc\nWAIT\n\
              NONSENSE\nWAIT 41 42\nPING\n",
        )
        .unwrap();
    assert_eq!(recv(&mut reader), "PONG");
    assert_eq!(recv(&mut reader), "SCENARIOS ws0/apx ws0/bi ws1/apx ws1/bi");
    assert_eq!(recv(&mut reader), "SHARDS 2");
    for _ in 0..2 {
        let line = recv(&mut reader);
        assert!(line.starts_with("SHARD shard"), "{line}");
        assert!(line.contains("namespaces="), "{line}");
    }
    assert!(recv(&mut reader).starts_with("ERR unknown scenario"));
    assert_eq!(recv(&mut reader), "ERR unknown ticket 999");
    assert_eq!(recv(&mut reader), "ERR unknown ticket 999");
    assert!(recv(&mut reader).starts_with("ERR POLL expects"));
    assert!(recv(&mut reader).starts_with("ERR WAIT expects"));
    assert!(recv(&mut reader).starts_with("ERR unknown command"));
    // A WAIT over only unknown tickets answers one error line per ticket
    // — and holds its pipeline position: the trailing PONG comes after.
    assert_eq!(recv(&mut reader), "ERR unknown ticket 41");
    assert_eq!(recv(&mut reader), "ERR unknown ticket 42");
    assert_eq!(recv(&mut reader), "PONG");

    // SNAPSHOT fans out to per-shard files.
    let base = temp_path("fanout");
    writeln!(writer, "SNAPSHOT {}", base.display()).unwrap();
    let reply = recv(&mut reader);
    assert!(reply.starts_with("OK "), "{reply}");
    for shard in ["shard0", "shard1"] {
        let path = PathBuf::from(format!("{}.{shard}", base.display()));
        assert!(path.exists(), "missing per-shard snapshot {path:?}");
        std::fs::remove_file(path).unwrap();
    }
    writeln!(writer, "QUIT").unwrap();
    assert_eq!(recv(&mut reader), "BYE");
    cluster.stop();
}

/// A `SHIP` frame sent to the **router** is a shard-level request in the
/// wrong place: one error line, the declared payload counted and dropped
/// (never routed as requests, never buffered), the connection in sync.
#[test]
fn router_drops_a_ship_frame_and_stays_in_sync() {
    let workload = ClusterWorkload {
        namespaces: 1,
        rows: 100,
        max_states: 5,
    };
    let cluster = workload.build_cluster(2);
    let stream = TcpStream::connect(cluster.router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A payload made of valid request lines, split mid-line by the frame
    // boundary, then a real request behind it.
    let payload = b"LIST\n".repeat(40_000);
    let mut burst = format!("SHIP ws0 {}\n", payload.len() - 2).into_bytes();
    burst.extend_from_slice(&payload[..payload.len() - 2]);
    burst.extend_from_slice(b"PING\nSHIP ws0 0\nSHIP ws0\nPING\n");
    writer.write_all(&burst).unwrap();
    assert_eq!(recv(&mut reader), "ERR SHIP is a shard-level verb");
    assert_eq!(recv(&mut reader), "PONG", "no payload line was routed");
    assert_eq!(recv(&mut reader), "ERR SHIP is a shard-level verb");
    assert_eq!(
        recv(&mut reader),
        "ERR SHIP expects one or more namespaces then a byte length"
    );
    assert_eq!(recv(&mut reader), "PONG");
    cluster.stop();
}

/// `METRICS` through the router merges every shard's exposition behind
/// one scrape — samples relabeled `shard="…"`, `# HELP`/`# TYPE` comments
/// deduplicated, the router's own families at the head — and `TRACE DUMP`
/// merges per-shard span dumps with a `shard=` suffix. Both hold their
/// pipeline position like any other verb.
#[test]
fn router_merges_cluster_metrics_and_trace_dumps() {
    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 100,
        max_states: 5,
    };
    let cluster = workload.build_cluster(2);
    let names = workload.scenario_names();
    let _ = drive_suite(cluster.router.addr(), &names);

    let stream = TcpStream::connect(cluster.router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    writeln!(writer, "METRICS").unwrap();
    let header = recv(&mut reader);
    let count: usize = header
        .strip_prefix("METRICS ")
        .unwrap_or_else(|| panic!("bad METRICS header {header:?}"))
        .parse()
        .expect("numeric line count");
    let lines: Vec<String> = (0..count).map(|_| recv(&mut reader)).collect();

    // The router's own families lead the exposition, unrelabeled.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("router_ticket_remaps_total ")),
        "router-own counter missing from the merged scrape"
    );
    // Every shard's reactor counters appear under its own shard label
    // (the router injects `shard=` as the first label).
    for shard in ["shard0", "shard1"] {
        let want = format!("reactor_requests_total{{shard=\"{shard}\",verb=\"run\"}}");
        assert!(
            lines.iter().any(|l| l.starts_with(&want)),
            "no {want} line in the merged scrape"
        );
    }
    // Histogram series are shard-labeled too (the CI smoke greps this).
    assert!(
        lines.iter().any(|l| l.contains("_bucket{shard=\"")),
        "no shard-labeled histogram bucket lines"
    );
    // `# HELP`/`# TYPE` comments repeat per shard on the wire but must be
    // deduplicated in the merge.
    let mut comment_counts: std::collections::HashMap<&str, usize> =
        std::collections::HashMap::new();
    for line in lines.iter().filter(|l| l.starts_with('#')) {
        *comment_counts.entry(line.as_str()).or_insert(0) += 1;
    }
    assert!(
        comment_counts.values().all(|&c| c == 1),
        "duplicated comment lines survived the merge"
    );
    // The suite paid for valuations somewhere in the cluster, and the
    // merged scrape sees it.
    let paid: u64 = lines
        .iter()
        .filter(|l| l.starts_with("engine_paid_valuations_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(paid > 0, "no paid valuations visible cluster-wide");

    writeln!(writer, "TRACE DUMP 8").unwrap();
    let header = recv(&mut reader);
    let spans: usize = header
        .strip_prefix("SPANS ")
        .unwrap_or_else(|| panic!("bad TRACE DUMP header {header:?}"))
        .parse()
        .expect("numeric span count");
    assert!(
        spans > 0 && spans <= 16,
        "expected 1..=8 spans per shard, got {spans}"
    );
    let mut shards_seen = std::collections::HashSet::new();
    for _ in 0..spans {
        let line = recv(&mut reader);
        assert!(line.starts_with("SPAN id="), "{line}");
        let shard = line
            .rsplit(' ')
            .next()
            .and_then(|t| t.strip_prefix("shard="))
            .unwrap_or_else(|| panic!("no shard= suffix on {line:?}"));
        shards_seen.insert(shard.to_string());
    }
    assert_eq!(
        shards_seen.len(),
        2,
        "spans from both shards: {shards_seen:?}"
    );

    // Error path + pipeline position.
    writer.write_all(b"TRACE DUMP nope\nPING\nQUIT\n").unwrap();
    assert_eq!(
        recv(&mut reader),
        "ERR TRACE DUMP expects a numeric span count"
    );
    assert_eq!(recv(&mut reader), "PONG");
    assert_eq!(recv(&mut reader), "BYE");
    cluster.stop();
}

/// The metric catalog of `docs/OBSERVABILITY.md` is live, both ways: a
/// suite with one surrogate-mode scenario (the two surrogate families
/// register on the first refit and the first memo hit), driven through a
/// router over two shards, makes every documented family appear in the
/// merged scrape, and the scrape holds no family the catalog has no row
/// for.
#[test]
fn metric_catalog_and_cluster_scrape_name_the_same_families() {
    use std::collections::BTreeSet;

    let docs = include_str!("../docs/OBSERVABILITY.md");
    let catalog = docs
        .split_once("\n## Metric catalog\n")
        .and_then(|(_, rest)| rest.split_once("\n## "))
        .expect("a `## Metric catalog` section followed by another")
        .0;
    let documented: BTreeSet<&str> = catalog
        .lines()
        .filter_map(|l| {
            l.strip_prefix("| `")?
                .split_once("` | ")
                .map(|(name, _)| name)
        })
        .collect();

    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 100,
        max_states: 5,
    };
    let surrogate = ModisConfig::default()
        .with_max_states(40)
        .with_max_level(4)
        .with_estimator(EstimatorMode::Surrogate {
            warmup: 8,
            refresh: 8,
        });
    let shards: Vec<_> = ["shard0", "shard1"]
        .iter()
        .map(|name| {
            let shard = workload.spawn_shard(name);
            let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
            shard
                .service
                .register(
                    Scenario::new("sur/apx", substrate, Algorithm::Apx, surrogate.clone())
                        .with_cache_namespace("sur-pool"),
                )
                .unwrap();
            shard
        })
        .collect();
    let mut names = workload.scenario_names();
    names.push("sur/apx".to_string());
    let spec = ClusterSpec::new(names.iter().map(|name| {
        let pool = name.split_once('/').expect("pool/algorithm").0;
        (name.clone(), format!("{pool}-pool"))
    }))
    .unwrap();
    let router = Router::bind(
        spec,
        shards
            .iter()
            .map(|s| (s.name.clone(), s.daemon.addr()))
            .collect(),
        "127.0.0.1:0",
    )
    .unwrap();
    let cluster = ClusterHarness { shards, router };
    let _ = drive_suite(cluster.router.addr(), &names);
    // `engine_surrogate_reused_total` registers on the first memo hit: the
    // same scenario again, over the now-warm cache, refits the same matrix.
    let _ = drive_suite(cluster.router.addr(), &["sur/apx".to_string()]);

    let stream = TcpStream::connect(cluster.router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"METRICS\nQUIT\n").unwrap();
    let header = recv(&mut reader);
    let count: usize = header
        .strip_prefix("METRICS ")
        .unwrap_or_else(|| panic!("bad METRICS header {header:?}"))
        .parse()
        .expect("numeric line count");
    let lines: Vec<String> = (0..count).map(|_| recv(&mut reader)).collect();
    let registered: BTreeSet<&str> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();

    let never_registered: Vec<_> = documented.difference(&registered).collect();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        never_registered.is_empty() && undocumented.is_empty(),
        "docs/OBSERVABILITY.md catalog vs cluster scrape: documented but never \
         registered {never_registered:?}, registered but undocumented {undocumented:?}"
    );

    cluster.stop();
}

/// Extracts a numeric `key=value` field from a `DONE` payload.
fn done_field(payload: &str, key: &str) -> u64 {
    payload
        .split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {payload:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {payload:?}"))
}

// ---------------------------------------------------------------------------
// Join mid-run: the new shard answers from the shipped warm cache
// ---------------------------------------------------------------------------

/// Grow a 1-shard cluster to 2 shards mid-run: the join ships the moved
/// namespaces' snapshots, and the new shard's very first requests are
/// served entirely from the shipped cache — zero paid valuations, byte-
/// identical skylines to the pre-join run.
#[test]
fn joined_shard_serves_its_first_request_from_the_shipped_warm_cache() {
    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 160,
        max_states: 8,
    };
    let cluster = workload.build_cluster(1);
    let names = workload.scenario_names();
    let first = drive_suite(cluster.router.addr(), &names);

    // Pick a joiner name that rendezvous-owns at least one namespace
    // alongside shard0 (ownership is a pure function of the name set, so
    // the test derives it instead of hoping).
    let current = cluster.router.shard_map();
    let namespace_keys: Vec<(String, u64)> = (0..workload.namespaces)
        .map(|i| {
            let ns = workload.namespace(i);
            let key = SharedEvalCache::namespace_key(&ns);
            (ns, key)
        })
        .collect();
    let joiner = (1..100)
        .map(|i| format!("shard{i}"))
        .find(|candidate| {
            let mut with = current.clone();
            with.add(candidate.clone());
            namespace_keys
                .iter()
                .any(|(_, key)| with.owner_of(*key) == Some(candidate.as_str()))
        })
        .expect("some candidate name owns a namespace");

    let new_shard = workload.spawn_shard(&joiner);
    let shipped = cluster
        .router
        .join_shard(&joiner, new_shard.daemon.addr())
        .expect("join ships and commits");
    assert!(!shipped.is_empty(), "the joiner took over some namespace");
    for shipment in &shipped {
        assert_eq!(
            shipment.to, joiner,
            "rendezvous join ships only to the joiner"
        );
        assert_eq!(shipment.from, "shard0");
    }
    let moved: Vec<&str> = shipped.iter().map(|s| s.namespace.as_str()).collect();
    for (ns, _) in &namespace_keys {
        if moved.contains(&ns.as_str()) {
            assert_eq!(cluster.router.owner_of(ns), Some(joiner.clone()));
        }
    }

    // Second wave through the grown cluster: scenarios on moved
    // namespaces now execute on the new shard, warm from the shipment.
    let second = drive_suite(cluster.router.addr(), &names);
    let mut warm_checked = 0;
    for (a, b) in first.iter().zip(&second) {
        let pool: usize = a.scenario[2..a.scenario.find('/').unwrap()]
            .parse()
            .expect("ws<i>/… scenario name");
        if moved.contains(&workload.namespace(pool).as_str()) {
            assert_eq!(
                a.result, b.result,
                "{}: shipped-warm skyline must be byte-identical",
                a.scenario
            );
            assert_eq!(
                done_field(&b.done, "cost"),
                0,
                "{}: first request on the joined shard paid for valuations ({})",
                a.scenario,
                b.done
            );
            assert!(
                done_field(&b.done, "shared_hits") > 0,
                "{}: no cache hits on the joined shard ({})",
                a.scenario,
                b.done
            );
            warm_checked += 1;
        }
    }
    assert!(warm_checked > 0);
    // The joined shard really served them (not shard0): its own cache
    // answered lookups.
    assert!(new_shard.service.cache_stats().hits > 0);

    cluster.stop();
    new_shard.daemon.stop();
}

/// A graceful leave ships exactly the leaver's namespaces to the survivor
/// before the leaver drops out of the topology, so the shrunk cluster's
/// first requests on the moved namespaces are served entirely from the
/// shipped cache: zero paid valuations, byte-identical skylines. A leave
/// that would empty the cluster, or names no member, is refused.
#[test]
fn left_shard_hands_its_namespaces_warm_to_the_survivor() {
    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 160,
        max_states: 8,
    };
    let cluster = workload.build_cluster(2);
    let names = workload.scenario_names();
    let first = drive_suite(cluster.router.addr(), &names);

    // The leaver is a shard that owns at least one namespace (ownership is
    // a pure function of the name set, so the test derives it).
    let map = cluster.router.shard_map();
    let owner = |ns: &str| {
        map.owner_of(SharedEvalCache::namespace_key(ns))
            .expect("a non-empty cluster owns every namespace")
            .to_string()
    };
    let namespaces: Vec<String> = (0..workload.namespaces)
        .map(|i| workload.namespace(i))
        .collect();
    let leaver = owner(&namespaces[0]);
    let survivor = ["shard0", "shard1"]
        .into_iter()
        .find(|name| *name != leaver)
        .expect("two shards")
        .to_string();
    let mut owned: Vec<String> = namespaces
        .iter()
        .filter(|ns| owner(ns) == leaver)
        .cloned()
        .collect();
    owned.sort();

    let shipped = cluster
        .router
        .leave_shard(&leaver)
        .expect("leave ships and commits");
    for shipment in &shipped {
        assert_eq!(shipment.from, leaver, "a leave ships only off the leaver");
        assert_eq!(shipment.to, survivor, "a leave ships only to the survivor");
    }
    let mut moved: Vec<String> = shipped.iter().map(|s| s.namespace.clone()).collect();
    moved.sort();
    assert_eq!(moved, owned, "exactly the leaver's namespaces move");
    for ns in &namespaces {
        assert_eq!(cluster.router.owner_of(ns), Some(survivor.clone()));
    }
    let members: Vec<String> = cluster
        .router
        .shards()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(members, vec![survivor.clone()]);

    // Second wave through the shrunk cluster: every scenario now runs on
    // the survivor, the moved ones warm from the shipment.
    let second = drive_suite(cluster.router.addr(), &names);
    let mut warm_checked = 0;
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.result, b.result,
            "{}: the skyline must survive the leave byte for byte",
            a.scenario
        );
        let pool: usize = a.scenario[2..a.scenario.find('/').unwrap()]
            .parse()
            .expect("ws<i>/… scenario name");
        if moved.contains(&workload.namespace(pool)) {
            assert_eq!(
                done_field(&b.done, "cost"),
                0,
                "{}: first request after the leave paid for valuations ({})",
                a.scenario,
                b.done
            );
            assert!(
                done_field(&b.done, "shared_hits") > 0,
                "{}: no cache hits on the survivor ({})",
                a.scenario,
                b.done
            );
            warm_checked += 1;
        }
    }
    assert!(warm_checked > 0);

    // The survivor is the last shard, and a stranger is no member.
    assert!(matches!(
        cluster.router.leave_shard(&survivor),
        Err(ServiceError::InvalidTopology(_))
    ));
    assert!(matches!(
        cluster.router.leave_shard("no-such-shard"),
        Err(ServiceError::InvalidTopology(_))
    ));

    cluster.stop();
}

// ---------------------------------------------------------------------------
// Fault injection: kill a shard process, revive it from its snapshot
// ---------------------------------------------------------------------------

struct ShardProc {
    child: Child,
    addr: std::net::SocketAddr,
}

impl ShardProc {
    fn spawn(seeds: &str, max_states: usize, snapshot: Option<&std::path::Path>) -> ShardProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_modis_shard"));
        cmd.args(["--seeds", seeds, "--max-states", &max_states.to_string()]);
        if let Some(path) = snapshot {
            cmd.args(["--snapshot", path.to_str().expect("utf-8 path")]);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn modis_shard");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("ADDR line");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("unexpected shard banner {line:?}"))
            .parse()
            .expect("socket addr");
        ShardProc { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The tentpole's acceptance path, against **real OS processes**: a
/// 2-shard cluster runs the T3 suite; one shard process is killed
/// mid-suite; the router reports it unavailable while the survivor keeps
/// serving; the victim is revived *from its last snapshot* in a fresh
/// process and rewired; the resumed suite's skylines are byte-identical
/// to the pre-crash run and cost zero paid valuations; and a
/// single-process engine restored from the same snapshots reproduces
/// every skyline byte-for-byte.
#[test]
fn killed_shard_restarts_from_snapshot_with_byte_identical_skylines() {
    let seeds = [5u64, 9];
    let max_states = 12;
    let names = t3_cluster_scenarios(&seeds);

    let mut s1 = ShardProc::spawn("5,9", max_states, None);
    let mut s2 = ShardProc::spawn("5,9", max_states, None);
    let router = Router::bind(
        t3_cluster_spec(&seeds),
        vec![("s1".to_string(), s1.addr), ("s2".to_string(), s2.addr)],
        "127.0.0.1:0",
    )
    .unwrap();

    // Full cold suite through the cluster.
    let first = drive_suite(router.addr(), &names);

    // Snapshot every shard over the wire (one file per shard).
    let base = temp_path("t3snap");
    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "SNAPSHOT {}", base.display()).unwrap();
    let reply = recv(&mut reader);
    assert!(reply.starts_with("OK "), "cluster snapshot: {reply}");

    // Kill the shard owning the seed-9 pool. Mid-suite: the survivor must
    // keep serving, requests to the victim must fail loudly (not hang).
    let victim_ns = t3_cluster_namespace(9);
    let victim = router.owner_of(&victim_ns).expect("namespace owned");
    let victim_snapshot = PathBuf::from(format!("{}.{victim}", base.display()));
    let survivor_scenario = {
        // A scenario whose namespace the *other* shard owns, if any; the
        // rendezvous map may put both pools on one shard, in which case
        // every scenario is a victim scenario.
        names
            .iter()
            .find(|name| {
                let seed: u64 = name[3..name.find('/').unwrap()].parse().unwrap();
                router.owner_of(&t3_cluster_namespace(seed)).as_deref() != Some(victim.as_str())
            })
            .cloned()
    };
    if victim == "s1" {
        s1.kill();
    } else {
        s2.kill();
    }

    let victim_scenarios: Vec<String> = names
        .iter()
        .filter(|name| {
            let seed: u64 = name[3..name.find('/').unwrap()].parse().unwrap();
            t3_cluster_namespace(seed) == victim_ns
                || router.owner_of(&t3_cluster_namespace(seed)).as_deref() == Some(victim.as_str())
        })
        .cloned()
        .collect();
    assert!(!victim_scenarios.is_empty());

    let reply_for = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| {
        writeln!(writer, "{line}").unwrap();
        recv(reader)
    };
    let dead_reply = reply_for(
        &mut writer,
        &mut reader,
        &format!("SUBMIT {}", victim_scenarios[0]),
    );
    assert!(
        dead_reply.starts_with(&format!("ERR shard {victim} unavailable")),
        "dead shard must fail loudly: {dead_reply}"
    );
    if let Some(scenario) = &survivor_scenario {
        let alive = reply_for(&mut writer, &mut reader, &format!("SUBMIT {scenario}"));
        assert!(
            alive.starts_with("TICKET "),
            "survivor must keep serving: {alive}"
        );
    }

    // Revive the victim from its last snapshot in a brand-new process and
    // rewire the router. The dead process's tickets are invalidated.
    let revived = ShardProc::spawn("5,9", max_states, Some(&victim_snapshot));
    router.set_shard_addr(&victim, revived.addr).unwrap();
    let victim_first_ticket = first
        .iter()
        .find(|o| victim_scenarios.contains(&o.scenario))
        .expect("victim ran something")
        .ticket;
    let purged = reply_for(
        &mut writer,
        &mut reader,
        &format!("POLL {victim_first_ticket}"),
    );
    assert!(
        purged.starts_with("ERR unknown ticket"),
        "tickets of the dead process must be invalidated: {purged}"
    );

    // Resume the suite on the revived shard: byte-identical skylines,
    // zero paid valuations — everything answers from the snapshot.
    let resumed = drive_suite(router.addr(), &victim_scenarios);
    for outcome in &resumed {
        let original = first
            .iter()
            .find(|o| o.scenario == outcome.scenario)
            .unwrap();
        assert_eq!(
            original.result, outcome.result,
            "{}: resumed skyline must be byte-identical to the pre-crash run",
            outcome.scenario
        );
        assert_eq!(
            done_field(&outcome.done, "cost"),
            0,
            "{}: resume retrained something ({})",
            outcome.scenario,
            outcome.done
        );
    }

    // Independent check against the single-process engine: a lone service
    // restored from the *same shipped state* reproduces the whole cluster
    // suite byte-for-byte.
    let reference = Service::new(ServiceConfig::default());
    register_t3_cluster(&reference, &seeds, max_states);
    for shard in ["s1", "s2"] {
        let merged = reference
            .restore_from(&PathBuf::from(format!("{}.{shard}", base.display())))
            .expect("merge shard snapshot");
        assert!(merged > 0, "shard {shard} snapshot was empty");
    }
    let reference_results = run_in_process(&reference, &names);
    for (outcome, reference_payload) in first.iter().zip(&reference_results) {
        assert_eq!(
            &outcome.result, reference_payload,
            "{}: cluster vs single-process engine skyline bytes",
            outcome.scenario
        );
    }

    let _ = writeln!(writer, "QUIT");
    router.stop();
    for shard in ["s1", "s2"] {
        let _ = std::fs::remove_file(format!("{}.{shard}", base.display()));
    }
}

// ---------------------------------------------------------------------------
// Distributed tracing: one trace id stitched across real OS processes
// ---------------------------------------------------------------------------

/// A numeric `key=` field of an `EVENT`/`TRACE` line.
fn event_field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {line:?}"))
}

/// A string `key=` field of an `EVENT`/`TRACE` line.
fn event_str_field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

/// The tracing tentpole's acceptance path, against **real OS processes**:
/// two scenarios submitted on one router connection land on two different
/// shard processes, and `EXPLAIN <ticket>` stitches a single-trace-id,
/// time-ordered timeline covering the router's `forward` round-trips,
/// each shard's queue wait and the engine's scenario/valuation spans —
/// with every shard-side span parented to the router's forward span for
/// that request.
#[test]
fn explain_stitches_one_trace_across_router_and_two_shard_processes() {
    let seeds = [5u64, 9];
    let max_states = 8;

    // Pick a shard-name pair that rendezvous-splits the two pools, so the
    // trace provably crosses two distinct OS processes (ownership is a
    // pure function of the name set — derive it, don't hope).
    let keys: Vec<u64> = seeds
        .iter()
        .map(|&s| SharedEvalCache::namespace_key(&t3_cluster_namespace(s)))
        .collect();
    let partner = (2..100)
        .map(|i| format!("s{i}"))
        .find(|candidate| {
            let map = ShardMap::from_names(["s1".to_string(), candidate.clone()]);
            map.owner_of(keys[0]) != map.owner_of(keys[1])
        })
        .expect("some pair splits the pools");

    let s1 = ShardProc::spawn("5,9", max_states, None);
    let s2 = ShardProc::spawn("5,9", max_states, None);
    let router = Router::bind(
        t3_cluster_spec(&seeds),
        vec![("s1".to_string(), s1.addr), (partner.clone(), s2.addr)],
        "127.0.0.1:0",
    )
    .unwrap();

    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Submit one scenario per pool (hence per shard process) on the SAME
    // connection — the router threads one distributed trace through both.
    writer
        .write_all(b"SUBMIT t3s5/apx\nSUBMIT t3s9/apx\nRUN\nWAIT 1 2\n")
        .unwrap();
    for ticket in 1..=2u64 {
        assert_eq!(recv(&mut reader), format!("TICKET {ticket}"));
    }
    assert!(recv(&mut reader).starts_with("OK "));
    for _ in 0..2 {
        assert!(recv(&mut reader).starts_with("DONE "));
    }

    writeln!(writer, "EXPLAIN 1").unwrap();
    let header = recv(&mut reader);
    let count: usize = header
        .strip_prefix("TIMELINE ")
        .unwrap_or_else(|| panic!("bad EXPLAIN header {header:?}"))
        .parse()
        .expect("numeric event count");
    assert!(count > 0, "empty timeline");
    let events: Vec<String> = (0..count).map(|_| recv(&mut reader)).collect();

    // One trace id across every event, router and shards alike.
    let trace = event_str_field(&events[0], "trace").to_string();
    assert_eq!(trace.len(), 16, "16-hex-digit trace id: {trace}");
    for event in &events {
        assert!(event.starts_with("EVENT "), "{event}");
        assert_eq!(event_str_field(event, "trace"), trace, "{event}");
    }

    // The timeline covers the router and both shard processes.
    let shards_seen: std::collections::HashSet<&str> = events
        .iter()
        .map(|event| event_str_field(event, "shard"))
        .collect();
    assert!(shards_seen.contains("router"), "{shards_seen:?}");
    assert!(
        shards_seen.len() >= 3,
        "expected router + 2 shard processes, saw {shards_seen:?}"
    );

    // The router recorded one `forward` round-trip per submission, and
    // every shard-side queue wait is parented to one of them — the link
    // that stitches the processes together.
    let forward_ids: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| event_str_field(e, "name") == "forward")
        .inspect(|e| assert_eq!(event_str_field(e, "shard"), "router", "{e}"))
        .map(|e| event_field(e, "span"))
        .collect();
    assert!(forward_ids.len() >= 2, "{events:#?}");
    let queue_waits: Vec<&String> = events
        .iter()
        .filter(|e| event_str_field(e, "name") == "queue_wait")
        .collect();
    assert_eq!(queue_waits.len(), 2, "{events:#?}");
    for event in &queue_waits {
        assert!(
            forward_ids.contains(&event_field(event, "parent")),
            "queue wait not parented to a router forward: {event}"
        );
        assert!(
            event_field(event, "dur_us") > 0,
            "zero queue wait over a network round-trip: {event}"
        );
        assert_ne!(event_str_field(event, "shard"), "router", "{event}");
    }
    // The engine's own spans made it into the same timeline.
    for name in ["job", "scenario", "valuation"] {
        assert!(
            events.iter().any(|e| event_str_field(e, "name") == name),
            "no {name} span in {events:#?}"
        );
    }

    // Time-ordered by wall-clock-anchored start, across processes.
    let starts: Vec<u64> = events.iter().map(|e| event_field(e, "start_us")).collect();
    assert!(
        starts.windows(2).all(|pair| pair[0] <= pair[1]),
        "timeline out of order: {starts:?}"
    );

    // `EXPLAIN TRACE <id>` names the same trace directly; the submitting
    // ticket and the raw trace id resolve to the same timeline.
    writeln!(writer, "EXPLAIN TRACE {trace}").unwrap();
    let direct = recv(&mut reader);
    assert_eq!(direct, header, "ticket and trace-id EXPLAIN disagree");
    for _ in 0..count {
        recv(&mut reader);
    }

    // Error paths hold their pipeline position.
    writer
        .write_all(b"EXPLAIN 999\nEXPLAIN TRACE zz\nEXPLAIN\nPING\nQUIT\n")
        .unwrap();
    assert_eq!(recv(&mut reader), "ERR unknown ticket 999");
    assert_eq!(
        recv(&mut reader),
        "ERR EXPLAIN TRACE expects a hex trace id"
    );
    assert_eq!(
        recv(&mut reader),
        "ERR EXPLAIN expects a ticket or TRACE <trace-id>"
    );
    assert_eq!(recv(&mut reader), "PONG");
    assert_eq!(recv(&mut reader), "BYE");
    router.stop();
}

// ---------------------------------------------------------------------------
// Failover: SIGKILL a primary, replicas serve with zero operator action
// ---------------------------------------------------------------------------

/// Strips the ` degraded=<shard>` marker a failed-over response carries.
fn strip_degraded(payload: &str) -> &str {
    match payload.rfind(" degraded=") {
        Some(cut) => &payload[..cut],
        None => payload,
    }
}

/// The HA tentpole's acceptance path: a 3-shard cluster with K=2
/// replication runs the T3 suite, the router pushes every namespace delta
/// to its replica, and then the primary of one pool is SIGKILLed. With
/// **no operator action** — no `set_shard_addr`, no revival — the
/// heartbeat declares it dead, pre-crash tickets transparently re-home
/// onto the warm replica, the full suite keeps serving byte-identical
/// skylines at zero paid valuations, and the degradation is visible
/// (`degraded=` flags, `router_failovers_total`).
#[test]
fn primary_sigkill_fails_over_to_warm_replica_without_operator_action() {
    let seeds = [5u64, 9];
    let max_states = 12;
    let names = t3_cluster_scenarios(&seeds);

    let mut shards: Vec<(String, ShardProc)> = (1..=3)
        .map(|i| (format!("s{i}"), ShardProc::spawn("5,9", max_states, None)))
        .collect();
    let config = RouterConfig {
        replication: 2,
        heartbeat_interval: Duration::from_millis(40),
        heartbeat_timeout: Duration::from_millis(150),
        heartbeat_misses: 2,
    };
    let router = Router::bind_with(
        t3_cluster_spec(&seeds),
        shards
            .iter()
            .map(|(name, proc_)| (name.clone(), proc_.addr))
            .collect(),
        "127.0.0.1:0",
        config,
    )
    .unwrap();

    // Cold suite, then make sure every completed namespace's delta has
    // reached its replica owner *before* the crash.
    let first = drive_suite(router.addr(), &names);
    let warm_copies = router.flush_replication();
    assert!(warm_copies > 0, "no replica received a namespace delta");

    // SIGKILL the primary of the seed-9 pool. From here on the router is
    // on its own: the test never rewires or revives anything.
    let victim = router
        .owner_of(&t3_cluster_namespace(9))
        .expect("namespace owned");
    shards
        .iter_mut()
        .find(|(name, _)| *name == victim)
        .expect("victim process")
        .1
        .kill();

    // The heartbeat must declare the victim dead unaided.
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.circuit_state(&victim) == CircuitState::Closed {
        assert!(
            Instant::now() < deadline,
            "heartbeat never declared {victim} dead"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A pre-crash ticket homed on the victim: RESULT re-homes it onto the
    // warm replica — byte-identical payload, flagged as stand-in service.
    let victim_outcome = first
        .iter()
        .find(|outcome| {
            let seed: u64 = outcome.scenario[3..outcome.scenario.find('/').unwrap()]
                .parse()
                .unwrap();
            router.owner_of(&t3_cluster_namespace(seed)).as_deref() == Some(victim.as_str())
        })
        .expect("the victim owned some pool");
    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "RESULT {}", victim_outcome.ticket).unwrap();
    let reply = recv(&mut reader);
    let rest = reply
        .strip_prefix("RESULT ")
        .unwrap_or_else(|| panic!("failover RESULT: {reply}"));
    let (id, payload) = rest.split_once(' ').expect("RESULT payload");
    assert_eq!(
        id.parse::<u64>().expect("numeric id"),
        victim_outcome.ticket
    );
    assert!(
        payload.contains(" degraded="),
        "stand-in service must be flagged: {payload}"
    );
    assert_eq!(
        strip_degraded(payload),
        victim_outcome.result,
        "{}: failed-over skyline must be byte-identical",
        victim_outcome.scenario
    );
    let _ = writeln!(writer, "QUIT");

    // The full suite keeps serving through the degraded cluster:
    // byte-identical skylines, zero paid valuations (the replica answers
    // from the shipped warm cache — nothing retrains).
    let second = drive_suite(router.addr(), &names);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(
            strip_degraded(&b.result),
            a.result,
            "{}: degraded-cluster skyline must be byte-identical",
            a.scenario
        );
        assert_eq!(
            done_field(&b.done, "cost"),
            0,
            "{}: failover retrained something ({})",
            a.scenario,
            b.done
        );
    }
    assert!(
        second.iter().any(|o| o.result.contains(" degraded=")),
        "no response carried the degraded flag"
    );

    // The degradation is observable: the failover counter moved and the
    // cluster STATS line names the dead shard.
    let failovers: u64 = router
        .metrics()
        .render()
        .iter()
        .find_map(|line| {
            line.strip_prefix(&format!("router_failovers_total{{shard=\"{victim}\"}} "))
                .and_then(|value| value.trim().parse().ok())
        })
        .expect("failover counter rendered");
    assert!(failovers >= 1, "no failover counted for {victim}");
    let stats = fetch_stats(router.addr());
    assert!(
        stats.contains(&format!("degraded={victim}")),
        "STATS must flag the dead shard: {stats}"
    );

    router.stop();
}

// ---------------------------------------------------------------------------
// The front thread never blocks on a peer
// ---------------------------------------------------------------------------

/// A client that pipelines 20,000 `METRICS` and never reads a byte of the
/// replies parks nothing but itself: the router stops reading it once
/// its write buffer is over the high watermark, a second client is served
/// as if it were alone, and `Router::stop` — whose farewell line to the
/// stuck client is best-effort — returns.
#[test]
fn a_client_that_never_reads_stalls_nobody_else_and_stop_returns() {
    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 100,
        max_states: 5,
    };
    let cluster = workload.build_cluster(2);
    let addr = cluster.router.addr();

    // Declared after `cluster`, so a failing assertion drops (closes) it
    // before the router is stopped.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    for _ in 0..20 {
        // Once the router stops reading, the kernel buffers fill and the
        // write times out: everything it will ever take has been sent.
        if hog.write_all(&b"METRICS\n".repeat(1_000)).is_err() {
            break;
        }
    }

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"PING\n").unwrap();
    assert_eq!(recv(&mut reader), "PONG", "the hog stalled a second client");

    let outcomes = drive_suite(addr, &workload.scenario_names());
    assert_eq!(outcomes.len(), workload.scenario_names().len());
    assert!(outcomes.iter().all(|o| o.result.starts_with("entries=")));

    let (stopped, wait) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.stop();
        let _ = stopped.send(());
    });
    wait.recv_timeout(Duration::from_secs(10))
        .expect("Router::stop must not wait on a client that never reads");
    drop(hog);
}

// ---------------------------------------------------------------------------
// The non-blocking shard side, against a scripted fake shard
// ---------------------------------------------------------------------------

/// The verb and arguments of a forwarded line, `CTX <hex>` prefix dropped.
fn forwarded(line: &str) -> &str {
    let line = line.trim_end();
    match line.strip_prefix("CTX ") {
        Some(rest) => rest.split_once(' ').map_or("", |(_, request)| request),
        None => line,
    }
}

/// A scripted stand-in for a shard daemon — a plain listener, no
/// `Service` behind it — and how many heartbeat probes it has answered.
/// Probes (a bare `PING`: forwarded lines always carry a `CTX` prefix)
/// are answered `PONG`; every other connection is handed to `script` with
/// its first line already read. The threads die with the test process.
fn fake_shard(
    script: impl Fn(String, BufReader<TcpStream>, TcpStream) + Send + Sync + 'static,
) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = Arc::new(script);
    let probes = Arc::new(AtomicUsize::new(0));
    let probed = Arc::clone(&probes);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let (script, probed) = (Arc::clone(&script), Arc::clone(&probed));
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut first = String::new();
                if reader.read_line(&mut first).unwrap_or(0) == 0 {
                    return;
                }
                if first.trim_end() != "PING" {
                    return script(first, reader, stream);
                }
                let _ = stream.write_all(b"PONG\n");
                // A probe counts once the router has read its PONG and
                // hung up.
                let _ = reader.read_line(&mut first);
                probed.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    (addr, probes)
}

/// Waits until the router's first heartbeat has probed every shard that
/// counts in `probes` (no other comes when the interval is an hour).
fn await_first_probes(probes: &[&AtomicUsize]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while probes.iter().any(|p| p.load(Ordering::SeqCst) == 0) {
        assert!(Instant::now() < deadline, "the first heartbeat never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The heartbeat records the probe just after the shard sees it.
    std::thread::sleep(Duration::from_millis(20));
}

/// A router over the one fake shard `s0`, and a client connected to it.
fn fake_cluster(
    shard: SocketAddr,
    config: RouterConfig,
) -> (Router, TcpStream, BufReader<TcpStream>) {
    let spec = ClusterSpec::new([("scen", "ns")]).unwrap();
    let router =
        Router::bind_with(spec, vec![("s0".to_string(), shard)], "127.0.0.1:0", config).unwrap();
    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    (router, writer, BufReader::new(stream))
}

/// A reply split mid-line across two segments 50 ms apart is one reply.
#[test]
fn shard_reply_split_across_two_writes_is_reassembled() {
    let (shard, _) = fake_shard(|first, _reader, mut stream| {
        assert_eq!(forwarded(&first), "SUBMIT scen");
        stream.write_all(b"TICK").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(b"ET 7\n").unwrap();
        std::thread::sleep(Duration::from_secs(5));
    });
    let (router, mut writer, mut reader) = fake_cluster(shard, RouterConfig::default());
    writer.write_all(b"SUBMIT scen\nPING\n").unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    assert_eq!(recv(&mut reader), "PONG");
    router.stop();
}

/// Two replies arriving in one segment answer two pipelined requests, in
/// order — and the ticket verb pipelined behind them waits for the ids
/// they create instead of racing them.
#[test]
fn coalesced_shard_replies_answer_pipelined_requests_in_order() {
    let (shard, _) = fake_shard(|first, mut reader, mut stream| {
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        assert_eq!(forwarded(&first), "SUBMIT scen");
        assert_eq!(forwarded(&second), "SUBMIT scen");
        // Late, so the POLL behind the SUBMITs is framed long before the
        // ticket it names exists.
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(b"TICKET 7\nTICKET 8\n").unwrap();
        let mut poll = String::new();
        reader.read_line(&mut poll).unwrap();
        stream
            .write_all(format!("echo:{}\n", forwarded(&poll)).as_bytes())
            .unwrap();
        std::thread::sleep(Duration::from_secs(5));
    });
    let (router, mut writer, mut reader) = fake_cluster(shard, RouterConfig::default());
    writer
        .write_all(b"SUBMIT scen\nSUBMIT scen\nPOLL 2\nPING\n")
        .unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    assert_eq!(recv(&mut reader), "TICKET 2");
    assert_eq!(
        recv(&mut reader),
        "echo:POLL 8",
        "cluster id 2 is local id 8"
    );
    assert_eq!(recv(&mut reader), "PONG");
    router.stop();
}

/// A shard connection that closes with a reply owed costs exactly one
/// re-dispatch on a fresh connection, then a clean error line.
#[test]
fn shard_connection_lost_with_a_reply_owed_is_retried_once_then_reported() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&attempts);
    let (shard, _) = fake_shard(move |first, _reader, _stream| {
        assert_eq!(forwarded(&first), "SUBMIT scen");
        seen.fetch_add(1, Ordering::SeqCst);
        // Returning drops both halves: closed, nothing answered.
    });
    let (router, mut writer, mut reader) = fake_cluster(shard, RouterConfig::default());
    writer.write_all(b"SUBMIT scen\nPING\n").unwrap();
    assert_eq!(
        recv(&mut reader),
        "ERR shard s0 unavailable (connection lost)"
    );
    assert_eq!(recv(&mut reader), "PONG");
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "one re-dispatch");
    router.stop();
}

/// A shard address that refuses every connection: nothing listens on port
/// 0. (The port of a listener already closed is not one: a listener bound
/// to port 0 by a test running meanwhile may be given it, and answer.)
const REFUSED: &str = "127.0.0.1:0";

/// A forward to a shard that refuses connections makes one attempt: it
/// fails at once, counts one breaker failure and sleeps nowhere. With the
/// heartbeat's first miss already counted, that is two misses of the
/// three that open the breaker, so the reply names the refused connection
/// (not `circuit open`) and the breaker stays closed.
#[test]
fn a_refused_forward_is_one_failure_and_no_retry() {
    let shard = REFUSED.parse().unwrap();
    let config = RouterConfig {
        heartbeat_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    };
    let (router, mut writer, mut reader) = fake_cluster(shard, config);
    let missed = "router_heartbeat_misses_total{shard=\"s0\"} 1";
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.metrics().render().iter().any(|l| l == missed) {
        assert!(
            Instant::now() < deadline,
            "the first heartbeat never missed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    writer.write_all(b"SUBMIT scen\nPING\n").unwrap();
    let reply = recv(&mut reader);
    assert!(
        reply.starts_with("ERR shard s0 unavailable (") && !reply.ends_with("(circuit open)"),
        "{reply}"
    );
    assert_eq!(recv(&mut reader), "PONG");
    assert_eq!(router.circuit_state("s0"), CircuitState::Closed);
    router.stop();
}

/// The value of `router_heartbeat_misses_total{shard="s0"}`.
fn s0_misses(router: &Router) -> u64 {
    let prefix = "router_heartbeat_misses_total{shard=\"s0\"} ";
    let lines = router.metrics().render();
    let line = lines.iter().find_map(|l| l.strip_prefix(prefix));
    line.and_then(|n| n.parse().ok()).unwrap_or(0)
}

/// A shard that answers every forwarded line at once but never answers
/// a bare `PING` is alive: each reply line its link delivers counts as a
/// successful exchange, so while a client keeps requests flowing the
/// heartbeat's missed probes never add up to `heartbeat_misses` (the
/// default 3). The breaker stays closed and no reply reads `circuit
/// open`, though more probes than that miss meanwhile.
#[test]
fn a_shard_that_answers_is_not_declared_dead() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                // A probe's bare `PING` is read and left unanswered until
                // the router gives up on it and hangs up.
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    if line.starts_with("CTX ") && stream.write_all(b"TICKET 7\n").is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    let config = RouterConfig {
        heartbeat_interval: Duration::from_millis(20),
        heartbeat_timeout: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let misses = u64::from(config.heartbeat_misses);
    let (router, mut writer, mut reader) = fake_cluster(shard, config);
    let start = Instant::now();
    let mut replies = 0;
    while start.elapsed() < Duration::from_secs(1) || s0_misses(&router) < misses {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the heartbeat missed only {} probes",
            s0_misses(&router)
        );
        writer.write_all(b"SUBMIT scen\n").unwrap();
        let reply = recv(&mut reader);
        assert!(reply.starts_with("TICKET "), "reply {replies}: {reply}");
        let state = router.circuit_state("s0");
        assert_eq!(state, CircuitState::Closed, "after {replies} replies");
        replies += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    router.stop();
}

/// With `heartbeat_misses: 1`, a link that closes with a forward owed
/// declares the shard down, and from then on only the heartbeat dials
/// it: the one re-dispatch and a request made half a second later both
/// fail fast with `circuit open`, and the shard sees no second forwarded
/// connection.
#[test]
fn an_open_shard_is_never_dialled_by_a_request() {
    let dials = Arc::new(AtomicUsize::new(0));
    let dialled = Arc::clone(&dials);
    // Each forwarded connection closes with its reply owed.
    let (shard, probes) = fake_shard(move |_, _, _| {
        dialled.fetch_add(1, Ordering::SeqCst);
    });
    let config = RouterConfig {
        heartbeat_interval: Duration::from_secs(3600),
        heartbeat_misses: 1,
        ..RouterConfig::default()
    };
    let (router, mut writer, mut reader) = fake_cluster(shard, config);
    await_first_probes(&[&probes]);
    let open = "ERR shard s0 unavailable (circuit open)";
    writer.write_all(b"SUBMIT scen\n").unwrap();
    assert_eq!(recv(&mut reader), open, "the re-dispatch fails fast");
    assert_eq!(router.circuit_state("s0"), CircuitState::Open);
    std::thread::sleep(Duration::from_millis(500));
    writer.write_all(b"SUBMIT scen\n").unwrap();
    assert_eq!(recv(&mut reader), open);
    assert_eq!(
        dials.load(Ordering::SeqCst),
        1,
        "a request dialled a down shard"
    );
    assert_eq!(router.circuit_state("s0"), CircuitState::Open);
    router.stop();
}

/// A shard that accepts but stops reading: the requests one client
/// pipelines at it queue in the router only up to `MAX_PIPELINED` — then
/// that client stops being read — while a second client is served as if
/// alone. When the shard resumes, all 10,000 answers arrive in order.
#[test]
fn shard_that_stops_reading_bounds_one_pipeline_and_stalls_no_other_client() {
    const POLLS: usize = 10_000;
    let (resume, resumed) = std::sync::mpsc::channel::<()>();
    let resumed = std::sync::Mutex::new(resumed);
    let (report, reported) = std::sync::mpsc::channel::<usize>();
    let report = std::sync::Mutex::new(report);
    let (shard, _) = fake_shard(move |first, mut reader, mut stream| {
        assert_eq!(forwarded(&first), "SUBMIT scen");
        stream.write_all(b"TICKET 7\n").unwrap();
        // Not reading: whatever the router forwards piles up unread.
        resumed.lock().unwrap().recv().unwrap();
        // Everything forwarded while we slept, until the line goes quiet.
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut piled = 0usize;
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            assert_eq!(forwarded(&line), "POLL 7");
            piled += 1;
            line.clear();
        }
        report.lock().unwrap().send(piled).unwrap();
        stream.set_read_timeout(None).unwrap();
        stream.write_all(&b"QUEUED\n".repeat(piled)).unwrap();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            stream.write_all(b"QUEUED\n").unwrap();
            line.clear();
        }
    });
    let (router, mut writer, mut reader) = fake_cluster(shard, RouterConfig::default());
    writer.write_all(b"SUBMIT scen\n").unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    writer.write_all(&b"POLL 1\n".repeat(POLLS)).unwrap();

    let other = TcpStream::connect(router.addr()).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut other_reader = BufReader::new(other.try_clone().unwrap());
    (&other).write_all(b"PING\n").unwrap();
    assert_eq!(recv(&mut other_reader), "PONG");

    resume.send(()).unwrap();
    let piled = reported
        .recv_timeout(Duration::from_secs(10))
        .expect("shard report");
    assert_eq!(
        piled, MAX_PIPELINED,
        "the router forwarded past MAX_PIPELINED for a shard that was not reading"
    );
    for i in 0..POLLS {
        assert_eq!(recv(&mut reader), "QUEUED", "reply {i}");
    }
    router.stop();
}

// ---------------------------------------------------------------------------
// Shard-local ticket ids reach a client as cluster ids
// ---------------------------------------------------------------------------

/// A scripted shard that answers every line of every connection as
/// `answer` says — `None` closes the connection unanswered — and logs
/// each line it is sent (`CTX` prefixes stripped; heartbeat `PING`s are
/// answered and counted by [`fake_shard`] and not logged).
fn ticket_shard(
    answer: impl Fn(&str) -> Option<String> + Send + Sync + 'static,
) -> (SocketAddr, Arc<Mutex<Vec<String>>>, Arc<AtomicUsize>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&log);
    let (addr, probes) = fake_shard(move |first, mut reader, mut stream| {
        let mut line = first;
        loop {
            let request = forwarded(&line).to_string();
            seen.lock().unwrap().push(request.clone());
            let Some(reply) = answer(&request) else {
                return;
            };
            if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                return;
            }
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
        }
    });
    (addr, log, probes)
}

/// What a healthy shard answers: each `SUBMIT` takes the next local id
/// of `next` (shared by both shards, so no local id equals a cluster id),
/// a `WAIT` is answered one `DONE` per ticket, `RESULT` echoes its id.
fn ticket_reply(next: &AtomicU64, request: &str) -> String {
    let (verb, args) = request.split_once(' ').unwrap_or((request, ""));
    match verb {
        "SUBMIT" => format!("TICKET {}", next.fetch_add(1, Ordering::SeqCst)),
        "RUN" => "OK 1".into(),
        "WAIT" => args
            .split(' ')
            .map(|local| format!("DONE {local} entries=0"))
            .collect::<Vec<_>>()
            .join("\n"),
        "RESULT" => format!("RESULT {args} entries=0"),
        _ => format!("ERR unknown command {verb:?}"),
    }
}

/// A shard's name and the lines it was sent.
type ShardLog = (String, Arc<Mutex<Vec<String>>>);

/// Two ticket shards under `replication: 2` whose first `WAIT` (which goes
/// to the primary: every ticket is submitted there) closes the connection
/// unanswered, the router over them once its first heartbeat has probed
/// both, a client, and `[primary, replica]`.
fn failing_wait_cluster(
    heartbeat_misses: u32,
) -> (Router, TcpStream, BufReader<TcpStream>, [ShardLog; 2]) {
    let (next, waits) = (Arc::new(AtomicU64::new(7)), Arc::new(AtomicUsize::new(0)));
    let shard = || {
        let (next, waits) = (Arc::clone(&next), Arc::clone(&waits));
        ticket_shard(move |request| {
            let first_wait =
                request.starts_with("WAIT ") && waits.fetch_add(1, Ordering::SeqCst) == 0;
            (!first_wait).then(|| ticket_reply(&next, request))
        })
    };
    let (s0, s1) = (shard(), shard());
    let config = RouterConfig {
        replication: 2,
        heartbeat_interval: Duration::from_secs(3600),
        heartbeat_misses,
        ..RouterConfig::default()
    };
    let router = Router::bind_with(
        ClusterSpec::new([("scen", "ns")]).unwrap(),
        vec![("s0".to_string(), s0.0), ("s1".to_string(), s1.0)],
        "127.0.0.1:0",
        config,
    )
    .unwrap();
    // A probe answered after the dropped `WAIT` would bring the primary
    // back up.
    await_first_probes(&[&s0.2, &s1.2]);
    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let writer = stream.try_clone().unwrap();
    let owners = router.owners_of("ns");
    let shards = [0, 1].map(|rank| {
        let log = if owners[rank] == "s0" { &s0.1 } else { &s1.1 };
        (owners[rank].clone(), Arc::clone(log))
    });
    (router, writer, BufReader::new(stream), shards)
}

/// The lines `log` holds that start with `verb`.
fn logged(log: &Mutex<Vec<String>>, verb: &str) -> Vec<String> {
    let log = log.lock().unwrap();
    log.iter()
        .filter(|l| l.starts_with(verb))
        .cloned()
        .collect()
}

/// The primary drops the link a `WAIT` is owed on: the ticket is re-homed
/// by a one-shot `SUBMIT` + `RUN` on the replica, the wait resumes there,
/// and the client reads its own cluster id — in the streamed `DONE` and in
/// a later `RESULT`, which is flagged as served by the replica.
#[test]
fn a_wait_whose_primary_drops_the_link_is_rehomed_under_the_cluster_id() {
    let (router, mut writer, mut reader, [(primary, primary_log), (replica, replica_log)]) =
        failing_wait_cluster(3);
    writer.write_all(b"SUBMIT scen\n").unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    writer.write_all(b"WAIT 1\n").unwrap();
    assert_eq!(recv(&mut reader), "DONE 1 entries=0");
    writer.write_all(b"RESULT 1\n").unwrap();
    assert_eq!(
        recv(&mut reader),
        format!("RESULT 1 entries=0 degraded={replica}")
    );
    assert_eq!(logged(&primary_log, "WAIT "), ["WAIT 7"]);
    assert_eq!(
        logged(&replica_log, ""),
        ["SUBMIT scen", "RUN", "WAIT 8", "RESULT 8"],
        "re-homed under local id 8"
    );
    let failovers = format!("router_failovers_total{{shard=\"{primary}\"}} 1");
    let metrics = router.metrics().render();
    assert!(metrics.contains(&failovers), "{metrics:#?}");
    router.stop();
}

/// With `heartbeat_misses: 1` the dropped `WAIT` opens the primary's
/// breaker, so a second ticket homed there is re-homed before its `WAIT`
/// is forwarded: the primary is sent no second `WAIT`.
#[test]
fn a_ticket_on_a_primary_whose_breaker_opened_is_rehomed_before_its_wait() {
    let (router, mut writer, mut reader, [(primary, primary_log), (_, replica_log)]) =
        failing_wait_cluster(1);
    writer.write_all(b"SUBMIT scen\nSUBMIT scen\n").unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    assert_eq!(recv(&mut reader), "TICKET 2");
    writer.write_all(b"WAIT 1\n").unwrap();
    assert_eq!(recv(&mut reader), "DONE 1 entries=0");
    assert_eq!(router.circuit_state(&primary), CircuitState::Open);
    writer.write_all(b"WAIT 2\n").unwrap();
    assert_eq!(recv(&mut reader), "DONE 2 entries=0");
    assert_eq!(logged(&primary_log, "WAIT "), ["WAIT 7"]);
    assert_eq!(logged(&replica_log, "WAIT "), ["WAIT 9", "WAIT 10"]);
    let failovers = format!("router_failovers_total{{shard=\"{primary}\"}} 2");
    let metrics = router.metrics().render();
    assert!(metrics.contains(&failovers), "{metrics:#?}");
    router.stop();
}

/// A shard's ticket errors name its local id; the client reads its
/// cluster id in their place, to `POLL`, `WAIT` and `RESULT` alike.
#[test]
fn a_shard_ticket_error_reaches_the_client_with_the_cluster_id() {
    let (shard, log, _) = ticket_shard(|request| {
        Some(match request.split_once(' ') {
            Some(("SUBMIT", _)) => "TICKET 7".into(),
            Some(("POLL" | "WAIT", local)) => format!("ERR unknown ticket {local}"),
            Some(("RESULT", local)) => format!("ERR ticket {local} is not finished"),
            _ => "ERR unexpected".into(),
        })
    });
    let (router, mut writer, mut reader) = fake_cluster(shard, RouterConfig::default());
    writer
        .write_all(b"SUBMIT scen\nPOLL 1\nWAIT 1\nRESULT 1\n")
        .unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    assert_eq!(recv(&mut reader), "ERR unknown ticket 1");
    assert_eq!(recv(&mut reader), "ERR unknown ticket 1");
    assert_eq!(recv(&mut reader), "ERR ticket 1 is not finished");
    assert_eq!(
        *log.lock().unwrap(),
        ["SUBMIT scen", "POLL 7", "WAIT 7", "RESULT 7"]
    );
    router.stop();
}

// ---------------------------------------------------------------------------
// Replication by cursor
// ---------------------------------------------------------------------------

/// A scripted shard that logs every request line it receives (heartbeat
/// `PING`s included, `CTX` prefixes stripped) and answers each as `answer`
/// says, reading a `SHIP` header's payload off first.
fn logging_shard(
    answer: impl Fn(&str) -> String + Send + Sync + 'static,
) -> (SocketAddr, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let (seen, answer) = (Arc::clone(&log), Arc::new(answer));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let (seen, answer) = (Arc::clone(&seen), Arc::clone(&answer));
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let request = forwarded(line.trim_end()).to_string();
                    if let Some(len) = request
                        .strip_prefix("SHIP ")
                        .and_then(|r| r.rsplit(' ').next())
                    {
                        let mut payload = vec![0; len.parse().unwrap()];
                        reader.read_exact(&mut payload).unwrap();
                    }
                    let reply = answer(&request);
                    seen.lock().unwrap().push(request);
                    let _ = stream.write_all(format!("{reply}\n").as_bytes());
                    line.clear();
                }
            });
        }
    });
    (addr, log)
}

/// Under K = 2 the router asks a namespace's primary only for what it
/// recorded after the cursor its last reply carried, and ships a reply to
/// the replica only when it holds something: after a `RUN`, the first sync
/// exports `FROM 0` and ships its two bytes, the second exports from the
/// cursor the first reply carried and, handed nothing, ships nothing.
#[test]
fn a_replica_is_synced_from_the_cursor_its_last_shipment_carried() {
    // The heartbeat's first probe (of `s0`) is held until both syncs
    // below are done, so no sync of the heartbeat's own joins them.
    let (release, held) = mpsc::channel::<()>();
    let shard = |probe: Option<mpsc::Receiver<()>>| {
        let (probe, exports) = (Mutex::new(probe), AtomicUsize::new(0));
        logging_shard(move |request| match request.split(' ').next() {
            Some("PING") => {
                if let Some(held) = probe.lock().unwrap().take() {
                    let _ = held.recv();
                }
                "PONG".into()
            }
            Some("EXPORT") => match exports.fetch_add(1, Ordering::SeqCst) {
                0 => "SHIPMENT 5eed-7 2 beef".into(),
                k => format!("SHIPMENT 5eed-{:x} 0", 7 + k),
            },
            Some("SHIP") => "OK 1".into(),
            _ => "OK 0".into(),
        })
    };
    let (s0, s1) = (shard(Some(held)), shard(None));
    let config = RouterConfig {
        replication: 2,
        heartbeat_interval: Duration::from_secs(3600),
        heartbeat_timeout: Duration::from_secs(60),
        ..RouterConfig::default()
    };
    let router = Router::bind_with(
        ClusterSpec::new([("scen", "ns")]).unwrap(),
        vec![("s0".to_string(), s0.0), ("s1".to_string(), s1.0)],
        "127.0.0.1:0",
        config,
    )
    .unwrap();

    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream).write_all(b"RUN\n").unwrap();
    assert_eq!(recv(&mut BufReader::new(stream)), "OK 0");
    router.flush_replication();
    router.flush_replication();
    drop(release);
    router.stop();

    let owners = router.owners_of("ns");
    let log_of = |name: &str| if name == "s0" { &s0.1 } else { &s1.1 };
    let lines = |name: &str, verb: &str| -> Vec<String> {
        let log = log_of(name).lock().unwrap();
        log.iter()
            .filter(|l| l.starts_with(verb))
            .cloned()
            .collect()
    };
    let (primary, replica) = (owners[0].as_str(), owners[1].as_str());
    assert_eq!(
        lines(primary, "EXPORT "),
        ["EXPORT ns FROM 0", "EXPORT ns FROM 5eed-7"]
    );
    assert_eq!(lines(replica, "SHIP "), ["SHIP ns 2"], "no SHIP for len 0");
    assert!(lines(replica, "EXPORT ").is_empty() && lines(primary, "SHIP ").is_empty());
}

/// A join made before any `RUN` finds nothing cached for the namespaces
/// the joiner gains: it lists the ownership moves and sends no `SHIP`.
#[test]
fn a_join_before_any_run_lists_the_moves_and_ships_nothing() {
    let workload = ClusterWorkload {
        namespaces: 2,
        rows: 160,
        max_states: 8,
    };
    let cluster = workload.build_cluster(1);
    let keys: Vec<u64> = (0..workload.namespaces)
        .map(|i| SharedEvalCache::namespace_key(&workload.namespace(i)))
        .collect();
    let joiner = (1..100)
        .map(|i| format!("shard{i}"))
        .find(|candidate| {
            let mut with = cluster.router.shard_map();
            with.add(candidate.clone());
            keys.iter()
                .any(|&key| with.owner_of(key) == Some(candidate.as_str()))
        })
        .expect("some candidate name owns a namespace");
    let new_shard = workload.spawn_shard(&joiner);
    let shipped = cluster
        .router
        .join_shard(&joiner, new_shard.daemon.addr())
        .expect("join commits");
    assert!(!shipped.is_empty(), "the joiner took over some namespace");
    let metrics = new_shard.service.engine().metrics().render();
    assert!(
        metrics.contains(&"reactor_requests_total{verb=\"ship\"} 0".to_string()),
        "{metrics:#?}"
    );
    cluster.stop();
    new_shard.daemon.stop();
}

// ---------------------------------------------------------------------------
// The fan-in verbs against a failing shard
// ---------------------------------------------------------------------------

/// The seven verbs the router sends to every shard and answers with one
/// reply built from all of theirs.
const FAN_IN_VERBS: [&str; 7] = [
    "RUN",
    "STATS",
    "SNAPSHOT",
    "METRICS",
    "TRACE DUMP 5",
    "TRACE SLOW 5",
    "EXPLAIN TRACE 00000000000000ab",
];

/// How the scripted shard `s1` of the fault table answers a fan-in verb.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// Like a healthy shard.
    None,
    /// `ERR boom`.
    Err,
    /// A line no verb expects.
    Malformed,
    /// Reads the request and closes with the reply owed.
    Close,
    /// Refuses the connection.
    Refuse,
}

/// A fake shard daemon that answers the fan-in verbs, and how many
/// heartbeat probes it has answered.
struct FanShard {
    addr: SocketAddr,
    probes: Arc<AtomicUsize>,
}

/// What a healthy fake shard answers to `request`; `k` tells the two
/// shards' numbers apart (and orders their trace lines).
fn fan_answer(k: u64, request: &str) -> String {
    let (verb, arg) = request.split_once(' ').unwrap_or((request, ""));
    match verb {
        "RUN" => format!("OK {k}"),
        "STATS" => format!(
            "STATS hits={k} misses={} entries=3 evictions=0 memo_entries=1 memo_evictions=0 \
             dominance_comparisons=10 dominance_pruned={k} shards=9",
            2 * k
        ),
        "SNAPSHOT" => {
            std::fs::write(arg, b"snap").unwrap();
            "OK 4".into()
        }
        "METRICS" => format!(
            "METRICS 3\n# HELP fake_total A fake counter.\n# TYPE fake_total counter\nfake_total {k}"
        ),
        "TRACE" if arg.starts_with("DUMP") => {
            format!("SPANS 1\nspan=dump{k} start_us={k}0 dur_us={k}")
        }
        "TRACE" => format!("SLOW 1\ntrace=slow{k} dur_us={k}"),
        "EXPLAIN" => format!("TIMELINE 1\nspan=step{k} start_us={} dur_us=1", 30 - 10 * k),
        _ => panic!("not a fan-in verb: {request:?}"),
    }
}

/// A fake shard answering the fan-in verbs as `fault` says. A refusing
/// shard is [`REFUSED`].
fn fan_shard(k: u64, fault: Fault) -> FanShard {
    let probes = Arc::new(AtomicUsize::new(0));
    if fault == Fault::Refuse {
        let addr = REFUSED.parse().unwrap();
        return FanShard { addr, probes };
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let counted = Arc::clone(&probes);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let probes = Arc::clone(&counted);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let (mut line, mut probe) = (String::new(), false);
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    probe |= line == "PING\n";
                    let reply = match (forwarded(&line), fault) {
                        ("PING", _) => "PONG".to_string(),
                        (_, Fault::Close) => return,
                        (_, Fault::Err) => "ERR boom".into(),
                        (_, Fault::Malformed) => "GARBAGE".into(),
                        (request, _) => fan_answer(k, request),
                    };
                    if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
                        return;
                    }
                    line.clear();
                }
                // A probe counts once the router has read its PONG and
                // hung up.
                if probe {
                    probes.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    FanShard { addr, probes }
}

/// A router over `s0` and `s1`, returned once its first heartbeat has
/// probed both (no other comes: the interval is an hour).
fn fan_router(s0: &FanShard, s1: &FanShard, s1_refuses: bool, misses: u32) -> Router {
    let spec = ClusterSpec::new([("scen", "ns")]).unwrap();
    let config = RouterConfig {
        heartbeat_interval: Duration::from_secs(3600),
        heartbeat_misses: misses,
        ..RouterConfig::default()
    };
    let probed = s1.probes.load(Ordering::SeqCst);
    let shards = vec![("s0".to_string(), s0.addr), ("s1".to_string(), s1.addr)];
    let router = Router::bind_with(spec, shards, "127.0.0.1:0", config).unwrap();
    // The heartbeat probes s0, then s1.
    let missed = "router_heartbeat_misses_total{shard=\"s1\"} 1";
    let deadline = Instant::now() + Duration::from_secs(10);
    while !match s1_refuses {
        true => router.metrics().render().iter().any(|l| l == missed),
        false => s1.probes.load(Ordering::SeqCst) > probed,
    } {
        assert!(Instant::now() < deadline, "the first heartbeat never ran");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The heartbeat records the probe just after the shard sees it.
    std::thread::sleep(Duration::from_millis(20));
    router
}

/// Sends `request` to the router and reads its whole reply: one line, or
/// a `<HEADER> <n>` line and n more. A `METRICS` reply loses the router's
/// own `router_*` families and, with them, the count on its header.
fn fan_in_reply(router: &Router, request: &str) -> Vec<String> {
    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream)
        .write_all(format!("{request}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);
    let head = recv(&mut reader);
    let count = match head.split_once(' ') {
        Some(("METRICS" | "SPANS" | "SLOW" | "TIMELINE", n)) => n.parse().unwrap(),
        _ => 0,
    };
    let body: Vec<String> = (0..count).map(|_| recv(&mut reader)).collect();
    if !head.starts_with("METRICS ") {
        return std::iter::once(head).chain(body).collect();
    }
    let own = |line: &String| line.starts_with("router_") || line.contains(" router_");
    let shards = body.into_iter().filter(|line| !own(line));
    std::iter::once("METRICS".to_string())
        .chain(shards)
        .collect()
}

/// What the router answers fan-in verb `verb` (an index into
/// [`FAN_IN_VERBS`]) when `s0` is healthy and `s1` fails as `fault`, or
/// when both refuse; `refused` is what a refused connect reads as.
fn fan_in_expected(verb: usize, fault: Fault, both_refuse: bool, refused: &str) -> Vec<String> {
    let unavailable = |shard: &str| format!("ERR shard {shard} unavailable ({refused})");
    let s1_error = match fault {
        Fault::None => None,
        Fault::Err => Some("ERR shard s1: unexpected reply \"ERR boom\"".to_string()),
        Fault::Malformed => Some("ERR shard s1: unexpected reply \"GARBAGE\"".to_string()),
        Fault::Close => Some("ERR shard s1 unavailable (connection lost)".to_string()),
        Fault::Refuse => Some(unavailable("s1")),
    };
    // A one-line verb folds what the shard said; a counted verb reads a
    // shard that answers no header as failed.
    let s1_line_error = match fault {
        Fault::Err => Some("ERR shard s1: boom".to_string()),
        _ => s1_error.clone(),
    };
    let stats_s0 = "STATS hits=1 misses=2 entries=3 evictions=0 memo_entries=1 memo_evictions=0 \
                    dominance_comparisons=10 dominance_pruned=1 cluster_shards=2 degraded=s1";
    let metrics_head = [
        "METRICS",
        "# HELP fake_total A fake counter.",
        "# TYPE fake_total counter",
    ];
    let lines = |lines: &[&str]| lines.iter().map(|l| l.to_string()).collect::<Vec<_>>();
    if both_refuse {
        return match verb {
            3 => vec![
                "METRICS".to_string(),
                format!("# shard s0 unavailable: {}", unavailable("s0")),
                format!("# shard s1 unavailable: {}", unavailable("s1")),
            ],
            _ => vec![unavailable("s0")],
        };
    }
    let lost = matches!(fault, Fault::Close | Fault::Refuse);
    match (verb, s1_error) {
        (0, None) => lines(&["OK 3"]),
        (1, None) => lines(&[
            "STATS hits=3 misses=6 entries=6 evictions=0 memo_entries=2 memo_evictions=0 \
             dominance_comparisons=20 dominance_pruned=3 cluster_shards=2",
        ]),
        (2, None) => lines(&["OK 8"]),
        (3, None) => {
            let mut out = lines(&metrics_head);
            out.extend(lines(&[
                "fake_total{shard=\"s0\"} 1",
                "fake_total{shard=\"s1\"} 2",
            ]));
            out
        }
        (4, None) => lines(&[
            "SPANS 2",
            "span=dump1 start_us=10 dur_us=1 shard=s0",
            "span=dump2 start_us=20 dur_us=2 shard=s1",
        ]),
        (5, None) => lines(&[
            "SLOW 2",
            "trace=slow2 dur_us=2 shard=s1",
            "trace=slow1 dur_us=1 shard=s0",
        ]),
        (_, None) => lines(&[
            "TIMELINE 2",
            "span=step2 start_us=10 dur_us=1 shard=s1",
            "span=step1 start_us=20 dur_us=1 shard=s0",
        ]),
        // RUN and STATS skip a shard they lost and name it.
        (0, Some(_)) if lost => lines(&["OK 1 degraded=s1"]),
        (1, Some(_)) if lost => lines(&[stats_s0]),
        (0..=2, Some(_)) => vec![s1_line_error.unwrap()],
        // METRICS keeps a comment line where the shard's families were.
        (3, Some(error)) => {
            let mut out = lines(&metrics_head);
            out.push("fake_total{shard=\"s0\"} 1".into());
            out.push(format!("# shard s1 unavailable: {error}"));
            out
        }
        (_, Some(error)) => vec![error],
    }
}

/// Every fan-in verb against a healthy `s0` and an `s1` that answers
/// normally, `ERR boom`, a malformed line, closes with the reply owed or
/// refuses the connection — plus both shards refusing: the exact reply,
/// and which `<base>.<shard>` files a `SNAPSHOT` leaves (all of them, or
/// none).
#[test]
fn fan_in_verbs_answer_a_failing_shard_as_the_table_says() {
    let refused_addr = fan_shard(0, Fault::Refuse).addr;
    let refused = TcpStream::connect(refused_addr).unwrap_err().to_string();
    let s0 = fan_shard(1, Fault::None);
    let mut rows: Vec<(Fault, bool)> = [
        Fault::None,
        Fault::Err,
        Fault::Malformed,
        Fault::Close,
        Fault::Refuse,
    ]
    .into_iter()
    .map(|fault| (fault, false))
    .collect();
    rows.push((Fault::Refuse, true));
    for (fault, both_refuse) in rows {
        let s1 = fan_shard(2, fault);
        let s0 = match both_refuse {
            true => fan_shard(1, Fault::Refuse),
            false => FanShard {
                addr: s0.addr,
                probes: Arc::clone(&s0.probes),
            },
        };
        for (verb, request) in FAN_IN_VERBS.iter().enumerate() {
            let router = fan_router(&s0, &s1, fault == Fault::Refuse, 3);
            let base = temp_path("fan_in").display().to_string();
            let request = match *request {
                "SNAPSHOT" => format!("SNAPSHOT {base}"),
                other => other.to_string(),
            };
            let reply = fan_in_reply(&router, &request);
            router.stop();
            let row = format!("{request} with s1 {fault:?} (both refuse: {both_refuse})");
            assert_eq!(
                reply,
                fan_in_expected(verb, fault, both_refuse, &refused),
                "{row}"
            );
            let left: Vec<&str> = ["s0", "s1"]
                .into_iter()
                .filter(|shard| std::fs::remove_file(format!("{base}.{shard}")).is_ok())
                .collect();
            let whole = verb == 2 && fault == Fault::None;
            let expected_files: &[&str] = if whole { &["s0", "s1"] } else { &[] };
            assert_eq!(left, expected_files, "files left by {row}");
        }
    }
}

/// A fan-in verb that loses its link to a shard counts one breaker
/// failure, whichever verb it is: at a threshold of one miss, `s1`'s
/// breaker is open after every verb, and the `METRICS` reply says so.
#[test]
fn a_lost_fan_in_link_is_a_breaker_failure_for_every_verb() {
    let refused = TcpStream::connect(fan_shard(0, Fault::Refuse).addr)
        .unwrap_err()
        .to_string();
    let (s0, s1) = (fan_shard(1, Fault::None), fan_shard(2, Fault::Close));
    let mut wrong = Vec::new();
    for (verb, request) in FAN_IN_VERBS.iter().enumerate() {
        let router = fan_router(&s0, &s1, false, 1);
        let base = temp_path("fan_in_lost").display().to_string();
        let request = match *request {
            "SNAPSHOT" => format!("SNAPSHOT {base}"),
            other => other.to_string(),
        };
        let reply = fan_in_reply(&router, &request);
        let state = router.circuit_state("s1");
        router.stop();
        let mut expected = fan_in_expected(verb, Fault::Close, false, &refused);
        if verb == 3 {
            expected
                .push("# shard s1 degraded: declared dead by heartbeat; replicas serving".into());
        }
        if state != CircuitState::Open || reply != expected {
            wrong.push(format!("{request}: breaker {state:?}, reply {reply:?}"));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
