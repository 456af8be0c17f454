//! Integration tests of the `modis-service` subsystem: snapshot round-trip
//! properties (value and queue-order identity, clean rejection of
//! corrupted/truncated files), warm restarts from disk,
//! cost-aware scheduling order, per-request cost accounting and the TCP
//! front-end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use modis_bench::task_t3;
use modis_core::prelude::*;
use modis_core::substrate::mock::MockSubstrate;
use modis_core::substrate::Substrate;
use modis_data::StateBitmap;
use modis_engine::{
    Algorithm, Engine, EngineConfig, ExportedEvaluation, Scenario, ScenarioOutcome, SharedEvalCache,
};
use modis_service::{
    handle_command, snapshot, Daemon, JobState, Service, ServiceConfig, ServiceError,
};

static TEMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique throwaway file path (no tempfile crate in the workspace).
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "modis_service_it_{}_{}_{}.snap",
        tag,
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn oracle_config(max_states: usize) -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(max_states)
        .with_max_level(4)
        .with_estimator(EstimatorMode::Oracle)
}

/// Registers the standard three-algorithm mock suite on a service.
fn register_mock_suite(service: &Service, units: usize) {
    register_mock_suite_with(service, units, oracle_config(60));
}

fn register_mock_suite_with(service: &Service, units: usize, config: ModisConfig) {
    let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(units));
    for (name, alg) in [
        ("apx", Algorithm::Apx),
        ("bi", Algorithm::Bi),
        ("div", Algorithm::Div),
    ] {
        service
            .register(
                Scenario::new(name, substrate.clone(), alg, config.clone())
                    .with_cache_namespace("mock-pool"),
            )
            .unwrap();
    }
}

fn assert_identical(a: &SkylineResult, b: &SkylineResult, label: &str) {
    assert_eq!(a.entries.len(), b.entries.len(), "{label}: entry counts");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.bitmap, y.bitmap, "{label}: bitmaps");
        assert_eq!(x.perf, y.perf, "{label}: perf vectors");
        assert_eq!(x.raw, y.raw, "{label}: raw metrics");
        assert_eq!(x.size, y.size, "{label}: sizes");
        assert_eq!(x.level, y.level, "{label}: levels");
    }
}

fn done_outcome(service: &Service, ticket: modis_service::Ticket) -> ScenarioOutcome {
    match service.poll(ticket).unwrap() {
        JobState::Done(outcome) => *outcome,
        other => panic!("expected finished job, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot → bytes → merge into a fresh cache of the same shard count
    /// and capacity is value-identical, queue order included.
    #[test]
    fn snapshot_round_trip_preserves_values_and_eviction_order(
        values in prop::collection::vec(0.01f64..1.0, 1..100),
        capacity_selector in 0usize..3,
        touch in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let capacity = [0usize, 24, 48][capacity_selector];
        let cache = Arc::new(SharedEvalCache::with_capacity(4, capacity));
        let namespaces = ["alpha", "beta", "gamma"];
        for (i, &v) in values.iter().enumerate() {
            let handle = cache.handle(namespaces[i % namespaces.len()]);
            let mut bitmap = StateBitmap::empty(130);
            bitmap.set(i % 130, true);
            bitmap.set((i * 7 + 3) % 130, true);
            handle.record(&bitmap, &SharedEvaluation {
                raw: vec![v, i as f64],
                perf: vec![v, 1.0 - v],
            });
            // Mixed visited bits: re-touch a pseudo-random subset, so
            // evictions at capacity skip some entries and the resident
            // order is not plain insertion order.
            if touch[i % touch.len()] {
                handle.lookup(&bitmap);
            }
        }

        let bytes = snapshot::encode_snapshot(&cache, &[]);
        let restored = Arc::new(SharedEvalCache::with_capacity(4, capacity));
        restored.merge_exports(snapshot::decode_snapshot(&bytes).unwrap().entries);
        prop_assert_eq!(restored.export_all(), cache.export_all());
    }

    /// Any truncation and any single-bit corruption of a snapshot is
    /// rejected with an error — never a panic, never a partial import.
    #[test]
    fn damaged_snapshots_are_rejected_cleanly(
        cut_fraction in 0.0f64..1.0,
        flip_fraction in 0.0f64..1.0,
    ) {
        let cache = Arc::new(SharedEvalCache::with_capacity(2, 0));
        let handle = cache.handle("ns");
        for i in 0..10 {
            let mut bitmap = StateBitmap::empty(40);
            bitmap.set(i, true);
            handle.record(&bitmap, &SharedEvaluation {
                raw: vec![i as f64],
                perf: vec![0.1 * i as f64],
            });
        }
        let bytes = snapshot::encode_snapshot(&cache, &[]);

        let cut = (cut_fraction * bytes.len() as f64) as usize;
        if cut < bytes.len() {
            let truncated = &bytes[..cut];
            let target = Arc::new(SharedEvalCache::with_capacity(2, 0));
            prop_assert!(snapshot::decode_snapshot(truncated)
                .map(|decoded| target.merge_exports(decoded.entries))
                .is_err());
            prop_assert_eq!(target.stats().entries, 0, "no partial import");
        }

        let flip = ((flip_fraction * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut corrupted = bytes.clone();
        corrupted[flip] ^= 0x10;
        let target = Arc::new(SharedEvalCache::with_capacity(2, 0));
        prop_assert!(snapshot::decode_snapshot(&corrupted)
            .map(|decoded| target.merge_exports(decoded.entries))
            .is_err());
        prop_assert_eq!(target.stats().entries, 0, "no partial import");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A sealed snapshot never panics the decoder, and whatever it accepts
    /// merges into a fresh cache without panicking. The seal is correct,
    /// so every case reaches the structural decoder. Half the payloads are
    /// arbitrary: after the magic and the version come little-endian
    /// words, mostly small so that counts and lengths are plausible, now
    /// and then a huge one, and now and then a single byte (so the words
    /// after it fall out of alignment). The other half are real snapshots
    /// with one such word written over any field, lengths and counts
    /// included.
    #[test]
    fn sealed_snapshots_never_panic(
        arbitrary in any::<bool>(),
        shard_count in 0usize..4,
        tokens in prop::collection::vec(any::<u64>(), 1..40),
        at in 0.0f64..1.0,
        geometry in 0usize..4,
    ) {
        let word = |t: u64| match t % 8 {
            0 => t,
            1 => (t >> 3) % 160,
            _ => (t >> 3) % 3,
        }
        .to_le_bytes();
        let mut bytes = if arbitrary {
            let mut bytes = snapshot::SNAPSHOT_MAGIC.to_vec();
            bytes.extend_from_slice(&snapshot::SNAPSHOT_VERSION.to_le_bytes());
            for &t in &tokens {
                if t % 16 == 15 {
                    bytes.push((t >> 4) as u8 % 2);
                } else {
                    bytes.extend_from_slice(&word(t));
                }
            }
            bytes
        } else {
            let cache = Arc::new(SharedEvalCache::with_capacity(1 << (shard_count % 2), 0));
            for &t in &tokens[1..] {
                let mut bitmap = StateBitmap::empty((t % 130) as usize + 1);
                bitmap.set((t >> 8) as usize % bitmap.len(), true);
                let raw = vec![(t % 7) as f64; (t >> 16) as usize % 3];
                let evaluation = SharedEvaluation { perf: raw.clone(), raw };
                cache.handle(["a", "b"][(t >> 24) as usize % 2]).record(&bitmap, &evaluation);
            }
            let mut bytes = snapshot::encode_snapshot(&cache, &[(7, tokens[0])]);
            bytes.truncate(bytes.len() - 8);
            let offset = 12 + (at * (bytes.len() - 20) as f64) as usize;
            bytes[offset..offset + 8].copy_from_slice(&word(tokens[0]));
            bytes
        };
        let seal = modis_core::codec::checksum(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());

        if let Ok(decoded) = snapshot::decode_snapshot(&bytes) {
            let cache = SharedEvalCache::with_capacity(1 << (geometry % 2), 4 * (geometry / 2));
            cache.merge_exports(decoded.entries);
            cache.export_all();
        }
    }
}

#[test]
fn restarted_service_matches_cold_run_with_warm_cache() {
    // "Process 1": cold service, run the suite, snapshot, shut down.
    let path = temp_path("restart_mock");
    let first = Service::new(ServiceConfig::default());
    register_mock_suite(&first, 10);
    let tickets = first.submit_many(["apx", "bi", "div"]).unwrap();
    assert_eq!(first.run_pending(), 3);
    let cold_outcomes: Vec<ScenarioOutcome> =
        tickets.iter().map(|&t| done_outcome(&first, t)).collect();
    first.snapshot_to(&path).unwrap();
    drop(first);

    // A cold *sequential* reference run (fresh engine, no cache file).
    let reference: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(10));
    let cold_engine = Engine::new(EngineConfig::default());
    let cold_reference = cold_engine.run_scenario(
        &Scenario::new("apx-ref", reference, Algorithm::Apx, oracle_config(60))
            .with_cache_namespace("ref-pool"),
    );

    // "Process 2": a brand-new service warm-started from the snapshot,
    // with brand-new (structurally identical) substrate instances.
    let revived = Service::from_snapshot(ServiceConfig::default(), &path).unwrap();
    register_mock_suite(&revived, 10);
    let tickets = revived.submit_many(["apx", "bi", "div"]).unwrap();
    assert_eq!(revived.run_pending(), 3);
    for (ticket, cold) in tickets.iter().zip(&cold_outcomes) {
        let warm = done_outcome(&revived, *ticket);
        assert_eq!(
            warm.result.stats.oracle_calls, 0,
            "{}: every oracle valuation answered from the snapshot",
            warm.name
        );
        assert!(warm.shared_hits() > 0, "{}: warm start hits", warm.name);
        assert_identical(&warm.result, &cold.result, &warm.name);
    }
    // And byte-identical to the independent cold sequential run.
    let warm_apx = done_outcome(&revived, tickets[0]);
    assert_identical(&warm_apx.result, &cold_reference.result, "apx vs cold ref");
    std::fs::remove_file(&path).unwrap();
}

/// `submit_many` is all or nothing: one unknown name rejects the batch
/// before any run is enqueued, so no run executes behind a ticket the
/// caller never received.
#[test]
fn submit_many_with_an_unknown_name_enqueues_nothing() {
    use modis_service::Ticket;
    let service = Service::new(ServiceConfig::default());
    register_mock_suite(&service, 6);
    let rejected = service.submit_many(["apx", "nope", "bi"]);
    assert!(
        matches!(&rejected, Err(ServiceError::UnknownScenario(name)) if name == "nope"),
        "{rejected:?}"
    );
    assert_eq!(service.pending(), 0);
    assert!(matches!(
        service.poll(Ticket(1)),
        Err(ServiceError::UnknownTicket(1))
    ));
    assert_eq!(service.run_pending(), 0);
    // No ticket was spent: the next batch starts at the first one.
    let tickets = service.submit_many(["apx", "bi"]).unwrap();
    assert_eq!(tickets, [Ticket(1), Ticket(2)]);
}

#[test]
fn restarted_service_warm_starts_a_real_tabular_workload() {
    let path = temp_path("restart_t3");
    let config = oracle_config(20).with_max_level(3);

    let first = Service::new(ServiceConfig::default());
    let substrate: Arc<dyn Substrate> = Arc::new(task_t3(5).substrate());
    first
        .register(
            Scenario::new("t3-apx", substrate, Algorithm::Apx, config.clone())
                .with_cache_namespace("t3-pool"),
        )
        .unwrap();
    let cold_ticket = first.submit("t3-apx").unwrap();
    first.run_pending();
    let cold = done_outcome(&first, cold_ticket);
    assert!(!cold.result.is_empty());
    first.snapshot_to(&path).unwrap();
    drop(first);

    // Fresh process, fresh substrate instance; only the snapshot carries
    // the evaluations across (raw metrics include training wall-clock, so
    // byte identity is only possible because nothing is retrained).
    let revived = Service::from_snapshot(ServiceConfig::default(), &path).unwrap();
    let substrate: Arc<dyn Substrate> = Arc::new(task_t3(5).substrate());
    revived
        .register(
            Scenario::new("t3-apx", substrate, Algorithm::Apx, config)
                .with_cache_namespace("t3-pool"),
        )
        .unwrap();
    let warm_ticket = revived.submit("t3-apx").unwrap();
    revived.run_pending();
    let warm = done_outcome(&revived, warm_ticket);
    assert_eq!(
        warm.result.stats.oracle_calls, 0,
        "no retraining after restart"
    );
    assert!(
        warm.shared_hits() > 0,
        "first run after restart hits the cache"
    );
    assert_identical(&warm.result, &cold.result, "t3 warm vs cold");
    std::fs::remove_file(&path).unwrap();
}

/// A warm start enters the cache the way `RESTORE` and `SHIP` do: a file
/// holding slots that no guard pair covers is refused whole, so none of
/// them can be served to a substrate registered later under their
/// namespace. The same slots with their pair warm-start.
#[test]
fn a_warm_start_refuses_slots_no_guard_pair_covers() {
    let cache = Arc::new(SharedEvalCache::with_capacity(4, 0));
    let handle = cache.handle("mock-pool");
    for i in 0..6 {
        let mut bitmap = StateBitmap::empty(10);
        bitmap.set(i, true);
        let evaluation = SharedEvaluation {
            raw: vec![i as f64],
            perf: vec![0.1 * i as f64],
        };
        handle.record(&bitmap, &evaluation);
    }
    let path = temp_path("unguarded");
    std::fs::write(&path, snapshot::encode_snapshot(&cache, &[])).unwrap();
    let refused = Service::from_snapshot(ServiceConfig::default(), &path).err();
    assert!(
        matches!(
            refused,
            Some(ServiceError::Snapshot(snapshot::SnapshotError::Corrupt(_)))
        ),
        "{refused:?}"
    );

    let key = SharedEvalCache::namespace_key("mock-pool");
    std::fs::write(&path, snapshot::encode_snapshot(&cache, &[(key, 1)])).unwrap();
    let warm = Service::from_snapshot(ServiceConfig::default(), &path).unwrap();
    assert_eq!(warm.cache_stats().entries, 6);
    assert_eq!(warm.engine().namespace_fingerprints(), [(key, 1)]);
    std::fs::remove_file(&path).unwrap();
}

/// A version-2 file — one shard with one slot, its visited byte and its
/// hand, and the guard pair for that slot's namespace — is an unsupported
/// snapshot version: neither decoded, nor merged, nor warm-started from.
#[test]
fn a_version_2_snapshot_is_refused_and_never_replayed() {
    let key = SharedEvalCache::namespace_key("mock-pool");
    let mut bytes = snapshot::SNAPSHOT_MAGIC.to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes()); // shards
    let slot = [1, 0, 1, key, 10, 0b1]; // entries, hand, count, namespace, bits, word
    for word in slot {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes.push(1); // visited
    for metrics in [[0.5f64], [0.25]] {
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&metrics[0].to_le_bytes());
    }
    for word in [1, key, 1] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    let seal = modis_core::codec::checksum(&bytes);
    bytes.extend_from_slice(&seal.to_le_bytes());

    assert!(matches!(
        snapshot::decode_snapshot(&bytes),
        Err(snapshot::SnapshotError::UnsupportedVersion(2))
    ));
    let service = Service::new(ServiceConfig::default());
    assert!(service.restore_from_bytes(&bytes).is_err());
    assert_eq!(service.cache_stats().entries, 0);
    assert!(service.engine().namespace_fingerprints().is_empty());
    let path = temp_path("version2");
    std::fs::write(&path, &bytes).unwrap();
    assert!(Service::from_snapshot(ServiceConfig::default(), &path).is_err());
    std::fs::remove_file(&path).unwrap();
}

/// The fitted-surrogate memo is process state and nothing else. A snapshot
/// of a service that ran surrogate-mode scenarios has HEAD's version and
/// sections and holds evaluations only; a service restored from it answers
/// byte-identically, refits on its first request exactly what a fresh
/// process fits, reuses from then on — and neither filling its memo nor
/// its all-hit waves change a byte of what `SNAPSHOT`, `EXPORT` or `SHIP`
/// would send.
#[test]
fn the_surrogate_memo_never_reaches_persistence_and_a_restored_service_refits_once() {
    let surrogate = oracle_config(60).with_estimator(EstimatorMode::Surrogate {
        warmup: 3,
        refresh: 1,
    });
    let wave = |service: &Service| -> Vec<ScenarioOutcome> {
        let tickets = service.submit_many(["apx", "bi", "div"]).unwrap();
        assert_eq!(service.run_pending(), 3);
        tickets.iter().map(|&t| done_outcome(service, t)).collect()
    };
    let counter = |service: &Service, family: &str| -> u64 {
        let prefix = format!("{family}{{namespace=\"mock-pool\"}} ");
        let lines = service.engine().metrics().render();
        lines
            .iter()
            .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
            .unwrap_or(0)
    };
    let total = |outcomes: &[ScenarioOutcome], field: fn(&ValuationStats) -> usize| -> u64 {
        outcomes.iter().map(|o| field(&o.result.stats) as u64).sum()
    };

    // "Process 1": a fresh service fits, then snapshots.
    let path = temp_path("memo");
    let first = Service::new(ServiceConfig::default());
    register_mock_suite_with(&first, 10, surrogate.clone());
    let cold = wave(&first);
    let fresh_fits = counter(&first, "engine_surrogate_fits_total");
    let refits = fresh_fits + counter(&first, "engine_surrogate_reused_total");
    assert!(fresh_fits >= 3, "every scenario fitted: {fresh_fits}");
    assert_eq!(fresh_fits, total(&cold, |s| s.surrogate_fits));
    first.snapshot_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let geometry = first.engine().config().clone();
    drop(first);

    // The format is HEAD's: version 3, and the sections of
    // `snapshot.rs`'s module docs account for every byte. (The patterns
    // name every field: a new one on either struct stops this compiling.)
    assert_eq!(snapshot::SNAPSHOT_VERSION, 3);
    let decoded = snapshot::decode_snapshot(&bytes).unwrap();
    let header = 8 + 4 + 8;
    let entries: usize = decoded
        .entries
        .iter()
        .map(|entry| {
            let ExportedEvaluation {
                namespace: _,
                bitmap,
                evaluation: SharedEvaluation { raw, perf },
            } = entry;
            8 + 8 + 8 * bitmap.words().len() + 8 + 8 * raw.len() + 8 + 8 * perf.len()
        })
        .sum();
    let guards = 8 + 16 * decoded.namespace_fingerprints.len();
    assert_eq!(bytes.len(), header + entries + guards + 8);
    // A cache that never saw a surrogate, holding the decoded evaluations,
    // encodes to the same bytes.
    let memoless = SharedEvalCache::with_capacity(geometry.cache_shards, geometry.cache_capacity);
    memoless.merge_exports(decoded.entries);
    assert_eq!(
        snapshot::encode_snapshot(&memoless, &decoded.namespace_fingerprints),
        bytes
    );

    // "Process 2": restored, its memo empty.
    let revived = Service::from_snapshot(ServiceConfig::default(), &path).unwrap();
    register_mock_suite_with(&revived, 10, surrogate);
    let persisted = |service: &Service| {
        let engine = service.engine();
        (
            snapshot::encode_snapshot(engine.cache(), &engine.namespace_fingerprints()),
            service.shipment_bytes(&["mock-pool".to_string()]),
            handle_command(service, "EXPORT mock-pool")
                .text()
                .to_string(),
        )
    };
    let before = persisted(&revived);
    assert_eq!(before.0, bytes);

    let warm = wave(&revived);
    for (warm, cold) in warm.iter().zip(&cold) {
        assert_identical(&warm.result, &cold.result, &warm.name);
        assert_eq!(warm.result.stats.oracle_calls, 0, "{}", warm.name);
    }
    assert_eq!(
        counter(&revived, "engine_surrogate_fits_total"),
        fresh_fits,
        "the first request after a restore fits what a fresh process fits"
    );
    assert_eq!(total(&warm, |s| s.surrogate_fits), fresh_fits);

    let again = wave(&revived);
    for (again, cold) in again.iter().zip(&cold) {
        assert_identical(&again.result, &cold.result, &again.name);
    }
    assert_eq!(total(&again, |s| s.surrogate_fits), 0);
    assert_eq!(
        counter(&revived, "engine_surrogate_fits_total"),
        fresh_fits,
        "and then stops fitting"
    );
    assert_eq!(
        counter(&revived, "engine_surrogate_reused_total"),
        2 * refits - fresh_fits
    );
    // The two all-hit waves read the cache and fill the memo; nothing a
    // peer or a disk receives has moved…
    let after = persisted(&revived);
    assert_eq!(after.0, before.0, "SNAPSHOT");
    assert_eq!(after.1, before.1, "SHIP");
    // …and neither has `EXPORT`'s reply.
    assert!(before.2.starts_with("SHIPMENT "), "{}", before.2);
    assert_eq!(after.2, before.2, "EXPORT");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn scheduler_runs_the_cache_warming_scenario_first() {
    let service = Service::new(ServiceConfig::default());
    let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(9));
    service
        .register(
            Scenario::new(
                "expensive",
                substrate.clone(),
                Algorithm::Apx,
                oracle_config(80),
            )
            .with_cache_namespace("pool"),
        )
        .unwrap();
    service
        .register(
            Scenario::new("cheap", substrate, Algorithm::Apx, oracle_config(10))
                .with_cache_namespace("pool"),
        )
        .unwrap();

    // Submitted expensive-first; the scheduler must still run the cheap
    // (cache-warming) scenario before its expensive dependant.
    let expensive = service.submit("expensive").unwrap();
    let cheap = service.submit("cheap").unwrap();
    assert_eq!(service.run_pending(), 2);

    let cheap_outcome = done_outcome(&service, cheap);
    let expensive_outcome = done_outcome(&service, expensive);
    assert_eq!(
        cheap_outcome.shared_hits(),
        0,
        "cheap ran first, on a cold cache"
    );
    assert!(
        expensive_outcome.shared_hits() > 0,
        "expensive ran second and reused the warmed cache"
    );
}

/// Every model the service trains is paid for by the request whose search
/// trained it: one drain of four algorithms, each in its own namespace,
/// trains what the four searches train alone at one worker, each job's
/// cost counts exactly its own trainings, and the scheduler's observed
/// cost agrees with the engine's paid counter in every namespace.
#[test]
fn a_request_pays_for_every_model_the_service_trains() {
    let service = Service::new(ServiceConfig::default());
    let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
    let config = oracle_config(60);
    let algorithms = [
        Algorithm::Apx,
        Algorithm::Bi,
        Algorithm::NoBi,
        Algorithm::Div,
    ];
    for algorithm in algorithms {
        service
            .register(
                Scenario::new(
                    algorithm.name(),
                    substrate.clone(),
                    algorithm,
                    config.clone(),
                )
                .with_cache_namespace(algorithm.name()),
            )
            .unwrap();
    }
    let tickets = service
        .submit_many(algorithms.iter().map(|a| a.name()))
        .unwrap();
    assert_eq!(service.run_pending(), algorithms.len());

    let alone: usize = algorithms
        .iter()
        .map(|algorithm| {
            let ctx = ValuationContext::new(substrate.as_ref(), EstimatorMode::Oracle);
            algorithm.run(&ctx, &config, 1).stats.oracle_calls
        })
        .sum();
    let stats = handle_command(&service, "STATS").text().to_string();
    let misses: usize = stats
        .split_whitespace()
        .find_map(|field| field.strip_prefix("misses=")?.parse().ok())
        .unwrap_or_else(|| panic!("{stats}"));
    assert_eq!(misses, alone, "the drain trains what the searches train");
    let costs: usize = tickets
        .iter()
        .map(|&t| done_outcome(&service, t).valuation_cost())
        .sum();
    assert_eq!(costs, misses, "every training is some job's cost");

    let scrape = handle_command(&service, "METRICS").text().to_string();
    let counter = |family: &str, namespace: &str| -> u64 {
        let prefix = format!("{family}{{namespace=\"{namespace}\"}} ");
        scrape
            .lines()
            .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
            .unwrap_or(0)
    };
    for algorithm in algorithms {
        let namespace = algorithm.name();
        let paid = counter("engine_paid_valuations_total", namespace);
        assert!(paid > 0, "{namespace}");
        assert_eq!(
            counter("service_observed_cost_total", namespace),
            paid,
            "{namespace}: the scheduler sees what the engine paid"
        );
    }
}

#[test]
fn namespace_guard_survives_a_restart() {
    // Process 1 fills "mock-pool" with evaluations of a 10-unit substrate
    // and snapshots (cache + namespace guard).
    let path = temp_path("guard_restart");
    let first = Service::new(ServiceConfig::default());
    register_mock_suite(&first, 10);
    first.submit("apx").unwrap();
    first.run_pending();
    first.snapshot_to(&path).unwrap();
    drop(first);

    // Process 2 restores the snapshot and tries to reuse the namespace for
    // an *incompatible* substrate (refreshed/changed data): rejected at
    // registration — the cached evaluations under that namespace do not
    // describe this substrate's states.
    let revived = Service::from_snapshot(ServiceConfig::default(), &path).unwrap();
    let refreshed: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(12));
    let err = revived
        .register(
            Scenario::new("apx", refreshed, Algorithm::Apx, oracle_config(60))
                .with_cache_namespace("mock-pool"),
        )
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::NamespaceConflict { .. }),
        "{err}"
    );

    // The matching substrate is still welcome and still warm.
    register_mock_suite(&revived, 10);
    let ticket = revived.submit("apx").unwrap();
    revived.run_pending();
    assert!(done_outcome(&revived, ticket).shared_hits() > 0);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn namespace_conflicts_are_rejected_at_registration() {
    let service = Service::new(ServiceConfig::default());
    let six: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
    let eight: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(8));
    service
        .register(
            Scenario::new("first", six, Algorithm::Apx, oracle_config(20))
                .with_cache_namespace("shared"),
        )
        .unwrap();
    let err = service
        .register(
            Scenario::new("second", eight, Algorithm::Apx, oracle_config(20))
                .with_cache_namespace("shared"),
        )
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::NamespaceConflict { .. }),
        "{err}"
    );
}

#[test]
fn tcp_front_end_round_trips_the_protocol_and_snapshot() {
    let path = temp_path("daemon");
    let service = Arc::new(Service::new(ServiceConfig::default()));
    register_mock_suite(&service, 8);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(daemon.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    assert_eq!(ask("PING"), "PONG");
    assert_eq!(ask("LIST"), "SCENARIOS apx bi div");
    assert_eq!(ask("SUBMIT apx"), "TICKET 1");
    assert_eq!(ask("POLL 1"), "QUEUED");
    assert_eq!(ask("RUN"), "OK 1");
    let done = ask("POLL 1");
    assert!(done.starts_with("DONE entries="), "{done}");
    let stats = ask("STATS");
    assert!(stats.starts_with("STATS hits="), "{stats}");
    let snap = ask(&format!("SNAPSHOT {}", path.display()));
    assert!(snap.starts_with("OK "), "{snap}");
    assert!(ask("SUBMIT ghost").starts_with("ERR "));
    assert_eq!(ask("QUIT"), "BYE");
    daemon.stop();

    // The snapshot written over the wire warm-starts a new service.
    let revived = Service::from_snapshot(ServiceConfig::default(), &path).unwrap();
    register_mock_suite(&revived, 8);
    let ticket = revived.submit("apx").unwrap();
    revived.run_pending();
    let outcome = done_outcome(&revived, ticket);
    assert_eq!(outcome.result.stats.oracle_calls, 0);
    assert!(outcome.shared_hits() > 0);
    std::fs::remove_file(&path).unwrap();
}
