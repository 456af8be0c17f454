//! Conformance tests of the request grammar (`docs/PROTOCOL.md` §1–§2).
//!
//! The **golden transcript** pins, request line by request line, the exact
//! reply of every verb — well-formed, lower-case, padded, `CTX`-prefixed
//! and with each malformed-argument shape — through all three front-ends:
//! the in-process [`handle_command`], a [`Daemon`] over TCP and, for the
//! routed verbs, a [`Router`] over two shard daemons. It was written
//! against the commit *before* the grammar moved into
//! `modis_service::protocol` and passes unchanged on both sides of that
//! move, except for the replies marked [`Case::was`].
//!
//! Beside it: the `SHIP` binary framing driven directly over TCP,
//! properties of `protocol::parse` and the `Framer` on arbitrary bytes,
//! and the check that `docs/PROTOCOL.md` §2 and the parser list the same
//! verbs.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use modis_core::prelude::*;
use modis_core::substrate::mock::MockSubstrate;
use modis_core::substrate::Substrate;
use modis_engine::{Algorithm, Scenario};
use modis_service::protocol::{self, Framer, Kind};
use modis_service::snapshot;
use modis_service::{
    handle_command, ClusterSpec, Daemon, ReactorConfig, Router, Service, ServiceConfig,
};

/// A well-formed 48-hex-digit trace context.
const CTX: &str = "000102030405060708090a0b0c0d0e0f1011121314151617";

/// A service with the one scenario the transcript drives: `apx` over a
/// deterministic mock substrate, in cache namespace `pool`.
fn service() -> Arc<Service> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(6));
    let config = ModisConfig::default()
        .with_estimator(EstimatorMode::Oracle)
        .with_max_states(40);
    service
        .register(
            Scenario::new("apx", substrate, Algorithm::Apx, config).with_cache_namespace("pool"),
        )
        .unwrap();
    service
}

/// What the router answers for a request.
enum Routed {
    /// Not a routed verb (or one whose router reply is covered by
    /// `tests/integration_cluster.rs`): not sent to the router.
    Skip,
    /// The same first reply line as a single daemon.
    Same,
    /// A different first reply line (same `…` prefix convention).
    Is(&'static str),
}

/// One request of the transcript and the first reply line it must get. An
/// expectation ending in `…` is a prefix (the tail varies run to run);
/// anything else is the exact and only reply line.
struct Case {
    /// The request bytes, terminator(s) and any `SHIP` payload included.
    request: Vec<u8>,
    /// The in-process reply; `None` when the request needs a socket.
    inproc: Option<&'static str>,
    /// The reply of a daemon over TCP.
    daemon: &'static str,
    router: Routed,
    /// The first reply line of the parent commit, on the front-ends where
    /// this PR changes the reply on purpose.
    was: Option<&'static str>,
}

/// A request every front-end answers alike.
fn case(request: impl AsRef<[u8]>, reply: &'static str) -> Case {
    let mut bytes = request.as_ref().to_vec();
    bytes.push(b'\n');
    Case {
        request: bytes,
        inproc: Some(reply),
        daemon: reply,
        router: Routed::Same,
        was: None,
    }
}

impl Case {
    /// The daemon (and, unless overridden, the router) answers differently
    /// from the in-process entry point.
    fn daemon(mut self, reply: &'static str) -> Case {
        self.daemon = reply;
        self
    }

    fn routed(mut self, reply: &'static str) -> Case {
        self.router = Routed::Is(reply);
        self
    }

    fn shard_only(mut self) -> Case {
        self.router = Routed::Skip;
        self
    }

    /// The request carries bytes after its line: TCP only.
    fn framed(mut self, payload: &[u8]) -> Case {
        self.request.extend_from_slice(payload);
        self.inproc = None;
        self.shard_only()
    }

    fn was(mut self, parent: &'static str) -> Case {
        self.was = Some(parent);
        self
    }
}

/// The transcript, in order. `tag` keeps the files of the three runs apart.
fn transcript(tag: &str) -> Vec<Case> {
    let snap = temp_file(tag, "snap");
    let staged = temp_file(tag, "staged");
    let a_router_rejects_ctx = "ERR unknown command \"CTX\"";
    let ctx_expects = "ERR CTX expects a 48-hex-digit trace context";
    let wait_inproc = "ERR WAIT requires the reactor front-end";
    let wait_expects = "ERR WAIT expects one or more numeric tickets";
    let ship_inproc = "ERR SHIP requires the reactor front-end";
    let ship_expects = "ERR SHIP expects one or more namespaces then a byte length";
    let tombstone = "ERR SNAPSHOT NAMESPACE was removed; use EXPORT and SHIP";
    vec![
        // Liveness, case, padding, CR, the CTX prefix.
        case("PING", "PONG"),
        case("ping", "PONG"),
        case("  PiNg \t", "PONG"),
        case("PING\r", "PONG"),
        case("PING extra tokens", "PONG"),
        case(format!("CTX {CTX} PING"), "PONG").routed(a_router_rejects_ctx),
        case(format!("ctx {CTX}   ping"), "PONG").routed("ERR unknown command \"ctx\""),
        case("CTX", ctx_expects).routed(a_router_rejects_ctx),
        case("CTX zz PING", ctx_expects).routed(a_router_rejects_ctx),
        case(format!("CTX {} PING", &CTX[1..]), ctx_expects).routed(a_router_rejects_ctx),
        case(format!("CTX {CTX}0 PING"), ctx_expects).shard_only(),
        case(format!("CTX {CTX}"), "ERR unknown command \"\"").shard_only(),
        case(format!("CTX {CTX} NOPE"), "ERR unknown command \"NOPE\"").shard_only(),
        // Lines that name no verb.
        case("", "ERR unknown command \"\""),
        case("   ", "ERR unknown command \"\""),
        case("NONSENSE", "ERR unknown command \"NONSENSE\""),
        case("nonsense with args", "ERR unknown command \"nonsense\""),
        case(b"\xff\xfe PING", "ERR unknown command \"…"),
        case("SHARDS", "ERR unknown command \"SHARDS\"").routed("SHARDS 2…"),
        // LIST / SUBMIT.
        case("LIST", "SCENARIOS apx"),
        case("list ignored", "SCENARIOS apx"),
        case("SUBMIT", "ERR unknown command \"SUBMIT\""),
        case("SUBMIT ghost", "ERR unknown scenario \"ghost\""),
        case("SUBMIT apx extra", "ERR unknown scenario \"apx extra\""),
        case("SUBMIT apx", "TICKET 1"),
        case("submit  apx ", "TICKET 2"),
        // POLL / RESULT / WAIT before the drain.
        case("POLL", "ERR POLL expects a numeric ticket"),
        case("POLL zero", "ERR POLL expects a numeric ticket"),
        case("POLL 1 2", "ERR POLL expects a numeric ticket"),
        case("POLL -1", "ERR POLL expects a numeric ticket"),
        case("POLL 99", "ERR unknown ticket 99"),
        case("POLL 1", "QUEUED"),
        case("poll 2", "QUEUED"),
        case("RESULT", "ERR RESULT expects a numeric ticket"),
        case("RESULT nope", "ERR RESULT expects a numeric ticket"),
        case("RESULT 99", "ERR unknown ticket 99"),
        case("RESULT 1", "ERR ticket 1 is not finished"),
        case("WAIT", wait_inproc).daemon(wait_expects),
        case("WAIT one", wait_inproc).daemon(wait_expects),
        case("WAIT 1 x", wait_inproc).daemon(wait_expects),
        case("WAIT 99", wait_inproc).daemon("ERR unknown ticket 99"),
        // The drain, then every read verb on finished tickets.
        case("RUN", "OK 2"),
        case("run again", "OK 0"),
        case(format!("CTX {CTX} SUBMIT apx"), "TICKET 3").shard_only(),
        case(format!("CTX {CTX} RUN"), "OK 1").shard_only(),
        case("POLL 1", "DONE entries=…"),
        case("WAIT 2 1", wait_inproc).daemon("DONE 2 entries=…"),
        case(format!("ctx {CTX} wait 1"), wait_inproc)
            .daemon("DONE 1 entries=…")
            .shard_only(),
        case("RESULT 1", "RESULT 1 entries=…"),
        case("result 2", "RESULT 2 entries=…"),
        case("STATS", "STATS hits=…"),
        case("stats now", "STATS hits=…"),
        case("METRICS", "METRICS …"),
        // TRACE / EXPLAIN.
        case("TRACE", "ERR unknown command \"TRACE\""),
        case("TRACE BOGUS 1", "ERR unknown command \"TRACE\""),
        case("TRACE DUMP", "ERR TRACE DUMP expects a numeric span count"),
        case(
            "TRACE DUMP many",
            "ERR TRACE DUMP expects a numeric span count",
        ),
        case("TRACE DUMP 4", "SPANS …"),
        case("trace dump 0", "SPANS 0"),
        case("TRACE SLOW", "ERR TRACE SLOW expects a numeric trace count"),
        case(
            "TRACE SLOW x",
            "ERR TRACE SLOW expects a numeric trace count",
        ),
        case("trace slow 3", "SLOW 0"),
        case(
            "EXPLAIN",
            "ERR EXPLAIN expects a ticket or TRACE <trace-id>",
        ),
        case(
            "EXPLAIN nope",
            "ERR EXPLAIN expects a ticket or TRACE <trace-id>",
        ),
        case("EXPLAIN 99", "ERR unknown ticket 99"),
        case("EXPLAIN 1", "TIMELINE …"),
        case("explain 1 ignored", "TIMELINE …"),
        case("EXPLAIN TRACE", "ERR EXPLAIN TRACE expects a hex trace id"),
        case(
            "EXPLAIN TRACE zz!",
            "ERR EXPLAIN TRACE expects a hex trace id",
        ),
        case("EXPLAIN TRACE deadbeef", "TIMELINE 0"),
        case("explain trace DEADBEEF", "TIMELINE 0"),
        // SNAPSHOT / RESTORE / EXPORT / SHIP.
        case("SNAPSHOT", "ERR unknown command \"SNAPSHOT\""),
        case(format!("SNAPSHOT {snap}"), "OK …"),
        case("SNAPSHOT /no/such/dir/x.snap", "ERR snapshot error: …").routed("ERR shard …"),
        case(format!("SNAPSHOT NAMESPACE pool {staged}"), tombstone).was("OK …"),
        case(format!("snapshot namespace pool {staged}"), tombstone).was("OK …"),
        case("SNAPSHOT NAMESPACE pool", tombstone)
            .was("ERR SNAPSHOT NAMESPACE expects one or more namespaces then a path")
            .shard_only(),
        case("RESTORE", "ERR unknown command \"RESTORE\""),
        case(format!("RESTORE {snap}"), "OK …").routed("ERR unknown command \"RESTORE\""),
        case(format!("restore {snap}"), "OK …").routed("ERR unknown command \"restore\""),
        case("RESTORE /no/such/file.ship", "ERR snapshot error: …").shard_only(),
        case("EXPORT", "ERR unknown command \"EXPORT\""),
        case("EXPORT pool", "SHIPMENT …").routed("ERR unknown command \"EXPORT\""),
        case("export pool ghost", "SHIPMENT …").shard_only(),
        case("EXPORT ghost", "SHIPMENT …").shard_only(),
        case("EXPORT pool FROM 0", "SHIPMENT …").shard_only(),
        case("EXPORT pool FROM", "ERR EXPORT FROM expects a cursor")
            .routed("ERR unknown command \"EXPORT\"")
            .was("SHIPMENT …"),
        case("export pool from zz", "ERR EXPORT FROM expects a cursor")
            .routed("ERR unknown command \"export\"")
            .was("SHIPMENT …"),
        case("EXPORT FROM 0", "ERR EXPORT expects one or more namespaces")
            .routed("ERR unknown command \"EXPORT\"")
            .was("SHIPMENT …"),
        case("SHIP", ship_inproc)
            .daemon(ship_expects)
            .was(ship_inproc)
            .shard_only(),
        case("SHIP pool", ship_inproc)
            .daemon(ship_expects)
            .was(ship_inproc)
            .shard_only(),
        case("SHIP 128", ship_inproc)
            .daemon(ship_expects)
            .was(ship_inproc)
            .shard_only(),
        case("ship pool many", ship_inproc)
            .daemon(ship_expects)
            .was(ship_inproc)
            .shard_only(),
        case("SHIP pool 0", ship_inproc)
            .daemon("ERR snapshot error: …")
            .shard_only(),
        // Five payload bytes that are not a shipment — and end in `\n`,
        // which a front-end that missed the header would read as a line.
        case("SHIP pool 5", "")
            .daemon("ERR snapshot error: …")
            .framed(b"ABCD\n"),
        case(format!("CTX {CTX} SHIP pool 5"), "")
            .daemon("ERR snapshot error: …")
            .framed(b"ABCD\n")
            .was(ship_inproc),
        case("SHIPPER pool 1", "ERR unknown command \"SHIPPER\""),
        // Nothing above may have cost the connection.
        case("PING", "PONG"),
        case("quit now", "BYE"),
    ]
}

fn temp_file(tag: &str, kind: &str) -> String {
    std::env::temp_dir()
        .join(format!("modis_golden_{}_{tag}.{kind}", std::process::id()))
        .display()
        .to_string()
}

/// Removes whatever the transcript (on either commit) wrote for `tag`.
fn remove_temp_files(tag: &str) {
    for kind in ["snap", "staged"] {
        let base = temp_file(tag, kind);
        for suffix in ["", ".shard0", ".shard1"] {
            let _ = std::fs::remove_file(format!("{base}{suffix}"));
        }
    }
}

/// Collects the verdict of one front-end's run over the transcript.
#[derive(Default)]
struct Verdict {
    wrong: Vec<String>,
    parent_behaviour: Vec<String>,
}

impl Verdict {
    fn check(&mut self, front: &str, case: &Case, want: &str, got: &[String]) {
        let request = String::from_utf8_lossy(&case.request);
        let first = got.first().map_or("<no reply>", String::as_str);
        if matches(want, got) {
            check_count_prefix(got);
        } else if case.was.is_some_and(|was| matches_line(was, first)) {
            self.parent_behaviour
                .push(format!("{front} {request:?} -> {first:?}"));
        } else {
            self.wrong
                .push(format!("{front} {request:?}: want {want:?}, got {got:?}"));
        }
    }

    fn finish(self) {
        assert!(
            self.wrong.is_empty(),
            "wrong replies:\n{}",
            self.wrong.join("\n")
        );
        assert!(
            self.parent_behaviour.is_empty(),
            "replies this change alters on purpose still show the parent's behaviour:\n{}",
            self.parent_behaviour.join("\n")
        );
    }
}

fn matches_line(want: &str, line: &str) -> bool {
    match want.strip_suffix('…') {
        Some(prefix) => line.starts_with(prefix),
        None => line == want,
    }
}

/// An exact expectation is the whole reply; a prefix pins the first line.
fn matches(want: &str, got: &[String]) -> bool {
    match got {
        [] => false,
        [only] => matches_line(want, only),
        [first, ..] => want.ends_with('…') && matches_line(want, first),
    }
}

/// A count-prefixed reply carries exactly the lines its header declares.
fn check_count_prefix(got: &[String]) {
    let mut tokens = got[0].split(' ');
    let counted = matches!(
        tokens.next(),
        Some("METRICS" | "SPANS" | "SLOW" | "TIMELINE" | "SHARDS")
    );
    if let (true, Some(Ok(n))) = (counted, tokens.next().map(str::parse::<usize>)) {
        assert_eq!(got.len(), n + 1, "count prefix lies: {got:?}");
    }
}

/// Sends every case over one connection, fencing each with an unknown
/// verb whose echo marks the end of the case's reply lines — so a case
/// that answers more (or fewer) lines than expected cannot shift the
/// lines of the cases after it.
fn run_over_tcp(front: &str, addr: SocketAddr, cases: &[Case], verdict: &mut Verdict) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (index, case) in cases.iter().enumerate() {
        let want = match (front, &case.router) {
            ("router", Routed::Skip) => continue,
            ("router", Routed::Is(reply)) => reply,
            _ => case.daemon,
        };
        let fence = format!("ERR unknown command \"FENCE-{index}\"");
        writer.write_all(&case.request).unwrap();
        // The closing QUIT goes unfenced: its reply ends at EOF, and bytes
        // left unread behind it would turn the server's close into a reset.
        if index + 1 < cases.len() {
            writer
                .write_all(format!("FENCE-{index}\n").as_bytes())
                .unwrap();
        }
        let mut got = Vec::new();
        loop {
            let mut raw = Vec::new();
            let n = reader.read_until(b'\n', &mut raw).expect("reply line");
            let line = String::from_utf8_lossy(&raw).trim_end().to_string();
            if n == 0 || line == fence {
                break;
            }
            got.push(line);
        }
        verdict.check(front, case, want, &got);
    }
}

#[test]
fn golden_transcript_in_process() {
    let service = service();
    let mut verdict = Verdict::default();
    for case in transcript("inproc") {
        let Some(want) = case.inproc else { continue };
        let line = String::from_utf8_lossy(&case.request).into_owned();
        let reply = handle_command(&service, &line);
        let got: Vec<String> = reply.text().lines().map(str::to_string).collect();
        verdict.check("in-process", &case, want, &got);
    }
    remove_temp_files("inproc");
    verdict.finish();
}

#[test]
fn golden_transcript_through_a_daemon() {
    let daemon = Daemon::bind(service(), "127.0.0.1:0").unwrap();
    let mut verdict = Verdict::default();
    run_over_tcp("daemon", daemon.addr(), &transcript("daemon"), &mut verdict);
    daemon.stop();
    remove_temp_files("daemon");
    verdict.finish();
}

#[test]
fn golden_transcript_through_a_router() {
    let shards: Vec<Daemon> = (0..2)
        .map(|_| Daemon::bind(service(), "127.0.0.1:0").unwrap())
        .collect();
    let router = Router::bind(
        ClusterSpec::new([("apx", "pool")]).unwrap(),
        vec![
            ("shard0".to_string(), shards[0].addr()),
            ("shard1".to_string(), shards[1].addr()),
        ],
        "127.0.0.1:0",
    )
    .unwrap();
    let mut verdict = Verdict::default();
    run_over_tcp("router", router.addr(), &transcript("router"), &mut verdict);
    router.stop();
    for shard in shards {
        shard.stop();
    }
    remove_temp_files("router");
    verdict.finish();
}

// ---------------------------------------------------------------------------
// SHIP framing over TCP
// ---------------------------------------------------------------------------

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn recv(reader: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    assert!(reply.ends_with('\n'), "truncated reply {reply:?}");
    reply.trim_end().to_string()
}

/// Runs `apx` on a warm daemon and returns its `RESULT` line plus the
/// `pool` namespace as raw shipment bytes (`EXPORT`, hex-decoded).
fn warm_result_and_shipment() -> (String, Vec<u8>) {
    let daemon = Daemon::bind(service(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(daemon.addr());
    writer
        .write_all(b"SUBMIT apx\nRUN\nRESULT 1\nEXPORT pool\n")
        .unwrap();
    assert_eq!(recv(&mut reader), "TICKET 1");
    assert_eq!(recv(&mut reader), "OK 1");
    let result = recv(&mut reader);
    let export = recv(&mut reader);
    daemon.stop();
    let fields: Vec<&str> = export.split(' ').collect();
    assert_eq!(fields[0], "SHIPMENT", "{export}");
    let hex = fields[3];
    let payload: Vec<u8> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    assert_eq!(payload.len(), fields[2].parse::<usize>().unwrap());
    (result, payload)
}

/// A real shipment goes in as raw bytes, and the requests pipelined right
/// behind the payload — in the same write — are answered in order from
/// the cache it carried: the same skyline, nothing paid for.
#[test]
fn shipped_payload_is_merged_and_requests_pipeline_behind_it() {
    let (result, payload) = warm_result_and_shipment();
    let daemon = Daemon::bind(service(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(daemon.addr());
    let mut burst = format!("SHIP pool {}\n", payload.len()).into_bytes();
    burst.extend_from_slice(&payload);
    burst.extend_from_slice(b"SUBMIT apx\nRUN\nPOLL 1\nRESULT 1\n");
    writer.write_all(&burst).unwrap();
    let merged = recv(&mut reader);
    let entries: usize = merged.strip_prefix("OK ").expect(&merged).parse().unwrap();
    assert!(entries > 0, "a warm namespace ships evaluations");
    assert_eq!(recv(&mut reader), "TICKET 1");
    assert_eq!(recv(&mut reader), "OK 1");
    let done = recv(&mut reader);
    assert!(
        done.contains(" cost=0 "),
        "served from the shipment: {done}"
    );
    assert_eq!(recv(&mut reader), result);
    daemon.stop();
}

/// The `entries=` figure of a `STATS` reply.
fn stats_entries(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> usize {
    writer.write_all(b"STATS\n").unwrap();
    let stats = recv(reader);
    stats
        .split(' ')
        .find_map(|field| field.strip_prefix("entries="))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no entries= in {stats:?}"))
}

/// Every namespace with a slot in a shipped payload must carry a guard
/// pair: a slot no fingerprint covers would be served to whatever substrate
/// is later registered under that namespace. Such a payload is refused
/// whole — one `ERR`, nothing merged — and the same cache shipped with its
/// guards merges.
#[test]
fn a_shipment_without_guard_pairs_is_refused_whole() {
    let warm = service();
    assert_eq!(handle_command(&warm, "SUBMIT apx").text(), "TICKET 1");
    assert_eq!(handle_command(&warm, "RUN").text(), "OK 1");
    let engine = warm.engine();
    let unguarded = snapshot::encode_snapshot(engine.cache(), &[]);
    let guarded = snapshot::encode_snapshot(engine.cache(), &engine.namespace_fingerprints());

    let daemon = Daemon::bind(service(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(daemon.addr());
    let ship = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, payload: &[u8]| {
        let mut burst = format!("SHIP pool {}\n", payload.len()).into_bytes();
        burst.extend_from_slice(payload);
        writer.write_all(&burst).unwrap();
        recv(reader)
    };
    assert_eq!(stats_entries(&mut writer, &mut reader), 0);
    let refused = ship(&mut writer, &mut reader, &unguarded);
    assert!(
        refused.starts_with("ERR ") && refused.contains("guard pair"),
        "{refused}"
    );
    assert_eq!(stats_entries(&mut writer, &mut reader), 0, "nothing merged");

    let merged = ship(&mut writer, &mut reader, &guarded);
    let n: usize = merged.strip_prefix("OK ").expect(&merged).parse().unwrap();
    assert!(n > 0, "a warm namespace ships evaluations");
    assert_eq!(stats_entries(&mut writer, &mut reader), n);
    daemon.stop();
}

/// Payload bytes are never scanned for lines: newlines — whole request
/// lines, even — inside a payload are payload. One reply for the frame,
/// then the request behind it.
#[test]
fn ship_payload_may_contain_newlines() {
    let daemon = Daemon::bind(service(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(daemon.addr());
    let payload = b"PING\nLIST\n\nQUIT\n";
    let mut burst = format!("SHIP pool {}\n", payload.len()).into_bytes();
    burst.extend_from_slice(payload);
    burst.extend_from_slice(b"PING\n");
    // Fragmented mid-header and mid-payload, for good measure.
    for piece in burst.chunks(7) {
        writer.write_all(piece).unwrap();
        writer.flush().unwrap();
    }
    let rejected = recv(&mut reader);
    assert!(rejected.starts_with("ERR snapshot error"), "{rejected}");
    assert_eq!(recv(&mut reader), "PONG");
    writer.write_all(b"LIST\n").unwrap();
    assert_eq!(recv(&mut reader), "SCENARIOS apx");
    daemon.stop();
}

/// A header declaring more than the cap answers one `ERR` at once; the
/// declared bytes are then counted and dropped, so the request behind
/// them is the next thing answered and the connection stays usable.
#[test]
fn oversized_ship_is_rejected_once_and_its_payload_dropped() {
    let config = ReactorConfig { max_ship_bytes: 64 };
    let daemon = Daemon::bind_with(service(), "127.0.0.1:0", config).unwrap();
    let (mut writer, mut reader) = connect(daemon.addr());
    let payload = b"PING\n".repeat(2000);
    let mut burst = format!("SHIP pool {}\n", payload.len()).into_bytes();
    burst.extend_from_slice(&payload);
    burst.extend_from_slice(b"LIST\n");
    writer.write_all(&burst).unwrap();
    assert_eq!(recv(&mut reader), "ERR shipment too large (max 64 bytes)");
    assert_eq!(recv(&mut reader), "SCENARIOS apx", "no PONG leaked out");
    // At the cap exactly the frame is accepted (and these bytes refused
    // as a shipment).
    let mut at_cap = b"SHIP pool 64\n".to_vec();
    at_cap.extend_from_slice(&[b'x'; 64]);
    at_cap.extend_from_slice(b"PING\n");
    writer.write_all(&at_cap).unwrap();
    assert!(recv(&mut reader).starts_with("ERR snapshot error"));
    assert_eq!(recv(&mut reader), "PONG");
    daemon.stop();
}

// ---------------------------------------------------------------------------
// Properties of the parser and the framer
// ---------------------------------------------------------------------------

/// Every verb token of the grammar, plus ones it does not have.
const TOKENS: [&str; 21] = [
    "PING",
    "LIST",
    "SHARDS",
    "SUBMIT",
    "RUN",
    "POLL",
    "WAIT",
    "STATS",
    "METRICS",
    "TRACE",
    "EXPLAIN",
    "RESULT",
    "SNAPSHOT",
    "RESTORE",
    "EXPORT",
    "SHIP",
    "QUIT",
    "CTX",
    "NOPE",
    "SHIPPER",
    "P\u{130}NG",
];

/// Arbitrary text without line terminators (decoded lossily, like the
/// framer decodes a line).
fn arbitrary_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..120)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " "))
}

/// A byte stream stitched from request-shaped pieces and raw noise, so
/// the framer's line, discard and payload states all get visited.
fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    const PIECES: [&[u8]; 12] = [
        b"PING\n",
        b"\n",
        b"SHIP a 5\n",
        b"ship a b 40\n",
        b"SHIP a 0\n",
        b"SHIP a\n",
        b"CTX 000102030405060708090a0b0c0d0e0f1011121314151617 SHIP a 3\n",
        b"CTX zz ",
        b"WAIT 1 2 3",
        b"0123456789012345678901234567890123456789",
        b"\r\n",
        b"\xff\xfe",
    ];
    prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 0..24).prop_map(|picks| {
        let mut bytes = Vec::new();
        for pick in picks {
            match pick[0] as usize % (PIECES.len() + 2) {
                piece if piece < PIECES.len() => bytes.extend_from_slice(PIECES[piece]),
                _ => bytes.extend_from_slice(&pick),
            }
        }
        bytes
    })
}

/// All frames of `stream`, fed to a small-capped framer in `step`-byte
/// fragments, then closed.
fn frames(stream: &[u8], step: usize) -> Vec<String> {
    let mut framer = Framer::new(protocol::parse, 32, 16);
    let mut out = Vec::new();
    for fragment in stream.chunks(step) {
        framer.push(fragment);
        while let Some(frame) = framer.next_frame() {
            out.push(format!("{frame:?}"));
        }
    }
    out.extend(framer.finish().map(|frame| format!("{frame:?}")));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse` answers every line — whatever the bytes — and what a line
    /// counts as is decided by its verb token alone: nothing after the
    /// token, and no well-formed `CTX` prefix before it, changes the kind.
    #[test]
    fn kind_depends_on_the_verb_token_alone(
        pick in 0usize..TOKENS.len(),
        tail in arbitrary_text(),
        noise in arbitrary_text(),
    ) {
        let _ = protocol::parse(&noise);
        let _ = protocol::parse_request(&noise);
        let token = TOKENS[pick];
        let mixed_case: String = token
            .chars()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { c.to_ascii_lowercase() } else { c })
            .collect();
        let kind = protocol::parse_request(token).kind;
        prop_assert_eq!(protocol::parse_request(&format!("{token} {tail}")).kind, kind);
        prop_assert_eq!(protocol::parse_request(&format!(" {mixed_case}\t{tail}")).kind, kind);
        let prefixed = protocol::parse(&format!("CTX {CTX} {token} {tail}"));
        prop_assert_eq!(prefixed.kind, kind);
        prop_assert!(prefixed.ctx.is_some());
        // An `ERR` line is always complete; a typed verb never is one.
        if let Err(reply) = &prefixed.verb {
            prop_assert!(reply.starts_with("ERR "), "{reply}");
        }
    }

    /// The framer never panics, and how TCP fragments a stream never
    /// changes what is framed from it.
    #[test]
    fn framing_is_independent_of_fragmentation(stream in wire_bytes(), step in 1usize..40) {
        let whole = frames(&stream, stream.len().max(1));
        prop_assert_eq!(frames(&stream, step), whole);
    }
}

// ---------------------------------------------------------------------------
// docs/PROTOCOL.md §2 is the grammar table
// ---------------------------------------------------------------------------

/// Every request in the §2 table parses to a verb the daemon counts, and
/// every kind the daemon counts has a row there.
#[test]
fn protocol_md_request_table_matches_the_parser() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/PROTOCOL.md"
    ))
    .unwrap();
    let table: Vec<&str> = doc
        .lines()
        .skip_while(|line| !line.starts_with("## 2. Requests"))
        .skip_while(|line| !line.starts_with("|---"))
        .skip(1)
        .take_while(|line| line.starts_with('|'))
        .collect();
    let mut documented = Vec::new();
    for row in &table {
        let request = row.split('`').nth(1).expect("a `request` cell");
        let kind = protocol::parse(request).kind;
        assert_ne!(kind, Kind::Other, "§2 row {request:?} names no verb");
        documented.push(kind.label());
    }
    for label in Kind::LABELS {
        assert!(
            label == Kind::Other.label() || documented.contains(&label),
            "verb {label:?} has no row in PROTOCOL.md §2"
        );
    }
    assert!(
        !doc.contains("SNAPSHOT NAMESPACE <"),
        "the removed verb is still specified"
    );
}
