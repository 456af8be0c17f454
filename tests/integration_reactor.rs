//! Integration tests of the non-blocking reactor front-end: request
//! pipelining with ordered responses, fragmented and oversized lines,
//! `WAIT` streaming through the wakeup channel, deterministic shutdown
//! with port reuse, and a malformed-input property (the reactor never
//! panics and always answers a protocol line).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use modis_core::prelude::*;
use modis_core::substrate::mock::MockSubstrate;
use modis_core::substrate::Substrate;
use modis_engine::{Algorithm, Scenario};
use modis_service::{ClusterSpec, Daemon, Router, Service, ServiceConfig};

fn oracle_config(max_states: usize) -> ModisConfig {
    ModisConfig::default()
        .with_epsilon(0.15)
        .with_max_states(max_states)
        .with_max_level(4)
        .with_estimator(EstimatorMode::Oracle)
}

/// A service with the three-algorithm mock suite registered.
fn mock_service(units: usize) -> Arc<Service> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let substrate: Arc<dyn Substrate> = Arc::new(MockSubstrate::new(units));
    for (name, alg) in [
        ("apx", Algorithm::Apx),
        ("bi", Algorithm::Bi),
        ("div", Algorithm::Div),
    ] {
        service
            .register(
                Scenario::new(name, substrate.clone(), alg, oracle_config(60))
                    .with_cache_namespace("mock-pool"),
            )
            .unwrap();
    }
    service
}

/// A connected client with a read timeout, so a hung reactor fails the
/// test instead of hanging it.
fn client(daemon: &Daemon) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    assert!(reply.ends_with('\n'), "truncated reply: {reply:?}");
    reply.trim_end().to_string()
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let service = mock_service(8);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);

    // One burst: 16 submissions, 16 polls, 4 pings — 36 in-flight
    // requests on a single connection before the first response is read.
    let mut burst = String::new();
    for _ in 0..16 {
        burst.push_str("SUBMIT apx\n");
    }
    for id in 1..=16 {
        burst.push_str(&format!("POLL {id}\n"));
    }
    for _ in 0..4 {
        burst.push_str("PING\n");
    }
    writer.write_all(burst.as_bytes()).unwrap();

    // Responses arrive strictly in request order.
    for id in 1..=16 {
        assert_eq!(read_reply(&mut reader), format!("TICKET {id}"));
    }
    for _ in 0..16 {
        assert_eq!(read_reply(&mut reader), "QUEUED");
    }
    for _ in 0..4 {
        assert_eq!(read_reply(&mut reader), "PONG");
    }

    // Drain through the executor, then confirm over the same connection.
    writer.write_all(b"RUN\nPOLL 1\n").unwrap();
    assert_eq!(read_reply(&mut reader), "OK 16");
    assert!(read_reply(&mut reader).starts_with("DONE entries="));
    daemon.stop();
}

#[test]
fn pipelined_burst_with_half_close_is_fully_answered() {
    // A client that writes everything, closes its write half, and only
    // then reads: the reactor must answer every request parsed before EOF.
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);

    let mut burst = String::new();
    let n = 40;
    for _ in 0..n {
        burst.push_str("PING\n");
    }
    writer.write_all(burst.as_bytes()).unwrap();
    writer.shutdown(Shutdown::Write).unwrap();

    let mut replies = String::new();
    reader.read_to_string(&mut replies).unwrap();
    let got: Vec<&str> = replies.lines().collect();
    assert_eq!(got, vec!["PONG"; n]);
    daemon.stop();
}

#[test]
fn fragmented_lines_are_reassembled() {
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);

    // One request split across many writes, with pauses long enough for
    // the reactor to sweep between fragments — plus a second request
    // whose first fragment rides in the same packet as the first's tail.
    for fragment in ["SUB", "MIT a", "px\nPI", "NG", "\n"] {
        writer.write_all(fragment.as_bytes()).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(read_reply(&mut reader), "TICKET 1");
    assert_eq!(read_reply(&mut reader), "PONG");

    // A final unterminated line is still answered at EOF (seed parity).
    writer.write_all(b"PING").unwrap();
    writer.shutdown(Shutdown::Write).unwrap();
    assert_eq!(read_reply(&mut reader), "PONG");
    daemon.stop();
}

#[test]
fn oversized_lines_are_rejected_without_killing_the_connection() {
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);

    // Far beyond the 4096-byte default cap, written in chunks so the
    // rejection triggers mid-line, long before the newline arrives.
    let chunk = vec![b'A'; 8192];
    for _ in 0..8 {
        writer.write_all(&chunk).unwrap();
    }
    writer.write_all(b"\nPING\n").unwrap();
    let reply = read_reply(&mut reader);
    assert!(
        reply.starts_with("ERR line too long"),
        "oversized line must be rejected: {reply}"
    );
    // The tail of the oversized line was discarded; the connection and
    // the framing survive.
    assert_eq!(read_reply(&mut reader), "PONG");
    daemon.stop();
}

#[test]
fn wait_streams_completions_from_another_connections_run() {
    let service = mock_service(8);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);

    // Submissions and the WAIT pipeline in one burst; a RUN on a second
    // connection drains the queue on the executor, and each completion is
    // pushed through the wakeup channel to the parked reactor.
    writer
        .write_all(b"SUBMIT apx\nSUBMIT bi\nSUBMIT div\nWAIT 1 2 3\nPING\n")
        .unwrap();
    assert_eq!(read_reply(&mut reader), "TICKET 1");
    assert_eq!(read_reply(&mut reader), "TICKET 2");
    assert_eq!(read_reply(&mut reader), "TICKET 3");
    let (mut runner, mut run_reply) = client(&daemon);
    runner.write_all(b"RUN\n").unwrap();
    assert_eq!(read_reply(&mut run_reply), "OK 3");
    let mut done_ids = Vec::new();
    for _ in 0..3 {
        let reply = read_reply(&mut reader);
        let mut parts = reply.split_whitespace();
        assert_eq!(parts.next(), Some("DONE"), "streamed line: {reply}");
        done_ids.push(parts.next().unwrap().parse::<u64>().unwrap());
        assert!(
            parts.any(|p| p.starts_with("entries=")),
            "DONE payload: {reply}"
        );
    }
    done_ids.sort_unstable();
    assert_eq!(done_ids, vec![1, 2, 3]);
    // Ordering: the PING pipelined *behind* the WAIT answers only after
    // every streamed completion.
    assert_eq!(read_reply(&mut reader), "PONG");

    // WAIT on unknown tickets answers an error immediately — no hang.
    writer.write_all(b"WAIT 999\nWAIT nope\nWAIT\n").unwrap();
    assert!(read_reply(&mut reader).starts_with("ERR unknown ticket"));
    assert!(read_reply(&mut reader).starts_with("ERR WAIT expects"));
    assert!(read_reply(&mut reader).starts_with("ERR WAIT expects"));

    daemon.stop();
}

/// Open file descriptors of this process (Linux; the only platform CI and
/// the tier-1 gate run on).
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// Connection-churn soak: hundreds of short-lived sequential connections
/// must not leak descriptors — the reactor reaps every closed connection
/// — and `stop` stays deterministic afterwards.
#[cfg(target_os = "linux")]
#[test]
fn connection_churn_leaks_no_descriptors_and_stop_stays_deterministic() {
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();

    // One warm-up conversation, fully closed, to reach steady state.
    {
        let (mut writer, mut reader) = client(&daemon);
        writer.write_all(b"PING\nQUIT\n").unwrap();
        assert_eq!(read_reply(&mut reader), "PONG");
        assert_eq!(read_reply(&mut reader), "BYE");
    }
    std::thread::sleep(Duration::from_millis(30));
    let baseline = open_fds();

    for i in 0..300 {
        let (mut writer, mut reader) = client(&daemon);
        writer.write_all(b"PING\nQUIT\n").unwrap();
        assert_eq!(read_reply(&mut reader), "PONG", "connection {i}");
        assert_eq!(read_reply(&mut reader), "BYE", "connection {i}");
    }

    // The reactor reaps asynchronously (a closed peer is discovered on the
    // next sweep); poll until the descriptor count returns to baseline.
    // Other tests in this binary run concurrently and open sockets of
    // their own, so allow a modest slack above the baseline.
    let deadline = Instant::now() + Duration::from_secs(10);
    let slack = 16;
    let mut current = open_fds();
    while current > baseline + slack {
        assert!(
            Instant::now() < deadline,
            "descriptor leak: baseline {baseline}, still {current} after churn"
        );
        std::thread::sleep(Duration::from_millis(20));
        current = open_fds();
    }

    // Stop is still deterministic after the churn, and the port rebinds.
    let addr = daemon.addr();
    let started = Instant::now();
    daemon.stop();
    assert!(started.elapsed() < Duration::from_secs(5));
    let service2 = mock_service(6);
    let revived = Daemon::bind(Arc::clone(&service2), &addr.to_string())
        .expect("port must rebind after churn + stop");
    revived.stop();
}

/// The hard per-process descriptor cap, for scaling the soak below to
/// machines with a constrained `ulimit -n`.
#[cfg(target_os = "linux")]
fn max_open_files() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits.lines().find_map(|line| {
                line.strip_prefix("Max open files")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(1024)
}

/// Reads one `\n`-terminated reply straight off a stream (no BufReader:
/// the idle sockets below are probed once each, and a reader would
/// swallow bytes we want left in the kernel buffer of the next probe).
#[cfg(target_os = "linux")]
fn read_line_raw(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) if byte[0] == b'\n' => break,
            Ok(1) => line.push(byte[0]),
            Ok(_) => panic!("peer closed mid-line: {line:?}"),
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => panic!("probe read failed: {err}"),
        }
    }
    String::from_utf8_lossy(&line).into_owned()
}

/// High-fan-in soak for the O(ready) front-end: thousands of concurrently
/// open, mostly idle connections with a handful of hot ones. Hot
/// pipelines stay strictly ordered, sampled idle connections still answer
/// from behind the sleeping mass, descriptors return to baseline once the
/// mass closes, and stop stays deterministic — with the old
/// attempt-every-connection sweep this load made every sweep
/// O(thousands); under the poller it is O(ready).
#[cfg(target_os = "linux")]
#[test]
fn thousands_of_idle_connections_stay_served_and_reaped() {
    // 2048 client + 2048 server sockets needs headroom under the fd cap;
    // shrink (never skip) on constrained machines.
    let idle_target = if max_open_files() > 6_000 { 2_048 } else { 512 };
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();

    // One warm-up conversation, fully closed, to reach steady state.
    {
        let (mut writer, mut reader) = client(&daemon);
        writer.write_all(b"PING\nQUIT\n").unwrap();
        assert_eq!(read_reply(&mut reader), "PONG");
        assert_eq!(read_reply(&mut reader), "BYE");
    }
    std::thread::sleep(Duration::from_millis(30));
    let baseline = open_fds();

    // Open the idle mass in accept-backlog-sized batches, with one
    // round-trip through the newest connection per batch: the listener's
    // accept queue drains in arrival order, so an answered probe proves
    // the whole batch was adopted by the reactor.
    let batch = 128;
    let mut idle: Vec<TcpStream> = Vec::with_capacity(idle_target);
    while idle.len() < idle_target {
        for _ in 0..batch {
            let stream = TcpStream::connect(daemon.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            idle.push(stream);
        }
        let probe = idle.last_mut().unwrap();
        probe.write_all(b"PING\n").unwrap();
        assert_eq!(read_line_raw(probe), "PONG");
    }

    // Hot connections burst pipelined requests through the idle mass;
    // responses arrive strictly in request order.
    for round in 0..3 {
        let (mut writer, mut reader) = client(&daemon);
        let mut burst = String::new();
        for _ in 0..64 {
            burst.push_str("PING\n");
        }
        burst.push_str("LIST\nQUIT\n");
        writer.write_all(burst.as_bytes()).unwrap();
        for i in 0..64 {
            assert_eq!(read_reply(&mut reader), "PONG", "round {round} reply {i}");
        }
        assert_eq!(read_reply(&mut reader), "SCENARIOS apx bi div");
        assert_eq!(read_reply(&mut reader), "BYE");
    }

    // A sample of the idle mass speaks up after sitting silent: every
    // sampled connection is still live and answers.
    for index in (0..idle.len()).step_by(256) {
        let probe = &mut idle[index];
        probe.write_all(b"PING\n").unwrap();
        assert_eq!(read_line_raw(probe), "PONG", "idle connection {index}");
    }

    // Keep a handful open through stop (they must get the shutdown error);
    // close the rest and wait for the reactor to reap them.
    let survivors: Vec<TcpStream> = idle.split_off(idle.len() - 4);
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(30);
    let slack = 64;
    let mut current = open_fds();
    while current > baseline + slack {
        assert!(
            Instant::now() < deadline,
            "descriptor leak: baseline {baseline}, still {current} after closing the idle mass"
        );
        std::thread::sleep(Duration::from_millis(20));
        current = open_fds();
    }

    // Deterministic stop with open connections; the
    // survivors are flushed a final protocol error, then EOF.
    let started = Instant::now();
    daemon.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop must not wait on external events"
    );
    for mut survivor in survivors {
        let mut rest = String::new();
        let _ = survivor.read_to_string(&mut rest);
        assert!(
            rest.starts_with("ERR service is shut down"),
            "survivor got {rest:?}"
        );
    }
}

/// The same soak through the cluster router, whose front thread runs on
/// the reactor's connection core: a thousand idle client connections held
/// open while one hot client pipelines 5,000 `PING`s and then a full
/// submit/run/wait/result suite — every reply in order — and after
/// `Router::stop` every descriptor the router held is closed.
#[cfg(target_os = "linux")]
#[test]
fn router_serves_a_hot_client_through_a_thousand_idle_ones_and_leaks_nothing() {
    let idle_target = if max_open_files() > 10_000 {
        1_000
    } else {
        200
    };
    let shards: Vec<Daemon> = (0..2)
        .map(|_| Daemon::bind(mock_service(6), "127.0.0.1:0").unwrap())
        .collect();
    let baseline = open_fds();
    let spec = ClusterSpec::new([
        ("apx", "mock-pool"),
        ("bi", "mock-pool"),
        ("div", "mock-pool"),
    ])
    .unwrap();
    let router = Router::bind(
        spec,
        vec![
            ("shard0".to_string(), shards[0].addr()),
            ("shard1".to_string(), shards[1].addr()),
        ],
        "127.0.0.1:0",
    )
    .unwrap();

    let batch = 100;
    let mut idle: Vec<TcpStream> = Vec::with_capacity(idle_target);
    while idle.len() < idle_target {
        for _ in 0..batch {
            let stream = TcpStream::connect(router.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            idle.push(stream);
        }
        let probe = idle.last_mut().unwrap();
        probe.write_all(b"PING\n").unwrap();
        assert_eq!(read_line_raw(probe), "PONG");
    }

    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for round in 0..2 {
        writer.write_all(&b"PING\n".repeat(5_000)).unwrap();
        for i in 0..5_000 {
            assert_eq!(read_reply(&mut reader), "PONG", "round {round} reply {i}");
        }
        let first = 3 * round + 1;
        let suite = format!(
            "SUBMIT apx\nSUBMIT bi\nSUBMIT div\nRUN\nWAIT {first} {} {}\nRESULT {first}\nPING\n",
            first + 1,
            first + 2
        );
        writer.write_all(suite.as_bytes()).unwrap();
        for ticket in first..first + 3 {
            assert_eq!(read_reply(&mut reader), format!("TICKET {ticket}"));
        }
        assert_eq!(read_reply(&mut reader), "OK 3");
        let mut done: Vec<String> = (0..3).map(|_| read_reply(&mut reader)).collect();
        done.sort();
        for (ticket, line) in (first..).zip(&done) {
            assert!(
                line.starts_with(&format!("DONE {ticket} entries=")),
                "{line}"
            );
        }
        let result = read_reply(&mut reader);
        assert!(
            result.starts_with(&format!("RESULT {first} entries=")),
            "{result}"
        );
        assert_eq!(read_reply(&mut reader), "PONG");
    }

    // The idle mass is still served from behind the hot client.
    for index in (0..idle.len()).step_by(100) {
        let probe = &mut idle[index];
        probe.write_all(b"PING\n").unwrap();
        assert_eq!(read_line_raw(probe), "PONG", "idle connection {index}");
    }

    let started = Instant::now();
    router.stop();
    assert!(started.elapsed() < Duration::from_secs(5));
    drop((idle, writer, reader));
    let deadline = Instant::now() + Duration::from_secs(30);
    let slack = 64;
    let mut current = open_fds();
    while current > baseline + slack {
        assert!(
            Instant::now() < deadline,
            "descriptor leak: baseline {baseline}, still {current} after Router::stop"
        );
        std::thread::sleep(Duration::from_millis(20));
        current = open_fds();
    }
    for shard in shards {
        shard.stop();
    }
}

#[test]
fn daemon_stop_is_deterministic_and_the_port_is_immediately_reusable() {
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = daemon.addr();

    // An active connection exists while the daemon stops. The client
    // closes first so the server side never lands in TIME_WAIT.
    {
        let (mut writer, mut reader) = client(&daemon);
        writer.write_all(b"PING\n").unwrap();
        assert_eq!(read_reply(&mut reader), "PONG");
    }
    std::thread::sleep(Duration::from_millis(20));

    // Stop must complete via the wakeup channel — quickly and without any
    // helper connection (the seed needed a throwaway connect to unblock
    // its accept loop).
    let started = Instant::now();
    daemon.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop must not wait on external events"
    );
    assert!(service.is_stopped(), "stop shuts the service down");

    // The exact same port binds again at once: the listener (and every
    // accepted socket) was fully closed.
    let service2 = mock_service(6);
    let revived = Daemon::bind(Arc::clone(&service2), &addr.to_string())
        .expect("rebinding the stopped daemon's port must succeed immediately");
    assert_eq!(revived.addr(), addr);
    let (mut writer, mut reader) = client(&revived);
    writer.write_all(b"PING\nLIST\n").unwrap();
    assert_eq!(read_reply(&mut reader), "PONG");
    assert_eq!(read_reply(&mut reader), "SCENARIOS apx bi div");
    revived.stop();
}

/// Every reactor sweep so far, busy and idle.
fn reactor_sweeps(service: &Service) -> u64 {
    let lines = service.engine().metrics().render();
    let sweeps = lines
        .iter()
        .filter(|line| line.starts_with("reactor_sweeps_total{"));
    sweeps
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// An idle daemon with one open connection does not sweep: no timer
/// wakes the reactor, only readiness and the wakeup channel do.
#[test]
fn an_idle_daemon_does_not_sweep() {
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);
    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(&mut reader), "PONG");
    std::thread::sleep(Duration::from_millis(50));

    let before = reactor_sweeps(&service);
    std::thread::sleep(Duration::from_millis(200));
    let sweeps = reactor_sweeps(&service) - before;
    assert!(
        sweeps <= 2,
        "{sweeps} reactor sweeps in 200 ms with nothing to do"
    );

    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(&mut reader), "PONG");
    daemon.stop();
}

#[test]
fn stopped_daemon_answers_in_flight_connections_with_an_error() {
    let service = mock_service(6);
    let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&daemon);
    writer.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(&mut reader), "PONG");

    daemon.stop();
    // The reactor flushed a final protocol error before closing; the
    // stream then reports EOF rather than a reset.
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    assert!(rest.starts_with("ERR service is shut down"), "got {rest:?}");
}

/// Regression: a `SHIP` header behind a `CTX` prefix (PROTOCOL.md §1.1
/// allows the prefix on any request) must enter payload mode like a bare
/// one — a header looked for before the prefix is stripped is missed, and
/// the payload bytes are then read as request lines.
#[test]
fn ctx_prefixed_ship_header_enters_payload_mode() {
    // A warm daemon exports its namespace…
    let warm = Daemon::bind(mock_service(6), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&warm);
    writer
        .write_all(b"SUBMIT apx\nRUN\nEXPORT mock-pool\n")
        .unwrap();
    assert_eq!(read_reply(&mut reader), "TICKET 1");
    assert_eq!(read_reply(&mut reader), "OK 1");
    let export = read_reply(&mut reader);
    warm.stop();
    let hex = export.rsplit(' ').next().unwrap();
    let payload: Vec<u8> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    assert!(
        payload.contains(&b'\n'),
        "the shipment should exercise newlines"
    );

    // …and a fresh one takes it in under a trace context: exactly one
    // reply for the frame, and the request behind it still in sync.
    let fresh = Daemon::bind(mock_service(6), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = client(&fresh);
    let ctx = "000102030405060708090a0b0c0d0e0f1011121314151617";
    let mut burst = format!("CTX {ctx} SHIP mock-pool {}\n", payload.len()).into_bytes();
    burst.extend_from_slice(&payload);
    burst.extend_from_slice(b"PING\n");
    writer.write_all(&burst).unwrap();
    let merged = read_reply(&mut reader);
    assert!(
        merged
            .strip_prefix("OK ")
            .is_some_and(|n| n.parse::<usize>().unwrap() > 0),
        "{merged}"
    );
    assert_eq!(read_reply(&mut reader), "PONG");
    // The frame was counted once, under its verb.
    writer.write_all(b"METRICS\n").unwrap();
    let header = read_reply(&mut reader);
    let lines: usize = header.strip_prefix("METRICS ").unwrap().parse().unwrap();
    let metrics: Vec<String> = (0..lines).map(|_| read_reply(&mut reader)).collect();
    assert!(
        metrics.contains(&"reactor_requests_total{verb=\"ship\"} 1".to_string()),
        "{metrics:#?}"
    );
    fresh.stop();
}

/// Lines of arbitrary bytes (newline-free so each is one request).
/// Verbs with side effects beyond the protocol surface are defanged:
/// `SNAPSHOT` writes files, `QUIT` closes early, `WAIT`/`RUN` defer —
/// any of them would make reply counting depend on luck rather than the
/// reactor. A leading `0xFF` keeps such a line malformed while still
/// exercising the parser with its bytes.
fn malformed_lines() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let line = prop::collection::vec(
        any::<u8>().prop_filter("no newline", |&b| b != b'\n'),
        0..200,
    )
    .prop_map(|mut bytes: Vec<u8>| {
        let upper = String::from_utf8_lossy(&bytes).to_uppercase();
        let verb = upper.split_whitespace().next().unwrap_or("");
        if matches!(verb, "SNAPSHOT" | "QUIT" | "WAIT" | "RUN" | "SUBMIT") {
            bytes.insert(0, 0xFF);
        }
        bytes
    });
    prop::collection::vec(line, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any malformed input the reactor never panics, never drops the
    /// connection, and answers exactly one line per request — each either
    /// a well-formed response or an `ERR` protocol line.
    #[test]
    fn malformed_input_always_gets_a_protocol_reply(lines in malformed_lines()) {
        let service = mock_service(6);
        let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let (mut writer, mut reader) = client(&daemon);

        let mut payload = Vec::new();
        for line in &lines {
            payload.extend_from_slice(line);
            payload.push(b'\n');
        }
        payload.extend_from_slice(b"PING\n");
        writer.write_all(&payload).unwrap();

        for line in &lines {
            let reply = read_reply(&mut reader);
            prop_assert!(!reply.is_empty(), "empty reply to {line:?}");
            let well_formed = reply.starts_with("ERR ")
                || reply.starts_with("PONG")
                || reply.starts_with("SCENARIOS")
                || reply.starts_with("STATS ")
                || reply.starts_with("QUEUED")
                || reply.starts_with("RUNNING")
                || reply.starts_with("DONE ")
                || reply.starts_with("TICKET ")
                || reply.starts_with("OK ");
            prop_assert!(well_formed, "reply {reply:?} to line {line:?}");
        }
        // The connection survived every malformed line.
        prop_assert_eq!(read_reply(&mut reader), "PONG");
        daemon.stop();
    }
}

/// `CTX`-prefixed edge cases: `CTX` followed by a hex-ish blob and *no
/// verb after it*. Exactly 48 valid hex digits decode to a real trace
/// context whose remaining verb is then empty; every other blob is a
/// malformed prefix. Both must answer one clean `ERR` line — pinning the
/// `tokens.nth(1)` classification path against silent empty-verb
/// fallthrough.
fn bare_ctx_lines() -> impl Strategy<Value = Vec<String>> {
    // The first byte picks the arm; the rest seed the blob characters.
    let line = prop::collection::vec(any::<u8>(), 2..66).prop_map(|bytes| {
        const HEX: &[u8] = b"0123456789abcdef";
        const JUNK: &[u8] = b"0123456789abcdefxyz ";
        let seed = &bytes[1..];
        let blob: String = if bytes[0] % 2 == 0 {
            // A well-formed 48-hex context (the interesting case: the
            // verb after stripping is "").
            (0..48)
                .map(|i| HEX[seed[i % seed.len()] as usize % HEX.len()] as char)
                .collect()
        } else {
            // Arbitrary hex-ish junk of any length, valid or not.
            seed.iter()
                .map(|&b| JUNK[b as usize % JUNK.len()] as char)
                .collect()
        };
        format!("CTX {blob}")
    });
    prop::collection::vec(line, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A bare `CTX <blob>` line with nothing after the context answers a
    /// clean protocol error — `ERR unknown command ""` when the blob is a
    /// valid context (empty verb), `ERR CTX expects …` otherwise — and
    /// never kills the connection.
    #[test]
    fn bare_ctx_prefixes_answer_a_clean_protocol_error(lines in bare_ctx_lines()) {
        let service = mock_service(6);
        let daemon = Daemon::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let (mut writer, mut reader) = client(&daemon);

        let mut payload = String::new();
        for line in &lines {
            payload.push_str(line);
            payload.push('\n');
        }
        payload.push_str("PING\n");
        writer.write_all(payload.as_bytes()).unwrap();

        for line in &lines {
            let reply = read_reply(&mut reader);
            // The junk arm can (rarely) form a valid context followed by a
            // tail verb, so accept any unknown-command rejection; the
            // exact `ERR unknown command ""` empty-verb form is pinned by
            // the net.rs unit test.
            let clean = reply.starts_with("ERR unknown command")
                || reply.starts_with("ERR CTX expects");
            prop_assert!(clean, "reply {reply:?} to bare prefix {line:?}");
        }
        prop_assert_eq!(read_reply(&mut reader), "PONG");
        daemon.stop();
    }
}
