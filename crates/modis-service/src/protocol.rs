//! The request grammar of the line protocol — the one module that knows
//! it. A request line is parsed **once**, by [`parse`], into a typed
//! [`Verb`]; the daemon (`net::execute`) and the cluster router
//! (`crate::router`) each hold one `match` over that type, and the
//! [`Framer`] cuts both front-ends' byte streams into requests.
//!
//! One request per line (ASCII, `\n` terminated, verbs case-insensitive):
//!
//! | request              | response                                                      |
//! |----------------------|---------------------------------------------------------------|
//! | `PING`               | `PONG`                                                        |
//! | `LIST`               | `SCENARIOS <name> <name> …`                                   |
//! | `SUBMIT <name>`      | `TICKET <id>` — enqueue a registered scenario                 |
//! | `RUN`                | `OK <n>` — drain the queue (n runs executed, off-thread)      |
//! | `POLL <id>`          | `QUEUED` / `RUNNING` / `DONE entries=… states=… shared_hits=…`|
//! | `WAIT <id> [<id>…]`  | one `DONE <id> entries=…` line per ticket, streamed in        |
//! |                      | completion order as the jobs finish                           |
//! | `STATS`              | `STATS hits=… misses=… entries=… evictions=… memo_entries=…`  |
//! |                      | `… hit_rate=… uptime_s=… jobs_completed=… jobs_pending=…`     |
//! |                      | `… dominance_comparisons=… dominance_pruned=…` (kernel work   |
//! |                      | done vs avoided relative to the pairwise `n·(n−1)` bound)     |
//! | `METRICS`            | `METRICS <n>` followed by `n` Prometheus-style exposition     |
//! |                      | lines rendered from the daemon's metrics registry             |
//! | `TRACE DUMP <n>`     | `SPANS <k>` followed by `k` (≤ n) `SPAN id=… parent=… …`      |
//! |                      | lines — the most recent completed tracer spans                |
//! | `TRACE SLOW <n>`     | `SLOW <k>` followed by `k` (≤ n) `TRACE <id> dur_us=… …`      |
//! |                      | lines — the slowest stitched traces over the service threshold|
//! | `EXPLAIN <ticket>`   | `TIMELINE <k>` followed by `k` time-ordered `EVENT trace=… …` |
//! |                      | lines — the ticket's stitched trace (queue wait, job, engine) |
//! | `EXPLAIN TRACE <t>`  | same timeline, addressed by hex trace id (the router fan-out  |
//! |                      | form; an unindexed trace answers `TIMELINE 0`, not an error)  |
//! | `RESULT <id>`        | `RESULT <id> entries=… <entry>…` — the finished skyline,      |
//! |                      | byte-exactly encoded (f64 bit patterns, not decimal)          |
//! | `SNAPSHOT <path>`    | `OK <bytes>` — persist the evaluation cache                   |
//! | `RESTORE <path>`     | `OK <entries>` — merge a snapshot file into the live cache    |
//! | `EXPORT <ns>…`       | `SHIPMENT <cursor> <len> <hex>` — what the named namespaces   |
//! | `  [FROM <cursor>]`  | recorded after `FROM`'s cursor (default `0`: everything) as a |
//! |                      | hex-encoded snapshot, `len` 0 and no hex when there is none;  |
//! |                      | the reply's cursor is where the next export starts            |
//! | `SHIP <ns>… <len>`   | `OK <entries>` — `<len>` raw snapshot bytes follow the line;  |
//! |                      | merged into the live cache (wire-shipped rebalancing/replication)|
//! | `SHARDS`             | `SHARDS <n>` + `n` `SHARD …` lines — cluster router only      |
//! | `QUIT`               | `BYE` (connection closes)                                     |
//!
//! A daemon accepts an optional `CTX <48-hex-digit>` prefix on any request
//! — a wire-encoded [`TraceContext`] stitching the request's spans into
//! the sender's distributed trace (the router injects one on every line it
//! forwards). A malformed prefix answers `ERR …`; peers that predate the
//! prefix never see it, so the protocol stays backward-compatible.
//!
//! Anything else answers `ERR …`. Registration stays in-process (substrates
//! are live objects); the wire protocol only *drives* registered scenarios.
//! The normative specification — framing, pipelining rules, every error
//! line — is `docs/PROTOCOL.md` at the repository root; its §2 table is
//! checked against this module by `tests/integration_protocol.rs`.

use modis_core::telemetry::TraceContext;
use modis_engine::Cursor;

/// One well-formed request. Arguments are already validated and typed;
/// what a verb *does* is the front-end's business.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// `PING`.
    Ping,
    /// `LIST`.
    List,
    /// `SHARDS` — served by the cluster router only.
    Shards,
    /// `SUBMIT <name>`: everything after the verb is the scenario name.
    Submit(String),
    /// `RUN`.
    Run,
    /// `POLL <id>`.
    Poll(u64),
    /// `WAIT <id> [<id>…]`, in listed order.
    Wait(Vec<u64>),
    /// `STATS`.
    Stats,
    /// `METRICS`.
    Metrics,
    /// `TRACE DUMP <n>`.
    TraceDump(usize),
    /// `TRACE SLOW <n>`.
    TraceSlow(usize),
    /// `EXPLAIN <ticket>`.
    Explain(u64),
    /// `EXPLAIN TRACE <hex trace id>`.
    ExplainTrace(u64),
    /// `RESULT <id>`.
    Result(u64),
    /// `SNAPSHOT <path>`: everything after the verb is the path.
    Snapshot(String),
    /// `RESTORE <path>` — shard-level.
    Restore(String),
    /// `EXPORT <ns> [<ns>…] [FROM <cursor>]` — shard-level.
    Export {
        /// The namespaces to export.
        namespaces: Vec<String>,
        /// Export only what was recorded after this cursor.
        from: Cursor,
    },
    /// `SHIP <ns> [<ns>…] <len>` — shard-level. [`parse`] yields the
    /// header with an empty `payload`; a [`Framer`] fills in the `len` raw
    /// bytes that follow the header line before handing the request on.
    Ship {
        /// The payload length the header declares.
        len: usize,
        /// The raw snapshot bytes.
        payload: Vec<u8>,
    },
    /// `QUIT`.
    Quit,
}

/// What a request line is counted as — decided by the verb token alone,
/// whatever follows it, so a malformed `POLL zero` is still a `poll`. The
/// 17 `reactor_requests_total{verb=…}` / `reactor_request_us{verb=…}`
/// series are indexed by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // one variant per verb token, named after it
pub enum Kind {
    Ping,
    List,
    Submit,
    Run,
    Poll,
    Wait,
    Stats,
    Result,
    Snapshot,
    Restore,
    Quit,
    Metrics,
    Trace,
    Explain,
    Export,
    Ship,
    /// No verb a daemon counts: unknown or empty input, `SHARDS`, and
    /// lines whose `CTX` prefix is malformed.
    Other,
}

impl Kind {
    /// The exposition label value of every kind — the lower-cased verb
    /// token — in discriminant order.
    pub const LABELS: [&'static str; 17] = [
        "ping", "list", "submit", "run", "poll", "wait", "stats", "result", "snapshot", "restore",
        "quit", "metrics", "trace", "explain", "export", "ship", "other",
    ];

    /// The exposition label value of this kind.
    pub fn label(self) -> &'static str {
        Kind::LABELS[self as usize]
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The trace context the request arrived under, if it carried a
    /// well-formed `CTX` prefix.
    pub ctx: Option<TraceContext>,
    /// What the line counts as.
    pub kind: Kind,
    /// The verb token as the client spelled it (error lines echo it).
    pub token: String,
    /// The typed request, or the complete `ERR …` line that answers it.
    pub verb: Result<Verb, String>,
}

/// The `ERR unknown command "<token>"` line: what answers an unknown verb
/// token — and what a front-end answers for a well-formed verb it does not
/// serve.
pub(crate) fn unknown_command(token: &str) -> String {
    format!("ERR unknown command {token:?}")
}

/// The (empty) reason of a line no verb claims — an unknown token, or a
/// verb whose one required argument is missing entirely. [`parse_request`]
/// answers it with [`unknown_command`].
const UNCLAIMED: &str = "";

/// Splits the first whitespace-delimited token off `text`, returning it
/// and the trimmed remainder.
fn split_token(text: &str) -> (&str, &str) {
    match text.split_once(char::is_whitespace) {
        Some((token, rest)) => (token, rest.trim()),
        None => (text, ""),
    }
}

/// Parses one request line as a daemon reads it: an optional
/// `CTX <48-hex-digit>` prefix, then the request ([`parse_request`]). A
/// present-but-malformed prefix (bare `CTX` included) is an error line —
/// never a panic, whatever bytes arrive on the wire.
pub fn parse(line: &str) -> Parsed {
    let (first, rest) = split_token(line.trim());
    if !first.eq_ignore_ascii_case("CTX") {
        return parse_request(line);
    }
    let (hex, request) = split_token(rest);
    match TraceContext::decode(hex) {
        Some(ctx) => Parsed {
            ctx: Some(ctx),
            ..parse_request(request)
        },
        None => Parsed {
            ctx: None,
            kind: Kind::Other,
            token: first.to_string(),
            verb: Err("ERR CTX expects a 48-hex-digit trace context".to_string()),
        },
    }
}

/// Parses one request line without looking for a `CTX` prefix — the
/// grammar a cluster router's clients speak (the router mints the trace
/// context itself, so to it `CTX` is just an unknown verb).
pub fn parse_request(line: &str) -> Parsed {
    let (token, rest) = split_token(line.trim());
    let (kind, verb) = match token.to_ascii_uppercase().as_str() {
        "PING" => (Kind::Ping, Ok(Verb::Ping)),
        "LIST" => (Kind::List, Ok(Verb::List)),
        "SHARDS" => (Kind::Other, Ok(Verb::Shards)),
        "SUBMIT" => (Kind::Submit, non_empty(rest).map(Verb::Submit)),
        "RUN" => (Kind::Run, Ok(Verb::Run)),
        "POLL" => (
            Kind::Poll,
            rest.parse()
                .map(Verb::Poll)
                .map_err(|_| "ERR POLL expects a numeric ticket"),
        ),
        "WAIT" => (
            Kind::Wait,
            rest.split_whitespace()
                .map(|id| id.parse().ok())
                .collect::<Option<Vec<u64>>>()
                .filter(|ids| !ids.is_empty())
                .map(Verb::Wait)
                .ok_or("ERR WAIT expects one or more numeric tickets"),
        ),
        "STATS" => (Kind::Stats, Ok(Verb::Stats)),
        "METRICS" => (Kind::Metrics, Ok(Verb::Metrics)),
        "TRACE" => (Kind::Trace, parse_trace(rest)),
        "EXPLAIN" => (Kind::Explain, parse_explain(rest)),
        "RESULT" => (
            Kind::Result,
            rest.parse()
                .map(Verb::Result)
                .map_err(|_| "ERR RESULT expects a numeric ticket"),
        ),
        "SNAPSHOT" if split_token(rest).0.eq_ignore_ascii_case("NAMESPACE") => (
            Kind::Snapshot,
            Err("ERR SNAPSHOT NAMESPACE was removed; use EXPORT and SHIP"),
        ),
        "SNAPSHOT" => (Kind::Snapshot, non_empty(rest).map(Verb::Snapshot)),
        "RESTORE" => (Kind::Restore, non_empty(rest).map(Verb::Restore)),
        "EXPORT" => (Kind::Export, parse_export(rest)),
        "SHIP" => (Kind::Ship, parse_ship(rest)),
        "QUIT" => (Kind::Quit, Ok(Verb::Quit)),
        _ => (Kind::Other, Err(UNCLAIMED)),
    };
    let verb = match verb {
        Err(UNCLAIMED) => Err(unknown_command(token)),
        claimed => claimed.map_err(str::to_string),
    };
    Parsed {
        ctx: None,
        kind,
        token: token.to_string(),
        verb,
    }
}

/// The argument of a verb that takes everything after it (`SUBMIT`,
/// `SNAPSHOT`, `RESTORE`); without one the line answers
/// `ERR unknown command`, as it always has.
fn non_empty(rest: &str) -> Result<String, &'static str> {
    if rest.is_empty() {
        Err(UNCLAIMED)
    } else {
        Ok(rest.to_string())
    }
}

fn parse_trace(rest: &str) -> Result<Verb, &'static str> {
    let (sub, count) = split_token(rest);
    if sub.eq_ignore_ascii_case("DUMP") {
        let count = count.parse().map(Verb::TraceDump);
        count.map_err(|_| "ERR TRACE DUMP expects a numeric span count")
    } else if sub.eq_ignore_ascii_case("SLOW") {
        let count = count.parse().map(Verb::TraceSlow);
        count.map_err(|_| "ERR TRACE SLOW expects a numeric trace count")
    } else {
        Err(UNCLAIMED)
    }
}

fn parse_explain(rest: &str) -> Result<Verb, &'static str> {
    let mut tokens = rest.split_whitespace();
    match tokens.next() {
        // `EXPLAIN TRACE <hex>` — the router's fan-out form, addressing
        // the trace directly (tickets are process-local ids).
        Some(token) if token.eq_ignore_ascii_case("TRACE") => tokens
            .next()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .map(Verb::ExplainTrace)
            .ok_or("ERR EXPLAIN TRACE expects a hex trace id"),
        token => token
            .and_then(|ticket| ticket.parse().ok())
            .map(Verb::Explain)
            .ok_or("ERR EXPLAIN expects a ticket or TRACE <trace-id>"),
    }
}

/// `EXPORT <ns> [<ns>…] [FROM <cursor>]`: the last two tokens are the
/// cursor whenever the second-to-last is `FROM`; without them the export
/// starts at the beginning. A bare `EXPORT` is an unknown command, as it
/// always was.
fn parse_export(rest: &str) -> Result<Verb, &'static str> {
    const FROM_EXPECTS: &str = "ERR EXPORT FROM expects a cursor";
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    let (namespaces, from) = match tokens.as_slice() {
        [] => return Err(UNCLAIMED),
        [namespaces @ .., from, cursor] if from.eq_ignore_ascii_case("FROM") => {
            (namespaces, cursor.parse().map_err(|_| FROM_EXPECTS)?)
        }
        [.., last] if last.eq_ignore_ascii_case("FROM") => return Err(FROM_EXPECTS),
        namespaces => (namespaces, Cursor::default()),
    };
    if namespaces.is_empty() {
        return Err("ERR EXPORT expects one or more namespaces");
    }
    let namespaces = namespaces.iter().map(|ns| ns.to_string()).collect();
    Ok(Verb::Export { namespaces, from })
}

/// `SHIP <ns> [<ns>…] <len>`: at least one namespace, then the payload
/// length. The namespaces are for the reader of the wire — what is merged
/// is whatever slots the payload (a namespace snapshot) holds.
fn parse_ship(rest: &str) -> Result<Verb, &'static str> {
    let mut tokens = rest.split_whitespace();
    let len = tokens.next_back().and_then(|len| len.parse().ok());
    match (len, tokens.next()) {
        (Some(len), Some(_namespace)) => Ok(Verb::Ship {
            len,
            payload: Vec::new(),
        }),
        _ => Err("ERR SHIP expects one or more namespaces then a byte length"),
    }
}

/// One unit cut from a connection's byte stream by a [`Framer`].
#[derive(Debug)]
pub enum Frame {
    /// A complete request: a parsed line, with its payload if it is a `SHIP`.
    Request(Parsed),
    /// A line longer than the cap. It is discarded through its terminating
    /// newline (however much later that arrives); the connection stays
    /// usable.
    LineTooLong,
    /// A `SHIP` header declaring more than the payload cap. The declared
    /// bytes are counted and dropped as they arrive — never buffered — so
    /// the connection stays in protocol sync.
    ShipTooLarge,
}

/// The payload a `SHIP` header announced, while it is still arriving.
struct Shipping {
    /// Payload bytes still to come.
    missing: usize,
    /// The parsed header line — `None` for a [`Frame::ShipTooLarge`],
    /// whose payload is not kept.
    header: Option<Parsed>,
    payload: Vec<u8>,
}

/// Longest accepted request line in bytes (terminator excluded), on the
/// daemon's reactor and on the router alike. A longer line is answered
/// with a protocol error and discarded up to its terminating newline; the
/// connection stays usable.
pub(crate) const MAX_LINE_LEN: usize = 4096;

/// Incremental request framing for one connection: bytes in (however TCP
/// fragments them), [`Frame`]s out. Lines are capped, and a `SHIP` header
/// switches the stream into a payload mode in which the next `len` bytes
/// bypass line parsing entirely — an arbitrary shipment can never be
/// misread as request lines.
pub struct Framer {
    max_line_len: usize,
    max_ship_bytes: usize,
    /// Parses one line (terminator stripped).
    parse: fn(&str) -> Parsed,
    /// Received bytes; those before `cursor` are already framed.
    buf: Vec<u8>,
    cursor: usize,
    /// An over-long line is being discarded up to its newline.
    discarding: bool,
    shipping: Option<Shipping>,
}

impl Framer {
    /// A framer applying `parse` ([`parse`] or [`parse_request`]) to lines
    /// of at most `max_line_len` bytes (terminator excluded) and buffering
    /// `SHIP` payloads of at most `max_ship_bytes`.
    pub fn new(parse: fn(&str) -> Parsed, max_line_len: usize, max_ship_bytes: usize) -> Framer {
        Framer {
            max_line_len,
            max_ship_bytes,
            parse,
            buf: Vec::new(),
            cursor: 0,
            discarding: false,
            shipping: None,
        }
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether received bytes are waiting to be framed (a partial line
    /// included).
    pub(crate) fn has_buffered(&self) -> bool {
        self.cursor < self.buf.len()
    }

    /// The next complete frame, or `None` once the buffered bytes hold no
    /// further one. O(bytes) over a whole buffer however many frames it
    /// holds: the unframed tail is moved down only when `None` is returned.
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            if let Some(shipping) = &mut self.shipping {
                let take = shipping.missing.min(self.buf.len() - self.cursor);
                if shipping.header.is_some() {
                    let bytes = &self.buf[self.cursor..self.cursor + take];
                    shipping.payload.extend_from_slice(bytes);
                }
                shipping.missing -= take;
                self.cursor += take;
                if shipping.missing > 0 {
                    break;
                }
                let Shipping {
                    header, payload, ..
                } = self.shipping.take()?;
                if let Some(mut request) = header {
                    let len = payload.len();
                    request.verb = Ok(Verb::Ship { len, payload });
                    return Some(Frame::Request(request));
                }
                continue;
            }
            let unframed = &self.buf[self.cursor..];
            let Some(end) = unframed.iter().position(|&b| b == b'\n') else {
                if self.discarding {
                    self.cursor = self.buf.len();
                } else if unframed.len() > self.max_line_len {
                    // Reject eagerly; the rest of the line is dropped as
                    // it arrives.
                    self.discarding = true;
                    self.cursor = self.buf.len();
                    self.compact();
                    return Some(Frame::LineTooLong);
                }
                break;
            };
            let line = &unframed[..end];
            self.cursor += end + 1;
            if self.discarding {
                // The tail of an over-long line: already answered.
                self.discarding = false;
            } else if line.len() > self.max_line_len {
                return Some(Frame::LineTooLong);
            } else {
                // Invalid UTF-8 cannot name a verb; lossy decoding turns it
                // into a request that answers `ERR unknown command`.
                let parsed = (self.parse)(&String::from_utf8_lossy(line));
                let Ok(Verb::Ship { len, .. }) = parsed.verb else {
                    return Some(Frame::Request(parsed));
                };
                let accepted = len <= self.max_ship_bytes;
                self.shipping = Some(Shipping {
                    missing: len,
                    header: accepted.then_some(parsed),
                    payload: Vec::new(),
                });
                if !accepted {
                    return Some(Frame::ShipTooLarge);
                }
            }
        }
        self.compact();
        None
    }

    /// End of input: the final unterminated line, if there is one, is a
    /// request like any other (`BufRead::lines` semantics). EOF inside a
    /// discarded line or a `SHIP` payload yields nothing — the sender died
    /// mid-upload.
    pub fn finish(&mut self) -> Option<Frame> {
        if self.discarding || self.shipping.is_some() || !self.has_buffered() {
            return None;
        }
        self.buf.push(b'\n');
        self.next_frame()
    }

    fn compact(&mut self) {
        self.buf.drain(..self.cursor);
        self.cursor = 0;
    }
}
