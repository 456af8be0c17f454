//! The load generator's side of the wire: one blocking connection, closed
//! loop — the callers this models are pipelines that wait for their
//! skyline before they ask for the next.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gate::Gate;

/// A reply that has not arrived after this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection to a front-end (daemon or router; the protocol is the
/// same).
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Counters summed over the `DONE` lines of one or more requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DoneTotals {
    pub states: u64,
    pub shared_hits: u64,
    pub cost: u64,
}

/// What one request (one wave) came to.
#[derive(Debug)]
pub struct WaveReply {
    /// From the first write until the last `RESULT` line was verified.
    pub latency: Duration,
    /// Every reply arrived and every skyline matched its reference.
    pub ok: bool,
    pub done: DoneTotals,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        // Requests are single writes, but without this the three short
        // exchanges of a request still risk Nagle/delayed-ACK stalls.
        stream.set_nodelay(true)?;
        Ok(Client {
            addr,
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// One request: `SUBMIT`×w + `RUN` in one write → `WAIT` → `RESULT`×w,
    /// every skyline checked against `gate`'s references. A transport
    /// error fails the request and reconnects, so one bad reply cannot
    /// desynchronise the rest of the run.
    pub fn wave(&mut self, scenarios: &[&str], gate: &Gate) -> WaveReply {
        let start = Instant::now();
        let mut done = DoneTotals::default();
        let ok = match self.wave_inner(scenarios, gate, &mut done) {
            Ok(ok) => ok,
            Err(err) => {
                eprintln!("request failed: {err}");
                if let Ok(fresh) = Client::connect(self.addr) {
                    *self = fresh;
                }
                false
            }
        };
        WaveReply {
            latency: start.elapsed(),
            ok,
            done,
        }
    }

    fn wave_inner(
        &mut self,
        scenarios: &[&str],
        gate: &Gate,
        done: &mut DoneTotals,
    ) -> io::Result<bool> {
        let mut burst = String::new();
        for name in scenarios {
            burst.push_str("SUBMIT ");
            burst.push_str(name);
            burst.push('\n');
        }
        burst.push_str("RUN\n");
        self.writer.write_all(burst.as_bytes())?;

        let mut ok = true;
        let mut tickets: Vec<(&str, u64)> = Vec::with_capacity(scenarios.len());
        for name in scenarios {
            let reply = self.recv()?;
            match reply.strip_prefix("TICKET ").and_then(|t| t.parse().ok()) {
                Some(ticket) => tickets.push((name, ticket)),
                None => {
                    eprintln!("SUBMIT {name}: {reply}");
                    ok = false;
                }
            }
        }
        let run = self.recv()?;
        if !run.starts_with("OK ") {
            eprintln!("RUN: {run}");
            ok = false;
        }
        if tickets.is_empty() {
            return Ok(false);
        }

        let mut wait = String::from("WAIT");
        let mut results = String::new();
        for (_, ticket) in &tickets {
            wait.push_str(&format!(" {ticket}"));
            results.push_str(&format!("RESULT {ticket}\n"));
        }
        wait.push('\n');
        self.writer.write_all(wait.as_bytes())?;
        for _ in &tickets {
            let reply = self.recv()?;
            match parse_done(&reply) {
                Some(totals) => {
                    done.states += totals.states;
                    done.shared_hits += totals.shared_hits;
                    done.cost += totals.cost;
                }
                None => {
                    eprintln!("WAIT: {reply}");
                    ok = false;
                }
            }
        }

        self.writer.write_all(results.as_bytes())?;
        for (name, ticket) in &tickets {
            let reply = self.recv()?;
            if !gate.result_matches(name, *ticket, &reply) {
                eprintln!(
                    "RESULT {ticket} ({name}) differs from its reference: {:.80}",
                    reply
                );
                ok = false;
            }
        }
        Ok(ok)
    }

    /// One `PING` round trip.
    pub fn ping(&mut self) -> io::Result<Duration> {
        let start = Instant::now();
        self.writer.write_all(b"PING\n")?;
        let reply = self.recv()?;
        if reply != "PONG" {
            return Err(io::Error::new(io::ErrorKind::InvalidData, reply));
        }
        Ok(start.elapsed())
    }

    /// The front-end's `STATS` line.
    pub fn stats(&mut self) -> io::Result<String> {
        self.writer.write_all(b"STATS\n")?;
        self.recv()
    }
}

/// Parses `DONE <id> entries=… states=… shared_hits=… cost=… valuations=…`.
fn parse_done(line: &str) -> Option<DoneTotals> {
    let rest = line.strip_prefix("DONE ")?;
    Some(DoneTotals {
        states: field(rest, "states")?,
        shared_hits: field(rest, "shared_hits")?,
        cost: field(rest, "cost")?,
    })
}

/// The numeric value of `key=<n>` in a space-separated reply line.
pub fn field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_and_stats_fields_parse() {
        let totals =
            parse_done("DONE 12 entries=7 states=41 shared_hits=39 cost=2 valuations=41").unwrap();
        assert_eq!(
            totals,
            DoneTotals {
                states: 41,
                shared_hits: 39,
                cost: 2
            }
        );
        assert!(parse_done("ERR unknown ticket 12").is_none());
        let stats =
            "STATS hits=10 misses=30 entries=5 evictions=3 memo_evictions=9 hit_rate=0.2500";
        assert_eq!(field::<u64>(stats, "evictions"), Some(3));
        assert_eq!(field::<u64>(stats, "memo_evictions"), Some(9));
        assert_eq!(field::<f64>(stats, "hit_rate"), Some(0.25));
        assert_eq!(field::<u64>(stats, "absent"), None);
    }
}
