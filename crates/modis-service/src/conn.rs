//! The connection core both front-ends run on: one non-blocking socket
//! with its write buffer and poller registration ([`Conn`]), and the slab
//! that maps poller tokens to connections ([`Slab`]).
//!
//! This is the only module of the crate that reads, writes or
//! (de)registers a served socket. The daemon's reactor
//! ([`crate::reactor`]) layers its ordered response slots on it; the
//! cluster router ([`crate::router`]) layers its expectation queue on it
//! for client sockets and a reply-line buffer for its pooled shard
//! sockets. Neither ever blocks on a peer: reads stop at `WouldBlock`,
//! responses queue in the write buffer and leave as the socket accepts
//! them, and interest is settled once per sweep — read interest dropped
//! while the owner refuses to read (backpressure, end of input), write
//! interest held only while bytes are owed — so the level-triggered
//! poller never spins.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use crate::poller::{self, Interest, Poller};

/// Pending-response bytes above which a connection's owner stops reading
/// it: what the reactor applies to its connections and the router to its
/// clients.
pub(crate) const WRITE_HIGH_WATERMARK: usize = 1 << 20;
/// Most bytes read from one connection per sweep: what the reactor and the
/// router apply to every socket they serve.
pub(crate) const MAX_READ_PER_SWEEP: usize = 1 << 16;
/// Most unanswered requests one connection may have in flight: while a
/// connection's pipeline is this deep — e.g. requests piling up behind a
/// pending `WAIT`, or behind a shard that stopped reading — its owner stops
/// reading it, so per-connection memory stays bounded by `MAX_PIPELINED ×
/// MAX_LINE_LEN` however slow the head response is. What the reactor
/// applies to its connections and the router to its clients.
pub const MAX_PIPELINED: usize = 1024;

/// What one [`Conn::read`] took off the socket.
pub(crate) struct ReadOutcome {
    /// Bytes handed to the sink.
    pub(crate) bytes: usize,
    /// The peer closed its sending side.
    pub(crate) eof: bool,
}

/// One served socket: non-blocking, with the bytes owed to the peer and
/// the interest currently registered for it.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes owed to the peer; `write_pos` marks how far flushing got.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The interest registered with the poller; `None` while the socket
    /// is not registered at all.
    interest: Option<Interest>,
}

impl Conn {
    /// Takes over a connected stream: non-blocking, no Nagle delay.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            write_buf: Vec::new(),
            write_pos: 0,
            interest: None,
        })
    }

    /// Drains readable bytes into `sink`, at most `cap` of them (so one
    /// firehose peer cannot monopolise a sweep). An error means the
    /// connection is dead.
    pub(crate) fn read(
        &mut self,
        cap: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> io::Result<ReadOutcome> {
        let mut bytes = 0usize;
        let mut buf = [0u8; 4096];
        while bytes < cap {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(ReadOutcome { bytes, eof: true }),
                Ok(n) => {
                    bytes += n;
                    sink(&buf[..n]);
                    // A short read means the socket buffer is drained:
                    // stop here instead of paying a would-block read.
                    // The poller is level-triggered, so bytes that land
                    // after this moment re-report on the next wait.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            }
        }
        Ok(ReadOutcome { bytes, eof: false })
    }

    /// Queues one line (terminator appended) behind whatever is owed.
    pub(crate) fn queue_line(&mut self, text: &str) {
        self.write_buf.extend_from_slice(text.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Bytes queued and not yet accepted by the socket.
    pub(crate) fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Writes as much of the owed bytes as the socket accepts, returning
    /// whether any left. An error means the connection is dead.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        let mut progress = false;
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    progress = true;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 64 * 1024 {
            // Reclaim flushed prefix of a large, partially-written buffer.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(progress)
    }

    /// Re-points the registration at exactly what the owner can act on
    /// next — read interest only if `want_read`, write interest only
    /// while bytes are owed — touching the poller only on change.
    pub(crate) fn settle(&mut self, poller: &mut Poller, token: usize, want_read: bool) {
        let want = Interest {
            read: want_read,
            write: self.pending_write() > 0,
        };
        if self.interest.is_some_and(|current| current != want)
            && poller
                .reregister(poller::source(&self.stream), token, want)
                .is_ok()
        {
            self.interest = Some(want);
        }
    }

    /// Stops the poller watching this socket (it stays open).
    fn detach(&mut self, poller: &mut Poller) {
        if self.interest.take().is_some() {
            let _ = poller.deregister(poller::source(&self.stream));
        }
    }

    /// Ends the conversation: whatever is owed leaves if the socket takes
    /// it right now — never waiting on the peer — then both directions
    /// shut down.
    pub(crate) fn close(&mut self) {
        let _ = self.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Accepts every connection `listener` (non-blocking) has ready.
/// Listeners shared between threads race here: losing to a sibling just
/// means `WouldBlock`, and nothing accepted.
pub(crate) fn accept_ready(listener: &TcpListener) -> Vec<Conn> {
    let mut accepted = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Ok(conn) = Conn::new(stream) {
                    accepted.push(conn);
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            // `WouldBlock`: none left. Transient accept errors (aborted
            // handshake, fd pressure): skip this sweep, try again next one.
            Err(_) => return accepted,
        }
    }
}

/// One slab entry: the socket and what its owner layers on it.
pub(crate) struct Entry<T> {
    pub(crate) conn: Conn,
    pub(crate) state: T,
}

/// Connections keyed by poller token: slot `i` registers under token
/// `base + i`, so tokens stay stable across unrelated connects and
/// disconnects, and freed slots are reused before the slab grows.
pub(crate) struct Slab<T> {
    base: usize,
    slots: Vec<Option<Entry<T>>>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    /// An empty slab whose slot `i` owns poller token `base + i`.
    pub(crate) fn new(base: usize) -> Slab<T> {
        Slab {
            base,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Live connections.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Every slot index that may hold a live entry.
    pub(crate) fn slots(&self) -> std::ops::Range<usize> {
        0..self.slots.len()
    }

    /// Pins `conn` to a slot and registers read interest under its token.
    /// A connection the poller cannot watch is one its owner cannot
    /// serve: it is dropped (closing the socket) and `None` returned.
    pub(crate) fn insert(
        &mut self,
        poller: &mut Poller,
        mut conn: Conn,
        state: T,
    ) -> Option<usize> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let fd = poller::source(&conn.stream);
        if poller
            .register(fd, self.base + slot, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return None;
        }
        conn.interest = Some(Interest::READ);
        self.slots[slot] = Some(Entry { conn, state });
        Some(slot)
    }

    /// The live entry in `slot`, if any — events for a slot reaped
    /// earlier in the same batch find none and are skipped.
    pub(crate) fn get_mut(&mut self, slot: usize) -> Option<&mut Entry<T>> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// [`Conn::settle`] under the slot's token.
    pub(crate) fn settle(&mut self, poller: &mut Poller, slot: usize, want_read: bool) {
        let token = self.base + slot;
        if let Some(entry) = self.get_mut(slot) {
            entry.conn.settle(poller, token, want_read);
        }
    }

    /// Stops watching the slot's socket but keeps the entry — for a peer
    /// that closed while its owner still holds bytes it sent.
    pub(crate) fn detach(&mut self, poller: &mut Poller, slot: usize) {
        if let Some(entry) = self.get_mut(slot) {
            entry.conn.detach(poller);
        }
    }

    /// Deregisters and frees `slot`, returning what it held.
    pub(crate) fn remove(&mut self, poller: &mut Poller, slot: usize) -> Option<Entry<T>> {
        let mut entry = self.slots.get_mut(slot)?.take()?;
        entry.conn.detach(poller);
        self.free.push(slot);
        Some(entry)
    }

    /// Empties the slab for teardown. Nothing is deregistered: the owner
    /// is about to drop the poller along with the sockets.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = Entry<T>> + '_ {
        self.free.clear();
        self.slots.drain(..).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (Conn::new(stream).unwrap(), peer)
    }

    /// A peer that never reads fills the socket: `flush` stops at
    /// `WouldBlock` with the rest still owed and `settle` turns write
    /// interest on — and off again once the peer drained everything,
    /// every byte in order, the capped `read` seeing the peer's close.
    #[test]
    fn flush_never_blocks_and_settle_tracks_what_is_owed() {
        let (conn, mut peer) = pair();
        let mut poller = Poller::new().unwrap();
        let mut slab: Slab<()> = Slab::new(5);
        let slot = slab.insert(&mut poller, conn, ()).unwrap();
        let interest = |slab: &mut Slab<()>| slab.get_mut(slot).unwrap().conn.interest;
        let line = "x".repeat(1 << 16);
        let started = Instant::now();
        for _ in 0..256 {
            slab.get_mut(slot).unwrap().conn.queue_line(&line);
        }
        slab.get_mut(slot).unwrap().conn.flush().unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(slab.get_mut(slot).unwrap().conn.pending_write() > 0);
        slab.settle(&mut poller, slot, true);
        let both = Interest {
            read: true,
            write: true,
        };
        assert_eq!(interest(&mut slab), Some(both));

        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut sink = vec![0u8; 1 << 16];
        let (mut received, total) = (0usize, 256 * ((1 << 16) + 1));
        while received < total {
            let n = peer.read(&mut sink).unwrap();
            assert!(sink[..n].iter().all(|&b| b == b'x' || b == b'\n'));
            received += n;
            slab.get_mut(slot).unwrap().conn.flush().unwrap();
        }
        slab.settle(&mut poller, slot, true);
        assert_eq!(interest(&mut slab), Some(Interest::READ));

        peer.write_all(&[7u8; 10_000]).unwrap();
        drop(peer);
        let (mut got, mut eof) = (0usize, false);
        while !eof {
            assert!(started.elapsed() < Duration::from_secs(30));
            let conn = &mut slab.get_mut(slot).unwrap().conn;
            let read = conn.read(4096, |bytes| got += bytes.len()).unwrap();
            assert!(read.bytes <= 4096, "cap exceeded: {}", read.bytes);
            eof = read.eof;
        }
        assert_eq!(got, 10_000);
    }

    #[test]
    fn slab_reuses_freed_slots_and_keeps_tokens_stable() {
        let mut poller = Poller::new().unwrap();
        let mut slab: Slab<u8> = Slab::new(2);
        let (conn_a, _peer_a) = pair();
        let (conn_b, _peer_b) = pair();
        let (conn_c, _peer_c) = pair();
        let a = slab.insert(&mut poller, conn_a, 1).unwrap();
        let b = slab.insert(&mut poller, conn_b, 2).unwrap();
        assert_eq!((a, b, slab.len()), (0, 1, 2));
        assert_eq!(slab.remove(&mut poller, a).map(|e| e.state), Some(1));
        assert!(slab.get_mut(a).is_none() && slab.remove(&mut poller, a).is_none());
        assert_eq!(slab.get_mut(b).map(|e| e.state), Some(2));
        assert_eq!(slab.insert(&mut poller, conn_c, 3), Some(a), "slot reused");
        slab.detach(&mut poller, b);
        assert_eq!(slab.get_mut(b).unwrap().conn.interest, None);
        assert_eq!((slab.drain().count(), slab.len()), (2, 0));
    }
}
