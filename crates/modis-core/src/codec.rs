//! Minimal binary codec primitives for cache persistence.
//!
//! The workspace vendors no serde, so the evaluation-cache snapshots written
//! by `modis-service` use a hand-rolled little-endian format built from
//! these primitives: a [`ByteWriter`] that appends fixed-width integers and
//! floats to a buffer, a [`ByteReader`] that consumes them with explicit
//! truncation errors, and the FNV-1a [`checksum`] every snapshot is sealed
//! with. Keeping the primitives here (rather than in the service crate)
//! lets the cache types they serialise live next to their codecs.

use std::fmt;

/// Error raised when a [`ByteReader`] runs out of input or a decoded value
/// fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested value was complete.
    Truncated {
        /// Bytes requested by the failed read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A decoded value violated a structural invariant.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} left"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fixed-width values to a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (round-trips NaN
    /// payloads and signed zeros exactly).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Consumes little-endian fixed-width values from a byte slice, reporting
/// truncation instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and checks it fits a `usize` no larger than `limit` —
    /// the guard that keeps a corrupted length field from driving a huge
    /// allocation.
    pub fn get_len(&mut self, limit: usize) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        if v > limit as u64 {
            return Err(CodecError::Invalid("length field exceeds limit"));
        }
        Ok(v as usize)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }
}

/// FNV-1a offset basis — the seed for [`fnv1a`].
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a continuation over `bytes` from state `h`. This is the single
/// source of truth for every hash that outlives the process (snapshot
/// checksums, persisted namespace keys, shard placement, substrate
/// fingerprints): std's `DefaultHasher` is explicitly unspecified across
/// toolchains, so anything written to disk must avoid it.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes`: the cheap, dependency-free integrity seal appended
/// to every snapshot. Not cryptographic — it detects truncation and random
/// corruption, which is all a local cache file needs.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET_BASIS, bytes)
}

/// A [`std::hash::Hasher`] over [`fnv1a`], for identity hashes that must be
/// stable across processes and toolchains (e.g. substrate fingerprints,
/// which snapshots compare across restarts). Note the *stream* is stable;
/// callers should keep the `Hash` impls they feed it simple (integers,
/// strings, bit patterns) so the byte stream itself stays under this
/// crate's control.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Creates a hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        StableHasher {
            state: FNV_OFFSET_BASIS,
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = fnv1a(self.state, bytes);
    }

    // Route every fixed-width write through little-endian bytes so the
    // stream does not depend on platform endianness.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_width() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert!(r.get_f64().unwrap().is_sign_negative());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_bytes(4).unwrap(), b"tail");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        let err = r.get_u64().unwrap_err();
        assert_eq!(
            err,
            CodecError::Truncated {
                needed: 8,
                remaining: 3
            }
        );
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn length_guard_rejects_absurd_fields() {
        let mut w = ByteWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_len(1 << 20).unwrap_err(),
            CodecError::Invalid("length field exceeds limit")
        );
    }

    #[test]
    fn stable_hasher_is_pinned_across_widths() {
        use std::hash::{Hash, Hasher};
        // Fingerprints are compared across processes, so the hasher's
        // stream must never drift — these literals pin it.
        let mut h = StableHasher::new();
        "pool".hash(&mut h);
        7usize.hash(&mut h);
        let first = h.finish();
        let mut again = StableHasher::new();
        "pool".hash(&mut again);
        7usize.hash(&mut again);
        assert_eq!(first, again.finish());
        let mut other = StableHasher::new();
        "pool".hash(&mut other);
        8usize.hash(&mut other);
        assert_ne!(first, other.finish());
        // Raw byte stream matches the fnv1a free function.
        let mut raw = StableHasher::new();
        raw.write(b"abc");
        assert_eq!(raw.finish(), fnv1a(FNV_OFFSET_BASIS, b"abc"));
    }

    #[test]
    fn checksum_changes_on_any_flip() {
        let base = b"snapshot payload".to_vec();
        let reference = checksum(&base);
        for i in 0..base.len() {
            let mut corrupted = base.clone();
            corrupted[i] ^= 1;
            assert_ne!(checksum(&corrupted), reference, "flip at byte {i}");
        }
        assert_eq!(checksum(&base), reference);
    }
}
