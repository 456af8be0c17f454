//! Evaluation-cache snapshots: a hand-rolled, versioned binary codec that
//! persists the engine's shared [`SharedEvalCache`] to disk and warm-starts
//! a fresh process from it.
//!
//! The workspace vendors no serde, so the format is built from the
//! fixed-width primitives in [`modis_core::codec`]:
//!
//! ```text
//! magic    8 × u8   b"MODISNAP"
//! version  u32      2
//! shards   u32      shard count at export time
//! entries  u64      total evaluations
//! per shard:
//!   hand   u64      the hand's queue position
//!   count  u64      slots in this shard
//!   per slot (queue order, oldest first):
//!     namespace  u64        hashed cache namespace
//!     bits       u64        bitmap length
//!     words      n × u64    packed bitmap words
//!     visited    u8         visited bit
//!     raw        u64 + n × f64  raw metric vector
//!     perf       u64 + n × f64  normalised performance vector
//! guards   u64      namespace-guard pair count
//! per pair:
//!   key          u64   hashed cache namespace
//!   fingerprint  u64   substrate/task fingerprint recorded for it
//! checksum u64      FNV-1a over every preceding byte
//! ```
//!
//! Slots are written in SIEVE queue order, oldest first, with their visited
//! bits and the hand position, so a restore into a cache of the same
//! geometry reproduces not just the values but the *eviction schedule*; a
//! restore into a different geometry rehashes the entries, keeps the values.
//! The guard section carries the engine's namespace → fingerprint map, so
//! the "no incompatible substrate may reuse a warm namespace" protection
//! survives the restart along with the evaluations it protects — without
//! it, a restarted service would accept refreshed data into a stale
//! namespace and serve the old evaluations. Every decode validates magic,
//! version and checksum before touching the payload, and every length
//! field is bounds-checked against the remaining input, so truncated or
//! corrupted snapshots are rejected cleanly instead of poisoning the
//! cache.
//!
//! This is the only cache-state format. A *namespace snapshot* — what
//! `EXPORT` sends and `SHIP` receives ([`crate::Service::shipment_bytes`])
//! — is the same layout holding only the named namespaces' slots, every
//! hand 0, and only their guard pairs: it is merged into a live cache, never
//! replayed slot for slot. Whatever merges a payload into a live service
//! ([`crate::Service::restore_from_bytes`]) requires a guard pair for every
//! namespace that has a slot in it.

use std::fmt;
use std::path::Path;

use modis_core::codec::{checksum, ByteReader, ByteWriter, CodecError};
use modis_core::estimator::SharedEvaluation;
use modis_data::StateBitmap;
use modis_engine::{ExportedEvaluation, ShardExport, SharedEvalCache};

/// File magic every snapshot starts with.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MODISNAP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Upper bound accepted for a single bitmap's bit length (a corrupted
/// length field must not drive a huge allocation).
const MAX_BITMAP_BITS: usize = 1 << 28;

/// Upper bound accepted for a metric vector's length.
const MAX_METRICS: usize = 1 << 16;

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The input declares an unsupported format version.
    UnsupportedVersion(u32),
    /// The checksum seal does not match the payload.
    ChecksumMismatch,
    /// The payload is structurally invalid (truncated, inconsistent
    /// lengths, malformed bitmap words, trailing bytes).
    Corrupt(CodecError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot I/O failed: {err}"),
            SnapshotError::BadMagic => write!(f, "not a MODis snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(err) => write!(f, "corrupt snapshot: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            SnapshotError::Corrupt(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(err: CodecError) -> Self {
        SnapshotError::Corrupt(err)
    }
}

/// A decoded snapshot: per-shard cache contents plus the persisted
/// namespace-guard pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedSnapshot {
    /// Cache contents in queue order, one entry per shard.
    pub shards: Vec<ShardExport>,
    /// `(namespace key, substrate fingerprint)` pairs recorded by the
    /// exporting engine's namespace guard.
    pub namespace_fingerprints: Vec<(u64, u64)>,
}

/// Serialises the cache's current contents plus the engine's namespace
/// guard into the versioned snapshot format (including the trailing
/// checksum seal).
pub fn encode_snapshot(cache: &SharedEvalCache, namespace_fingerprints: &[(u64, u64)]) -> Vec<u8> {
    encode_shards(&cache.export_shards(), namespace_fingerprints)
}

/// Serialises pre-exported shard contents plus guard pairs into the
/// snapshot format — the writer shared by full snapshots
/// ([`encode_snapshot`]) and namespace snapshots (over
/// [`SharedEvalCache::export_namespaces`]).
pub(crate) fn encode_shards(
    shards: &[ShardExport],
    namespace_fingerprints: &[(u64, u64)],
) -> Vec<u8> {
    let total: usize = shards.iter().map(|s| s.entries.len()).sum();
    let mut w = ByteWriter::with_capacity(64 + total * 96);
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    w.put_u32(shards.len() as u32);
    w.put_u64(total as u64);
    for shard in shards {
        w.put_u64(shard.hand as u64);
        w.put_u64(shard.entries.len() as u64);
        for entry in &shard.entries {
            w.put_u64(entry.namespace);
            w.put_u64(entry.bitmap.len() as u64);
            for &word in entry.bitmap.words() {
                w.put_u64(word);
            }
            w.put_u8(entry.visited as u8);
            w.put_u64(entry.evaluation.raw.len() as u64);
            for &v in &entry.evaluation.raw {
                w.put_f64(v);
            }
            w.put_u64(entry.evaluation.perf.len() as u64);
            for &v in &entry.evaluation.perf {
                w.put_f64(v);
            }
        }
    }
    w.put_u64(namespace_fingerprints.len() as u64);
    for &(key, fingerprint) in namespace_fingerprints {
        w.put_u64(key);
        w.put_u64(fingerprint);
    }
    let seal = checksum(w.bytes());
    w.put_u64(seal);
    w.into_bytes()
}

/// Decodes a snapshot produced by [`encode_snapshot`], validating magic,
/// version, checksum and every length field.
pub fn decode_snapshot(bytes: &[u8]) -> Result<DecodedSnapshot, SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Corrupt(CodecError::Truncated {
            needed: SNAPSHOT_MAGIC.len() + 12,
            remaining: bytes.len(),
        }));
    }
    let (payload, seal) = bytes.split_at(bytes.len() - 8);
    let mut r = ByteReader::new(payload);
    if r.get_bytes(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let declared = u64::from_le_bytes(seal.try_into().unwrap());
    if checksum(payload) != declared {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let shard_count = r.get_u32()? as usize;
    if shard_count == 0 || shard_count > 1 << 16 {
        return Err(SnapshotError::Corrupt(CodecError::Invalid(
            "shard count out of range",
        )));
    }
    let total = r.get_len(usize::MAX >> 1)?;
    let mut shards = Vec::with_capacity(shard_count);
    let mut seen = 0usize;
    for _ in 0..shard_count {
        let hand = r.get_len(usize::MAX >> 1)?;
        let count = r.get_len(r.remaining() / 8)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let namespace = r.get_u64()?;
            let bits = r.get_len(MAX_BITMAP_BITS)?;
            let nwords = bits.div_ceil(64);
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(r.get_u64()?);
            }
            let bitmap = StateBitmap::from_words(words, bits).ok_or(SnapshotError::Corrupt(
                CodecError::Invalid("bitmap padding bits set"),
            ))?;
            let visited = match r.get_u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(SnapshotError::Corrupt(CodecError::Invalid(
                        "visited bit out of range",
                    )))
                }
            };
            let nraw = r.get_len(MAX_METRICS)?;
            let mut raw = Vec::with_capacity(nraw);
            for _ in 0..nraw {
                raw.push(r.get_f64()?);
            }
            let nperf = r.get_len(MAX_METRICS)?;
            let mut perf = Vec::with_capacity(nperf);
            for _ in 0..nperf {
                perf.push(r.get_f64()?);
            }
            entries.push(ExportedEvaluation {
                namespace,
                bitmap,
                visited,
                evaluation: SharedEvaluation { raw, perf },
            });
            seen += 1;
        }
        shards.push(ShardExport { hand, entries });
    }
    if seen != total {
        return Err(SnapshotError::Corrupt(CodecError::Invalid(
            "entry count disagrees with header",
        )));
    }
    let guard_count = r.get_len(r.remaining() / 16)?;
    let mut namespace_fingerprints = Vec::with_capacity(guard_count);
    for _ in 0..guard_count {
        let key = r.get_u64()?;
        let fingerprint = r.get_u64()?;
        namespace_fingerprints.push((key, fingerprint));
    }
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt(CodecError::Invalid(
            "trailing bytes after guard section",
        )));
    }
    Ok(DecodedSnapshot {
        shards,
        namespace_fingerprints,
    })
}

/// Writes `bytes` to `path` atomically via a uniquely-named sibling
/// temporary file, so a concurrent reader never observes a half-written
/// snapshot and concurrent writers never clobber each other's temp file.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        "{}.{}.{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("snapshot"),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    if let Err(err) = std::fs::write(&tmp, bytes) {
        // A failed write (disk full, permissions revoked mid-write) can
        // still have created a partial temp file — remove it so error
        // paths leave no litter next to the real snapshot.
        let _ = std::fs::remove_file(&tmp);
        return Err(err.into());
    }
    if let Err(err) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(err.into());
    }
    Ok(())
}

/// Writes a snapshot of `cache` plus the guard pairs to `path` (atomically
/// via a sibling temporary file), returning the snapshot size in bytes.
pub(crate) fn save_to_path(
    cache: &SharedEvalCache,
    namespace_fingerprints: &[(u64, u64)],
    path: &Path,
) -> Result<usize, SnapshotError> {
    let bytes = encode_snapshot(cache, namespace_fingerprints);
    write_atomic(path, &bytes)?;
    Ok(bytes.len())
}

/// Reads a snapshot file, restores its evaluations into `cache` and
/// returns `(entries processed, guard pairs)` — callers seed the guard
/// pairs into their engine so the namespace protection survives the
/// restart.
pub(crate) fn load_from_path(
    cache: &SharedEvalCache,
    path: &Path,
) -> Result<(usize, Vec<(u64, u64)>), SnapshotError> {
    let bytes = std::fs::read(path)?;
    let decoded = decode_snapshot(&bytes)?;
    let imported = cache.import_shards(decoded.shards);
    Ok((imported, decoded.namespace_fingerprints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use modis_core::estimator::EvaluationHook;

    fn populated_cache() -> Arc<SharedEvalCache> {
        let cache = Arc::new(SharedEvalCache::with_capacity(4, 256));
        for (n, namespace) in ["alpha", "beta"].iter().enumerate() {
            let handle = cache.handle(namespace);
            for i in 0..20 {
                let mut b = StateBitmap::empty(70);
                b.set(i, true);
                b.set(69, n == 1);
                handle.record(
                    &b,
                    &SharedEvaluation {
                        raw: vec![i as f64, 0.5],
                        perf: vec![1.0 - i as f64 / 20.0, 0.5],
                    },
                );
            }
        }
        cache
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let cache = populated_cache();
        let guards = vec![(7u64, 0xdead_beefu64), (9, 42)];
        let bytes = encode_snapshot(&cache, &guards);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded.shards, cache.export_shards());
        assert_eq!(decoded.namespace_fingerprints, guards);
        let plain = decode_snapshot(&encode_snapshot(&cache, &[])).unwrap();
        assert!(plain.namespace_fingerprints.is_empty());
    }

    #[test]
    fn restore_into_same_geometry_is_identical() {
        let cache = populated_cache();
        let bytes = encode_snapshot(&cache, &[]);
        let fresh = Arc::new(SharedEvalCache::with_capacity(4, 256));
        assert_eq!(
            fresh.import_shards(decode_snapshot(&bytes).unwrap().shards),
            40
        );
        assert_eq!(fresh.export_shards(), cache.export_shards());
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let bytes = encode_snapshot(&populated_cache(), &[]);
        for cut in [0, 7, 11, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let bytes = encode_snapshot(&populated_cache(), &[]);
        // Flip one bit at a spread of positions: either the checksum seal
        // catches it, or (when the flip lands in the seal itself) the seal
        // no longer matches the payload.
        for pos in (0..bytes.len()).step_by(97) {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x40;
            assert!(
                decode_snapshot(&corrupted).is_err(),
                "bit flip at {pos} must fail"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_distinct_errors() {
        let bytes = encode_snapshot(&populated_cache(), &[]);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_snapshot(&wrong_magic),
            Err(SnapshotError::BadMagic)
        ));

        // Re-seal a version bump so only the version check can fire.
        let mut wrong_version = bytes.clone();
        wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        let len = wrong_version.len();
        let seal = checksum(&wrong_version[..len - 8]);
        wrong_version[len - 8..].copy_from_slice(&seal.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    /// A service holding `populated_cache` with guard pairs alpha → 1 and
    /// beta → 2 (sorted), and the namespace snapshot it ships for alpha.
    fn alpha_shipment() -> (crate::Service, Vec<(u64, u64)>, Vec<u8>) {
        let keys = ["alpha", "beta"].map(SharedEvalCache::namespace_key);
        let mut guards = vec![(keys[0], 1), (keys[1], 2)];
        guards.sort_unstable(); // the order namespace_fingerprints reports
        let exporter = crate::Service::new(crate::ServiceConfig::default());
        let shards = populated_cache().export_shards();
        exporter.engine().cache().import_shards(shards);
        exporter.engine().seed_namespace_fingerprints(&guards);
        let shipment = exporter.shipment_bytes(&["alpha".to_string()]);
        (exporter, guards, shipment)
    }

    #[test]
    fn shipment_round_trips_and_rejects_damage() {
        // What EXPORT / SHIP carry: alpha's slots, alpha's pair, hand 0.
        let (exporter, _, shipment) = alpha_shipment();
        let alpha = SharedEvalCache::namespace_key("alpha");
        let decoded = decode_snapshot(&shipment).unwrap();
        let expected = exporter.engine().cache().export_namespaces(&[alpha]);
        assert_eq!(decoded.shards, expected);
        assert_eq!(decoded.namespace_fingerprints, vec![(alpha, 1)]);
        assert!(decoded.shards.iter().all(|s| s.hand == 0));
        let slots: Vec<_> = decoded.shards.iter().flat_map(|s| &s.entries).collect();
        assert_eq!(slots.len(), 20, "only alpha's 20 slots travel");
        assert!(slots.iter().all(|e| e.namespace == alpha));
        for pos in (0..shipment.len()).step_by(89) {
            let mut corrupted = shipment.clone();
            corrupted[pos] ^= 0x20;
            assert!(decode_snapshot(&corrupted).is_err(), "flip at {pos}");
        }
        for cut in [0, 9, 30, shipment.len() / 2, shipment.len() - 1] {
            assert!(decode_snapshot(&shipment[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn merge_from_path_accepts_both_formats() {
        // A namespace snapshot file merges through RESTORE beside a full one.
        let (exporter, guards, shipment) = alpha_shipment();
        let dir = std::env::temp_dir();
        let ship = dir.join(format!("modis_ns_snap_{}.bin", std::process::id()));
        let full = dir.join(format!("modis_full_snap_{}.bin", std::process::id()));
        std::fs::write(&ship, &shipment).unwrap();
        save_to_path(exporter.engine().cache(), &guards, &full).unwrap();
        let target = crate::Service::new(crate::ServiceConfig::default());
        assert_eq!(target.restore_from(&ship).unwrap(), 20);
        assert_eq!(target.cache_stats().entries, 20);
        assert_eq!(target.restore_from(&full).unwrap(), 40);
        assert_eq!(target.cache_stats().entries, 40);
        assert_eq!(target.engine().namespace_fingerprints(), guards);
        std::fs::remove_file(&ship).unwrap();
        std::fs::remove_file(&full).unwrap();
    }

    #[test]
    fn failed_saves_leave_no_temp_files_behind() {
        let cache = populated_cache();
        let dir = std::env::temp_dir().join(format!("modis_atomic_fail_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("occupied").join("inner")).unwrap();
        // The target is a non-empty directory, so the final rename must
        // fail — and the uniquely-named temp sibling must be cleaned up.
        assert!(save_to_path(&cache, &[], &dir.join("occupied")).is_err());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let cache = populated_cache();
        let path =
            std::env::temp_dir().join(format!("modis_snapshot_test_{}.bin", std::process::id()));
        let guards = vec![(1u64, 2u64)];
        let bytes = save_to_path(&cache, &guards, &path).unwrap();
        assert!(bytes > 0);
        let fresh = Arc::new(SharedEvalCache::with_capacity(4, 256));
        let (imported, restored_guards) = load_from_path(&fresh, &path).unwrap();
        assert_eq!(imported, 40);
        assert_eq!(restored_guards, guards);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_from_path(&fresh, &path),
            Err(SnapshotError::Io(_))
        ));
    }
}
