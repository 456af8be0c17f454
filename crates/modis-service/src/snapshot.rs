//! Evaluation-cache snapshots: a hand-rolled, versioned binary codec that
//! persists the engine's shared [`SharedEvalCache`] to disk and warm-starts
//! a fresh process from it.
//!
//! The workspace vendors no serde, so the format is built from the
//! fixed-width primitives in [`modis_core::codec`]:
//!
//! ```text
//! magic    8 × u8   b"MODISNAP"
//! version  u32      3
//! entries  u64      evaluation count
//! per entry (shard by shard, oldest first within a shard):
//!   namespace  u64        hashed cache namespace
//!   bits       u64        bitmap length
//!   words      n × u64    packed bitmap words
//!   raw        u64 + n × f64  raw metric vector
//!   perf       u64 + n × f64  normalised performance vector
//! guards   u64      namespace-guard pair count
//! per pair:
//!   key          u64   hashed cache namespace
//!   fingerprint  u64   substrate/task fingerprint recorded for it
//! checksum u64      FNV-1a over every preceding byte
//! ```
//!
//! A snapshot is what MODis needs to reuse a recorded test instead of
//! training it again: each state's raw metrics and performance vector,
//! nothing of the cache's eviction state. Every restore merges the entries
//! through the cache's hashed insertion path
//! ([`SharedEvalCache::merge_exports`]); into an empty cache with the same
//! shard count and capacity that rebuilds every value and each shard's
//! queue order, and visited bits and the hand start over. The guard section
//! carries the engine's namespace → fingerprint map, so the "no
//! incompatible substrate may reuse a warm namespace" protection survives
//! the restart along with the evaluations it protects — without it, a
//! restarted service would accept refreshed data into a stale namespace and
//! serve the old evaluations. Every decode validates magic, version and
//! checksum before touching the payload, and every length field is
//! bounds-checked against the remaining input, so truncated or corrupted
//! snapshots are rejected cleanly instead of poisoning the cache.
//!
//! This is the only cache-state format. A *namespace snapshot* — what
//! `EXPORT` sends and `SHIP` receives ([`crate::Service::shipment_bytes`])
//! — is the same layout holding only the named namespaces' entries and
//! only their guard pairs. Every way into a service — `RESTORE`, `SHIP` and
//! the warm start — goes through [`crate::Service::restore_from_bytes`],
//! which requires a guard pair for every namespace that has an entry in the
//! payload.

use std::fmt;
use std::path::Path;

use modis_core::codec::{checksum, ByteReader, ByteWriter, CodecError};
use modis_core::estimator::SharedEvaluation;
use modis_data::StateBitmap;
use modis_engine::{ExportedEvaluation, SharedEvalCache};

/// File magic every snapshot starts with.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MODISNAP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 3;

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

/// A decoded snapshot: the cached evaluations plus the persisted
/// namespace-guard pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedSnapshot {
    /// The evaluations, in the order they were exported.
    pub entries: Vec<ExportedEvaluation>,
    /// `(namespace key, substrate fingerprint)` pairs recorded by the
    /// exporting engine's namespace guard.
    pub namespace_fingerprints: Vec<(u64, u64)>,
}

/// Serialises the cache's current contents plus the engine's namespace
/// guard into the versioned snapshot format (including the trailing
/// checksum seal).
pub fn encode_snapshot(cache: &SharedEvalCache, namespace_fingerprints: &[(u64, u64)]) -> Vec<u8> {
    encode_entries(&cache.export_all(), namespace_fingerprints)
}

/// Serialises exported evaluations plus guard pairs into the snapshot
/// format — the writer shared by full snapshots ([`encode_snapshot`]) and
/// namespace snapshots (over [`SharedEvalCache::export_namespaces`]).
pub(crate) fn encode_entries(
    entries: &[ExportedEvaluation],
    namespace_fingerprints: &[(u64, u64)],
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + entries.len() * 96);
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    w.put_u64(entries.len() as u64);
    for entry in entries {
        w.put_u64(entry.namespace);
        w.put_u64(entry.bitmap.len() as u64);
        for &word in entry.bitmap.words() {
            w.put_u64(word);
        }
        for metrics in [&entry.evaluation.raw, &entry.evaluation.perf] {
            w.put_u64(metrics.len() as u64);
            for &v in metrics {
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

/// Reads one metric vector: a length capped by what the bytes left can
/// hold, then that many `f64`s.
fn get_metrics(r: &mut ByteReader<'_>) -> Result<Vec<f64>, CodecError> {
    let n = r.get_len(MAX_METRICS.min(r.remaining() / 8))?;
    (0..n).map(|_| r.get_f64()).collect()
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
    // The smallest entry is four u64s (namespace, bits, two lengths).
    let count = r.get_len(r.remaining() / 32)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let namespace = r.get_u64()?;
        // Each length is capped by what the bytes left can hold, so a
        // sealed but lying header reserves nothing it cannot fill.
        let bits = r.get_len(MAX_BITMAP_BITS.min(r.remaining().saturating_mul(8)))?;
        let words = (0..bits.div_ceil(64))
            .map(|_| r.get_u64())
            .collect::<Result<Vec<u64>, _>>()?;
        let bitmap = StateBitmap::from_words(words, bits).ok_or(SnapshotError::Corrupt(
            CodecError::Invalid("bitmap padding bits set"),
        ))?;
        let raw = get_metrics(&mut r)?;
        let perf = get_metrics(&mut r)?;
        entries.push(ExportedEvaluation {
            namespace,
            bitmap,
            evaluation: SharedEvaluation { raw, perf },
        });
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
        entries,
        namespace_fingerprints,
    })
}

/// Writes `bytes` to `path` atomically via a uniquely-named sibling
/// temporary file, synced before the rename: a concurrent reader never
/// observes a half-written snapshot, a crash never leaves a renamed file
/// whose bytes had not reached the disk, and concurrent writers never
/// clobber each other's temp file.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::{io::Write, sync::atomic::AtomicU64, sync::atomic::Ordering};
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        "{}.{}.{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("snapshot"),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| file.write_all(bytes).and_then(|()| file.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    // A failed write, sync or rename (disk full, permissions revoked
    // mid-write) can still have left a partial temp file — remove it so
    // error paths leave no litter next to the real snapshot.
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    Ok(written?)
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
        assert_eq!(decoded.entries, cache.export_all());
        assert_eq!(decoded.namespace_fingerprints, guards);
        let plain = decode_snapshot(&encode_snapshot(&cache, &[])).unwrap();
        assert!(plain.namespace_fingerprints.is_empty());
    }

    #[test]
    fn restore_into_same_geometry_is_identical() {
        let cache = populated_cache();
        let bytes = encode_snapshot(&cache, &[]);
        let fresh = Arc::new(SharedEvalCache::with_capacity(4, 256));
        let entries = decode_snapshot(&bytes).unwrap().entries;
        assert_eq!(fresh.merge_exports(entries), 40);
        assert_eq!(fresh.export_all(), cache.export_all());
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

    #[test]
    fn a_sealed_length_past_the_input_is_rejected_before_any_reservation() {
        // One entry declaring a 2^28-bit bitmap, one word of it, then the
        // correct seal: only the length bound can refuse it.
        let mut w = ByteWriter::with_capacity(52);
        w.put_bytes(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        for word in [1, 0, 1 << 28, 0] {
            w.put_u64(word);
        }
        let seal = checksum(w.bytes());
        w.put_u64(seal);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 52);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt(CodecError::Invalid(
                "length field exceeds limit"
            )))
        ));
    }

    /// A service holding `populated_cache` with guard pairs alpha → 1 and
    /// beta → 2 (sorted), and the namespace snapshot it ships for alpha.
    fn alpha_shipment() -> (crate::Service, Vec<(u64, u64)>, Vec<u8>) {
        let keys = ["alpha", "beta"].map(SharedEvalCache::namespace_key);
        let mut guards = vec![(keys[0], 1), (keys[1], 2)];
        guards.sort_unstable(); // the order namespace_fingerprints reports
        let exporter = crate::Service::new(crate::ServiceConfig::default());
        let entries = populated_cache().export_all();
        exporter.engine().cache().merge_exports(entries);
        exporter.engine().seed_namespace_fingerprints(&guards);
        let shipment = exporter.shipment_bytes(&["alpha".to_string()]);
        (exporter, guards, shipment)
    }

    #[test]
    fn shipment_round_trips_and_rejects_damage() {
        // What EXPORT / SHIP carry: alpha's entries and alpha's pair.
        let (exporter, _, shipment) = alpha_shipment();
        let alpha = SharedEvalCache::namespace_key("alpha");
        let decoded = decode_snapshot(&shipment).unwrap();
        let expected = exporter.engine().cache().export_namespaces(&[alpha]);
        assert_eq!(decoded.entries, expected);
        assert_eq!(decoded.namespace_fingerprints, vec![(alpha, 1)]);
        assert_eq!(decoded.entries.len(), 20, "only alpha's 20 entries travel");
        assert!(decoded.entries.iter().all(|e| e.namespace == alpha));
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
        let mut guards = ["alpha", "beta"].map(|ns| (SharedEvalCache::namespace_key(ns), 2));
        guards.sort_unstable();
        let bytes = save_to_path(&cache, &guards, &path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len() as usize);
        let config = crate::ServiceConfig::default();
        let revived = crate::Service::from_snapshot(config.clone(), &path).unwrap();
        assert_eq!(revived.cache_stats().entries, 40);
        assert_eq!(revived.engine().namespace_fingerprints(), guards);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            crate::Service::from_snapshot(config, &path).err(),
            Some(crate::ServiceError::Snapshot(SnapshotError::Io(_)))
        ));
    }
}
