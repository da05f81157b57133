//! On-disk artifact cache for the compile pipeline.
//!
//! Every quality-independent stage of the compile flow (NPU training,
//! dataset profiling) and the quality-dependent remainder (threshold
//! certification, classifier training) produces a serializable artifact.
//! The ten figure/table binaries previously recomputed the same base for
//! every figure; with the cache, a stage whose configuration fingerprint
//! matches a stored artifact is skipped entirely and the artifact is
//! deserialized instead.
//!
//! Layout: `<dir>/<benchmark>/<stage>-<fingerprint>.json` (or `.bin` for
//! dataset profiles), where the fingerprint is an FNV-1a 64-bit hash of
//! the artifact's canonical key string: a description of everything that
//! influences the artifact (benchmark name, dataset scale and seeds,
//! stage configuration, and the keys of upstream stages). Every file
//! starts with a header line holding that key string, and a load checks
//! it, so two keys that hash alike can never serve each other's
//! artifacts. Files are written atomically (temp file + rename) and any
//! read failure — missing, truncated, garbage, a header for another key
//! or no header at all, or schema-mismatched — falls back to
//! recomputation: the cache can never poison a run, only skip work.
//!
//! Small artifacts (trained NPU, threshold, classifiers) go through serde
//! as JSON. Dataset profiles are hundreds of megabytes of flat `f32`/`f64`
//! vectors, for which JSON costs more to parse than the profiling it
//! replaces; [`encode_profiles`]/[`decode_profiles`] store them in a raw
//! little-endian format instead, making a profile cache hit a bulk read.

use crate::function::AcceleratedFunction;
use crate::neural::NeuralClassifier;
use crate::profile::DatasetProfile;
use crate::table::TableClassifier;
use mithra_axbench::benchmark::Benchmark;
use mithra_axbench::dataset::{Dataset, OutputBuffer};
use mithra_npu::mlp::Mlp;
use mithra_npu::train::Normalizer;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bumped whenever a cached artifact's schema or semantics change, so
/// stale caches from older builds miss instead of mis-deserializing.
/// Version 2: multi-approximator routing — key strings gained pool/router
/// stages, so every pre-routing (v1) artifact recomputes cleanly.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Where (and whether) compile-stage artifacts are cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Root directory of the cache.
    pub dir: PathBuf,
}

impl CacheConfig {
    /// A cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }
}

/// FNV-1a 64-bit hash of a canonical key string.
pub fn fingerprint(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The stored form of a trained accelerator: the network and both
/// normalizers. The benchmark binding is re-established on load via
/// [`AcceleratedFunction::from_parts`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedNpuArtifact {
    /// The trained network weights and topology.
    pub mlp: Mlp,
    /// Input normalizer fitted during training.
    pub input_norm: Normalizer,
    /// Output normalizer fitted during training.
    pub output_norm: Normalizer,
}

impl TrainedNpuArtifact {
    /// Captures the stored parts of a trained function.
    pub fn of(function: &AcceleratedFunction) -> Self {
        Self {
            mlp: function.npu().clone(),
            input_norm: function.input_normalizer().clone(),
            output_norm: function.output_normalizer().clone(),
        }
    }

    /// Rebinds the stored parts to their benchmark.
    pub fn into_function(self, benchmark: Arc<dyn Benchmark>) -> AcceleratedFunction {
        AcceleratedFunction::from_parts(benchmark, self.mlp, self.input_norm, self.output_norm)
    }
}

/// The stored form of a trained approximator pool: every member's
/// network and normalizers, cheapest first. Member topologies are not
/// stored — they are re-supplied by the [`crate::route::PoolSpec`] whose
/// fingerprint keyed the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolArtifact {
    /// One stored accelerator per pool member, cheapest first.
    pub members: Vec<TrainedNpuArtifact>,
}

impl PoolArtifact {
    /// Captures the stored parts of every pool member.
    pub fn of(pool: &crate::route::ApproximatorPool) -> Self {
        Self {
            members: pool.members().iter().map(TrainedNpuArtifact::of).collect(),
        }
    }

    /// Rebinds the stored members to their benchmark and topologies.
    pub fn into_pool(
        self,
        benchmark: &Arc<dyn Benchmark>,
        topologies: Vec<mithra_npu::topology::Topology>,
    ) -> Option<crate::route::ApproximatorPool> {
        if self.members.is_empty() || self.members.len() != topologies.len() {
            return None;
        }
        let members = self
            .members
            .into_iter()
            .map(|m| m.into_function(Arc::clone(benchmark)))
            .collect();
        Some(crate::route::ApproximatorPool::from_members(
            members, topologies,
        ))
    }
}

/// The stored form of the classifier-training stage: both trained
/// classifiers. The labeled training tuples are deliberately not stored —
/// they are regenerated deterministically from the profiles, which is
/// cheaper than deserializing them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierArtifact {
    /// The trained MISR multi-table classifier.
    pub table: TableClassifier,
    /// The trained neural classifier.
    pub neural: NeuralClassifier,
}

/// A benchmark-scoped handle on the on-disk artifact store.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Opens the cache for one benchmark under `config.dir`. No I/O
    /// happens until the first load or store.
    pub fn open(config: &CacheConfig, benchmark: &str) -> Self {
        Self {
            dir: config.dir.join(benchmark),
        }
    }

    /// The file a `(stage, key)` pair maps to.
    pub fn path(&self, stage: &str, key: &str) -> PathBuf {
        self.dir
            .join(format!("{stage}-{:016x}.json", fingerprint(key)))
    }

    /// Loads a stage artifact stored under `key`, or `None` when it is
    /// absent, unreadable or stored under another key (corrupt files are
    /// treated as misses, never errors).
    pub fn load<T: serde::Deserialize>(&self, stage: &str, key: &str) -> Option<T> {
        let bytes = std::fs::read(self.path(stage, key)).ok()?;
        serde_json::from_slice(strip_key_header(&bytes, key)?).ok()
    }

    /// Stores a stage artifact under `key`, best-effort: an unwritable
    /// cache degrades to recomputation on the next run rather than
    /// failing the compile. Returns whether the artifact landed on disk.
    pub fn store<T: serde::Serialize>(&self, stage: &str, key: &str, value: &T) -> bool {
        let Ok(json) = serde_json::to_vec(value) else {
            return false;
        };
        let mut bytes = key_header(key);
        bytes.extend_from_slice(&json);
        self.publish(&self.path(stage, key), &bytes)
    }

    /// Writes `bytes` to `target` through a temp file of this writer's
    /// own, then renames it into place: readers only ever see whole
    /// files, and concurrent writers of one artifact never share a temp
    /// file (the last rename wins). A failed write leaves no temp file.
    fn publish(&self, target: &Path, bytes: &[u8]) -> bool {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let mut tmp = target.as_os_str().to_owned();
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".{}-{n}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let published =
            std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, target).is_ok();
        if !published {
            let _ = std::fs::remove_file(&tmp);
        }
        published
    }

    /// The benchmark-scoped cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a binary `(stage, key)` pair maps to.
    pub fn bin_path(&self, stage: &str, key: &str) -> PathBuf {
        self.dir
            .join(format!("{stage}-{:016x}.bin", fingerprint(key)))
    }

    /// Loads a profile artifact stored under `key` from the flat binary
    /// format, or `None` when it is absent, unreadable or stored under
    /// another key.
    pub fn load_profiles(&self, stage: &str, key: &str) -> Option<Vec<DatasetProfile>> {
        let bytes = std::fs::read(self.bin_path(stage, key)).ok()?;
        decode_profiles(strip_key_header(&bytes, key)?)
    }

    /// Stores a profile artifact under `key` in the flat binary format,
    /// best-effort. Returns whether the artifact landed on disk.
    pub fn store_profiles(&self, stage: &str, key: &str, profiles: &[DatasetProfile]) -> bool {
        let mut bytes = key_header(key);
        encode_profiles_into(&mut bytes, profiles);
        self.publish(&self.bin_path(stage, key), &bytes)
    }
}

/// Tag opening every artifact file's header line.
const KEY_HEADER_TAG: &str = "mithra-artifact-key ";

/// The header line of an artifact stored under `key`: the tag, then the
/// key as a JSON string (so it holds no raw newline), then `\n`.
fn key_header(key: &str) -> Vec<u8> {
    let quoted = serde_json::to_string(&key.to_owned()).expect("a string always serializes");
    format!("{KEY_HEADER_TAG}{quoted}\n").into_bytes()
}

/// The artifact body after `key`'s header line, or `None` when the file
/// has no header or a header for another key.
fn strip_key_header<'a>(bytes: &'a [u8], key: &str) -> Option<&'a [u8]> {
    bytes.strip_prefix(key_header(key).as_slice())
}

/// Magic prefix of the binary profile format; the trailing byte is its
/// version.
const PROFILE_MAGIC: &[u8; 8] = b"MITHRAP1";

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes profiles into the flat little-endian binary format.
pub fn encode_profiles(profiles: &[DatasetProfile]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_profiles_into(&mut out, profiles);
    out
}

/// Appends the flat binary encoding of `profiles` to `out`.
fn encode_profiles_into(out: &mut Vec<u8>, profiles: &[DatasetProfile]) {
    out.extend_from_slice(PROFILE_MAGIC);
    push_u64(out, profiles.len() as u64);
    for p in profiles {
        push_u64(out, p.dataset().seed());
        push_u64(out, p.dataset().input_dim() as u64);
        push_u64(out, p.dataset().as_flat().len() as u64);
        push_f32s(out, p.dataset().as_flat());
        push_u64(out, p.precise_outputs().dim() as u64);
        push_u64(out, p.precise_outputs().as_flat().len() as u64);
        push_f32s(out, p.precise_outputs().as_flat());
        push_u64(out, p.approx_outputs().dim() as u64);
        push_u64(out, p.approx_outputs().as_flat().len() as u64);
        push_f32s(out, p.approx_outputs().as_flat());
        push_u64(out, p.errors().len() as u64);
        push_f32s(out, p.errors());
        push_u64(out, p.final_precise().len() as u64);
        push_f64s(out, p.final_precise());
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length prefix that must still fit in the remaining bytes, so a
    /// corrupted count cannot trigger a huge allocation.
    fn len(&mut self, elem_size: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        let bytes = n.checked_mul(elem_size)?;
        (self.pos.checked_add(bytes)? <= self.bytes.len()).then_some(n)
    }

    fn f32s(&mut self, n: usize) -> Option<Vec<f32>> {
        let raw = self.take(n.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
                .collect(),
        )
    }

    fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        let raw = self.take(n.checked_mul(8)?)?;
        Some(
            raw.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect(),
        )
    }
}

/// Deserializes profiles from the flat binary format; `None` for any
/// truncated, garbage, or internally inconsistent input.
pub fn decode_profiles(bytes: &[u8]) -> Option<Vec<DatasetProfile>> {
    let mut r = ByteReader { bytes, pos: 0 };
    if r.take(PROFILE_MAGIC.len())? != PROFILE_MAGIC {
        return None;
    }
    let count = usize::try_from(r.u64()?).ok()?;
    let mut profiles = Vec::new();
    for _ in 0..count {
        let seed = r.u64()?;
        let input_dim = usize::try_from(r.u64()?).ok()?;
        let inputs = {
            let n = r.len(4)?;
            r.f32s(n)?
        };
        if input_dim == 0 || inputs.len() % input_dim != 0 {
            return None;
        }
        let dataset = Dataset::from_flat(seed, input_dim, inputs);
        let n = dataset.invocation_count();

        let buffer = |r: &mut ByteReader<'_>| -> Option<OutputBuffer> {
            let dim = usize::try_from(r.u64()?).ok()?;
            let len = r.len(4)?;
            let data = r.f32s(len)?;
            if dim == 0 || data.len() % dim != 0 || data.len() / dim != n {
                return None;
            }
            Some(OutputBuffer::from_flat(dim, data))
        };
        let precise = buffer(&mut r)?;
        let approx = buffer(&mut r)?;

        let err_len = r.len(4)?;
        if err_len != n {
            return None;
        }
        let max_err = r.f32s(err_len)?;
        let final_len = r.len(8)?;
        let final_precise = r.f64s(final_len)?;
        profiles.push(DatasetProfile::from_parts(
            dataset,
            precise,
            approx,
            max_err,
            final_precise,
        ));
    }
    (r.pos == bytes.len()).then_some(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> (CacheConfig, ArtifactCache) {
        let dir =
            std::env::temp_dir().join(format!("mithra-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig::at(&dir);
        let cache = ArtifactCache::open(&config, "sobel");
        (config, cache)
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        // FNV-1a 64 reference value for the empty string.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn missing_artifact_is_a_miss() {
        let (_config, cache) = tmp_cache("miss");
        assert!(cache.load::<Vec<f32>>("npu", "k1").is_none());
    }

    #[test]
    fn round_trip_returns_stored_value() {
        let (config, cache) = tmp_cache("roundtrip");
        let value: Vec<f64> = vec![1.5, -2.25, 0.0];
        assert!(cache.store("profiles", "k42", &value));
        assert_eq!(cache.load::<Vec<f64>>("profiles", "k42"), Some(value));
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    fn tiny_profile(seed: u64) -> DatasetProfile {
        let dataset = Dataset::from_flat(seed, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let precise = OutputBuffer::from_flat(1, vec![0.5, 0.25]);
        let approx = OutputBuffer::from_flat(1, vec![0.55, 0.20]);
        DatasetProfile::from_parts(dataset, precise, approx, vec![0.1, 0.2], vec![9.0, 8.0])
    }

    #[test]
    fn profile_binary_round_trip() {
        let profiles = vec![tiny_profile(1), tiny_profile(2)];
        let bytes = encode_profiles(&profiles);
        assert_eq!(decode_profiles(&bytes).as_ref(), Some(&profiles));

        let (config, cache) = tmp_cache("profiles-bin");
        assert!(cache.store_profiles("profiling", "k9", &profiles));
        assert_eq!(cache.load_profiles("profiling", "k9"), Some(profiles));
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn corrupt_profile_binaries_are_misses() {
        let profiles = vec![tiny_profile(3)];
        let bytes = encode_profiles(&profiles);

        // Truncation anywhere must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert_eq!(decode_profiles(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage, wrong magic, and non-format bytes all miss.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode_profiles(&longer), None);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_profiles(&wrong_magic), None);
        assert_eq!(decode_profiles(b"not a profile artifact"), None);

        // An absurd length prefix must not allocate; it just misses.
        let mut huge = bytes.clone();
        let count_at = PROFILE_MAGIC.len();
        huge[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_profiles(&huge), None);

        // On-disk corruption goes through the same path.
        let (config, cache) = tmp_cache("profiles-corrupt");
        assert!(cache.store_profiles("profiling", "k4", &profiles));
        let path = cache.bin_path("profiling", "k4");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 3]).unwrap();
        assert_eq!(cache.load_profiles("profiling", "k4"), None);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn concurrent_writers_of_one_artifact_all_publish() {
        let (config, cache) = tmp_cache("concurrent");
        // Large enough that one write is many syscalls, so writers
        // sharing a temp file would interleave.
        let values: Vec<Vec<f64>> = (0..6).map(|t| vec![t as f64; 20_000]).collect();
        let profiles: Vec<Vec<DatasetProfile>> =
            (0..6).map(|t| vec![tiny_profile(t); 500]).collect();
        let start = std::sync::Barrier::new(values.len());
        std::thread::scope(|scope| {
            for t in 0..values.len() {
                let (cache, value, profiles, start) = (&cache, &values[t], &profiles[t], &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..10 {
                        assert!(cache.store("npu", "k3", value));
                        assert!(cache.store_profiles("profiling", "k3", profiles));
                    }
                });
            }
        });
        let loaded = cache
            .load::<Vec<f64>>("npu", "k3")
            .expect("a whole artifact");
        assert!(values.contains(&loaded));
        let loaded = cache
            .load_profiles("profiling", "k3")
            .expect("a whole artifact");
        assert!(profiles.contains(&loaded));
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn truncated_and_garbage_files_fall_back_to_miss() {
        let (config, cache) = tmp_cache("corrupt");
        let value: Vec<f64> = vec![3.0; 8];
        assert!(cache.store("threshold", "k7", &value));
        let path = cache.path("threshold", "k7");

        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load::<Vec<f64>>("threshold", "k7").is_none());

        std::fs::write(&path, b"not json at all {{{").unwrap();
        assert!(cache.load::<Vec<f64>>("threshold", "k7").is_none());

        // Valid JSON of the wrong shape is also just a miss, with or
        // without the key header.
        std::fs::write(&path, b"{\"wrong\": true}").unwrap();
        assert!(cache.load::<Vec<f64>>("threshold", "k7").is_none());
        let mut wrong_shape = key_header("k7");
        wrong_shape.extend_from_slice(b"{\"wrong\": true}");
        std::fs::write(&path, wrong_shape).unwrap();
        assert!(cache.load::<Vec<f64>>("threshold", "k7").is_none());
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn artifacts_under_another_keys_path_are_misses() {
        // A file copied to another key's path stands in for an FNV
        // collision: the header names the key it was stored under, so the
        // lookup for the other key must miss, for both formats.
        let (config, cache) = tmp_cache("key-check");
        let value: Vec<f64> = vec![1.0, 2.0];
        assert!(cache.store("npu", "key-a", &value));
        std::fs::copy(cache.path("npu", "key-a"), cache.path("npu", "key-b")).unwrap();
        assert_eq!(cache.load::<Vec<f64>>("npu", "key-a"), Some(value));
        assert_eq!(cache.load::<Vec<f64>>("npu", "key-b"), None);

        let profiles = vec![tiny_profile(5)];
        assert!(cache.store_profiles("profiling", "key-a", &profiles));
        std::fs::copy(
            cache.bin_path("profiling", "key-a"),
            cache.bin_path("profiling", "key-b"),
        )
        .unwrap();
        assert_eq!(cache.load_profiles("profiling", "key-a"), Some(profiles));
        assert_eq!(cache.load_profiles("profiling", "key-b"), None);

        // A key that merely extends the stored one is not a match either.
        std::fs::copy(
            cache.bin_path("profiling", "key-a"),
            cache.bin_path("profiling", "key-a/more"),
        )
        .unwrap();
        assert_eq!(cache.load_profiles("profiling", "key-a/more"), None);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn headerless_artifacts_are_misses() {
        // Files in the pre-header layout: bare JSON and bare profile
        // encodings at the right paths.
        let (config, cache) = tmp_cache("headerless");
        let value: Vec<f64> = vec![4.0];
        assert!(cache.store("npu", "k", &value));
        std::fs::write(cache.path("npu", "k"), serde_json::to_vec(&value).unwrap()).unwrap();
        assert_eq!(cache.load::<Vec<f64>>("npu", "k"), None);

        let profiles = vec![tiny_profile(6)];
        std::fs::write(cache.bin_path("profiling", "k"), encode_profiles(&profiles)).unwrap();
        assert_eq!(cache.load_profiles("profiling", "k"), None);
        let _ = std::fs::remove_dir_all(&config.dir);
    }
}
