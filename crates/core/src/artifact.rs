//! Content-addressed artifact storage for the staged scenario engine.
//!
//! Every stage of the staged pipeline (see [`crate::stage`]) is keyed by a
//! [`Fingerprint`]: a 128-bit content hash of *all* inputs that influence
//! the stage's output — scenario configuration, defect spec, seeds, and
//! the fingerprint of the upstream stage. Two scenarios that agree on a
//! stage's inputs share that stage's fingerprint, so a sweep that varies
//! only the defect severity reuses the stages whose inputs are unchanged
//! and recomputes the rest; rerunning an identical experiment costs only
//! store reads.
//!
//! The [`ArtifactStore`] maps fingerprints to artifact bytes. Three
//! backends:
//!
//! * **disabled** — every lookup misses, writes are dropped. This is what
//!   [`Scenario::run`](crate::scenario::Scenario::run) uses, so one-off
//!   runs have no filesystem footprint.
//! * **memory** — a process-local map, for tests and short sweeps.
//! * **disk** — one file per fingerprint under a root directory
//!   (`DEEPMORPH_ARTIFACTS` env var, default `./artifacts`). Writes go
//!   through a temp file + rename, so concurrent sweep cells racing on
//!   the same fingerprint can never expose a half-written artifact.
//!
//! Hit/miss/write counters are shared across clones of the handle and are
//! how the sweep tests prove cache reuse (e.g. "the base training ran
//! once").

use std::collections::HashMap;
use std::ffi::OsString;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use deepmorph_tensor::io::ByteWriter;

/// Environment variable overriding the default on-disk store location.
pub const ARTIFACTS_ENV: &str = "DEEPMORPH_ARTIFACTS";

/// The store directory a value of [`ARTIFACTS_ENV`] names (pass
/// `std::env::var_os(ARTIFACTS_ENV)`): `None` when the variable is unset
/// or empty, so an empty value never roots a store in the working
/// directory.
pub fn env_dir(value: Option<OsString>) -> Option<PathBuf> {
    value.filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// Second FNV basis for the high fingerprint half (two independent
/// 64-bit digests over the same bytes form the 128-bit identity).
const FP_HI_BASIS: u64 = 0x6c62_272e_07bb_0142;

/// 128-bit content fingerprint of an opaque byte blob, as 32 hex chars —
/// the identity under which model containers are tracked (the serving
/// registry stamps every model version with it, and the repair stage keys
/// its cache by it).
pub fn content_fingerprint(bytes: &[u8]) -> String {
    use deepmorph_tensor::io::{fnv64, fnv64_seeded};
    format!(
        "{:016x}{:016x}",
        fnv64_seeded(FP_HI_BASIS, bytes),
        fnv64(bytes)
    )
}

/// Default on-disk store directory (relative to the working directory).
pub const DEFAULT_ARTIFACTS_DIR: &str = "artifacts";

/// A 128-bit content hash identifying one stage output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    /// The fingerprint as a fixed-width hex string (the store key).
    pub fn as_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_hex())
    }
}

/// Accumulates the inputs of one stage into a [`Fingerprint`].
///
/// Push every value that can influence the stage's output; the encoding is
/// length-prefixed where variable-sized, so distinct input sequences can
/// not collide by concatenation.
#[derive(Debug, Default)]
pub struct Fingerprinter {
    w: ByteWriter,
}

impl Fingerprinter {
    /// Starts a fingerprint with a domain label (stage name + version).
    pub fn new(domain: &str) -> Self {
        let mut fp = Fingerprinter {
            w: ByteWriter::new(),
        };
        fp.push_str(domain);
        fp
    }

    /// Mixes in a string.
    pub fn push_str(&mut self, s: &str) {
        self.w.put_str(s);
    }

    /// Mixes in an integer.
    pub fn push_u64(&mut self, v: u64) {
        self.w.put_u64(v);
    }

    /// Mixes in a `usize`.
    pub fn push_usize(&mut self, v: usize) {
        self.w.put_u64(v as u64);
    }

    /// Mixes in a boolean.
    pub fn push_bool(&mut self, v: bool) {
        self.w.put_u8(u8::from(v));
    }

    /// Mixes in an `f32` by its exact bit pattern.
    pub fn push_f32(&mut self, v: f32) {
        self.w.put_u64(u64::from(v.to_bits()));
    }

    /// Mixes in an upstream stage's fingerprint.
    pub fn push_fingerprint(&mut self, fp: &Fingerprint) {
        self.w.put_u64(fp.lo);
        self.w.put_u64(fp.hi);
    }

    /// Finalizes the fingerprint.
    pub fn finish(self) -> Fingerprint {
        use deepmorph_tensor::io::{fnv64, fnv64_seeded};
        let bytes = self.w.as_slice();
        Fingerprint {
            lo: fnv64(bytes),
            hi: fnv64_seeded(FP_HI_BASIS, bytes),
        }
    }
}

/// Immutable snapshot of the store counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups that returned a stored artifact.
    pub hits: u64,
    /// Lookups that found nothing (or an undecodable artifact).
    pub misses: u64,
    /// Artifacts persisted.
    pub writes: u64,
}

impl StoreStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writes: self.writes - earlier.writes,
        }
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} writes",
            self.hits, self.misses, self.writes
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

#[derive(Debug)]
enum Backend {
    Disabled,
    Memory(Mutex<HashMap<String, Arc<[u8]>>>),
    Disk(PathBuf),
}

/// Content-addressed blob store for stage artifacts.
#[derive(Debug)]
pub struct ArtifactStore {
    backend: Backend,
    counters: Counters,
}

impl ArtifactStore {
    /// A store where every lookup misses and writes are dropped — the
    /// backend of one-off [`Scenario::run`](crate::scenario::Scenario::run) calls.
    pub fn disabled() -> Self {
        ArtifactStore {
            backend: Backend::Disabled,
            counters: Counters::default(),
        }
    }

    /// A process-local in-memory store (tests, short-lived sweeps).
    pub fn in_memory() -> Self {
        ArtifactStore {
            backend: Backend::Memory(Mutex::new(HashMap::new())),
            counters: Counters::default(),
        }
    }

    /// An on-disk store rooted at `dir` (created if missing).
    ///
    /// Crash recovery: any `*.tmp` files left by writers that died before
    /// their rename are deleted on open. Unlike the model registry (which
    /// *quarantines* — models are primary data), artifacts are a cache: a
    /// torn write costs exactly one recomputation, so the leftovers are
    /// simply swept.
    ///
    /// # Errors
    ///
    /// Returns the `std::io::Error` if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(ArtifactStore {
            backend: Backend::Disk(dir),
            counters: Counters::default(),
        })
    }

    /// Opens the on-disk store at `$DEEPMORPH_ARTIFACTS`, falling back to
    /// [`DEFAULT_ARTIFACTS_DIR`].
    ///
    /// # Errors
    ///
    /// Returns the `std::io::Error` if the directory cannot be created.
    pub fn from_env() -> std::io::Result<Self> {
        let dir = env_dir(std::env::var_os(ARTIFACTS_ENV))
            .unwrap_or_else(|| DEFAULT_ARTIFACTS_DIR.into());
        ArtifactStore::open(dir)
    }

    /// `true` when lookups can ever hit (memory or disk backend).
    pub fn is_enabled(&self) -> bool {
        !matches!(self.backend, Backend::Disabled)
    }

    /// The root directory of a disk-backed store.
    pub fn dir(&self) -> Option<&Path> {
        match &self.backend {
            Backend::Disk(dir) => Some(dir),
            _ => None,
        }
    }

    fn path_for(dir: &Path, key: &Fingerprint) -> PathBuf {
        dir.join(format!("{}.bin", key.as_hex()))
    }

    /// Looks an artifact up by fingerprint, counting a hit or miss.
    pub fn get(&self, key: &Fingerprint) -> Option<Arc<[u8]>> {
        let found: Option<Arc<[u8]>> = match &self.backend {
            Backend::Disabled => None,
            Backend::Memory(map) => map.lock().expect("store map").get(&key.as_hex()).cloned(),
            Backend::Disk(dir) => std::fs::read(Self::path_for(dir, key)).ok().map(Arc::from),
        };
        match &found {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Records that a fetched artifact failed to decode: the preceding hit
    /// becomes a miss (the caller recomputes and overwrites).
    pub fn demote_hit(&self) {
        self.counters.hits.fetch_sub(1, Ordering::Relaxed);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists an artifact. Best effort: storage failures are swallowed
    /// (caching must never fail the science); only successful writes
    /// count.
    pub fn put(&self, key: &Fingerprint, bytes: &[u8]) {
        let ok = match &self.backend {
            Backend::Disabled => return,
            Backend::Memory(map) => {
                map.lock()
                    .expect("store map")
                    .insert(key.as_hex(), Arc::from(bytes));
                true
            }
            Backend::Disk(dir) => Self::write_atomic(dir, key, bytes).is_ok(),
        };
        if ok {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn write_atomic(dir: &Path, key: &Fingerprint, bytes: &[u8]) -> std::io::Result<()> {
        // Unique temp name per writer so concurrent cells racing on one
        // fingerprint each rename a complete file into place. The write
        // and rename route through the fault-injection layer (a no-op
        // when no plan is armed), so chaos tests can tear this exact
        // seam and assert the sweep in `open` recovers it.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".{}.{}.{}.tmp",
            key.as_hex(),
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        deepmorph_faults::write(&tmp, bytes)?;
        let result = deepmorph_faults::rename(&tmp, &Self::path_for(dir, key));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Snapshot of the hit/miss/write counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> Fingerprint {
        let mut fp = Fingerprinter::new("test");
        fp.push_u64(n);
        fp.finish()
    }

    #[test]
    fn empty_env_value_reads_as_unset() {
        assert_eq!(env_dir(None), None);
        assert_eq!(env_dir(Some(OsString::new())), None);
        assert_eq!(
            env_dir(Some("runs/cache".into())),
            Some(PathBuf::from("runs/cache"))
        );
    }

    /// The fault plan is process-global; every test that installs one —
    /// or writes through a disk backend (the faultable seam) — takes
    /// this so a torn-rename storm cannot leak into a neighbor.
    static FAULT_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn fingerprints_are_order_and_content_sensitive() {
        let mut a = Fingerprinter::new("stage");
        a.push_str("ab");
        a.push_str("c");
        let mut b = Fingerprinter::new("stage");
        b.push_str("a");
        b.push_str("bc");
        assert_ne!(
            a.finish(),
            b.finish(),
            "length prefixes must separate fields"
        );

        let mut c = Fingerprinter::new("stage");
        c.push_f32(0.5);
        let mut d = Fingerprinter::new("stage");
        d.push_f32(-0.5);
        assert_ne!(c.finish(), d.finish());

        let mut e = Fingerprinter::new("stage");
        e.push_u64(7);
        let mut f = Fingerprinter::new("stage");
        f.push_u64(7);
        let (e, f) = (e.finish(), f.finish());
        assert_eq!(e, f);
        assert_eq!(e.as_hex().len(), 32);
    }

    #[test]
    fn disabled_store_never_hits() {
        let store = ArtifactStore::disabled();
        store.put(&key(1), b"data");
        assert!(store.get(&key(1)).is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 0);
        assert!(!store.is_enabled());
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = ArtifactStore::in_memory();
        assert!(store.get(&key(1)).is_none());
        store.put(&key(1), b"payload");
        let got = store.get(&key(1)).expect("stored");
        assert_eq!(&got[..], b"payload");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
    }

    #[test]
    fn disk_store_round_trips() {
        let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("deepmorph-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.dir(), Some(dir.as_path()));
        store.put(&key(2), b"on disk");
        assert_eq!(&store.get(&key(2)).unwrap()[..], b"on disk");

        // A second handle over the same directory sees the artifact.
        let other = ArtifactStore::open(&dir).unwrap();
        assert_eq!(&other.get(&key(2)).unwrap()[..], b"on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files_and_keeps_artifacts() {
        let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let dir =
            std::env::temp_dir().join(format!("deepmorph-store-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put(&key(9), b"survivor");
        }
        // A writer that died between write and rename leaves a tmp file.
        std::fs::write(dir.join(".deadbeef.1234.0.tmp"), b"torn").unwrap();

        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(
            &store.get(&key(9)).expect("committed artifact survives")[..],
            b"survivor"
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stale tmp files are swept on open");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_artifact_write_leaves_no_visible_artifact() {
        let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("deepmorph-store-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();

        // Rename fails 100% of the time: the put is swallowed (best
        // effort) and no half-artifact becomes visible under the key.
        deepmorph_faults::install(
            deepmorph_faults::FaultPlan::new(7).with(deepmorph_faults::Fault::FsRenameFail, 1.0),
        );
        store.put(&key(10), b"never lands");
        deepmorph_faults::clear();

        assert!(store.get(&key(10)).is_none(), "torn write is invisible");
        assert_eq!(store.stats().writes, 0, "failed writes are not counted");

        // The same put succeeds once the fault storm passes.
        store.put(&key(10), b"lands now");
        assert_eq!(&store.get(&key(10)).unwrap()[..], b"lands now");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demote_hit_reclassifies() {
        let store = ArtifactStore::in_memory();
        store.put(&key(3), b"junk");
        let _ = store.get(&key(3));
        store.demote_hit();
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn stats_since_subtracts() {
        let store = ArtifactStore::in_memory();
        let before = store.stats();
        store.put(&key(4), b"x");
        let _ = store.get(&key(4));
        let delta = store.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.writes), (1, 0, 1));
    }
}
