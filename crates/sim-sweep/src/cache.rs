//! Content-addressed result cache: one JSON file per completed sweep point
//! under `results/cache/`, named by a stable 64-bit FNV-1a hash of the full
//! cache key.
//!
//! The key encodes everything a simulated result depends on — the device's
//! configuration knobs *and* baked-in machine constants (via
//! [`harness::DeviceKind::cache_token`]), the workload (atom count, steps),
//! and [`CODE_VERSION_SALT`]. Because devices run on simulated clocks,
//! equal keys imply bitwise-equal results, which makes memoization exact
//! rather than approximate.
//!
//! The stored value is the schema-versioned [`RunMetrics`] JSON wrapped with
//! the key it was stored under; [`ResultCache::load`] re-checks that key, so
//! a hash collision or a stale file degrades to a recompute, never a wrong
//! answer. Any unreadable, unparsable, or invalid entry is likewise treated
//! as a miss.

use sim_perf::RunMetrics;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump when a code change alters simulated results without moving any
/// config knob that feeds the cache key (cost-model constants, kernel math,
/// metric schema semantics). Every cached point becomes stale at once.
pub const CODE_VERSION_SALT: u64 = 2;

/// Schema of the on-disk wrapper document (the inner metrics record carries
/// its own `schema_version`).
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// The full cache key for one sweep point. `scenario_token` is the
/// [`md_core::scenario::ScenarioSpec::cache_token`] of the workload's
/// scenario: two sweeps differing only in potential, ensemble, or precision
/// policy must never share an entry.
pub fn point_key(
    salt: u64,
    device_token: &str,
    scenario_token: &str,
    n_atoms: usize,
    steps: usize,
) -> String {
    format!("v{salt}|{device_token}|{scenario_token}|n{n_atoms}|s{steps}")
}

/// 64-bit FNV-1a over the key string; collisions are tolerated (the stored
/// key is re-checked on load), so a small fast hash is enough.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Distinguishes concurrent writers within one process; combined with the
/// process id it names temp files without consulting a clock.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory of memoized sweep points.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Open a cache directory for a sweep run: create it if absent and sweep
    /// any stale `.tmp-*` files left behind by a writer that died between
    /// write and rename. Completed (renamed) entries are never touched —
    /// the temp sweep only reclaims files that were still private to the
    /// crashed writer, so concurrent readers cannot observe the removal.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let cache = Self::new(dir);
        fs::create_dir_all(&cache.dir)?;
        for entry in fs::read_dir(&cache.dir)? {
            let path = entry?.path();
            let is_tmp = path
                .file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with(".tmp-"));
            if is_tmp {
                fs::remove_file(&path)?;
            }
        }
        Ok(cache)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the entry for `key` lives (whether or not it exists yet).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", fnv1a64(key.as_bytes())))
    }

    /// Look up a completed point. Any defect — missing file, torn or
    /// corrupted JSON, schema mismatch, key mismatch (hash collision),
    /// invalid metrics — is a miss: the caller recomputes and overwrites.
    pub fn load(&self, key: &str) -> Option<RunMetrics> {
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        let doc = sim_perf::parse_json(&text).ok()?;
        if doc.get("cache_schema")?.as_number()? != f64::from(CACHE_SCHEMA_VERSION) {
            return None;
        }
        if doc.get("key")?.as_str()? != key {
            return None;
        }
        let m = RunMetrics::from_json_value(doc.get("metrics")?).ok()?;
        m.validate().ok()?;
        Some(m)
    }

    /// Publish a completed point. Write-to-temp then rename, so concurrent
    /// readers (worker threads, or another sweep process sharing the
    /// directory) see old-or-new content, never a torn file. When two
    /// writers race on the same key the last rename wins atomically; both
    /// candidate files are complete documents carrying the key, and equal
    /// keys imply bitwise-equal metrics, so either outcome is correct and
    /// [`Self::load`]'s key re-verification accepts it.
    pub fn store(&self, key: &str, metrics: &RunMetrics) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let body = format!(
            "{{\n\"cache_schema\": {CACHE_SCHEMA_VERSION},\n\"key\": \"{}\",\n\"metrics\": {}}}\n",
            sim_obs::escape_json_string(key),
            metrics.to_json()
        );
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, body)?;
        fs::rename(&tmp, self.path_for(key))
    }

    /// Delete every cached entry, returning how many were removed. A missing
    /// cache directory counts as already clean.
    pub fn clean(&self) -> io::Result<usize> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "json") {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> RunMetrics {
        let sim = md_core::params::SimConfig::reduced_lj(108);
        harness::device_metrics(
            harness::DeviceKind::Opteron,
            &sim,
            1,
            md_core::device::HostParallelism::Serial,
        )
        .expect("the Opteron reference device is infallible")
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("mdea-sweep-cache-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::new(dir)
    }

    #[test]
    fn store_then_load_round_trips_bitwise() {
        let cache = temp_cache("roundtrip");
        let m = sample_metrics();
        let key = point_key(
            CODE_VERSION_SALT,
            "opteron:test",
            "lj:e1,s1/nve/native",
            108,
            1,
        );
        cache.store(&key, &m).expect("store");
        let back = cache.load(&key).expect("hit");
        assert_eq!(back, m);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entry_is_a_miss_not_a_panic() {
        let cache = temp_cache("corrupt");
        let m = sample_metrics();
        let key = point_key(
            CODE_VERSION_SALT,
            "opteron:test",
            "lj:e1,s1/nve/native",
            108,
            1,
        );
        cache.store(&key, &m).expect("store");
        for garbage in ["", "{", "not json at all", "{\"cache_schema\": 1}"] {
            fs::write(cache.path_for(&key), garbage).expect("corrupt");
            assert!(cache.load(&key).is_none(), "garbage {garbage:?} must miss");
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        // Simulate a hash collision: a valid file sitting at the other
        // key's path must not be returned for this key.
        let cache = temp_cache("collision");
        let m = sample_metrics();
        let stored = point_key(
            CODE_VERSION_SALT,
            "opteron:test",
            "lj:e1,s1/nve/native",
            108,
            1,
        );
        cache.store(&stored, &m).expect("store");
        let other = point_key(
            CODE_VERSION_SALT,
            "opteron:test",
            "lj:e1,s1/nve/native",
            108,
            2,
        );
        fs::rename(cache.path_for(&stored), cache.path_for(&other)).expect("move");
        assert!(cache.load(&other).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn salt_changes_the_key() {
        let a = point_key(1, "opteron:test", "lj:e1,s1/nve/native", 108, 1);
        let b = point_key(2, "opteron:test", "lj:e1,s1/nve/native", 108, 1);
        assert_ne!(a, b);
        let cache = temp_cache("salt");
        assert_ne!(cache.path_for(&a), cache.path_for(&b));
    }

    #[test]
    fn open_sweeps_stale_temp_files_but_keeps_entries() {
        let cache = temp_cache("open-sweep");
        let m = sample_metrics();
        let key = point_key(
            CODE_VERSION_SALT,
            "opteron:test",
            "lj:e1,s1/nve/native",
            108,
            1,
        );
        cache.store(&key, &m).expect("store");
        // A writer that died between write and rename leaves a private temp
        // file behind; reopening the directory reclaims it.
        let stale = cache.dir().join(".tmp-99999-0");
        fs::write(&stale, "torn partial document").expect("plant stale tmp");
        let reopened = ResultCache::open(cache.dir()).expect("open");
        assert!(!stale.exists(), "stale temp file must be swept");
        assert_eq!(reopened.load(&key).expect("entry survives the sweep"), m);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn open_creates_a_missing_directory() {
        let dir = std::env::temp_dir().join(format!(
            "mdea-sweep-cache-{}-open-create",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open creates");
        assert!(cache.dir().is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_on_one_key_leave_a_loadable_entry() {
        let cache = temp_cache("race");
        let m = sample_metrics();
        let key = point_key(
            CODE_VERSION_SALT,
            "opteron:test",
            "lj:e1,s1/nve/native",
            108,
            1,
        );
        // Two threads publish the same key concurrently, many times each, to
        // exercise the write-temp-then-rename window. Rename-wins means the
        // entry must be loadable and key-consistent after every iteration —
        // never torn, never another key's document.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.store(&key, &m).expect("concurrent store");
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..100 {
                    // Concurrent readers see a miss (before the first
                    // rename lands) or the full document — never a panic
                    // and never a wrong answer.
                    if let Some(back) = cache.load(&key) {
                        assert_eq!(back, m);
                    }
                }
            });
        });
        assert_eq!(cache.load(&key).expect("hit after the race"), m);
        // Both writers' temp files were consumed by their renames.
        let leftovers = fs::read_dir(cache.dir())
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(leftovers, 0, "no temp files may outlive their writers");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn clean_removes_entries_and_tolerates_missing_dir() {
        let cache = temp_cache("clean");
        assert_eq!(cache.clean().expect("missing dir is clean"), 0);
        let m = sample_metrics();
        cache
            .store(&point_key(1, "a", "lj:e1,s1/nve/native", 108, 1), &m)
            .expect("store a");
        cache
            .store(&point_key(1, "b", "lj:e1,s1/nve/native", 108, 1), &m)
            .expect("store b");
        assert_eq!(cache.clean().expect("clean"), 2);
        assert!(cache
            .load(&point_key(1, "a", "lj:e1,s1/nve/native", 108, 1))
            .is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
