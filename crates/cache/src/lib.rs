//! `sia-cache`: a canonicalizing, sharded LRU cache for synthesized
//! predicates.
//!
//! Synthesis is expensive (seconds of CEGIS per predicate) while query
//! workloads repeat a small number of predicate *shapes* with varying
//! column names and conjunct order. This crate exploits that:
//!
//! - [`canon`] reduces a predicate to a canonical template + parameter
//!   vector, so alpha-renamed and reordered predicates share a cache key.
//!   Constants stay in the key — caching on the template alone would be
//!   unsound, because the synthesized predicate depends on them.
//! - [`PredicateCache`] is a sharded in-memory LRU keyed on
//!   `(canonical predicate, target column set)`, counting its own
//!   hits, misses, inserts and evictions ([`CacheStats`]). Each shard is
//!   an [`Lru`], the workspace's one bounded map.
//! - Entries persist to a checksummed snapshot file (one CRC32-guarded
//!   record per line, rendered predicates re-parsed on load) written via
//!   write-to-temp + fsync + atomic rename, so a server restart starts
//!   warm and a crash mid-save can never poison the next startup.
//!
//! No dependencies beyond the workspace's own crates; no unsafe code.

pub mod canon;
mod lru;
mod persist;

pub use canon::{canonicalize, Canonical, ColumnFacts};
pub use lru::Lru;
pub use persist::{crc32, LoadReport};

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sia_expr::Pred;

/// A cached synthesis outcome, stored in canonical column space.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The synthesized predicate (`Pred::Lit(true)` for the paper's NULL
    /// result, i.e. only the trivial reduction exists).
    pub predicate: Pred,
    /// Whether the predicate was certified optimal.
    pub optimal: bool,
    /// The column facts, one per canonical column, under which a request
    /// for this entry linted clean ([`Canonical::lint_signature`]); `None`
    /// until one has. A request with the same facts lints clean too, so
    /// a hit that matches need not lint again. Not persisted.
    pub clean_lint: Option<Vec<ColumnFacts>>,
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// One shard of a [`PredicateCache`]: canonical key to canonical result.
type Shard = Lru<String, CachedResult>;

/// A concurrent predicate cache keyed on canonical form + target columns.
///
/// Thread-safe: lookups and inserts take a per-shard mutex, so disjoint
/// keys mostly proceed in parallel. A capacity of 0 disables the cache
/// (every lookup misses, inserts are dropped).
#[derive(Debug)]
pub struct PredicateCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl PredicateCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> PredicateCache {
        let num_shards = capacity.min(8);
        let per_shard = if num_shards == 0 {
            0
        } else {
            capacity.div_ceil(num_shards)
        };
        PredicateCache {
            shards: (0..num_shards)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Side-effect-free membership probe: true when a `lookup` with the
    /// same arguments would hit. Touches neither the hit/miss statistics
    /// nor the LRU recency order, so admission-control classification can
    /// probe without skewing either.
    pub fn peek(&self, canon: &Canonical, cols: &[String]) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let key = self.key(canon, cols);
        let shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.contains(&key)
    }

    /// Look up the synthesis result for `canon` projected onto `cols`
    /// (original column names). On a hit the cached predicate is mapped
    /// back into the caller's column space.
    pub fn lookup(&self, canon: &Canonical, cols: &[String]) -> Option<CachedResult> {
        if !self.is_enabled() {
            self.miss();
            return None;
        }
        let key = self.key(canon, cols);
        let hit = {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            shard.get(&key).cloned()
        };
        match hit {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(CachedResult {
                    predicate: canon.to_original_space(&cached.predicate),
                    ..cached
                })
            }
            None => {
                self.miss();
                None
            }
        }
    }

    /// Cache the synthesis result for `canon` projected onto `cols`.
    /// `predicate` is in the caller's (original) column space.
    pub fn insert(&self, canon: &Canonical, cols: &[String], predicate: &Pred, optimal: bool) {
        if !self.is_enabled() {
            return;
        }
        let key = self.key(canon, cols);
        let value = CachedResult {
            predicate: canon.to_canonical_space(predicate),
            optimal,
            clean_lint: None,
        };
        let evicted = {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            shard.insert(key, value)
        };
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Record that a request for the entry of `canon` onto `cols` linted
    /// clean under the column facts `signature`. No-op when the entry is
    /// gone (evicted since its lookup, or never inserted).
    pub fn record_clean_lint(
        &self,
        canon: &Canonical,
        cols: &[String],
        signature: Vec<ColumnFacts>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let key = self.key(canon, cols);
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if let Some(entry) = shard.get_mut(&key) {
            entry.clean_lint = Some(signature);
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Persist all entries to `path`, crash-safely. Returns the entry
    /// count.
    ///
    /// The snapshot is written to a temporary file in the same directory,
    /// fsynced, and atomically renamed over `path`; the directory is then
    /// fsynced so the rename itself is durable. A crash (even `kill -9`)
    /// at any point leaves either the old snapshot or the new one — never
    /// a half-written file. Each record additionally carries a CRC32, so
    /// damage from crashes of *non-atomic* writers (or bit rot) is
    /// detected and contained at load time.
    pub fn save_file(&self, path: &str) -> std::io::Result<usize> {
        if let Some(msg) = sia_fault::fire("cache.save") {
            return Err(std::io::Error::other(msg));
        }
        let mut entries = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries.extend(shard.entries().map(|(k, v)| (k.clone(), v.clone())));
        }
        let tmp = format!("{path}.tmp.{}", std::process::id());
        let n = {
            let file = std::fs::File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            let n = persist::save(&mut w, entries.iter().map(|(k, v)| (k.as_str(), v)))?;
            w.flush()?;
            w.get_ref().sync_all()?;
            n
        };
        if let Some(msg) = sia_fault::fire("cache.rename") {
            // The injected crash window: the snapshot exists only under
            // its temporary name; `path` still holds the previous state.
            std::fs::remove_file(&tmp).ok();
            return Err(std::io::Error::other(msg));
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(n)
    }

    /// Load entries from a snapshot written by [`Self::save_file`],
    /// inserting them subject to the LRU capacity. Records that fail
    /// their CRC check or do not parse (the damaged tail a crashed writer
    /// leaves behind) are dropped rather than failing the load; the
    /// report says how many.
    pub fn load_file(&self, path: &str) -> std::io::Result<LoadReport> {
        if let Some(msg) = sia_fault::fire("cache.load") {
            return Err(std::io::Error::other(msg));
        }
        if !self.is_enabled() {
            return Ok(LoadReport::default());
        }
        let (entries, report) = persist::load(BufReader::new(std::fs::File::open(path)?))?;
        for (key, value) in entries {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            shard.insert(key, value);
        }
        Ok(report)
    }

    fn key(&self, canon: &Canonical, cols: &[String]) -> String {
        let mut canon_cols: Vec<String> = cols
            .iter()
            .map(|c| {
                canon
                    .canonical_col(c)
                    .map_or_else(|| c.clone(), str::to_string)
            })
            .collect();
        canon_cols.sort();
        format!("{}|{}", canon.key_fragment(), canon_cols.join(","))
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        #[allow(clippy::cast_possible_truncation)]
        let idx = (h.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fsync the directory containing `path` so a just-completed rename is
/// durable. Best-effort: some filesystems refuse to sync directories, and
/// a failed directory sync only widens the crash window — it never
/// corrupts the snapshot.
fn sync_parent_dir(path: &str) {
    let parent = Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| Path::new("."));
    if let Ok(f) = std::fs::File::open(dir) {
        f.sync_all().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_sql::parse_predicate;

    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn hit_after_insert_maps_back_to_caller_columns() {
        let cache = PredicateCache::new(16);
        let p = parse_predicate("x < 10 AND y > 20").unwrap();
        let canon = canonicalize(&p);
        let cols = strs(&["x"]);
        assert!(cache.lookup(&canon, &cols).is_none());
        let result = parse_predicate("x < 10").unwrap();
        cache.insert(&canon, &cols, &result, true);

        // Alpha-renamed, reordered variant of the same predicate.
        let q = parse_predicate("b > 20 AND a < 10").unwrap();
        let qcanon = canonicalize(&q);
        let hit = cache.lookup(&qcanon, &strs(&["a"])).unwrap();
        assert_eq!(hit.predicate, parse_predicate("a < 10").unwrap());
        assert!(hit.optimal);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn a_clean_lint_is_recorded_per_canonical_column() {
        let cache = PredicateCache::new(16);
        let p = parse_predicate("x < 10 AND y > 20").unwrap();
        let canon = canonicalize(&p);
        let cols = strs(&["x"]);
        let facts = |date: bool| ColumnFacts {
            real: false,
            date,
            nullable: false,
        };
        // Recording on an absent entry is a no-op.
        cache.record_clean_lint(&canon, &cols, vec![facts(false); 2]);
        assert!(cache.lookup(&canon, &cols).is_none());
        cache.insert(&canon, &cols, &parse_predicate("x < 10").unwrap(), true);
        assert_eq!(cache.lookup(&canon, &cols).unwrap().clean_lint, None);
        // In canonical column order: `x` is c0, `y` is c1.
        let signature = canon.lint_signature(|c| facts(c == "y"));
        assert_eq!(signature, vec![facts(false), facts(true)]);
        cache.record_clean_lint(&canon, &cols, signature.clone());
        // An alpha-renamed hit reads the same signature.
        let q = canonicalize(&parse_predicate("b > 20 AND a < 10").unwrap());
        let hit = cache.lookup(&q, &strs(&["a"])).unwrap();
        assert_eq!(hit.clean_lint, Some(signature));
        // Re-inserting the entry forgets the verdict.
        cache.insert(&canon, &cols, &parse_predicate("x < 10").unwrap(), true);
        assert_eq!(cache.lookup(&canon, &cols).unwrap().clean_lint, None);
    }

    #[test]
    fn different_constants_do_not_collide() {
        let cache = PredicateCache::new(16);
        let p = parse_predicate("x < 10").unwrap();
        cache.insert(
            &canonicalize(&p),
            &strs(&["x"]),
            &parse_predicate("x < 10").unwrap(),
            true,
        );
        let q = parse_predicate("x < 99").unwrap();
        assert!(cache.lookup(&canonicalize(&q), &strs(&["x"])).is_none());
    }

    #[test]
    fn different_target_columns_do_not_collide() {
        let cache = PredicateCache::new(16);
        let p = parse_predicate("x < 10 AND y > 20").unwrap();
        let canon = canonicalize(&p);
        cache.insert(
            &canon,
            &strs(&["x"]),
            &parse_predicate("x < 10").unwrap(),
            true,
        );
        assert!(cache.lookup(&canon, &strs(&["y"])).is_none());
        assert!(cache.lookup(&canon, &strs(&["x"])).is_some());
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = PredicateCache::new(0);
        assert!(!cache.is_enabled());
        let p = parse_predicate("x < 10").unwrap();
        let canon = canonicalize(&p);
        cache.insert(&canon, &strs(&["x"]), &p, true);
        assert!(cache.lookup(&canon, &strs(&["x"])).is_none());
        assert_eq!(cache.stats().inserts, 0);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        let cache = PredicateCache::new(4);
        for i in 0..32 {
            let p = parse_predicate(&format!("x < {i} AND y = {i}")).unwrap();
            let canon = canonicalize(&p);
            cache.insert(
                &canon,
                &strs(&["x"]),
                &parse_predicate("x < 1").unwrap(),
                false,
            );
        }
        assert!(cache.len() <= 4 * 2, "len {} over capacity", cache.len());
        assert!(cache.stats().evictions > 0);
    }

    /// Failpoints are process-global, so every test that runs `save_file`
    /// (and could therefore observe another test's injected fault)
    /// serializes on this lock.
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn save_and_load_round_trip() {
        let _g = FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join("sia-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let path = path.to_str().unwrap();

        let cache = PredicateCache::new(16);
        let p = parse_predicate("x < 10 AND y > DATE '1995-01-01'").unwrap();
        let canon = canonicalize(&p);
        cache.insert(
            &canon,
            &strs(&["x"]),
            &parse_predicate("x < 10").unwrap(),
            true,
        );
        assert_eq!(cache.save_file(path).unwrap(), 1);

        let warm = PredicateCache::new(16);
        assert_eq!(
            warm.load_file(path).unwrap(),
            LoadReport {
                recovered: 1,
                dropped: 0
            }
        );
        let hit = warm.lookup(&canon, &strs(&["x"])).unwrap();
        assert_eq!(hit.predicate, parse_predicate("x < 10").unwrap());
        // A lint verdict is not persisted: the snapshot format is unchanged.
        assert_eq!(hit.clean_lint, None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_and_is_atomic_under_injected_crash() {
        let _g = FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("sia-cache-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        let path = path.to_str().unwrap();

        let cache = PredicateCache::new(16);
        let p = parse_predicate("x < 10").unwrap();
        let canon = canonicalize(&p);
        cache.insert(&canon, &strs(&["x"]), &p, true);
        assert_eq!(cache.save_file(path).unwrap(), 1);

        // Inject a crash in the window between fsync and rename: the old
        // snapshot must survive untouched and no temp file may linger.
        let before = std::fs::read_to_string(path).unwrap();
        let q = parse_predicate("x < 99").unwrap();
        cache.insert(&canonicalize(&q), &strs(&["x"]), &q, true);
        sia_fault::configure("cache.rename", "1*error").unwrap();
        let err = cache.save_file(path).unwrap_err();
        sia_fault::remove("cache.rename");
        assert!(err.to_string().contains("failpoint"), "{err}");
        assert_eq!(std::fs::read_to_string(path).unwrap(), before);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );

        // Without the failpoint the new snapshot lands atomically.
        assert_eq!(cache.save_file(path).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_recovers_all_but_the_damaged_tail() {
        let _g = FAULT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("sia-cache-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        let path = path.to_str().unwrap();

        let cache = PredicateCache::new(16);
        for i in 0..5 {
            let p = parse_predicate(&format!("x < {i}")).unwrap();
            cache.insert(&canonicalize(&p), &strs(&["x"]), &p, true);
        }
        assert_eq!(cache.save_file(path).unwrap(), 5);

        // Simulate a crash mid-append by a non-atomic writer: cut the
        // file in the middle of its final record.
        let text = std::fs::read_to_string(path).unwrap();
        let cut = text.trim_end().len() - 10;
        std::fs::write(path, &text[..cut]).unwrap();

        let warm = PredicateCache::new(16);
        let report = warm.load_file(path).unwrap();
        assert_eq!(
            report,
            LoadReport {
                recovered: 4,
                dropped: 1
            }
        );
        assert_eq!(warm.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
