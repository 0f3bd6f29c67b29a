//! A single level of set-associative, LRU, write-allocate cache.

/// Whether an access reads or writes. Both allocate a line on miss
/// (write-allocate, the Opteron K8's policy for its write-back caches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes * associativity`.
    pub size_bytes: usize,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_bytes: usize,
    /// Number of ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// 64 KB, 64 B lines, 2-way: the Opteron K8 L1 data cache.
    pub fn opteron_l1d() -> Self {
        Self {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            associativity: 2,
        }
    }

    /// 1 MB, 64 B lines, 16-way: the Opteron K8 L2.
    pub fn opteron_l2() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            associativity: 16,
        }
    }

    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.associativity >= 1, "associativity must be >= 1");
        assert!(
            self.size_bytes
                .is_multiple_of(self.line_bytes * self.associativity),
            "capacity must be a multiple of line_bytes * associativity"
        );
        assert!(self.num_sets() >= 1, "cache must contain at least one set");
    }
}

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative LRU cache over a 64-bit byte address space.
///
/// Only presence is tracked (no data): the simulators compute values
/// functionally and use the cache purely for timing.
///
/// Each set is kept in recency order: its valid tags, most recently used
/// first, then zeroed empty ways. Which physical way holds a tag is
/// unobservable (a hit scans every way, the victim is the least recently
/// used), so this layout is canonical: two caches respond identically to
/// every future access sequence exactly when their tag and fill arrays are
/// equal.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets × associativity` tags. Set `s` holds its `fill[s]` valid
    /// tags at `tags[s * associativity..]`, most recently used first.
    tags: Vec<u64>,
    /// Valid ways per set.
    fill: Vec<u32>,
    stats: CacheStats,
    line_shift: u32,
    /// With a power-of-two set count, the set index is `block & set_mask`
    /// and the tag is `block >> set_shift`; otherwise both take a division.
    set_mask: u64,
    set_shift: Option<u32>,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let num_sets = config.num_sets();
        Self {
            config,
            tags: vec![0; num_sets * config.associativity],
            fill: vec![0; num_sets],
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (num_sets as u64).next_power_of_two() - 1,
            set_shift: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.config
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Flush all lines (e.g. between experiment repetitions).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(0);
        self.fill.fill(0);
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        match self.set_shift {
            Some(shift) => ((block & self.set_mask) as usize, block >> shift),
            None => {
                let num_sets = self.fill.len() as u64;
                ((block % num_sets) as usize, block / num_sets)
            }
        }
    }

    /// Access one byte address. Returns `true` on hit. A hit moves the line
    /// to the front of its set; a miss inserts it there, evicting the least
    /// recently used (last) way if the set is full.
    #[inline]
    pub fn access(&mut self, addr: u64, _kind: AccessKind) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let ways = self.config.associativity;
        let fill = self.fill[idx] as usize;
        let set = &mut self.tags[idx * ways..(idx + 1) * ways];

        if let Some(pos) = set[..fill].iter().position(|&t| t == tag) {
            move_to_front(set, pos, tag);
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        // Shift the set down one way: into an empty way if there is one,
        // otherwise over the least recently used line.
        let kept = if fill < ways {
            self.fill[idx] += 1;
            fill
        } else {
            self.stats.evictions += 1;
            ways - 1
        };
        move_to_front(set, kept, tag);
        false
    }

    /// Check for presence without updating LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let ways = self.config.associativity;
        self.tags[idx * ways..][..self.fill[idx] as usize].contains(&tag)
    }

    /// Timing-normalized replacement-state equality: true iff the two caches
    /// respond identically (hit/miss outcome and LRU victim choice) to every
    /// possible future access sequence. Statistics are ignored. With the
    /// recency-ordered layout this is plain array equality.
    pub(crate) fn replacement_state_eq(&self, other: &Cache) -> bool {
        self.config == other.config && self.fill == other.fill && self.tags == other.tags
    }

    /// Adopt `other`'s replacement state (tags and recency order), keeping
    /// this cache's statistics. Both caches must share one geometry.
    pub(crate) fn copy_state_from(&mut self, other: &Cache) {
        assert_eq!(self.config, other.config, "cache geometries differ");
        self.tags.copy_from_slice(&other.tags);
        self.fill.copy_from_slice(&other.fill);
    }

    pub(crate) fn set_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }
}

/// Shift `set[..pos]` down one way and put `tag` in front. A plain loop:
/// sets are a few ways long, where a `memmove` call costs more than the
/// moves, and most hits are already at the front.
#[inline]
fn move_to_front(set: &mut [u64], pos: usize, tag: u64) {
    for k in (1..=pos).rev() {
        set[k] = set[k - 1];
    }
    set[0] = tag;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets * 2 ways * 16B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read));
        assert!(c.access(0, AccessKind::Read));
        assert!(c.access(15, AccessKind::Read), "same line");
        assert!(!c.access(16, AccessKind::Read), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three distinct tags mapping to set 0 (stride = sets * line = 64).
        c.access(0, AccessKind::Read); // tag A
        c.access(64, AccessKind::Read); // tag B
        c.access(0, AccessKind::Read); // touch A: B is now LRU
        c.access(128, AccessKind::Read); // tag C evicts B
        assert!(c.probe(0), "A stays");
        assert!(!c.probe(64), "B evicted");
        assert!(c.probe(128), "C present");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn working_set_within_capacity_all_hits_on_second_pass() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            associativity: 4,
        });
        for addr in (0..1024u64).step_by(64) {
            c.access(addr, AccessKind::Read);
        }
        c.reset_stats();
        for addr in (0..1024u64).step_by(64) {
            assert!(c.access(addr, AccessKind::Read));
        }
        assert_eq!(c.stats().miss_rate(), 0.0);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_on_streaming_pass() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            associativity: 1, // direct-mapped for deterministic thrash
        });
        // Touch 2x capacity repeatedly: every access in steady state misses.
        for _ in 0..3 {
            for addr in (0..2048u64).step_by(64) {
                c.access(addr, AccessKind::Read);
            }
        }
        assert!(
            c.stats().miss_rate() > 0.99,
            "streaming over 2x capacity should thrash: {:?}",
            c.stats()
        );
    }

    #[test]
    fn invalidate_clears_contents() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        assert!(c.probe(0));
        c.invalidate_all();
        assert!(!c.probe(0));
        assert!(c.replacement_state_eq(&tiny()), "flushed == cold");
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(4096));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn opteron_geometries_validate() {
        let l1 = Cache::new(CacheConfig::opteron_l1d());
        let l2 = Cache::new(CacheConfig::opteron_l2());
        assert_eq!(l1.config().num_sets(), 512);
        assert_eq!(l2.config().num_sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 24,
            associativity: 2,
        });
    }

    #[test]
    fn replacement_state_eq_ignores_stats() {
        let mut a = tiny();
        a.access(0, AccessKind::Read);
        a.access(64, AccessKind::Read);
        // Same tags in the same LRU order, different hit/miss history.
        let mut b = tiny();
        b.access(0, AccessKind::Read);
        b.access(0, AccessKind::Read);
        b.access(64, AccessKind::Read);
        assert!(a.replacement_state_eq(&b));
        assert!(b.replacement_state_eq(&a));
        assert_ne!(a.stats(), b.stats(), "stats are deliberately ignored");
    }

    #[test]
    fn replacement_state_eq_sees_lru_order() {
        let mut a = tiny();
        a.access(0, AccessKind::Read);
        a.access(64, AccessKind::Read);
        // Same tags but the opposite recency order: a future conflict miss
        // would evict different lines.
        let mut b = tiny();
        b.access(0, AccessKind::Read);
        b.access(64, AccessKind::Read);
        b.access(0, AccessKind::Read);
        assert!(!a.replacement_state_eq(&b));
        // And different contents are of course unequal.
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        assert!(!a.replacement_state_eq(&c));
    }

    #[test]
    fn copy_state_from_keeps_own_stats() {
        let mut a = tiny();
        a.access(0, AccessKind::Read);
        a.access(64, AccessKind::Read);
        let mut b = tiny();
        b.copy_state_from(&a);
        assert!(b.replacement_state_eq(&a));
        assert_eq!(b.stats(), CacheStats::default());
        assert!(b.access(0, AccessKind::Read), "installed line hits");
    }

    /// A timestamp LRU: every line carries its last-use time and a full set
    /// evicts the oldest. The recency-ordered cache must match it access
    /// for access.
    struct TimestampLru {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
        clock: u64,
        evictions: u64,
    }

    impl TimestampLru {
        fn access(&mut self, set: usize, tag: u64) -> bool {
            self.clock += 1;
            let lines = &mut self.sets[set];
            if let Some(l) = lines.iter_mut().find(|l| l.1 == tag) {
                l.0 = self.clock;
                return true;
            }
            if lines.len() == self.ways {
                self.evictions += 1;
                let lru = (0..lines.len())
                    .min_by_key(|&i| lines[i].0)
                    .expect("a full set has ways");
                lines.swap_remove(lru);
            }
            lines.push((self.clock, tag));
            false
        }
    }

    #[test]
    fn matches_timestamp_lru_reference() {
        for ways in [1usize, 2, 4, 16] {
            let config = CacheConfig {
                size_bytes: 64 * 4 * ways,
                line_bytes: 64,
                associativity: ways,
            };
            let mut c = Cache::new(config);
            let mut r = TimestampLru {
                sets: vec![Vec::new(); 4],
                ways,
                clock: 0,
                evictions: 0,
            };
            let mut x: u64 = 0x9e3779b97f4a7c15;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Footprint of 2x capacity: hits, fills and evictions all occur.
                let addr = x % (2 * 64 * 4 * ways as u64);
                let block = addr >> 6;
                let hit = r.access((block % 4) as usize, block / 4);
                assert_eq!(c.access(addr, AccessKind::Read), hit, "{ways}-way");
            }
            assert_eq!(c.stats().evictions, r.evictions, "{ways}-way");
        }
    }

    #[test]
    fn hits_never_exceed_accesses() {
        let mut c = tiny();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            // xorshift address stream
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(x % 4096, AccessKind::Read);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 10_000);
        assert!(s.evictions <= s.misses);
    }
}
