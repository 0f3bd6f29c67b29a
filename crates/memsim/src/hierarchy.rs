//! Two-level cache hierarchy with per-level latencies.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};

/// Latency and geometry for a two-level hierarchy backed by DRAM.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    /// Cycles for an L1 hit (load-to-use).
    pub l1_hit_cycles: u64,
    /// Additional cycles when the access hits in L2.
    pub l2_hit_cycles: u64,
    /// Additional cycles when the access goes to memory.
    pub dram_cycles: u64,
}

impl HierarchyConfig {
    /// A 2.2 GHz Opteron-class memory system (K8): 3-cycle L1, ~12-cycle L2,
    /// ~200-cycle DRAM round trip.
    pub fn opteron() -> Self {
        Self {
            l1: CacheConfig::opteron_l1d(),
            l2: CacheConfig::opteron_l2(),
            l1_hit_cycles: 3,
            l2_hit_cycles: 12,
            dram_cycles: 200,
        }
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub total_cycles: u64,
    pub accesses: u64,
}

impl HierarchyStats {
    /// Average cycles per access (0 if no accesses).
    pub fn avg_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.accesses as f64
        }
    }
}

/// A non-inclusive two-level data-cache hierarchy.
///
/// Misses in L1 consult L2; misses in L2 go to DRAM and fill both levels.
/// Latencies are additive along the miss path, matching how a blocking load
/// would see them. The levels are independent LRU caches: an L1 hit never
/// touches L2, and an L2 eviction never invalidates the line in L1. There is
/// no write-back traffic. [`replay_row_sweep`](MemoryHierarchy::replay_row_sweep)
/// relies on exactly this.
///
/// Every access looks up L1 and every L1 miss looks up L2, so the access
/// count and the cycle total follow from the two levels' counters; they are
/// derived in [`stats`](MemoryHierarchy::stats) rather than counted.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
}

impl MemoryHierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
        }
    }

    pub fn opteron() -> Self {
        Self::new(HierarchyConfig::opteron())
    }

    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Replay one memory reference; returns the cycles it costs.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        let mut cycles = self.config.l1_hit_cycles;
        if !self.l1.access(addr, kind) {
            cycles += self.config.l2_hit_cycles;
            if !self.l2.access(addr, kind) {
                cycles += self.config.dram_cycles;
            }
        }
        cycles
    }

    pub fn stats(&self) -> HierarchyStats {
        let (l1, l2) = (self.l1.stats(), self.l2.stats());
        let c = self.config;
        HierarchyStats {
            l1,
            l2,
            total_cycles: l1.accesses() * c.l1_hit_cycles
                + l2.accesses() * c.l2_hit_cycles
                + l2.misses * c.dram_cycles,
            accesses: l1.accesses(),
        }
    }

    pub fn reset(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Timing-normalized state equality: true iff the two hierarchies return
    /// the same cycle count for — and evolve identically under — every
    /// possible future access sequence. Statistics counters are ignored;
    /// they record history, not future behavior.
    ///
    /// This is what makes replay memoization sound: if a hierarchy is in a
    /// state `replay_state_eq` to one it was in before, replaying the same
    /// address stream must cost the same cycles and land in an equivalent
    /// state, so the replay can be skipped and its recorded effect applied
    /// via [`apply_replay`](MemoryHierarchy::apply_replay).
    pub fn replay_state_eq(&self, other: &MemoryHierarchy) -> bool {
        self.l1.replacement_state_eq(&other.l1) && self.l2.replacement_state_eq(&other.l2)
    }

    /// Skip a replay whose outcome is already known: install the tag/LRU
    /// state of `exit` and advance the statistics counters by the
    /// `entry`→`exit` delta (instead of rewinding them to `exit`'s absolute
    /// values). Caller contract: `self.replay_state_eq(entry)` holds and
    /// `exit` was produced from `entry` by the access sequence being skipped.
    pub fn apply_replay(&mut self, entry: &MemoryHierarchy, exit: &MemoryHierarchy) {
        debug_assert!(self.replay_state_eq(entry), "memoized entry state mismatch");
        self.l1.copy_state_from(&exit.l1);
        self.l2.copy_state_from(&exit.l2);
        self.l1
            .add_stats(exit.l1.stats().delta_since(entry.l1.stats(), 1));
        self.l2
            .add_stats(exit.l2.stats().delta_since(entry.l2.stats(), 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 256,
                line_bytes: 32,
                associativity: 2,
            },
            l2: CacheConfig {
                size_bytes: 1024,
                line_bytes: 32,
                associativity: 4,
            },
            l1_hit_cycles: 1,
            l2_hit_cycles: 10,
            dram_cycles: 100,
        })
    }

    #[test]
    fn latency_additive_along_miss_path() {
        let mut h = tiny_hierarchy();
        // Cold: misses both levels.
        assert_eq!(h.access(0, AccessKind::Read), 111);
        // Warm in L1.
        assert_eq!(h.access(0, AccessKind::Read), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny_hierarchy();
        // L1 has 4 sets * 2 ways; three lines mapping to L1 set 0 with
        // stride l1_sets*line = 128 force an L1 eviction while all three
        // still fit in the larger L2.
        h.access(0, AccessKind::Read);
        h.access(128, AccessKind::Read);
        h.access(256, AccessKind::Read); // evicts line 0 from L1
        let c = h.access(0, AccessKind::Read); // L1 miss, L2 hit
        assert_eq!(c, 11);
    }

    #[test]
    fn l2_eviction_leaves_the_l1_copy() {
        let mut h = tiny_hierarchy();
        // L2 has 8 sets * 4 ways; stride l2_sets*line = 256 maps to L2 set
        // 0 and L1 set 0. Line 0 is touched first and then refreshed in L1
        // by hits that L2 never sees, so it stays L2's least recently used.
        h.access(0, AccessKind::Read);
        for a in [256u64, 512, 768] {
            h.access(a, AccessKind::Read);
            h.access(0, AccessKind::Read); // L1 hit: L1 keeps 0 and `a`
        }
        h.access(1024, AccessKind::Read); // L2 set 0 full: evicts line 0
        assert_eq!(h.stats().l2.evictions, 1);
        assert!(!h.l2.probe(0), "line 0 left L2");
        assert_eq!(h.access(0, AccessKind::Read), 1, "but still hits in L1");
    }

    #[test]
    fn stats_track_totals() {
        let mut h = tiny_hierarchy();
        h.access(0, AccessKind::Read);
        h.access(0, AccessKind::Write);
        let s = h.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.total_cycles, 112);
        assert!((s.avg_cycles() - 56.0).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = tiny_hierarchy();
        h.access(0, AccessKind::Read);
        h.reset();
        assert_eq!(h.stats().accesses, 0);
        assert_eq!(h.access(0, AccessKind::Read), 111, "cold again");
    }

    #[test]
    fn apply_replay_is_indistinguishable_from_real_replay() {
        // An ascending scan whose footprint exactly fills L2: after the cold
        // pass the hierarchy state is periodic, so pass k's entry state is
        // replay-equivalent to pass k+1's.
        let scan = |h: &mut MemoryHierarchy| {
            let mut cycles = 0;
            for a in (0..1024u64).step_by(8) {
                cycles += h.access(a, AccessKind::Read);
            }
            cycles
        };
        let mut real = tiny_hierarchy();
        scan(&mut real); // cold pass
        let entry = real.clone();
        let recorded = scan(&mut real);
        let exit = real.clone();
        assert!(
            real.replay_state_eq(&entry),
            "steady state must be periodic for this test to exercise a hit"
        );
        assert!(!real.replay_state_eq(&tiny_hierarchy()));

        // Memoized path: skip the next pass. Real path: actually run it.
        let mut memo = exit.clone();
        memo.apply_replay(&entry, &exit);
        let replayed = scan(&mut real);
        assert_eq!(recorded, replayed, "periodic state implies periodic cost");
        assert!(memo.replay_state_eq(&real));
        let (m, r) = (memo.stats(), real.stats());
        assert_eq!(m.l1, r.l1);
        assert_eq!(m.l2, r.l2);
        assert_eq!(m.total_cycles, r.total_cycles);
        assert_eq!(m.accesses, r.accesses);

        // Future accesses cost the same from the memoized state.
        for a in [0u64, 8, 512, 4096, 64, 1024] {
            assert_eq!(
                memo.access(a, AccessKind::Read),
                real.access(a, AccessKind::Read)
            );
        }
    }

    #[test]
    fn streaming_large_footprint_costs_more_per_access_than_small() {
        // The Figure 9 mechanism in miniature: a working set inside L1 is
        // cheap per access; one far beyond L2 pays DRAM latency.
        let mut h = tiny_hierarchy();
        for _ in 0..4 {
            for a in (0..256u64).step_by(8) {
                h.access(a, AccessKind::Read);
            }
        }
        let small = h.stats().avg_cycles();

        let mut h = tiny_hierarchy();
        for _ in 0..4 {
            for a in (0..64 * 1024u64).step_by(8) {
                h.access(a, AccessKind::Read);
            }
        }
        let large = h.stats().avg_cycles();
        assert!(
            large > 2.0 * small,
            "large footprint ({large:.2} cyc) should cost >> small ({small:.2} cyc)"
        );
    }
}
