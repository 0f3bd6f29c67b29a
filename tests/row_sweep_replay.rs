//! The Opteron's force-evaluation cache replay: memsim's per-set
//! `MemoryHierarchy::replay_row_sweep` against the straight reference-by-
//! reference `memsim::eval_stream`, on every counter, on the demand cycles
//! and on the final replacement state.
//!
//! Inputs cover tiny and odd atom counts (257 is one whose last position
//! line holds a single element), odd element sizes and misaligned arrays,
//! four entry states (cold, after an integration pass, after an evaluation
//! at another atom count, after random traffic), the Opteron geometry,
//! small geometries that thrash, and geometries that do not split into
//! independent units and take the straight fallback.

use memsim::{
    eval_stream, AccessKind, AddressSpace, ArrayRegion, CacheConfig, HierarchyConfig,
    MemoryHierarchy,
};
use proptest::prelude::*;

fn cache(sets: usize, line_bytes: usize, associativity: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * line_bytes * associativity,
        line_bytes,
        associativity,
    }
}

fn hierarchy(l1: CacheConfig, l2: CacheConfig) -> HierarchyConfig {
    HierarchyConfig {
        l1,
        l2,
        l1_hit_cycles: 3,
        l2_hit_cycles: 12,
        dram_cycles: 200,
    }
}

/// Geometries that split into units (the first four) and ones that do not.
fn geometries() -> [HierarchyConfig; 7] {
    [
        HierarchyConfig::opteron(),
        hierarchy(cache(4, 32, 2), cache(8, 32, 4)),
        hierarchy(cache(8, 64, 1), cache(8, 64, 2)),
        hierarchy(cache(1, 16, 4), cache(4, 16, 8)),
        // Fallback: more L1 sets than L2 sets.
        hierarchy(cache(16, 64, 2), cache(4, 64, 8)),
        // Fallback: different line sizes.
        hierarchy(cache(8, 32, 2), cache(16, 64, 4)),
        // Fallback: a set count that is not a power of two.
        hierarchy(cache(6, 64, 2), cache(12, 64, 4)),
    ]
}

/// The arrays one evaluation touches, laid out as the Opteron lays them
/// out, or with `skew` bytes of misalignment and 8-byte alignment.
struct Layout {
    pos: ArrayRegion,
    vel: ArrayRegion,
    acc: ArrayRegion,
}

fn layout(n: usize, elem: usize, skew: usize) -> Layout {
    let mut space = AddressSpace::new();
    if skew == 0 {
        return Layout {
            pos: space.alloc_array(n, elem),
            vel: space.alloc_array(n, elem),
            acc: space.alloc_array(n, elem),
        };
    }
    space.alloc(skew, 1, 1);
    Layout {
        pos: space.alloc(n, elem, 8),
        vel: space.alloc(n, elem, 8),
        acc: space.alloc(n, elem, 8),
    }
}

/// How the two hierarchies are warmed before the compared evaluation.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Cold,
    /// After an evaluation and the Opteron's first integration pass.
    Integrated,
    /// After an evaluation at another atom count.
    OtherN(usize),
    /// After pseudo-random traffic around the arrays.
    Random(u64),
}

fn warm(h: &mut MemoryHierarchy, entry: Entry, n: usize, elem: usize, skew: usize) {
    match entry {
        Entry::Cold => {}
        Entry::Integrated => {
            let l = layout(n, elem, skew);
            eval_stream(n, &l.pos, &l.acc, |a, k| h.access(a, k));
            for i in 0..n {
                h.access(l.acc.addr(i), AccessKind::Read);
                h.access(l.vel.addr(i), AccessKind::Write);
                h.access(l.pos.addr(i), AccessKind::Write);
            }
        }
        Entry::OtherN(m) => {
            let l = layout(m, elem, skew);
            eval_stream(m, &l.pos, &l.acc, |a, k| h.access(a, k));
        }
        Entry::Random(mut x) => {
            for _ in 0..4 * n + 64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.access(
                    0x1000 + x % (3 * n as u64 * elem as u64 + 4096),
                    AccessKind::Read,
                );
            }
        }
    }
}

/// Replay one evaluation both ways from the same entry state and compare
/// everything observable.
fn check(
    config: HierarchyConfig,
    n: usize,
    elem: usize,
    skew: usize,
    entry: Entry,
) -> Result<(), TestCaseError> {
    let mut straight = MemoryHierarchy::new(config);
    warm(&mut straight, entry, n, elem, skew);
    let mut fast = straight.clone();
    let l = layout(n, elem, skew);

    let expected = eval_stream(n, &l.pos, &l.acc, |a, k| straight.access(a, k));
    let demand = fast.replay_row_sweep(n, &l.pos, &l.acc);
    let (s, f) = (straight.stats(), fast.stats());
    prop_assert_eq!(demand, expected);
    prop_assert_eq!(f.l1, s.l1);
    prop_assert_eq!(f.l2, s.l2);
    prop_assert_eq!(f.total_cycles, s.total_cycles);
    prop_assert_eq!(f.accesses, s.accesses);
    prop_assert!(fast.replay_state_eq(&straight), "final states differ");
    Ok(())
}

#[test]
fn edge_sizes_match_the_straight_replay_from_every_entry() {
    // With 24-byte elements on a 64-byte-aligned array, element 256 starts
    // a line of its own: N = 257's last line holds a single element.
    let l = layout(257, 24, 0);
    assert_ne!(l.pos.addr(256) >> 6, l.pos.addr(255) >> 6);
    let entries = [
        Entry::Cold,
        Entry::Integrated,
        Entry::OtherN(100),
        Entry::Random(7),
    ];
    for config in geometries() {
        for n in [0, 1, 2, 3, 4, 257] {
            for entry in entries {
                check(config, n, 24, 0, entry).unwrap_or_else(|e| {
                    panic!("n = {n}, {entry:?}, {config:?}: {e}");
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_sweep_matches_the_straight_replay(
        geometry in 0usize..7,
        n in 0usize..600,
        layout_kind in (0usize..4, 0usize..2, 1u64..64),
        entry in (0usize..4, 1usize..400, 1u64..u64::MAX),
    ) {
        let elem = [24, 8, 40, 72][layout_kind.0];
        let skew = layout_kind.1 * layout_kind.2 as usize;
        let entry = match entry.0 {
            0 => Entry::Cold,
            1 => Entry::Integrated,
            2 => Entry::OtherN(entry.1),
            _ => Entry::Random(entry.2),
        };
        check(geometries()[geometry], n, elem, skew, entry)?;
    }
}
