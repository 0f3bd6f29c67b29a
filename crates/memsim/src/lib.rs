//! Cache-hierarchy simulator.
//!
//! The paper's Figure 9 hinges on one microarchitectural fact: the 2.2 GHz
//! Opteron's runtime grows superlinearly with atom count once the position
//! arrays outgrow its caches, while the cache-less MTA-2's runtime grows in
//! proportion to the floating-point work. To reproduce that *shape* we need a
//! real cache model, not a fudge factor — so this crate implements a
//! set-associative, LRU, write-allocate cache (each set stored as its tags in
//! recency order, a canonical form that makes state comparison an array
//! comparison) and a two-level hierarchy with per-level latencies, plus
//! address-space bookkeeping for the logical arrays the MD kernel touches.
//!
//! The simulated CPU (`mdea-opteron`) charges every memory reference of the
//! MD kernel. Its O(N) integration passes go through
//! [`MemoryHierarchy::access`], which returns the cycles one reference
//! costs. Its O(N²) force evaluations go through
//! [`MemoryHierarchy::replay_row_sweep`], which replays the evaluation's
//! whole reference stream one cache set at a time and leaves every counter
//! and every set exactly where the reference-by-reference [`eval_stream`]
//! would.

mod addr;
mod cache;
mod hierarchy;
mod prefetch;
mod sweep;

pub use addr::{AddressSpace, ArrayRegion};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
pub use prefetch::{PrefetchStats, PrefetchingHierarchy};
pub use sweep::eval_stream;
