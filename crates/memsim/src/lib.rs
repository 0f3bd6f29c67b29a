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
//! The simulated CPU (`mdea-opteron`) replays every memory reference of the
//! MD kernel through [`MemoryHierarchy::access`], which returns the number of
//! cycles that reference costs.

mod addr;
mod cache;
mod hierarchy;
mod prefetch;

pub use addr::{AddressSpace, ArrayRegion};
pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
pub use prefetch::{PrefetchStats, PrefetchingHierarchy};
