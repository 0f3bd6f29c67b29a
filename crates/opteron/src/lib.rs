//! The paper's reference machine: a 2.2 GHz AMD Opteron.
//!
//! This crate runs the real MD computation (identical numerics to
//! `md_core::reference::forces`) while replaying every memory
//! reference of the O(N²) gather loop through a simulated K8 cache hierarchy
//! ([`memsim`]) and charging floating-point/issue cycles. The output is a
//! deterministic *simulated* runtime.
//!
//! Why a cache model matters: the paper observes (Figure 9) that "the effect
//! of cache misses are shown in the Opteron processor runs as the array sizes
//! become larger than the cache capacities" — the Opteron's runtime grows
//! faster than the N² flop count, while the cache-less MTA-2's does not. Our
//! replayed kernel reproduces that knee mechanically: at 256 atoms the
//! position array (6 KB) lives in L1; by 4096 atoms (96 KB) every inner-loop
//! sweep spills to L2.

mod config;
mod cpu;

pub use config::OpteronConfig;
pub use cpu::{OpteronCpu, OpteronRun};
