//! # md-emerging-arch
//!
//! A full reproduction of *"Analysis of a Computational Biology Simulation
//! Technique on Emerging Processing Architectures"* (Meredith, Alam, Vetter;
//! IPDPS 2007): a Lennard-Jones molecular-dynamics kernel ported to three
//! 2006-era "emerging" architectures — the STI Cell Broadband Engine, a
//! streaming GPU, and the Cray MTA-2 — compared against a 2.2 GHz Opteron.
//!
//! Since the original hardware is long gone, every device is implemented as
//! a **functional simulator**: it executes the real MD computation (results
//! are verified against the reference kernel) while a deterministic,
//! microarchitecture-calibrated cost model produces simulated runtimes. The
//! paper's tables and figures regenerate from these models; see
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`md`] (re-export of `md_core`) | the MD library: scenario pair potentials, velocity Verlet, the one all-pairs engine and its scalar reference |
//! | [`cell`] (re-export of `cell_be`) | Cell BE simulator: SPEs, local stores, DMA, mailboxes, SIMD kernel ladder |
//! | [`gpu`] | streaming-GPU simulator: gather-only shaders, textures, PCIe costs |
//! | [`mta`] | Cray MTA-2 simulator: hardware streams, full/empty memory, compiler model |
//! | [`opteron`] | reference CPU: the kernel replayed through a K8 cache hierarchy |
//! | [`memsim`] | set-associative LRU cache hierarchy simulator |
//! | [`vecmath`] | `Real` abstraction, `Vec3`, software 4-lane SIMD, periodic boundaries |
//! | [`harness`] | device construction, supervised and cluster runs, perf collection, report formatting |
//!
//! ## Quick start
//!
//! ```
//! use md_emerging_arch::md::prelude::*;
//!
//! let mut sim = Simulation::prepare(SimConfig::reduced_lj(256));
//! let report = sim.run(50);
//! assert!(report.potential < 0.0); // a cohesive LJ liquid
//! ```
//!
//! Regenerate the paper's tables and figures with the sweep CLI (results
//! are memoized under `results/cache/`, so a second run replays instantly):
//!
//! ```text
//! cargo run --release -p mdea-sim-sweep --bin sweep -- run --all
//! cargo run --release -p mdea-sim-sweep --bin sweep -- run fig7
//! ```

pub mod cli;

pub use cell_be as cell;
pub use gpu;
pub use harness;
pub use md_core as md;
pub use memsim;
pub use mta;
pub use opteron;
pub use vecmath;
