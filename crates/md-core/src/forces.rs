//! Force-evaluation data types shared by the shared evaluator, the scalar
//! reference and the device ports.
//!
//! - [`SoaPositions`]: positions in structure-of-arrays layout, with the
//!   shared evaluator's lazily built j-block index.
//! - [`GatherRow`]: one atom's gather result.
//! - [`for_each_pair`]: the plain `i < j` pair walk behind diagnostics such
//!   as the radial distribution function.
//!
//! The force evaluations themselves live in [`crate::shared_eval`] (the one
//! production path) and [`crate::reference`] (the scalar oracle).

use crate::cull::BlockCull;
use crate::system::ParticleSystem;
use vecmath::{Real, Vec3};

/// Visit every interacting pair (i < j, within cutoff) with its squared
/// minimum-image distance. Shared plumbing for diagnostics (the RDF) and
/// tests.
pub fn for_each_pair<T: Real>(
    sys: &ParticleSystem<T>,
    cutoff2: T,
    mut visit: impl FnMut(usize, usize, T),
) {
    let n = sys.n();
    for i in 0..n {
        for j in (i + 1)..n {
            let r2 = sys.distance2(i, j);
            if r2 < cutoff2 {
                visit(i, j, r2);
            }
        }
    }
}

/// Positions in structure-of-arrays layout: one contiguous array per
/// coordinate axis. Every gather row streams each axis
/// independently, which is the layout every device port models (SPE quadword
/// lanes, GPU texture channels, MTA stream vectors) and the one the host
/// vectorizes well.
///
/// The coordinates are read-only after construction, so the shared
/// evaluator's lazily built j-block index (`md_core::cull`) can never go
/// stale.
#[derive(Clone, Debug)]
pub struct SoaPositions<T> {
    pub(crate) x: Vec<T>,
    pub(crate) y: Vec<T>,
    pub(crate) z: Vec<T>,
    pub(crate) cull: BlockCull,
}

impl<T: Real> SoaPositions<T> {
    /// Transpose an array-of-structures position list.
    pub fn from_positions(positions: &[Vec3<T>]) -> Self {
        Self {
            x: positions.iter().map(|p| p.x).collect(),
            y: positions.iter().map(|p| p.y).collect(),
            z: positions.iter().map(|p| p.z).collect(),
            cull: BlockCull::default(),
        }
    }

    pub fn x(&self) -> &[T] {
        &self.x
    }

    pub fn y(&self) -> &[T] {
        &self.y
    }

    pub fn z(&self) -> &[T] {
        &self.z
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// One atom's gather result: its acceleration row, its (unhalved) PE
/// contribution, and how many neighbors fell inside the cutoff.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GatherRow<T> {
    pub acc: Vec3<T>,
    pub pe: T,
    pub interactions: u64,
}
