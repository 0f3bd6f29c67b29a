//! Typed errors for the Cell device model.
//!
//! The DMA engine and local store used to assert on protocol violations;
//! surfacing them as values instead keeps failures inside the cost-accounted
//! simulation (clippy's `unwrap_used`, `expect_used` and `panic` are denied
//! in this crate) and lets callers distinguish "your layout is wrong" from
//! "your transfer is wrong".

use crate::spe::LsOverflow;
use std::fmt;

/// A DMA command was malformed or out of bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaError {
    /// Transfer length is not a multiple of 16 bytes.
    UnalignedLength { len: usize },
    /// Local-store offset is not 16-byte aligned.
    UnalignedOffset { offset: usize },
    /// Transfer is larger than the local-store region backing it.
    RegionOverflow { len: usize, region_len: usize },
    /// Main-memory side of the transfer falls outside the buffer.
    MainMemoryOutOfBounds {
        offset: usize,
        len: usize,
        mem_len: usize,
    },
    /// The local-store side of the transfer overran the store.
    LocalStore(LsError),
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::UnalignedLength { len } => {
                write!(f, "DMA length {len} must be a multiple of 16 bytes")
            }
            DmaError::UnalignedOffset { offset } => {
                write!(f, "DMA local-store offset {offset} must be 16-byte aligned")
            }
            DmaError::RegionOverflow { len, region_len } => write!(
                f,
                "DMA transfer of {len} bytes exceeds its {region_len}-byte local-store region"
            ),
            DmaError::MainMemoryOutOfBounds {
                offset,
                len,
                mem_len,
            } => write!(
                f,
                "DMA main-memory access of {len} bytes at {offset} exceeds {mem_len}-byte buffer"
            ),
            DmaError::LocalStore(e) => write!(f, "DMA local-store access failed: {e}"),
        }
    }
}

impl std::error::Error for DmaError {}

impl From<LsError> for DmaError {
    fn from(e: LsError) -> Self {
        DmaError::LocalStore(e)
    }
}

/// A raw local-store access fell outside the store. On real hardware the
/// address would wrap and silently corrupt; the model reports it instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsError {
    Overrun {
        offset: usize,
        len: usize,
        capacity: usize,
    },
}

impl fmt::Display for LsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let LsError::Overrun {
            offset,
            len,
            capacity,
        } = self;
        write!(
            f,
            "local store overrun: access of {len} bytes at {offset} exceeds {capacity} bytes"
        )
    }
}

impl std::error::Error for LsError {}

/// Any failure of a simulated Cell run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellError {
    /// The working set does not fit the 256 KB local store.
    Overflow(LsOverflow),
    /// A DMA transfer was malformed (a device-model bug, not a sizing issue).
    Dma(DmaError),
    /// An injected fault kept firing past the retry budget; the run is
    /// abandoned mid-flight and the caller (normally the harness supervisor)
    /// must restore from a checkpoint or fall back to the reference device.
    FaultExhausted {
        kind: sim_fault::FaultKind,
        eval: u64,
        unit: u32,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Overflow(e) => e.fmt(f),
            CellError::Dma(e) => e.fmt(f),
            CellError::FaultExhausted { kind, eval, unit } => write!(
                f,
                "injected {kind} fault exhausted its retry budget at eval {eval} on SPE {unit}"
            ),
        }
    }
}

impl std::error::Error for CellError {}

impl From<LsOverflow> for CellError {
    fn from(e: LsOverflow) -> Self {
        CellError::Overflow(e)
    }
}

impl From<DmaError> for CellError {
    fn from(e: DmaError) -> Self {
        CellError::Dma(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(DmaError::UnalignedLength { len: 20 }
            .to_string()
            .contains("multiple of 16"));
        assert!(DmaError::UnalignedOffset { offset: 8 }
            .to_string()
            .contains("16-byte aligned"));
        let ls = LsError::Overrun {
            offset: 240,
            len: 32,
            capacity: 256,
        };
        assert!(ls.to_string().contains("overrun"));
        assert!(DmaError::from(ls).to_string().contains("overrun"));
    }

    #[test]
    fn cell_error_wraps_both_sources() {
        let overflow = LsOverflow {
            requested: 1024,
            free: 16,
        };
        assert_eq!(CellError::from(overflow), CellError::Overflow(overflow));
        let dma = DmaError::UnalignedLength { len: 4 };
        assert_eq!(CellError::from(dma), CellError::Dma(dma));
        assert!(CellError::from(overflow).to_string().contains("exhausted"));
    }
}
