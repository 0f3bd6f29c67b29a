//! Typed errors for the experiment harness.
//!
//! Every experiment binary returns `Result<(), HarnessError>` from its run
//! function and maps the error to a nonzero exit code in `main` — the
//! harness never panics on a failure it can describe.

use std::fmt;

/// Any failure of an experiment run.
#[derive(Debug)]
pub enum HarnessError {
    /// The Cell device model rejected the run (sizing, DMA protocol, or an
    /// injected fault that exhausted its retry budget).
    Cell(cell_be::CellError),
    /// A device driven through the unified [`md_core::device::MdDevice`] run
    /// API failed or rejected its options.
    Device(md_core::device::DeviceError),
    /// An experiment was invoked with arguments it cannot honor.
    InvalidInput(String),
    /// A computed result table is missing a row the analysis needs — a bug
    /// in the experiment definition, reported instead of unwrapped.
    MissingRow(&'static str),
    /// Writing a CSV artifact failed.
    Io(std::io::Error),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Cell(e) => write!(f, "Cell device error: {e}"),
            HarnessError::Device(e) => write!(f, "device error: {e}"),
            HarnessError::InvalidInput(msg) => write!(f, "invalid experiment input: {msg}"),
            HarnessError::MissingRow(what) => {
                write!(f, "experiment produced no row for {what}")
            }
            HarnessError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Cell(e) => Some(e),
            HarnessError::Device(e) => Some(e),
            HarnessError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cell_be::CellError> for HarnessError {
    fn from(e: cell_be::CellError) -> Self {
        HarnessError::Cell(e)
    }
}

impl From<md_core::device::DeviceError> for HarnessError {
    fn from(e: md_core::device::DeviceError) -> Self {
        HarnessError::Device(e)
    }
}

impl From<std::io::Error> for HarnessError {
    fn from(e: std::io::Error) -> Self {
        HarnessError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = HarnessError::InvalidInput("needs a 256-atom baseline".into());
        assert!(e.to_string().contains("256-atom"));
        assert!(HarnessError::MissingRow("2048 atoms")
            .to_string()
            .contains("2048"));
        let io = HarnessError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
    }

    #[test]
    fn wraps_cell_errors() {
        let cell = cell_be::CellError::Dma(cell_be::DmaError::UnalignedLength { len: 20 });
        let e = HarnessError::from(cell);
        assert!(e.to_string().contains("multiple of 16"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
