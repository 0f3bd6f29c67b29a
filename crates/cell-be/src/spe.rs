//! One Synergistic Processing Element: local store + mailboxes.

use crate::config::CellConfig;
use crate::localstore::{LocalStore, LsRegion};
use crate::mailbox::Mailbox;

/// A simulated SPE. Owns its local store and its inbound/outbound
/// mailboxes; its cycles are charged by the run's cost breakdown.
#[derive(Debug)]
pub struct Spe {
    pub id: usize,
    pub local_store: LocalStore,
    /// PPE → SPE messages.
    pub inbox: Mailbox,
    /// SPE → PPE messages.
    pub outbox: Mailbox,
    /// Whether a thread is currently loaded/running on this SPE.
    running: bool,
}

impl Spe {
    pub fn new(id: usize, config: &CellConfig) -> Self {
        Self {
            id,
            local_store: LocalStore::new(config.local_store_bytes),
            inbox: Mailbox::new(),
            outbox: Mailbox::new(),
            running: false,
        }
    }

    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Mark a thread as loaded (the PPE pays the spawn cost, not the SPE).
    pub fn start_thread(&mut self) {
        assert!(!self.running, "SPE {} already has a thread loaded", self.id);
        self.running = true;
    }

    pub fn stop_thread(&mut self) {
        assert!(self.running, "SPE {} has no thread to stop", self.id);
        self.running = false;
    }

    /// Allocate a quadword array in the local store, or report exhaustion —
    /// the hard 256 KB constraint the paper's port designs around.
    pub fn alloc_quads(&mut self, n: usize) -> Result<LsRegion, LsOverflow> {
        self.local_store.alloc_quads(n).ok_or_else(|| LsOverflow {
            requested: n * 16,
            free: self.local_store.bytes_free(),
        })
    }
}

/// The local store is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsOverflow {
    pub requested: usize,
    pub free: usize,
}

impl std::fmt::Display for LsOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPE local store exhausted: requested {} bytes with {} free \
             (the 256 KB local store is the Cell port's hard constraint)",
            self.requested, self.free
        )
    }
}

impl std::error::Error for LsOverflow {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut spe = Spe::new(3, &CellConfig::paper_blade());
        assert!(!spe.is_running());
        spe.start_thread();
        assert!(spe.is_running());
        spe.stop_thread();
        assert!(!spe.is_running());
    }

    #[test]
    #[should_panic(expected = "already has a thread")]
    fn double_start_rejected() {
        let mut spe = Spe::new(0, &CellConfig::paper_blade());
        spe.start_thread();
        spe.start_thread();
    }

    #[test]
    fn ls_overflow_reported() {
        let mut spe = Spe::new(0, &CellConfig::paper_blade());
        // 256 KB = 16384 quads. Ask for more.
        assert!(spe.alloc_quads(16000).is_ok());
        let err = spe.alloc_quads(1000).unwrap_err();
        assert!(err.requested > err.free);
        assert!(err.to_string().contains("local store exhausted"));
    }
}
