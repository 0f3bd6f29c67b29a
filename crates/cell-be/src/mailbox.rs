//! SPE mailboxes: small blocking channels between the PPE and an SPE.
//!
//! The paper's launch-once optimization (Figure 6) hinges on these: instead
//! of respawning SPE threads each time step, the PPE "signal[s] them using
//! mailboxes when there is more data to process", amortizing the thread
//! launch across all steps. A mailbox carries 32-bit values through a
//! 4-entry hardware FIFO; writes to a full box and reads from an empty box
//! block.
//!
//! The simulator is sequential, so "blocking" surfaces as a checked error —
//! a protocol that would deadlock on hardware panics here.

use std::collections::VecDeque;

/// Hardware FIFO depth of the SPU inbound mailbox.
pub const MAILBOX_DEPTH: usize = 4;

/// A 32-bit, 4-deep FIFO mailbox.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    queue: VecDeque<u32>,
}

impl Mailbox {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.queue.len() >= MAILBOX_DEPTH
    }

    /// Non-blocking write; `false` if the FIFO is full.
    pub fn try_write(&mut self, value: u32) -> bool {
        if self.is_full() {
            return false;
        }
        self.queue.push_back(value);
        true
    }

    /// Blocking write. In the sequential simulator a full box means the
    /// protocol is wrong (the reader can never drain it concurrently), so
    /// this panics instead of spinning forever.
    pub fn write(&mut self, value: u32) {
        assert!(
            self.try_write(value),
            "mailbox write to a full FIFO would deadlock the sequential simulation"
        );
    }

    /// Non-blocking read.
    pub fn try_read(&mut self) -> Option<u32> {
        self.queue.pop_front()
    }

    /// Blocking read; panics on an empty box for the same reason as `write`.
    #[expect(
        clippy::expect_used,
        reason = "a blocked mailbox is a protocol bug, not a data error; the deadlock must fail loudly"
    )]
    pub fn read(&mut self) -> u32 {
        self.try_read()
            .expect("mailbox read from an empty FIFO would deadlock the sequential simulation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut m = Mailbox::new();
        m.write(1);
        m.write(2);
        m.write(3);
        assert_eq!(m.read(), 1);
        assert_eq!(m.read(), 2);
        assert_eq!(m.read(), 3);
        assert!(m.is_empty());
    }

    #[test]
    fn depth_limit() {
        let mut m = Mailbox::new();
        for v in 0..4 {
            assert!(m.try_write(v));
        }
        assert!(m.is_full());
        assert!(!m.try_write(99), "fifth write refused");
        assert_eq!(m.len(), 4);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn blocking_write_to_full_panics() {
        let mut m = Mailbox::new();
        for v in 0..5 {
            m.write(v);
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn blocking_read_from_empty_panics() {
        Mailbox::new().read();
    }

    #[test]
    fn try_read_empty_is_none() {
        assert_eq!(Mailbox::new().try_read(), None);
    }
}
