//! Dynamic DMA/mailbox hazard checking (the `hazard-check` feature).
//!
//! The functional simulator executes DMA transfers synchronously, so a whole
//! class of real-hardware bugs — touching a buffer while a tagged transfer is
//! still in flight, two transfers racing on the same local-store bytes, a
//! mailbox protocol that would block both endpoints — cannot corrupt its
//! results. They would corrupt a real Cell port. This checker models the
//! *asynchronous* semantics alongside the synchronous execution: the device
//! (or a test) declares when commands are issued, when tags are waited on,
//! and when compute touches the store, and the checker flags every access
//! that would have raced.
//!
//! Hazards are recorded as typed [`Hazard`] values and can be re-emitted as
//! instant events on a [`sim_obs::ChromeTrace`] timeline, where they appear
//! as markers at the moment of detection.
//!
//! Everything here is compiled out unless the `hazard-check` feature is on.

use crate::localstore::LsRegion;
use std::fmt;

/// Direction of a DMA command, from the SPE's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Main memory → local store (`mfc_get`).
    Get,
    /// Local store → main memory (`mfc_put`).
    Put,
}

/// A detected ordering violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// Two in-flight transfers target overlapping local-store bytes.
    OverlappingDma {
        first_tag: u32,
        second_tag: u32,
        offset: usize,
    },
    /// Compute read a region with a `get` still in flight — the classic
    /// missing `mfc_read_tag_status_all` bug; the read may see stale bytes.
    ReadBeforeGetComplete { tag: u32, offset: usize },
    /// Compute wrote a region with a `put` still in flight — the outgoing
    /// transfer may stream the new bytes, the old ones, or a mix.
    WriteBeforePutComplete { tag: u32, offset: usize },
    /// A blocking mailbox operation that can never be unblocked by the other
    /// endpoint (full-FIFO write / empty-FIFO read in a sequential schedule).
    MailboxDeadlock { spe: usize, op: &'static str },
}

impl Hazard {
    /// Short category used for trace events and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Hazard::OverlappingDma { .. } => "overlapping-dma",
            Hazard::ReadBeforeGetComplete { .. } => "read-before-get",
            Hazard::WriteBeforePutComplete { .. } => "write-before-put",
            Hazard::MailboxDeadlock { .. } => "mailbox-deadlock",
        }
    }
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::OverlappingDma {
                first_tag,
                second_tag,
                offset,
            } => write!(
                f,
                "DMA tag {second_tag} overlaps in-flight tag {first_tag} at local-store offset {offset}"
            ),
            Hazard::ReadBeforeGetComplete { tag, offset } => write!(
                f,
                "compute read at offset {offset} with get tag {tag} still in flight (missing tag wait)"
            ),
            Hazard::WriteBeforePutComplete { tag, offset } => write!(
                f,
                "compute write at offset {offset} with put tag {tag} still in flight (missing tag wait)"
            ),
            Hazard::MailboxDeadlock { spe, op } => {
                write!(f, "SPE {spe} mailbox {op} would deadlock (no concurrent peer)")
            }
        }
    }
}

fn overlaps(a: LsRegion, b: LsRegion) -> bool {
    a.offset < b.offset + b.len && b.offset < a.offset + a.len
}

/// Tracks in-flight tagged DMA commands against one local store and records
/// every access that would race on real hardware.
#[derive(Clone, Debug, Default)]
pub struct HazardChecker {
    in_flight: Vec<(u32, Dir, LsRegion)>,
    hazards: Vec<Hazard>,
}

impl HazardChecker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a DMA command issued with `tag` over `region`. Overlap with
    /// any transfer still in flight is itself a hazard (the MFC gives no
    /// ordering between tags).
    pub fn dma_issue(&mut self, tag: u32, dir: Dir, region: LsRegion) {
        for &(t, _, r) in &self.in_flight {
            if overlaps(r, region) {
                self.hazards.push(Hazard::OverlappingDma {
                    first_tag: t,
                    second_tag: tag,
                    offset: region.offset.max(r.offset),
                });
            }
        }
        self.in_flight.push((tag, dir, region));
    }

    /// Declare a tag-group wait (`mfc_read_tag_status_all` on one tag):
    /// every command with this tag is now complete.
    pub fn tag_wait(&mut self, tag: u32) {
        self.in_flight.retain(|&(t, _, _)| t != tag);
    }

    /// Declare a barrier on all outstanding tags.
    pub fn wait_all(&mut self) {
        self.in_flight.clear();
    }

    /// Declare that compute reads `region` from the local store.
    pub fn compute_read(&mut self, region: LsRegion) {
        for &(tag, dir, r) in &self.in_flight {
            if dir == Dir::Get && overlaps(r, region) {
                self.hazards.push(Hazard::ReadBeforeGetComplete {
                    tag,
                    offset: region.offset.max(r.offset),
                });
            }
        }
    }

    /// Declare that compute writes `region` in the local store.
    pub fn compute_write(&mut self, region: LsRegion) {
        for &(tag, dir, r) in &self.in_flight {
            if dir == Dir::Put && overlaps(r, region) {
                self.hazards.push(Hazard::WriteBeforePutComplete {
                    tag,
                    offset: region.offset.max(r.offset),
                });
            }
        }
    }

    /// Declare a blocking mailbox write on `spe`; `fifo_full` is the FIFO
    /// state at the moment of the call. In a sequential schedule a full FIFO
    /// can never drain concurrently, so the write is a deadlock.
    pub fn note_mailbox_write(&mut self, spe: usize, fifo_full: bool) {
        if fifo_full {
            self.hazards.push(Hazard::MailboxDeadlock {
                spe,
                op: "write to full FIFO",
            });
        }
    }

    /// Declare a blocking mailbox read on `spe` with the FIFO `fifo_empty`.
    pub fn note_mailbox_read(&mut self, spe: usize, fifo_empty: bool) {
        if fifo_empty {
            self.hazards.push(Hazard::MailboxDeadlock {
                spe,
                op: "read from empty FIFO",
            });
        }
    }

    /// Transfers currently in flight (no tag wait seen yet).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }

    /// Emit every recorded hazard as an instant event on `track` at simulated
    /// time `time_s`. Returns the number of events emitted.
    pub fn emit_to_trace(
        &self,
        trace: &mut sim_obs::ChromeTrace,
        track: u32,
        time_s: f64,
    ) -> usize {
        for h in &self.hazards {
            trace.instant(track, &format!("hazard: {h}"), h.kind(), time_s);
        }
        self.hazards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(offset: usize, len: usize) -> LsRegion {
        LsRegion { offset, len }
    }

    #[test]
    fn disciplined_sequence_is_clean() {
        let mut hz = HazardChecker::new();
        hz.dma_issue(1, Dir::Get, region(0, 64));
        hz.tag_wait(1);
        hz.compute_read(region(0, 64));
        hz.compute_write(region(64, 64));
        hz.dma_issue(2, Dir::Put, region(64, 64));
        hz.tag_wait(2);
        assert!(hz.is_clean(), "{:?}", hz.hazards());
        assert_eq!(hz.in_flight(), 0);
    }

    #[test]
    fn missing_tag_wait_before_read_detected() {
        let mut hz = HazardChecker::new();
        hz.dma_issue(5, Dir::Get, region(0, 128));
        hz.compute_read(region(16, 32)); // inside the in-flight get
        assert_eq!(
            hz.hazards(),
            &[Hazard::ReadBeforeGetComplete { tag: 5, offset: 16 }]
        );
        assert_eq!(hz.in_flight(), 1);
    }

    #[test]
    fn write_under_inflight_put_detected() {
        let mut hz = HazardChecker::new();
        hz.dma_issue(3, Dir::Put, region(128, 64));
        hz.compute_write(region(160, 16));
        assert_eq!(
            hz.hazards(),
            &[Hazard::WriteBeforePutComplete {
                tag: 3,
                offset: 160
            }]
        );
        // A read of the same bytes is fine — put streams them out, it does
        // not change them.
        hz.tag_wait(3);
        hz.dma_issue(4, Dir::Put, region(128, 64));
        let before = hz.hazards().len();
        hz.compute_read(region(128, 64));
        assert_eq!(hz.hazards().len(), before);
    }

    #[test]
    fn overlapping_inflight_transfers_detected() {
        let mut hz = HazardChecker::new();
        hz.dma_issue(1, Dir::Get, region(0, 64));
        hz.dma_issue(2, Dir::Get, region(48, 64)); // overlaps [48, 64)
        assert_eq!(
            hz.hazards(),
            &[Hazard::OverlappingDma {
                first_tag: 1,
                second_tag: 2,
                offset: 48
            }]
        );
        // Disjoint double buffering is the intended pattern — no hazard.
        let mut ok = HazardChecker::new();
        ok.dma_issue(1, Dir::Get, region(0, 64));
        ok.dma_issue(2, Dir::Get, region(64, 64));
        assert!(ok.is_clean());
    }

    #[test]
    fn wait_all_clears_everything() {
        let mut hz = HazardChecker::new();
        hz.dma_issue(1, Dir::Get, region(0, 64));
        hz.dma_issue(2, Dir::Put, region(64, 64));
        hz.wait_all();
        hz.compute_read(region(0, 64));
        hz.compute_write(region(64, 64));
        assert!(hz.is_clean());
    }

    #[test]
    fn mailbox_deadlocks_detected() {
        let mut hz = HazardChecker::new();
        hz.note_mailbox_write(3, false);
        hz.note_mailbox_read(3, false);
        assert!(hz.is_clean());
        hz.note_mailbox_write(3, true);
        hz.note_mailbox_read(2, true);
        assert_eq!(hz.hazards().len(), 2);
        assert_eq!(hz.hazards()[0].kind(), "mailbox-deadlock");
    }

    #[test]
    fn hazards_emit_as_trace_instants() {
        let mut hz = HazardChecker::new();
        hz.dma_issue(7, Dir::Get, region(0, 32));
        hz.compute_read(region(0, 32));
        let mut trace = sim_obs::ChromeTrace::new();
        let n = hz.emit_to_trace(&mut trace, 1, 0.002);
        assert_eq!(n, 1);
        let json = trace.render();
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("read-before-get"), "{json}");
        assert!(json.contains("tag 7"), "{json}");
    }
}
