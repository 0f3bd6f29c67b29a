//! vet-path: crates/opteron/src/fixture.rs
//!
//! Seeded dead-waiver violations: one waiver still suppresses a real
//! finding (legal), one suppresses nothing, and one names a rule that does
//! not exist. The stale two are findings so the waiver inventory cannot rot.

pub fn live(buf: &mut [f32]) { // sim-vet: allow(cost-conservation): fixture-sanctioned
    buf[0] = 0.0;
}

pub fn stale() -> u32 {
    0 // sim-vet: allow(cost-conservation): nothing mutates -- vet-expect(dead-waiver)
}

pub fn typo() -> u32 {
    0 // sim-vet: allow(cost-conservaton): misspelled rule -- vet-expect(dead-waiver)
}
