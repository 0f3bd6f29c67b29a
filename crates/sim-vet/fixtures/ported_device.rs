//! vet-path: crates/cell-be/src/fixture.rs
//!
//! Seeded violation of a v1-ported device rule: a buffer mutator that
//! reports no cost.

pub fn scribble(buf: &mut [f32]) { // vet-expect(cost-conservation)
    buf[0] = 0.0;
}
