//! The MD acceleration shader (paper section 5.2), as the cost model
//! charges it.
//!
//! One shader instance per atom: it scans the entire position texture for
//! atoms within the cutoff and accumulates their force contributions into a
//! single acceleration value. The atom's potential-energy contribution is
//! stored in the fourth component of the output texel, so it is "retrieved
//! for free" by the acceleration readback and summed in linear time on the
//! CPU — the paper's alternative to an expensive multi-pass GPU reduction.
//! md-core's GPU flavor ([`md_core::shared_eval::gpu_texel`]) computes
//! those texels; this module only counts what the dispatch retires.
//!
//! 2006 fragment pipelines had very limited dynamic branching, so the cutoff
//! test is implemented by *predication*: the pair term is computed for every
//! examined pair and multiplied by a 0/1 mask. That makes the shader's cost
//! uniform per pair — which is also why the GPU's runtime in Figure 7 is a
//! clean function of N² with no dependence on how many pairs actually
//! interact.
//!
//! The pair physics itself comes from the run's [`Substrate`] (DESIGN.md
//! §16): the paper-faithful default is the predicated Lennard-Jones above,
//! and alternative potentials charge extra ALU slots per pair — on this
//! hardware a longer pair expression is simply a longer fragment program.

use crate::shader::ShaderOps;
use md_core::scenario::Substrate;

/// ALU instructions charged per examined pair: minimum-image (compare +
/// select per the 3 axes packed in one 4-wide op each), direction, dot,
/// predicated LJ evaluation, masked accumulate. Calibrated so a
/// 7900GTX-class part lands near the paper's ~6x at 2048 atoms.
/// Non-LJ potentials charge [`Substrate::extra_eval_ops`] on top.
pub const ALU_PER_PAIR: u64 = 21;
/// Texture fetches per examined pair (the j-atom position).
pub const FETCH_PER_PAIR: u64 = 1;
/// Per-instance fixed ALU (own position fetch handled in fetches).
pub const ALU_PER_INSTANCE: u64 = 6;
/// Bytes of one 4-component f32 texel, the unit every PCIe transfer moves
/// per atom (xyz, and the PE in w on the way back).
pub const TEXEL_BYTES: usize = 16;

/// The ops one acceleration dispatch over `n_atoms` texels retires, in
/// closed form. Predication makes that exact, not approximate: the shader
/// charges every examined pair (the self-pair included) identically
/// regardless of the cutoff outcome, so each texel retires exactly
/// `1 + N·FETCH_PER_PAIR` fetches and
/// `ALU_PER_INSTANCE + N·(ALU_PER_PAIR + extra)` ALU slots, where `extra`
/// is the whole ALU slots of [`Substrate::extra_eval_ops`], and N times
/// that is exact in u64 (DESIGN.md §17).
pub fn accel_ops(n_atoms: usize, sub: &Substrate<f32>) -> ShaderOps {
    let mut extra_alu = 0u64;
    let mut left = sub.extra_eval_ops();
    while left >= 1.0 {
        extra_alu += 1;
        left -= 1.0;
    }
    let n = n_atoms as u64;
    ShaderOps {
        fetches: n * (1 + n * FETCH_PER_PAIR),
        alu: n * (ALU_PER_INSTANCE + n * (ALU_PER_PAIR + extra_alu)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::scenario::ScenarioSpec;

    #[test]
    fn ops_are_per_examined_pair() {
        let lj = accel_ops(3, &ScenarioSpec::default().substrate(2.5));
        let n = 3u64;
        assert_eq!(
            lj.total(),
            n * (1 + ALU_PER_INSTANCE) + n * n * (FETCH_PER_PAIR + ALU_PER_PAIR)
        );
        let morse = accel_ops(3, &ScenarioSpec::morse_nvt().substrate(2.5));
        let extra = morse.total() - lj.total();
        assert_eq!(extra % (n * n), 0, "extra ALU is per examined pair");
        assert!(extra > 0, "Morse pair term is longer than LJ");
    }
}
