//! The MD acceleration shader (paper section 5.2).
//!
//! One shader instance per atom: it scans the entire position texture for
//! atoms within the cutoff and accumulates their force contributions into a
//! single acceleration value. The atom's potential-energy contribution is
//! stored in the fourth component of the output texel, so it is "retrieved
//! for free" by the acceleration readback and summed in linear time on the
//! CPU — the paper's alternative to an expensive multi-pass GPU reduction.
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

use crate::device::{DispatchResult, GpuDevice};
use crate::shader::{Shader, ShaderConstants, ShaderOps};
use crate::texture::Texture;
use md_core::device::HostParallelism;
use md_core::parallel::map_indexed;
use md_core::scenario::Substrate;
use md_core::shared_eval::{self, SoaPositionsF32};
use vecmath::Real;

/// Indices of the kernel constants inside [`ShaderConstants`].
///
/// The constant block is the shader's JIT identity: any scenario change
/// (potential kind or parameters, precision policy) lands in these slots, so
/// a different scenario forces a re-JIT exactly like the paper's
/// constant-folding compiler would.
pub mod constants {
    pub const BOX_LEN: usize = 0;
    pub const CUTOFF2: usize = 1;
    /// Potential discriminant (0 = LJ, 1 = Morse, 2 = cutoff-Coulomb).
    pub const POT_KIND: usize = 2;
    /// First potential parameter (ε, well depth, or q²).
    pub const POT_A: usize = 3;
    /// Second potential parameter (σ², stiffness, or unused).
    pub const POT_B: usize = 4;
    /// Third potential parameter (r₀ for Morse; otherwise unused).
    pub const POT_C: usize = 5;
    pub const INV_MASS: usize = 6;
    /// 1.0 when per-instance accumulation runs in f64 (mixed policy).
    pub const MIXED_ACC: usize = 7;
}

/// ALU instructions charged per examined pair: minimum-image (compare +
/// select per the 3 axes packed in one 4-wide op each), direction, dot,
/// predicated LJ evaluation, masked accumulate. Calibrated so a
/// 7900GTX-class part lands near the paper's ~6x at 2048 atoms.
/// Non-LJ potentials charge [`Substrate::extra_eval_ops`] on top.
pub const ALU_PER_PAIR: u64 = 21;
/// Texture fetches per examined pair (the j-atom position).
pub const FETCH_PER_PAIR: u64 = 1;
/// Host-parallel dispatch granularity: output texels are evaluated in fixed
/// batches of this many fragments. The batch decomposition depends only on
/// the output length — never on the thread count — so every batch computes
/// the same texels and retires the same ops no matter how the batches are
/// scheduled across host threads.
pub const FRAGMENT_BATCH: usize = 256;
/// Per-instance fixed ALU (own position fetch handled in fetches).
pub const ALU_PER_INSTANCE: u64 = 6;

/// The pair-potential acceleration shader (named for its paper-faithful
/// Lennard-Jones default; the substrate may swap in Morse or Coulomb).
#[derive(Clone, Copy, Debug)]
pub struct LjAccelShader {
    /// Number of atoms (texels in the position texture).
    pub n_atoms: usize,
    /// Resolved scenario physics evaluated per surviving pair.
    pub sub: Substrate<f32>,
    /// Extra ALU slots per examined pair for non-LJ potentials (longer
    /// fragment program under predication — charged for every pair).
    extra_alu: u64,
}

impl LjAccelShader {
    pub fn new(n_atoms: usize, sub: Substrate<f32>) -> Self {
        let mut extra_alu = 0u64;
        let mut left = sub.extra_eval_ops();
        while left >= 1.0 {
            extra_alu += 1;
            left -= 1.0;
        }
        Self {
            n_atoms,
            sub,
            extra_alu,
        }
    }

    /// Pack the kernel parameters into the JIT-baked constant block. Every
    /// field that changes the compiled program appears here, so
    /// [`crate::device::GpuDevice::compile`] re-JITs exactly when the
    /// scenario (or geometry) changes.
    pub fn constants(box_len: f32, inv_mass: f32, sub: &Substrate<f32>) -> ShaderConstants {
        let mut values = [0.0f32; 8];
        values[constants::BOX_LEN] = box_len;
        values[constants::CUTOFF2] = sub.cutoff2();
        let (kind, a, b, c) = sub.pot_constants();
        values[constants::POT_KIND] = kind;
        values[constants::POT_A] = a;
        values[constants::POT_B] = b;
        values[constants::POT_C] = c;
        values[constants::INV_MASS] = inv_mass;
        values[constants::MIXED_ACC] = if sub.accumulate_f64 { 1.0 } else { 0.0 };
        ShaderConstants { values }
    }

    /// Physics-once dispatch: the fragment-batch row replay (DESIGN.md §17).
    ///
    /// Computes the same output texture as
    /// [`GpuDevice::dispatch`]`(self, ..)` through the shared wide
    /// evaluator ([`shared_eval::gpu_texel`], which reproduces [`execute`]'s
    /// per-pair arithmetic bit for bit), and *replays* the op tally as a
    /// closed form instead of counting fetch/ALU slots pair by pair.
    /// Predication makes that exact, not approximate: the interpretive
    /// shader charges every examined pair identically regardless of the
    /// cutoff outcome, so each texel retires exactly
    /// `1 + N·FETCH_PER_PAIR` fetches and
    /// `ALU_PER_INSTANCE + N·(ALU_PER_PAIR + extra_alu)` ALU slots, and N
    /// times that is exact in u64. Identical ops mean identical
    /// `shader_seconds`. Fragment batches ([`FRAGMENT_BATCH`]) fan out over
    /// host threads and are committed in batch order.
    ///
    /// The compile-before-dispatch JIT contract still holds: the kernel
    /// constants come from the device's compiled block, exactly as the
    /// interpretive path reads them.
    ///
    /// [`execute`]: Shader::execute
    pub fn dispatch_shared(
        &self,
        device: &GpuDevice,
        positions: &Texture,
        par: HostParallelism,
    ) -> DispatchResult {
        #[expect(
            clippy::expect_used,
            reason = "compile-before-dispatch is an API contract (the JIT protocol), not a runtime data failure"
        )]
        let c = device
            .compiled_constants()
            .expect("shader must be JIT-compiled (GpuDevice::compile) before dispatch");
        let n = self.n_atoms;
        let l = c.values[constants::BOX_LEN];
        let inv_mass = c.values[constants::INV_MASS];
        let soa = SoaPositionsF32::from_quads(positions.texels().iter().copied());

        // The interpretive shader's per-texel retirement, as a closed form.
        let ops = ShaderOps {
            fetches: n as u64 * (1 + n as u64 * FETCH_PER_PAIR),
            alu: n as u64 * (ALU_PER_INSTANCE + n as u64 * (ALU_PER_PAIR + self.extra_alu)),
        };
        // The batches depend only on the output length, and the texels are
        // committed in batch order.
        let batches = map_indexed(par, n.div_ceil(FRAGMENT_BATCH), |b| {
            let lo = b * FRAGMENT_BATCH;
            let hi = (lo + FRAGMENT_BATCH).min(n);
            (lo..hi)
                .map(|i| shared_eval::gpu_texel(&soa, i, l, &self.sub, inv_mass))
                .collect::<Vec<_>>()
        });
        let output = Texture::from_texels(batches.concat());
        device.finish_dispatch(output, ops)
    }
}

impl Shader for LjAccelShader {
    fn execute(
        &self,
        inputs: &[&Texture],
        out_index: usize,
        c: &ShaderConstants,
        ops: &mut ShaderOps,
    ) -> [f32; 4] {
        let positions = inputs[0];
        let l = c.values[constants::BOX_LEN];
        let half_l = 0.5 * l;
        let cutoff2 = self.sub.cutoff2();
        let inv_mass = c.values[constants::INV_MASS];
        let mixed = self.sub.accumulate_f64;

        let pi = positions.fetch(out_index);
        ops.fetches += 1;
        ops.alu += ALU_PER_INSTANCE;

        let mut acc = [0.0f32; 3];
        let mut pe = 0.0f32;
        // Mixed-precision policy: per-instance accumulators widen to f64
        // (temporary registers), narrowed once at output-texel store.
        // sim-vet: begin-allow(precision-discipline): the mixed policy's wide temporaries are intentional — narrowed once at the texel store
        let mut acc64 = [0.0f64; 3];
        let mut pe64 = 0.0f64;
        // sim-vet: end-allow(precision-discipline)

        for j in 0..self.n_atoms {
            // The shader examines every texel, including its own: the
            // self-pair is eliminated by the predication mask, not a branch.
            let pj = positions.fetch(j);
            ops.fetches += FETCH_PER_PAIR;
            ops.alu += ALU_PER_PAIR + self.extra_alu;

            // Minimum image via compare/select per axis (4-wide on hardware).
            let mut d = [0.0f32; 3];
            for k in 0..3 {
                let mut dk = pi[k] - pj[k];
                dk += if dk > half_l { -l } else { 0.0 };
                dk += if dk < -half_l { l } else { 0.0 };
                d[k] = dk;
            }
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];

            // Predicated pair term: the evaluation is always *charged* (the
            // ops were counted above regardless of the outcome), and the
            // masked-off lanes are discarded — which is what hardware
            // predication does with the garbage values a self-pair (r² = 0)
            // would produce.
            let masked = r2 < cutoff2 && r2 > 0.0;
            if masked {
                let (e, f_over_r) = self.sub.energy_force(r2);
                if mixed {
                    // sim-vet: begin-allow(precision-discipline): mixed policy widens per-pair contributions to the wide accumulators
                    pe64 += f64::from(e);
                    for k in 0..3 {
                        acc64[k] += f64::from(d[k] * f_over_r * inv_mass);
                    }
                    // sim-vet: end-allow(precision-discipline)
                } else {
                    pe += e;
                    for k in 0..3 {
                        acc[k] += d[k] * f_over_r * inv_mass;
                    }
                }
            }
        }

        if mixed {
            for k in 0..3 {
                acc[k] = f32::from_f64(acc64[k]);
            }
            pe = f32::from_f64(pe64);
        }
        [acc[0], acc[1], acc[2], pe]
    }

    fn name(&self) -> &'static str {
        "lj-accel"
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::device::GpuDevice;
    use md_core::scenario::ScenarioSpec;

    fn dispatch(points: &[[f32; 3]], box_len: f32) -> (Texture, ShaderOps) {
        dispatch_scenario(points, box_len, ScenarioSpec::default())
    }

    fn dispatch_scenario(
        points: &[[f32; 3]],
        box_len: f32,
        spec: ScenarioSpec,
    ) -> (Texture, ShaderOps) {
        let n = points.len();
        let sub: Substrate<f32> = spec.substrate(2.5);
        let mut dev = GpuDevice::geforce_7900gtx();
        dev.compile(LjAccelShader::constants(box_len, 1.0, &sub));
        let tex = Texture::from_xyz(points);
        let shader = LjAccelShader::new(n, sub);
        let r = dev.dispatch(&shader, &[&tex], n);
        (r.output, r.ops)
    }

    #[test]
    fn two_body_forces_and_pe() {
        let (out, _) = dispatch(&[[1.0, 1.0, 1.0], [2.2, 1.0, 1.0]], 20.0);
        let a0 = out.fetch(0);
        let a1 = out.fetch(1);
        // Attractive at 1.2σ: atom 0 pulled +x; equal and opposite.
        assert!(a0[0] > 0.0);
        assert!((a0[0] + a1[0]).abs() < 1e-4);
        // PE symmetric and negative.
        assert!(a0[3] < 0.0);
        assert!((a0[3] - a1[3]).abs() < 1e-6);
    }

    #[test]
    fn self_pair_masked_no_nan() {
        let (out, _) = dispatch(&[[5.0, 5.0, 5.0]], 20.0);
        let a = out.fetch(0);
        assert!(
            a.iter().all(|v| v.is_finite()),
            "self-pair must not produce NaN: {a:?}"
        );
        assert_eq!(a, [0.0; 4]);
    }

    #[test]
    fn wraps_through_the_boundary() {
        let (out, _) = dispatch(&[[0.5, 5.0, 5.0], [19.5, 5.0, 5.0]], 20.0);
        let a0 = out.fetch(0);
        // r = 1 through the wall: repulsive force 24 pushes atom 0 in +x.
        assert!((a0[0] - 24.0).abs() < 1e-3, "got {a0:?}");
    }

    #[test]
    fn op_count_uniform_in_pairs() {
        let (_, ops_dense) = dispatch(&[[1.0, 1.0, 1.0], [1.5, 1.0, 1.0], [2.0, 1.0, 1.0]], 20.0);
        let (_, ops_sparse) = dispatch(
            &[[1.0, 1.0, 1.0], [8.0, 8.0, 8.0], [15.0, 15.0, 15.0]],
            20.0,
        );
        // Predication: cost depends only on N, not on interactions.
        assert_eq!(ops_dense.total(), ops_sparse.total());
        let n = 3u64;
        assert_eq!(
            ops_dense.total(),
            n * (1 + ALU_PER_INSTANCE) + n * n * (FETCH_PER_PAIR + ALU_PER_PAIR)
        );
    }

    #[test]
    fn non_lj_potential_charges_extra_alu() {
        let pts = [[1.0, 1.0, 1.0], [1.5, 1.0, 1.0], [2.0, 1.0, 1.0]];
        let (_, lj) = dispatch(&pts, 20.0);
        let (_, morse) = dispatch_scenario(&pts, 20.0, ScenarioSpec::morse_nvt());
        let n = 3u64;
        let extra = morse.total() - lj.total();
        assert_eq!(extra % (n * n), 0, "extra ALU is per examined pair");
        assert!(extra > 0, "Morse pair term is longer than LJ");
    }

    #[test]
    fn morse_two_body_attractive_past_minimum() {
        let (out, _) = dispatch_scenario(
            &[[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]],
            20.0,
            ScenarioSpec::morse_nvt(),
        );
        let a0 = out.fetch(0);
        // Past r₀: the Morse well pulls atom 0 toward atom 1 (+x).
        assert!(a0[0] > 0.0, "got {a0:?}");
        assert!(a0[3] < 0.0, "bound pair has negative PE: {a0:?}");
    }

    /// The physics-once contract at the dispatch level: the shared-eval
    /// replay produces the same texels, op tally, and charged seconds as the
    /// interpretive per-pair walk — bit for bit — for every scenario flavor,
    /// at an output length that exercises a partial fragment batch.
    #[test]
    fn shared_dispatch_is_bitwise_identical() {
        use md_core::scenario::PrecisionPolicy;
        let n = FRAGMENT_BATCH + 44;
        let pts: Vec<[f32; 3]> = (0..n)
            .map(|i| {
                let t = i as f32;
                [
                    (t * 0.37).rem_euclid(6.0),
                    (t * 0.73 + 1.1).rem_euclid(6.0),
                    (t * 1.19 + 2.3).rem_euclid(6.0),
                ]
            })
            .collect();
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let sub: Substrate<f32> = spec.substrate(2.5);
            let mut dev = GpuDevice::geforce_7900gtx();
            dev.compile(LjAccelShader::constants(6.0, 0.5, &sub));
            let tex = Texture::from_xyz(&pts);
            let shader = LjAccelShader::new(n, sub);
            let interp = dev.dispatch(&shader, &[&tex], n);
            for threads in [1usize, 2, 8] {
                let shared = shader.dispatch_shared(&dev, &tex, HostParallelism::Threads(threads));
                assert_eq!(shared.output.texels(), interp.output.texels(), "{threads}");
                assert_eq!(shared.ops.alu, interp.ops.alu);
                assert_eq!(shared.ops.fetches, interp.ops.fetches);
                assert_eq!(shared.shader_seconds, interp.shader_seconds);
                assert_eq!(shared.overhead_seconds, interp.overhead_seconds);
            }
        }
    }

    #[test]
    fn mixed_policy_narrowed_output_close_to_native() {
        let pts = [[1.0, 1.0, 1.0], [2.2, 1.0, 1.0], [3.1, 1.0, 1.0]];
        let (native, _) = dispatch(&pts, 20.0);
        let (mixed, _) = dispatch_scenario(
            &pts,
            20.0,
            ScenarioSpec::default()
                .with_precision(md_core::scenario::PrecisionPolicy::MixedF64Accumulate),
        );
        for i in 0..pts.len() {
            let a = native.fetch(i);
            let b = mixed.fetch(i);
            for k in 0..4 {
                assert!(
                    (a[k] - b[k]).abs() <= 1e-5 * a[k].abs().max(1.0),
                    "texel {i}.{k}: {} vs {}",
                    a[k],
                    b[k]
                );
            }
        }
    }
}
