//! The SPE acceleration kernel and its Figure-5 optimization ladder.
//!
//! Six variants, cumulative in the order the paper applies them:
//!
//! 1. **Original** — fully scalar; the unit-cell (minimum image) search uses
//!    data-dependent `if`s, which stall the branch-predictor-less SPE.
//! 2. **Copysign** — the `if` replaced with branch-free copysign math.
//! 3. **SimdUnitCell** — all three axes of the unit-cell search handled
//!    simultaneously with SIMD compare/select ("instead of looping over all
//!    three dimensions, all three axes could be searched simultaneously").
//! 4. **SimdDirection** — the direction vector computed with one SIMD
//!    subtract instead of a scalar loop.
//! 5. **SimdLength** — the squared length via SIMD dot product.
//! 6. **SimdAcceleration** — the force→acceleration conversion SIMDized
//!    (small total gain: few tested pairs actually interact).
//!
//! Every variant computes the *same physics* (they differ in instruction
//! selection, hence in cycle cost). Their arithmetic differs in two places
//! only — the copysign reflect's shift threshold and the SIMD acceleration
//! stage's fused accumulate — so all six run through one shared-eval row,
//! [`md_core::shared_eval::cell_stage_row`], and charge cycles in closed
//! form. The per-pair loop they replaced survives as the tests' oracle.

use crate::config::SpeCostModel;
use crate::localstore::{LocalStore, LsRegion};
use md_core::scenario::Substrate;
use md_core::shared_eval::{cell_stage_row, CellStage, SoaPositionsF32};
use std::ops::Range;
use vecmath::Real;

/// The six optimization stages of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpeKernelVariant {
    Original,
    Copysign,
    SimdUnitCell,
    SimdDirection,
    SimdLength,
    SimdAcceleration,
}

impl SpeKernelVariant {
    pub const ALL: [Self; 6] = [
        Self::Original,
        Self::Copysign,
        Self::SimdUnitCell,
        Self::SimdDirection,
        Self::SimdLength,
        Self::SimdAcceleration,
    ];

    /// The bar labels of Figure 5.
    pub fn label(self) -> &'static str {
        match self {
            Self::Original => "original",
            Self::Copysign => "replace \"if\" with \"copysign\"",
            Self::SimdUnitCell => "SIMD unit cell reflection",
            Self::SimdDirection => "SIMD direction vector",
            Self::SimdLength => "SIMD length calculation",
            Self::SimdAcceleration => "SIMD acceleration",
        }
    }

    /// The shared-eval row arithmetic of this stage. The branchy reflect
    /// (`if d > L/2 … else if d < -L/2`) shifts exactly where compare/select
    /// at `L/2` does; the copysign reflect at its own threshold, just below
    /// `L/2`. Only the SIMD acceleration stage fuses its accumulate.
    pub fn stage(self, box_len: f32) -> CellStage {
        let reflect_above = if self == Self::Copysign {
            copysign_reflect_above(box_len)
        } else {
            0.5 * box_len
        };
        CellStage {
            reflect_above,
            fused: self.accel_simd(),
        }
    }

    /// Cycles per tested pair and per interaction at this stage.
    // sim-vet: allow(precision-discipline): simulated-cycle accounting, not kernel physics
    fn charges(self, costs: &SpeCostModel, sub: &Substrate<f32>) -> (f64, f64) {
        let reflect = if self.reflect_simd() {
            costs.reflect_simd
        } else if self.branch_free_reflect() {
            costs.reflect_copysign
        } else {
            costs.reflect_branchy
        };
        let direction = if self.direction_simd() {
            costs.direction_simd
        } else {
            costs.direction_scalar
        };
        let length = if self.length_simd() {
            costs.length_simd
        } else {
            costs.length_scalar
        };
        let accel = if self.accel_simd() {
            costs.accel_simd
        } else {
            costs.accel_scalar
        };
        // Potential-evaluation cycles per interacting pair: the LJ baseline
        // plus whatever extra arithmetic the scenario's potential costs (zero
        // for LJ, so the default scenario's charges are bit-identical to the
        // seed).
        let pot = costs.lj_eval + sub.extra_eval_ops();
        (
            reflect + direction + length + costs.cutoff_test + costs.pair_loads,
            pot + accel,
        )
    }

    fn reflect_simd(self) -> bool {
        self >= Self::SimdUnitCell
    }
    fn direction_simd(self) -> bool {
        self >= Self::SimdDirection
    }
    fn length_simd(self) -> bool {
        self >= Self::SimdLength
    }
    fn accel_simd(self) -> bool {
        self >= Self::SimdAcceleration
    }
    fn branch_free_reflect(self) -> bool {
        self >= Self::Copysign
    }
}

/// The largest axis gap `|d|` the copysign reflect leaves unshifted in a box
/// of side `l`. Its shift count `n = floor(|d|/L + ½)` is monotone in `|d|`
/// (each step rounds correctly), so it turns 1 at one float; compare/select
/// shifting where `|d|` exceeds the float below it picks the same shift for
/// every gap under 1.5 L, i.e. for all coordinates in `[0, L]`. That float
/// lies below L/2: `|d| = L/2` already gives `n = 1`, and with `cutoff ==
/// L/2` a pair an ulp inside it can pass the cutoff test, so the copysign
/// stage cannot share the `L/2` threshold.
fn copysign_reflect_above(l: f32) -> f32 {
    let shifts = |d: f32| (d / l + 0.5).floor() >= 1.0;
    let mut above = 0.5 * l;
    // `shifts(0.0)` is false, so the walk stops above zero.
    while shifts(above) {
        above = f32::from_bits(above.to_bits() - 1);
    }
    above
}

/// Work counters from one kernel invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    pub pairs_tested: u64,
    pub interactions: u64,
    /// SPE cycles charged by the cost model.
    pub cycles: f64, // sim-vet: allow(precision-discipline): simulated-time accounting, not kernel physics
}

impl KernelStats {
    /// The counters of `rows` rows of an `n`-atom evaluation at `variant`
    /// that found `interactions` in-cutoff pairs, and their closed-form
    /// cycles. Each row tests every other atom: the per-pair loop skips the
    /// self-pair with a branch, the shared kernel predicates it off.
    pub(crate) fn of_rows(
        variant: SpeKernelVariant,
        costs: &SpeCostModel,
        sub: &Substrate<f32>,
        n: usize,
        rows: u64,
        interactions: u64,
    ) -> Self {
        let mut stats = Self {
            pairs_tested: rows * (n as u64).saturating_sub(1),
            interactions,
            ..Self::default()
        };
        let (per_pair, per_interaction) = variant.charges(costs, sub);
        stats.charge_closed_form(costs, rows, per_pair, per_interaction);
        stats
    }

    /// Charge the slice's cycles in closed form from the work counts:
    /// per-atom row overhead, per-tested-pair cost, per-interaction cost.
    ///
    /// The shared-eval kernel and the per-pair oracle both charge through
    /// this one expression, so the replayed charge is
    /// *bitwise* the per-pair loop's — an f64 identity, not an
    /// approximation. (An incremental `cycles += …` per pair cannot be
    /// replayed exactly: with non-integral stage costs the running sum's
    /// rounding depends on the interleaving of row/pair/interaction charges.)
    // sim-vet: begin-allow(precision-discipline): simulated-cycle accounting, not kernel physics
    fn charge_closed_form(
        &mut self,
        costs: &SpeCostModel,
        rows: u64,
        per_pair_cost: f64,
        per_interact_cost: f64,
    ) {
        self.cycles = costs.per_atom * rows as f64
            + per_pair_cost * self.pairs_tested as f64
            + per_interact_cost * self.interactions as f64;
    }
    // sim-vet: end-allow(precision-discipline)
}

/// Per-lane physics as the SPE sees it (single precision by default,
/// matching the paper's Cell port): the resolved scenario substrate —
/// potential, precision policy, thermostat — plus the geometry constants
/// every pair evaluation needs. Replaces the old hard-coded `SpeLjParams` so
/// the same SPE kernel serves every scenario (DESIGN.md §16).
#[derive(Clone, Copy, Debug)]
pub struct SpeLanePhysics<T: Real = f32> {
    pub sub: Substrate<T>,
    pub box_len: T,
    pub inv_mass: T,
}

/// Compute accelerations for atoms `i_range` against every position in
/// `soa`, as the SPE kernel `variant` does: each atom's
/// `[ax, ay, az, pe_i]` quad goes to `store` (the per-atom PE rides in the
/// fourth lane, as on the GPU port). Returns the summed PE contribution of
/// the slice (each pair counted once per owning atom) plus the work
/// counters.
///
/// Physics-once split (DESIGN.md §17): the physics comes from
/// [`md_core::shared_eval::cell_stage_row`] at the variant's [`CellStage`],
/// and the cycles are charged in closed form from the work counts. Both are
/// bitwise the per-pair kernel's for every variant and precision policy —
/// pinned against that loop by the oracle tests below and end to end by
/// `tests/shared_eval.rs`.
pub fn compute_accelerations(
    soa: &SoaPositionsF32,
    i_range: Range<usize>,
    params: SpeLanePhysics,
    variant: SpeKernelVariant,
    costs: &SpeCostModel,
    mut store: impl FnMut(usize, [f32; 4]),
) -> (f32, KernelStats) {
    let mut interactions = 0u64;
    let mut pe_slice = 0.0f32;
    let (l, sub, inv_mass) = (params.box_len, &params.sub, params.inv_mass);
    let stage = variant.stage(l);
    let rows = i_range.len() as u64;

    for i in i_range {
        let row = cell_stage_row(soa, i, l, sub, inv_mass, stage);
        interactions += row.interactions;
        pe_slice += row.pe;
        store(i, [row.acc[0], row.acc[1], row.acc[2], row.pe]);
    }
    let stats = KernelStats::of_rows(variant, costs, sub, soa.len(), rows, interactions);
    (pe_slice, stats)
}

// sim-vet: begin-allow(precision-discipline): explicit double-precision section — models the SPE's DP unit (the paper's "outstanding issue"), not the f32 datapath

/// Double-precision lane physics for the DP kernel extension.
pub type SpeLanePhysicsF64 = SpeLanePhysics<f64>;

/// Double-precision acceleration kernel — the capability the paper lists as
/// the Cell's "outstanding issue". Data layout: each atom occupies two
/// quadwords per array (`[x, y]` and `[z, pad]`, 2 × f64 per 128-bit
/// register); the per-atom PE rides in the pad of the acceleration pair.
///
/// Functionally equivalent to the fully SIMDized single-precision variant but
/// in f64; the cost model multiplies every arithmetic stage by
/// [`SpeCostModel::dp_penalty`] (half-width, non-pipelined DP unit) while
/// local-store traffic doubles (two quads per atom).
pub fn compute_accelerations_f64(
    ls: &mut LocalStore,
    pos: LsRegion,
    acc: LsRegion,
    i_range: Range<usize>,
    n_atoms: usize,
    params: SpeLanePhysicsF64,
    costs: &SpeCostModel,
) -> (f64, KernelStats) {
    let mut stats = KernelStats::default();
    let mut pe_slice = 0.0f64;

    let l = params.box_len;
    let half_l = 0.5 * l;
    let cutoff2 = params.sub.cutoff2();

    // DP stage costs: arithmetic scaled by the penalty, loads doubled.
    let per_pair_cost =
        (costs.reflect_simd + costs.direction_simd + costs.length_simd + costs.cutoff_test)
            * costs.dp_penalty
            + 2.0 * costs.pair_loads;
    let per_interact_cost =
        (costs.lj_eval + costs.accel_simd + params.sub.extra_eval_ops()) * costs.dp_penalty;

    for i in i_range {
        stats.cycles += costs.per_atom * 2.0;
        let [xi, yi] = ls.load_dquad(pos, 2 * i);
        let [zi, _] = ls.load_dquad(pos, 2 * i + 1);
        let pi = [xi, yi, zi];
        let mut acc_v = [0.0f64; 3];
        let mut pe_i = 0.0f64;

        for j in 0..n_atoms {
            if j == i {
                continue;
            }
            stats.pairs_tested += 1;
            stats.cycles += per_pair_cost;
            let [xj, yj] = ls.load_dquad(pos, 2 * j);
            let [zj, _] = ls.load_dquad(pos, 2 * j + 1);
            let pj = [xj, yj, zj];

            let mut d = [0.0f64; 3];
            for k in 0..3 {
                let mut dk = pi[k] - pj[k];
                if dk > half_l {
                    dk -= l;
                } else if dk < -half_l {
                    dk += l;
                }
                d[k] = dk;
            }
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 < cutoff2 && r2 > 0.0 {
                stats.interactions += 1;
                stats.cycles += per_interact_cost;
                let (e, f_over_r) = params.sub.energy_force(r2);
                pe_i += e;
                for k in 0..3 {
                    acc_v[k] += d[k] * f_over_r * params.inv_mass;
                }
            }
        }

        pe_slice += pe_i;
        ls.store_dquad(acc, 2 * i, [acc_v[0], acc_v[1]]);
        ls.store_dquad(acc, 2 * i + 1, [acc_v[2], pe_i]);
    }

    (pe_slice, stats)
}

// sim-vet: end-allow(precision-discipline)

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use md_core::scenario::ScenarioSpec;

    /// One 128-bit SPE register of four f32 lanes (`[x, y, z, pad]`), with
    /// the instructions the per-pair oracle's SIMD stages use.
    #[derive(Clone, Copy)]
    struct F32x4([f32; 4]);

    impl F32x4 {
        const ZERO: Self = Self([0.0; 4]);

        fn splat(v: f32) -> Self {
            Self([v; 4])
        }

        fn lane(self, k: usize) -> f32 {
            self.0[k]
        }

        fn add(self, o: Self) -> Self {
            Self(std::array::from_fn(|k| self.0[k] + o.0[k]))
        }

        fn sub(self, o: Self) -> Self {
            Self(std::array::from_fn(|k| self.0[k] - o.0[k]))
        }

        /// 1.0 in each lane where `self > o`, else 0.0.
        fn cmp_gt(self, o: Self) -> Self {
            Self(std::array::from_fn(|k| {
                if self.0[k] > o.0[k] {
                    1.0
                } else {
                    0.0
                }
            }))
        }

        /// `a` in each lane where `mask` is non-zero, else `b`: the SPE's
        /// `selb`.
        fn select(mask: Self, a: Self, b: Self) -> Self {
            Self(std::array::from_fn(|k| {
                if mask.0[k] != 0.0 {
                    a.0[k]
                } else {
                    b.0[k]
                }
            }))
        }

        /// The x, y, z dot product, summed left to right.
        fn dot3(self, o: Self) -> f32 {
            self.0[0] * o.0[0] + self.0[1] * o.0[1] + self.0[2] * o.0[2]
        }
    }

    /// Per-lane fused multiply-add `a * b + c`: the SPE's `fma`, the SIMD
    /// acceleration stage's accumulate.
    fn madd(a: F32x4, b: F32x4, c: F32x4) -> F32x4 {
        F32x4(std::array::from_fn(|k| a.0[k].mul_add(b.0[k], c.0[k])))
    }

    /// The per-pair SPE kernel the shared-eval row replaced, kept as the
    /// oracle: for each atom of `i_range`, a scan of every `pos` quad
    /// (`[x, y, z, 0]`) through the variant's reflect, direction, length and
    /// accumulate stages. Returns each row's `[ax, ay, az, pe_i]` quad, the
    /// slice's PE and its work counters.
    #[allow(clippy::needless_range_loop)]
    fn per_pair(
        pos: &[[f32; 4]],
        i_range: Range<usize>,
        params: SpeLanePhysics,
        variant: SpeKernelVariant,
        costs: &SpeCostModel,
    ) -> (Vec<[f32; 4]>, f32, KernelStats) {
        let mut stats = KernelStats::default();
        let mut pe_slice = 0.0f32;
        let mut out = vec![[0.0f32; 4]; pos.len()];

        let l = params.box_len;
        let half_l = 0.5 * l;
        let cutoff2 = params.sub.cutoff2();
        // The stage costs, chosen here rather than by `charges`, so the
        // oracle checks the production charges too.
        let pot_cost = costs.lj_eval + params.sub.extra_eval_ops();
        let reflect_cost = if variant.reflect_simd() {
            costs.reflect_simd
        } else if variant.branch_free_reflect() {
            costs.reflect_copysign
        } else {
            costs.reflect_branchy
        };
        let direction_cost = if variant.direction_simd() {
            costs.direction_simd
        } else {
            costs.direction_scalar
        };
        let length_cost = if variant.length_simd() {
            costs.length_simd
        } else {
            costs.length_scalar
        };
        let accel_cost = if variant.accel_simd() {
            costs.accel_simd
        } else {
            costs.accel_scalar
        };
        let per_pair_cost =
            reflect_cost + direction_cost + length_cost + costs.cutoff_test + costs.pair_loads;
        let rows = i_range.len() as u64;

        for i in i_range {
            let pi = pos[i];
            let pi_v = F32x4(pi);
            let mut acc_v = F32x4::ZERO;
            let mut pe_i = 0.0f32;

            for j in 0..pos.len() {
                if j == i {
                    continue;
                }
                stats.pairs_tested += 1;
                let pj = pos[j];

                // --- unit-cell reflection: correct pj to i's nearest image ---
                let pj_img: F32x4 =
                    if variant.reflect_simd() {
                        let d = pi_v.sub(F32x4(pj));
                        let hi = d.cmp_gt(F32x4::splat(half_l));
                        let lo = F32x4::splat(-half_l).cmp_gt(d);
                        let shift = F32x4::select(hi, F32x4::splat(l), F32x4::ZERO)
                            .add(F32x4::select(lo, F32x4::splat(-l), F32x4::ZERO));
                        F32x4(pj).add(shift)
                    } else if variant.branch_free_reflect() {
                        // Scalar copysign form per axis: n = floor(|d|/L + ½)·sign(d).
                        let mut q = pj;
                        for k in 0..3 {
                            let d = pi[k] - q[k];
                            let n = (d.abs() / l + 0.5).floor().copysign(d);
                            q[k] += l * n;
                        }
                        F32x4(q)
                    } else {
                        // Scalar branchy form per axis.
                        let mut q = pj;
                        for k in 0..3 {
                            let d = pi[k] - q[k];
                            if d > half_l {
                                q[k] += l;
                            } else if d < -half_l {
                                q[k] -= l;
                            }
                        }
                        F32x4(q)
                    };

                // --- direction vector ---
                let dir: F32x4 = if variant.direction_simd() {
                    pi_v.sub(pj_img)
                } else {
                    let mut d = [0.0f32; 4];
                    for k in 0..3 {
                        d[k] = pi[k] - pj_img.lane(k);
                    }
                    F32x4(d)
                };

                // --- length calculation ---
                let r2: f32 = if variant.length_simd() {
                    dir.dot3(dir)
                } else {
                    let mut s = 0.0f32;
                    for k in 0..3 {
                        s += dir.lane(k) * dir.lane(k);
                    }
                    s
                };

                // --- cutoff test (data-dependent in every variant) ---
                if r2 < cutoff2 && r2 > 0.0 {
                    stats.interactions += 1;
                    let (e, f_over_r) = params.sub.energy_force(r2);
                    pe_i += e;

                    // --- force → acceleration conversion ---
                    if variant.accel_simd() {
                        acc_v = madd(dir, F32x4::splat(f_over_r * params.inv_mass), acc_v);
                    } else {
                        let mut a = acc_v.0;
                        for (k, ak) in a.iter_mut().take(3).enumerate() {
                            *ak += dir.lane(k) * f_over_r * params.inv_mass;
                        }
                        acc_v = F32x4(a);
                    }
                }
            }

            pe_slice += pe_i;
            out[i] = [acc_v.lane(0), acc_v.lane(1), acc_v.lane(2), pe_i];
        }
        stats.charge_closed_form(costs, rows, per_pair_cost, pot_cost + accel_cost);

        (out, pe_slice, stats)
    }

    fn quads(positions: &[[f32; 3]]) -> Vec<[f32; 4]> {
        positions.iter().map(|p| [p[0], p[1], p[2], 0.0]).collect()
    }

    fn physics(spec: ScenarioSpec, cutoff: f64, box_len: f32, inv_mass: f32) -> SpeLanePhysics {
        SpeLanePhysics {
            sub: spec.substrate(cutoff),
            box_len,
            inv_mass,
        }
    }

    /// Default LJ at cutoff 2.5, unit mass.
    fn lj(box_len: f32) -> SpeLanePhysics {
        physics(ScenarioSpec::default(), 2.5, box_len, 1.0)
    }

    /// The production kernel over `pos`: every row's quad (zero outside
    /// `i_range`), the slice's PE and its work counters.
    fn shared(
        pos: &[[f32; 4]],
        i_range: Range<usize>,
        params: SpeLanePhysics,
        variant: SpeKernelVariant,
    ) -> (Vec<[f32; 4]>, f32, KernelStats) {
        let soa = SoaPositionsF32::from_quads(pos.iter().copied());
        let mut out = vec![[0.0f32; 4]; pos.len()];
        let costs = SpeCostModel::calibrated();
        let (pe, stats) = compute_accelerations(&soa, i_range, params, variant, &costs, |i, q| {
            out[i] = q;
        });
        (out, pe, stats)
    }

    /// Shared row == per-pair oracle, bit for bit: quads, PE and counters.
    fn assert_matches_oracle(
        pos: &[[f32; 4]],
        i_range: Range<usize>,
        params: SpeLanePhysics,
        variant: SpeKernelVariant,
    ) -> Result<(), String> {
        let costs = SpeCostModel::calibrated();
        let (qa, pa, sa) = per_pair(pos, i_range.clone(), params, variant, &costs);
        let (qb, pb, sb) = shared(pos, i_range, params, variant);
        let bits =
            |q: &[[f32; 4]]| -> Vec<[u32; 4]> { q.iter().map(|q| q.map(f32::to_bits)).collect() };
        let ctx = format!("{variant:?}, {}", params.sub.spec);
        if bits(&qa) != bits(&qb) {
            let i = (0..qa.len()).find(|&i| bits(&qa[i..=i]) != bits(&qb[i..=i]));
            let i = i.unwrap_or_default();
            return Err(format!("{ctx}: atom {i}: {:?} vs {:?}", qa[i], qb[i]));
        }
        if pa.to_bits() != pb.to_bits() {
            return Err(format!("{ctx}: PE {pa} vs {pb}"));
        }
        let st = |s: KernelStats| (s.pairs_tested, s.interactions, s.cycles.to_bits());
        if st(sa) != st(sb) {
            return Err(format!("{ctx}: stats {sa:?} vs {sb:?}"));
        }
        Ok(())
    }

    #[test]
    fn all_variants_agree_on_a_pair() {
        let pos = quads(&[[1.0, 1.0, 1.0], [2.2, 1.0, 1.0]]);
        let results: Vec<_> = SpeKernelVariant::ALL
            .map(|v| shared(&pos, 0..2, lj(20.0), v))
            .into();
        let (a0, pe0) = (results[0].0[0], results[0].1);
        for (i, (a, pe, _)) in results.iter().enumerate() {
            assert!(
                (pe - pe0).abs() <= 1e-5 * pe0.abs().max(1.0),
                "variant {i} PE {pe} vs {pe0}"
            );
            for k in 0..3 {
                assert!(
                    (a[0][k] - a0[k]).abs() <= 1e-4 * a0[k].abs().max(1e-3),
                    "variant {i} acc[{k}] {} vs {}",
                    a[0][k],
                    a0[k]
                );
            }
        }
    }

    #[test]
    fn wraps_across_the_boundary() {
        // Atoms at x=0.5 and x=19.5 in a 20-box are 1.0 apart through the wall.
        let pos = quads(&[[0.5, 5.0, 5.0], [19.5, 5.0, 5.0]]);
        for v in SpeKernelVariant::ALL {
            let (q, _, stats) = shared(&pos, 0..2, lj(20.0), v);
            assert_eq!(stats.interactions, 2, "{v:?} must see the wrapped pair");
            let a0 = q[0];
            // At r=1 the LJ force is 24ε(2−1)=24, repulsive: atom 0 pushed +x
            // (away from the image at x=-0.5).
            assert!(
                a0[0] > 0.0,
                "{v:?}: repulsion through the boundary, got {a0:?}"
            );
            assert!((a0[0] - 24.0).abs() < 1e-3, "{v:?}: |a| = {}", a0[0]);
        }
    }

    #[test]
    fn pe_rides_in_the_fourth_lane() {
        let pos = quads(&[[1.0, 1.0, 1.0], [2.2, 1.0, 1.0]]);
        let (q, pe, _) = shared(&pos, 0..2, lj(20.0), SpeKernelVariant::SimdAcceleration);
        assert!((q[0][3] + q[1][3] - pe).abs() < 1e-6);
    }

    fn scattered(n: usize, l: f32) -> Vec<[f32; 4]> {
        let pos: Vec<[f32; 3]> = (0..n)
            .map(|i| {
                let f = i as f32;
                [(f * 0.917) % l, (f * 1.371) % l, (f * 0.533) % l]
            })
            .collect();
        quads(&pos)
    }

    #[test]
    fn ladder_cycle_costs_strictly_decrease() {
        let pos: Vec<[f32; 3]> = (0..32)
            .map(|i| {
                let f = i as f32;
                [f * 0.37 % 6.0, f * 0.73 % 6.0, f * 1.13 % 6.0]
            })
            .collect();
        let pos = quads(&pos);
        let mut prev = f64::INFINITY;
        for v in SpeKernelVariant::ALL {
            let params = physics(ScenarioSpec::default(), 2.0, 6.0, 1.0);
            let (_, _, stats) = shared(&pos, 0..32, params, v);
            assert!(
                stats.cycles < prev,
                "{v:?}: {} not below previous {prev}",
                stats.cycles
            );
            prev = stats.cycles;
        }
    }

    #[test]
    fn slice_partitioning_covers_all_atoms_once() {
        // Computing 0..16 and 16..32 separately must equal computing 0..32.
        let pos = scattered(32, 6.0);
        let params = physics(ScenarioSpec::default(), 2.0, 6.0, 1.0);
        for v in SpeKernelVariant::ALL {
            let (full, pe_full, _) = shared(&pos, 0..32, params, v);
            let (lo, pe1, _) = shared(&pos, 0..16, params, v);
            let (hi, pe2, _) = shared(&pos, 16..32, params, v);
            assert!((pe_full - (pe1 + pe2)).abs() < 1e-4 * pe_full.abs().max(1.0));
            for i in 0..32 {
                let part = if i < 16 { lo[i] } else { hi[i] };
                assert_eq!(
                    full[i].map(f32::to_bits),
                    part.map(f32::to_bits),
                    "atom {i}"
                );
            }
        }
    }

    /// Every variant under every scenario flavor, on a scattered
    /// configuration with a non-unit mass, equals the per-pair oracle
    /// exactly.
    #[test]
    fn every_variant_is_the_per_pair_kernel() {
        let pos = scattered(67, 6.0);
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
        ] {
            let params = physics(spec, 2.0, 6.0, 0.37);
            for v in SpeKernelVariant::ALL {
                assert_matches_oracle(&pos, 0..67, params, v).unwrap();
                assert_matches_oracle(&pos, 5..41, params, v).unwrap();
            }
        }
    }

    /// The copysign reflect's shift flips exactly above its threshold, for
    /// gaps within a few ulps of L/2 at many box sizes.
    #[test]
    fn copysign_threshold_is_where_the_copysign_reflect_flips() {
        let shifts = |d: f32, l: f32| (d / l + 0.5).floor() >= 1.0;
        for k in 0..2000u32 {
            let l = 2.0 + k as f32 * 0.0173;
            let above = copysign_reflect_above(l);
            assert!(above < 0.5 * l, "L = {l}");
            assert!(!shifts(above, l), "L = {l}");
            let next = f32::from_bits(above.to_bits() + 1);
            assert!(shifts(next, l), "L = {l}");
        }
    }

    #[test]
    fn empty_range_does_nothing() {
        let pos = quads(&[[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]);
        let (q, pe, stats) = shared(&pos, 1..1, lj(20.0), SpeKernelVariant::Original);
        assert_eq!(pe, 0.0);
        assert_eq!(q, vec![[0.0; 4]; 2]);
        assert_eq!(stats.pairs_tested, 0);
        assert_eq!(stats.cycles, 0.0);
    }

    mod prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// Random positions in `[0, L)` plus adversarial edits, for every
            /// variant: shared row == per-pair oracle.
            #[test]
            fn shared_rows_are_the_per_pair_kernel(
                l in 3.0f32..12.0,
                cut_frac in 0.3f32..1.4,
                frac in vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 2..40),
                edits in vec((0usize..4, 0usize..64, 0usize..3), 0..16),
                pot in 0usize..3,
                inv_mass in 0.25f32..4.0,
                split in 0usize..64,
            ) {
                let h = 0.5 * l;
                let n = frac.len();
                let mut pos: Vec<[f32; 4]> =
                    frac.iter().map(|&(x, y, z)| [x * l, y * l, z * l, 0.0]).collect();
                for &(kind, at, a) in &edits {
                    let (i, j) = (at % n, (at / n + 1 + at) % n);
                    match kind {
                        // A signed-zero coordinate.
                        0 => pos[i][a] = -0.0,
                        // An axis gap of exactly L/2: `pi` in [L/2, L), so
                        // `pi - L/2` and `pi - pj` are exact (Sterbenz).
                        1 | 2 => {
                            let pi = if pos[i][a] < h { pos[i][a] + h } else { pos[i][a] };
                            let pi = pi.min(f32::from_bits(l.to_bits() - 1));
                            pos[i][a] = pi;
                            let pj = pi - h;
                            // Kind 2 moves `pj` an ulp either way of the gap.
                            pos[j][a] = match (kind, at % 2) {
                                (1, _) => pj,
                                (_, 0) => f32::from_bits(pj.to_bits() + 1),
                                _ => f32::from_bits(pj.to_bits().saturating_sub(1)),
                            };
                        }
                        // A shared coordinate (a zero gap on that axis).
                        _ => pos[j][a] = pos[i][a],
                    }
                }
                // `cutoff == L/2` is the largest `SimConfig` accepts.
                let cutoff = if cut_frac >= 1.0 { h } else { cut_frac * h };
                let spec = [
                    ScenarioSpec::default(),
                    ScenarioSpec::morse_nvt(),
                    ScenarioSpec::coulomb_cutoff(),
                ][pot];
                let lo = split % n;
                let params = physics(spec, f64::from(cutoff), l, inv_mass);
                for v in SpeKernelVariant::ALL {
                    let full = assert_matches_oracle(&pos, 0..n, params, v);
                    prop_assert!(full.is_ok(), "{}", full.unwrap_err());
                    let part = assert_matches_oracle(&pos, lo..n, params, v);
                    prop_assert!(part.is_ok(), "{}", part.unwrap_err());
                }
            }
        }
    }
}
