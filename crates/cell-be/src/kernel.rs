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
//! Every variant computes the *same physics* on the *same local-store data*
//! (they differ in instruction selection, hence in cycle cost); tests verify
//! all six agree with the `md_core` reference kernel.

use crate::config::SpeCostModel;
use crate::localstore::{LocalStore, LsRegion};
use md_core::scenario::Substrate;
use std::ops::Range;
use vecmath::{F32x4, Real};

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

/// Work counters from one kernel invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    pub pairs_tested: u64,
    pub interactions: u64,
    /// SPE cycles charged by the cost model.
    pub cycles: f64, // sim-vet: allow(precision-discipline): simulated-time accounting, not kernel physics
}

impl KernelStats {
    /// Charge the slice's cycles in closed form from the work counts:
    /// per-atom row overhead, per-tested-pair cost, per-interaction cost.
    ///
    /// Both the interpretive kernels and the shared-eval replay charge
    /// through this one expression, so the memo's cycle replay is *bitwise*
    /// the interpretive charge — an f64 identity, not an approximation. (An
    /// incremental `cycles += …` per pair cannot be replayed exactly: with
    /// non-integral stage costs the running sum's rounding depends on the
    /// interleaving of row/pair/interaction charges.)
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

/// Compute accelerations for atoms `i_range`, scanning all `n_atoms`
/// positions stored in the local store (quadword layout `[x, y, z, 0]`).
/// Writes `[ax, ay, az, pe_i]` quads into `acc` (the per-atom PE rides in
/// the fourth lane, as on the GPU port) and returns the summed PE
/// contribution of the slice (each pair counted once per owning atom) plus
/// the work counters.
#[allow(clippy::too_many_arguments)]
pub fn compute_accelerations(
    ls: &mut LocalStore,
    pos: LsRegion,
    acc: LsRegion,
    i_range: Range<usize>,
    n_atoms: usize,
    params: SpeLanePhysics,
    variant: SpeKernelVariant,
    costs: &SpeCostModel,
) -> (f32, KernelStats) {
    let mut stats = KernelStats::default();
    let mut pe_slice = 0.0f32;

    let l = params.box_len;
    let half_l = 0.5 * l;
    let cutoff2 = params.sub.cutoff2();
    let mixed = params.sub.accumulate_f64;
    // Potential-evaluation cycles per interacting pair: the LJ baseline plus
    // whatever extra arithmetic the scenario's potential costs (zero for LJ,
    // so the default scenario's charges are bit-identical to the seed).
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
        let pi = ls.load_quad(pos, i);
        let pi_v = F32x4(pi);
        let mut acc_v = F32x4::ZERO;
        let mut pe_i = 0.0f32;
        // Mixed-precision accumulators (policy `mixed`): row sums carried in
        // f64 on the SPE's DP unit, narrowed once at the store.
        // sim-vet: begin-allow(precision-discipline): the mixed policy's DP accumulators are the point — the SPE's double-precision unit carries the row sums
        let mut acc64 = [0.0f64; 3];
        let mut pe64 = 0.0f64;
        // sim-vet: end-allow(precision-discipline)

        for j in 0..n_atoms {
            if j == i {
                continue;
            }
            stats.pairs_tested += 1;
            let pj = ls.load_quad(pos, j);

            // --- unit-cell reflection: correct pj to i's nearest image ---
            let pj_img: F32x4 = if variant.reflect_simd() {
                // All three axes at once: d = pi - pj, then shift pj by ±L
                // where |d| exceeds L/2, via compare + select (`selb`).
                let d = pi_v.sub(F32x4(pj));
                let hi = d.cmp_gt(F32x4::splat(half_l));
                let lo = F32x4::splat(-half_l).cmp_gt(d);
                let shift = F32x4::select(hi, F32x4::splat(l), F32x4::ZERO).add(F32x4::select(
                    lo,
                    F32x4::splat(-l),
                    F32x4::ZERO,
                ));
                F32x4(pj).add(shift)
            } else if variant.branch_free_reflect() {
                // Scalar copysign form per axis: n = trunc(|d|/L + ½)·sign(d).
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

                // --- force → acceleration conversion ---
                if mixed {
                    // sim-vet: begin-allow(precision-discipline): mixed policy widens per-pair contributions to the DP accumulators
                    pe64 += f64::from(e);
                    let s = f_over_r * params.inv_mass;
                    acc64[0] += f64::from(dir.lane(0) * s);
                    acc64[1] += f64::from(dir.lane(1) * s);
                    acc64[2] += f64::from(dir.lane(2) * s);
                    // sim-vet: end-allow(precision-discipline)
                } else if variant.accel_simd() {
                    pe_i += e;
                    acc_v = dir.madd(F32x4::splat(f_over_r * params.inv_mass), acc_v);
                } else {
                    pe_i += e;
                    let mut a = acc_v.0;
                    for (k, ak) in a.iter_mut().take(3).enumerate() {
                        *ak += dir.lane(k) * f_over_r * params.inv_mass;
                    }
                    acc_v = F32x4(a);
                }
            }
        }

        if mixed {
            acc_v = F32x4([
                f32::from_f64(acc64[0]),
                f32::from_f64(acc64[1]),
                f32::from_f64(acc64[2]),
                0.0,
            ]);
            pe_i = f32::from_f64(pe64);
        }
        pe_slice += pe_i;
        ls.store_quad(acc, i, [acc_v.lane(0), acc_v.lane(1), acc_v.lane(2), pe_i]);
    }
    stats.charge_closed_form(costs, rows, per_pair_cost, pot_cost + accel_cost);

    (pe_slice, stats)
}

/// Shared-eval replay of the fully SIMDized kernel
/// ([`SpeKernelVariant::SimdAcceleration`]): physics through
/// [`md_core::shared_eval::cell_row`] (the same per-pair IEEE operations,
/// batched 8-wide on the host), cycles charged in closed form from the same
/// work counts the interpretive loop would have accumulated. Bitwise
/// identical to `compute_accelerations` with the `SimdAcceleration` variant
/// in local-store contents, returned PE, and [`KernelStats`] — pinned by a
/// unit test below and end-to-end by `tests/shared_eval.rs`.
#[allow(clippy::too_many_arguments)]
pub fn compute_accelerations_shared(
    ls: &mut LocalStore,
    pos: LsRegion,
    acc: LsRegion,
    i_range: Range<usize>,
    n_atoms: usize,
    params: SpeLanePhysics,
    costs: &SpeCostModel,
) -> (f32, KernelStats) {
    let mut stats = KernelStats::default();
    let mut pe_slice = 0.0f32;

    let pot_cost = costs.lj_eval + params.sub.extra_eval_ops();
    let per_pair_cost = costs.reflect_simd
        + costs.direction_simd
        + costs.length_simd
        + costs.cutoff_test
        + costs.pair_loads;
    let rows = i_range.len() as u64;

    let soa = md_core::shared_eval::SoaPositionsF32::from_quads(
        (0..n_atoms).map(|j| ls.load_quad(pos, j)),
    );
    for i in i_range {
        let row =
            md_core::shared_eval::cell_row(&soa, i, params.box_len, &params.sub, params.inv_mass);
        // The interpretive loop skips the self-pair with a branch; the
        // shared kernel predicates it off. Tested-pair count is the same.
        stats.pairs_tested += n_atoms as u64 - 1;
        stats.interactions += row.interactions;
        pe_slice += row.pe;
        ls.store_quad(acc, i, [row.acc[0], row.acc[1], row.acc[2], row.pe]);
    }
    stats.charge_closed_form(costs, rows, per_pair_cost, pot_cost + costs.accel_simd);

    (pe_slice, stats)
}

/// Tiled acceleration kernel: compute the interactions of the SPE's own
/// atom slice (`pos_i`, global indices starting at `i_offset`) against one
/// *tile* of j-atoms (`pos_j`, global indices starting at `j_offset`),
/// accumulating into `acc` (one quad per local i atom, `[ax, ay, az, pe_i]`).
///
/// This is the streaming formulation a production Cell port needs once the
/// full position array no longer fits the 256 KB local store: j-atoms arrive
/// in DMA-sized tiles (double-buffered by the device layer) and partial
/// accelerations accumulate across tiles. The caller zeroes `acc` before the
/// first tile. The tiled port is built on the fully optimized
/// ([`SpeKernelVariant::SimdAcceleration`]) kernel and charges its costs.
#[allow(clippy::too_many_arguments)]
pub fn compute_accelerations_tiled(
    ls: &mut LocalStore,
    pos_i: LsRegion,
    i_offset: usize,
    i_count: usize,
    pos_j: LsRegion,
    j_offset: usize,
    j_count: usize,
    acc: LsRegion,
    params: SpeLanePhysics,
    costs: &SpeCostModel,
) -> (f32, KernelStats) {
    let mut stats = KernelStats::default();
    let mut pe_added = 0.0f32;

    let l = params.box_len;
    let half_l = 0.5 * l;
    let cutoff2 = params.sub.cutoff2();
    let mixed = params.sub.accumulate_f64;
    let per_pair_cost = costs.reflect_simd
        + costs.direction_simd
        + costs.length_simd
        + costs.cutoff_test
        + costs.pair_loads;
    let per_interact_cost = costs.lj_eval + costs.accel_simd + params.sub.extra_eval_ops();

    for ii in 0..i_count {
        let pi = F32x4(ls.load_quad(pos_i, ii));
        let mut acc_q = F32x4(ls.load_quad(acc, ii));
        // Mixed policy: this tile's contributions sum in f64, then fold into
        // the running f32 quad once per tile (the quad is the cross-tile
        // carrier, so narrowing happens at tile granularity).
        // sim-vet: allow(precision-discipline): mixed-policy tile accumulator runs on the SPE DP unit by design
        let mut acc64 = [0.0f64; 4];

        for jj in 0..j_count {
            if i_offset + ii == j_offset + jj {
                continue; // self-pair
            }
            stats.pairs_tested += 1;
            let pj = F32x4(ls.load_quad(pos_j, jj));

            let d = pi.sub(pj);
            let hi = d.cmp_gt(F32x4::splat(half_l));
            let lo = F32x4::splat(-half_l).cmp_gt(d);
            let shift = F32x4::select(hi, F32x4::splat(l), F32x4::ZERO).add(F32x4::select(
                lo,
                F32x4::splat(-l),
                F32x4::ZERO,
            ));
            let dir = pi.sub(pj.add(shift));
            let r2 = dir.dot3(dir);

            if r2 < cutoff2 && r2 > 0.0 {
                stats.interactions += 1;
                let (e, f_over_r) = params.sub.energy_force(r2);
                pe_added += e;
                if mixed {
                    // sim-vet: begin-allow(precision-discipline): mixed policy widens per-pair contributions to the DP accumulators
                    let s = f_over_r * params.inv_mass;
                    acc64[0] += f64::from(dir.lane(0) * s);
                    acc64[1] += f64::from(dir.lane(1) * s);
                    acc64[2] += f64::from(dir.lane(2) * s);
                    acc64[3] += f64::from(e);
                    // sim-vet: end-allow(precision-discipline)
                } else {
                    acc_q = dir.madd(F32x4::splat(f_over_r * params.inv_mass), acc_q);
                    acc_q = acc_q.with_lane(3, acc_q.lane(3) + e);
                }
            }
        }
        if mixed {
            acc_q = F32x4([
                acc_q.lane(0) + f32::from_f64(acc64[0]),
                acc_q.lane(1) + f32::from_f64(acc64[1]),
                acc_q.lane(2) + f32::from_f64(acc64[2]),
                acc_q.lane(3) + f32::from_f64(acc64[3]),
            ]);
        }
        ls.store_quad(acc, ii, acc_q.0);
    }
    stats.charge_closed_form(costs, i_count as u64, per_pair_cost, per_interact_cost);

    (pe_added, stats)
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
    use crate::localstore::LocalStore;
    use md_core::scenario::ScenarioSpec;

    /// Builds a small LS image from explicit positions.
    fn setup(
        positions: &[[f32; 3]],
        box_len: f32,
    ) -> (LocalStore, LsRegion, LsRegion, SpeLanePhysics) {
        let n = positions.len();
        let mut ls = LocalStore::new(64 * 1024);
        let pos = ls.alloc_quads(n).unwrap();
        let acc = ls.alloc_quads(n).unwrap();
        for (i, p) in positions.iter().enumerate() {
            ls.store_quad(pos, i, [p[0], p[1], p[2], 0.0]);
        }
        let params = SpeLanePhysics {
            sub: ScenarioSpec::default().substrate(2.5),
            box_len,
            inv_mass: 1.0,
        };
        (ls, pos, acc, params)
    }

    #[test]
    fn all_variants_agree_on_a_pair() {
        let costs = SpeCostModel::calibrated();
        let mut results = Vec::new();
        for v in SpeKernelVariant::ALL {
            let (mut ls, pos, acc, params) = setup(&[[1.0, 1.0, 1.0], [2.2, 1.0, 1.0]], 20.0);
            let (pe, stats) = compute_accelerations(&mut ls, pos, acc, 0..2, 2, params, v, &costs);
            let a0 = ls.load_quad(acc, 0);
            results.push((pe, a0, stats));
        }
        let (pe0, a0, _) = results[0];
        for (i, (pe, a, _)) in results.iter().enumerate() {
            assert!(
                (pe - pe0).abs() <= 1e-5 * pe0.abs().max(1.0),
                "variant {i} PE {pe} vs {pe0}"
            );
            for k in 0..3 {
                assert!(
                    (a[k] - a0[k]).abs() <= 1e-4 * a0[k].abs().max(1e-3),
                    "variant {i} acc[{k}] {} vs {}",
                    a[k],
                    a0[k]
                );
            }
        }
    }

    #[test]
    fn wraps_across_the_boundary() {
        // Atoms at x=0.5 and x=19.5 in a 20-box are 1.0 apart through the wall.
        let costs = SpeCostModel::calibrated();
        for v in SpeKernelVariant::ALL {
            let (mut ls, pos, acc, params) = setup(&[[0.5, 5.0, 5.0], [19.5, 5.0, 5.0]], 20.0);
            let (_, stats) = compute_accelerations(&mut ls, pos, acc, 0..2, 2, params, v, &costs);
            assert_eq!(stats.interactions, 2, "{v:?} must see the wrapped pair");
            let a0 = ls.load_quad(acc, 0);
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
        let costs = SpeCostModel::calibrated();
        let (mut ls, pos, acc, params) = setup(&[[1.0, 1.0, 1.0], [2.2, 1.0, 1.0]], 20.0);
        let (pe, _) = compute_accelerations(
            &mut ls,
            pos,
            acc,
            0..2,
            2,
            params,
            SpeKernelVariant::SimdAcceleration,
            &costs,
        );
        let a0 = ls.load_quad(acc, 0);
        let a1 = ls.load_quad(acc, 1);
        assert!((a0[3] + a1[3] - pe).abs() < 1e-6);
    }

    #[test]
    fn ladder_cycle_costs_strictly_decrease() {
        let costs = SpeCostModel::calibrated();
        let positions: Vec<[f32; 3]> = (0..32)
            .map(|i| {
                let f = i as f32;
                [f * 0.37 % 6.0, f * 0.73 % 6.0, f * 1.13 % 6.0]
            })
            .collect();
        let mut prev = f64::INFINITY;
        for v in SpeKernelVariant::ALL {
            let (mut ls, pos, acc, mut params) = setup(&positions, 6.0);
            params.sub = ScenarioSpec::default().substrate(2.0);
            let (_, stats) = compute_accelerations(&mut ls, pos, acc, 0..32, 32, params, v, &costs);
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
        let costs = SpeCostModel::calibrated();
        let positions: Vec<[f32; 3]> = (0..32)
            .map(|i| {
                let f = i as f32;
                [(f * 0.917) % 6.0, (f * 1.371) % 6.0, (f * 0.533) % 6.0]
            })
            .collect();
        let v = SpeKernelVariant::SimdAcceleration;

        let (mut ls_a, pos_a, acc_a, mut pa) = setup(&positions, 6.0);
        pa.sub = ScenarioSpec::default().substrate(2.0);
        let (pe_full, _) = compute_accelerations(&mut ls_a, pos_a, acc_a, 0..32, 32, pa, v, &costs);

        let (mut ls_b, pos_b, acc_b, mut pb) = setup(&positions, 6.0);
        pb.sub = ScenarioSpec::default().substrate(2.0);
        let (pe1, _) = compute_accelerations(&mut ls_b, pos_b, acc_b, 0..16, 32, pb, v, &costs);
        let (pe2, _) = compute_accelerations(&mut ls_b, pos_b, acc_b, 16..32, 32, pb, v, &costs);

        assert!((pe_full - (pe1 + pe2)).abs() < 1e-4 * pe_full.abs().max(1.0));
        for i in 0..32 {
            let a = ls_a.load_quad(acc_a, i);
            let b = ls_b.load_quad(acc_b, i);
            for k in 0..4 {
                assert_eq!(a[k], b[k], "atom {i} lane {k}");
            }
        }
    }

    #[test]
    fn shared_eval_replay_is_bitwise_identical() {
        // The memo contract: physics through the shared batched kernel plus
        // closed-form cycle charging must equal the interpretive
        // `SimdAcceleration` loop exactly — LS contents, PE, and stats.
        let costs = SpeCostModel::calibrated();
        let positions: Vec<[f32; 3]> = (0..67)
            .map(|i| {
                let f = i as f32;
                [(f * 0.917) % 6.0, (f * 1.371) % 6.0, (f * 0.533) % 6.0]
            })
            .collect();
        let n = positions.len();
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::default()
                .with_precision(md_core::scenario::PrecisionPolicy::MixedF64Accumulate),
        ] {
            let (mut ls_a, pos_a, acc_a, mut pa) = setup(&positions, 6.0);
            pa.sub = spec.substrate(2.0);
            let (pe_a, st_a) = compute_accelerations(
                &mut ls_a,
                pos_a,
                acc_a,
                0..n,
                n,
                pa,
                SpeKernelVariant::SimdAcceleration,
                &costs,
            );
            let (mut ls_b, pos_b, acc_b, mut pb) = setup(&positions, 6.0);
            pb.sub = spec.substrate(2.0);
            let (pe_b, st_b) =
                compute_accelerations_shared(&mut ls_b, pos_b, acc_b, 0..n, n, pb, &costs);
            assert_eq!(pe_a.to_bits(), pe_b.to_bits());
            assert_eq!(st_a.pairs_tested, st_b.pairs_tested);
            assert_eq!(st_a.interactions, st_b.interactions);
            assert_eq!(st_a.cycles.to_bits(), st_b.cycles.to_bits());
            for i in 0..n {
                let a = ls_a.load_quad(acc_a, i);
                let b = ls_b.load_quad(acc_b, i);
                for k in 0..4 {
                    assert_eq!(a[k].to_bits(), b[k].to_bits(), "atom {i} lane {k}");
                }
            }
        }
    }

    #[test]
    fn empty_range_does_nothing() {
        let costs = SpeCostModel::calibrated();
        let (mut ls, pos, acc, params) = setup(&[[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]], 20.0);
        let (pe, stats) = compute_accelerations(
            &mut ls,
            pos,
            acc,
            1..1,
            2,
            params,
            SpeKernelVariant::Original,
            &costs,
        );
        assert_eq!(pe, 0.0);
        assert_eq!(stats.pairs_tested, 0);
        assert_eq!(stats.cycles, 0.0);
    }
}
