//! Physics-once shared evaluation layer (DESIGN.md §17).
//!
//! Every device simulator splits its hot loop in two:
//!
//! 1. **Physics evaluation** — the actual forces/energies each simulated
//!    lane (SPE slice, fragment batch, MTA stream, Opteron row chunk) would
//!    compute. Under the replay memo this runs *once per step* through the
//!    kernels in this module, which batch the distance pass across 4 (f64)
//!    or 8 (f32) pair lanes.
//! 2. **Cost interpretation** — the device crate replays its cost model
//!    (cycles, DMA, mailboxes, fragment ops, stream schedules) against the
//!    evaluated row without re-touching positions or forces.
//!
//! The contract is the PR 5 observability guarantee extended to the memo:
//! memo-on and memo-off runs are **bitwise identical** in positions,
//! velocities, energies, sim-seconds, and perf counters at every thread
//! count. The kernels here guarantee their half of that contract by
//! construction: the batched distance pass performs exactly the per-pair
//! IEEE operations of each device's interpretive loop (same operations, same
//! associativity, same rounding), and the data-dependent accumulation runs
//! serially in ascending-j order over the surviving lanes. Restructuring
//! *across* pairs never changes *per-pair* rounding, so equality is an
//! identity, not a tolerance.
//!
//! Three per-device arithmetic flavors are provided:
//!
//! - [`host_row`] — the f64 select-form minimum image of
//!   [`crate::forces::gather_row`] (Opteron rows, MTA streams).
//! - [`cell_row`] — the Cell SPE `SimdAcceleration` variant: compare/select
//!   unit-cell shift, FMA accumulate, per-atom PE in the fourth lane.
//! - [`gpu_texel`] — the fragment shader's predicated sequential-conditional
//!   minimum image and `(d * f_over_r) * inv_mass` accumulate.
//!
//! On x86-64 hosts with AVX2 each flavor runs hand-written intrinsics with a
//! movemask early-skip of non-interacting lane groups; elsewhere the
//! portable [`vecmath::wide`] lanes execute the same batched structure. Both
//! paths are bitwise-equal to the scalar interpretive loops (pinned by unit
//! tests here and by `tests/shared_eval.rs` per device).
//!
//! Each row walks j in aligned blocks of 8 atoms. When the box spans at least
//! four cutoffs and every coordinate lies in `[0, L]`, the row visits only
//! the blocks the SoA's lazily built j-block index lists (`crate::cull`):
//! those whose minimum-image gap to the row's own block can reach the
//! cutoff, with a rounding margin so that no skipped block holds a pair whose
//! computed `r2` passes the cutoff test. The surviving pairs, their
//! arithmetic and their ascending-j order are those of the full scan, so a
//! culled row is bitwise the all-pairs row. This saves host time only: the
//! device cost replays still charge all N² pair tests. The unit tests below
//! compare every flavor with its scalar tail run from `j = 0`.
//!
//! This module evaluates physics only. It never charges simulated time or
//! cycles — sim-vet's eval-purity rule denies cost-charging calls here, so
//! the eval/cost split stays machine-enforced.

use crate::cull::{BlockCull, BLOCK};
use crate::forces::{GatherRow, SoaPositions};
use crate::scenario::Substrate;
use std::ops::{Add, Mul, Sub};
use vecmath::{pbc, Real, Vec3};
use vecmath::{F32x8, F64x4};

/// One row's wide distance pass: runs `$body` once per group of `$w` j-atoms
/// starting at `$k`. When the row's j-block list engages (`crate::cull`),
/// only the listed 8-atom blocks run, in ascending order; otherwise every
/// full group does. The groups of a trailing partial block run either way.
/// Evaluates to the first j of the scalar tail.
///
/// One `$body` serves both iterations, so a culled row and a full-scan row
/// share every pair's arithmetic and differ only in the blocks they skip —
/// blocks that hold no pair passing the cutoff test. A macro rather than a
/// closure: the body must inline into the AVX2 functions' target features.
/// The full scan keeps its own plain loop: at small N the per-block
/// bookkeeping of the culled loop costs more than the row's pair tests.
macro_rules! for_each_group {
    ($blocks:expr, $n:expr, $w:expr, |$k:ident| $body:block) => {{
        let n: usize = $n;
        let mut $k = 0usize;
        if let Some(blocks) = $blocks {
            // The AVX2 bodies load `$w` lanes at `$k` unchecked: every listed
            // block must lie inside `0..n`. Lists ascend, so the last bounds
            // them all.
            assert!(blocks.last().is_none_or(|&b| (b as usize + 1) * BLOCK <= n));
            for &b in blocks {
                $k = b as usize * BLOCK;
                for _ in 0..BLOCK / $w {
                    $body
                    $k += $w;
                }
            }
            $k = n / BLOCK * BLOCK;
        }
        while $k + $w <= n {
            $body
            $k += $w;
        }
        $k
    }};
}

impl SoaPositions<f64> {
    /// Atom `i`'s j-block list, or `None` for a full scan.
    #[inline(always)]
    fn blocks(&self, i: usize, box_len: f64, cutoff2: f64) -> Option<&[u32]> {
        self.cull
            .blocks([&self.x, &self.y, &self.z], i, box_len, cutoff2)
    }
}

/// Do the fused AVX2 kernels run on this host? (Cached feature probe;
/// portable wide lanes are used when false. Both paths are bitwise-equal, so
/// this only ever changes speed.)
pub fn wide_kernels_native() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Host flavor (f64): Opteron row chunks and MTA stream chunks.

/// Atom `i`'s gather row, bitwise identical to
/// [`crate::forces::gather_row`] but batched 4-wide.
///
/// The mixed-precision policy needs no special casing here: for `T = f64`
/// the widen/narrow steps of the mixed accumulator are identities, so the
/// native accumulation below already matches `gather_row`'s internal
/// dispatch bit for bit (pinned by a unit test).
#[inline]
pub fn host_row(
    soa: &SoaPositions<f64>,
    i: usize,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { host_row_avx2(soa, i, box_len, sub, inv_mass) };
    }
    host_row_batched(soa, i, box_len, sub, inv_mass)
}

/// Portable batched host row: the same structure as the AVX2 kernel, built
/// on [`vecmath::F64x4`] per-lane ops.
fn host_row_batched(
    soa: &SoaPositions<f64>,
    i: usize,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let (xi, yi, zi) = (soa.x[i], soa.y[i], soa.z[i]);
    let mut acc = Vec3::zero();
    let mut pe = 0.0f64;
    let mut interactions = 0u64;

    let l = F64x4::splat(box_len);
    let half = F64x4::splat(box_len * 0.5);
    let neg_half = F64x4::splat(-(box_len * 0.5));
    let vcut = F64x4::splat(cutoff2);
    let pxi = F64x4::splat(xi);
    let pyi = F64x4::splat(yi);
    let pzi = F64x4::splat(zi);

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 4, |k| {
        // Select-form minimum image, per lane exactly
        // `pbc::min_image_coord_select`.
        let fold = |pi: F64x4, src: &[f64]| -> F64x4 {
            let c = pi.sub(F64x4::from_slice(&src[k..]));
            let down = c.sub(l);
            let up = c.add(l);
            let folded = F64x4::select(c.cmp_gt(half), down, c);
            F64x4::select(c.cmp_lt(neg_half), up, folded)
        };
        let dx = fold(pxi, &soa.x);
        let dy = fold(pyi, &soa.y);
        let dz = fold(pzi, &soa.z);
        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
        let m = r2.cmp_lt(vcut);
        if m.any() {
            for lane in 0..4 {
                if m.test(lane) {
                    let r2v = r2.lane(lane);
                    if r2v != 0.0 {
                        let (e, f_over_r) = sub.energy_force(r2v);
                        pe += e;
                        let s = f_over_r * inv_mass;
                        acc.x += dx.lane(lane) * s;
                        acc.y += dy.lane(lane) * s;
                        acc.z += dz.lane(lane) * s;
                        interactions += 1;
                    }
                }
            }
        }
    });
    host_row_tail(
        soa,
        k,
        (xi, yi, zi),
        box_len,
        cutoff2,
        sub,
        inv_mass,
        &mut acc,
        &mut pe,
        &mut interactions,
    );
    GatherRow {
        acc,
        pe,
        interactions,
    }
}

/// Scalar remainder of a host row: atoms `k..n`, the exact
/// `gather_row` arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline]
fn host_row_tail(
    soa: &SoaPositions<f64>,
    mut k: usize,
    (xi, yi, zi): (f64, f64, f64),
    box_len: f64,
    cutoff2: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
    acc: &mut Vec3<f64>,
    pe: &mut f64,
    interactions: &mut u64,
) {
    let n = soa.len();
    while k < n {
        let dx = pbc::min_image_coord_select(xi - soa.x[k], box_len);
        let dy = pbc::min_image_coord_select(yi - soa.y[k], box_len);
        let dz = pbc::min_image_coord_select(zi - soa.z[k], box_len);
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 < cutoff2 && r2 != 0.0 {
            let (e, f_over_r) = sub.energy_force(r2);
            *pe += e;
            let s = f_over_r * inv_mass;
            acc.x += dx * s;
            acc.y += dy * s;
            acc.z += dz * s;
            *interactions += 1;
        }
        k += 1;
    }
}

/// Fused AVX2 host row: 4-wide distance pass with a movemask early-skip of
/// non-interacting lane groups, serial in-order accumulate of the survivors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn host_row_avx2(
    soa: &SoaPositions<f64>,
    i: usize,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let (xi, yi, zi) = (soa.x[i], soa.y[i], soa.z[i]);
    let mut acc = Vec3::zero();
    let mut pe = 0.0f64;
    let mut interactions = 0u64;

    let l = _mm256_set1_pd(box_len);
    let half = _mm256_set1_pd(box_len * 0.5);
    let neg_half = _mm256_set1_pd(-(box_len * 0.5));
    let vcut = _mm256_set1_pd(cutoff2);
    let pxi = _mm256_set1_pd(xi);
    let pyi = _mm256_set1_pd(yi);
    let pzi = _mm256_set1_pd(zi);

    let mut dxs = [0.0f64; 4];
    let mut dys = [0.0f64; 4];
    let mut dzs = [0.0f64; 4];
    let mut r2s = [0.0f64; 4];

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 4, |k| {
        macro_rules! axis {
            ($pi:expr, $src:expr) => {{
                let pj = _mm256_loadu_pd($src.as_ptr().add(k));
                let c = _mm256_sub_pd($pi, pj);
                let down = _mm256_sub_pd(c, l);
                let up = _mm256_add_pd(c, l);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(c, half);
                let folded = _mm256_blendv_pd(c, down, gt);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(c, neg_half);
                _mm256_blendv_pd(folded, up, lt)
            }};
        }
        let dx = axis!(pxi, soa.x);
        let dy = axis!(pyi, soa.y);
        let dz = axis!(pzi, soa.z);
        let r2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );
        let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(r2, vcut));
        if mask != 0 {
            _mm256_storeu_pd(dxs.as_mut_ptr(), dx);
            _mm256_storeu_pd(dys.as_mut_ptr(), dy);
            _mm256_storeu_pd(dzs.as_mut_ptr(), dz);
            _mm256_storeu_pd(r2s.as_mut_ptr(), r2);
            for lane in 0..4 {
                if mask & (1 << lane) != 0 {
                    let r2v = r2s[lane];
                    if r2v != 0.0 {
                        let (e, f_over_r) = sub.energy_force(r2v);
                        pe += e;
                        let s = f_over_r * inv_mass;
                        acc.x += dxs[lane] * s;
                        acc.y += dys[lane] * s;
                        acc.z += dzs[lane] * s;
                        interactions += 1;
                    }
                }
            }
        }
    });
    host_row_tail(
        soa,
        k,
        (xi, yi, zi),
        box_len,
        cutoff2,
        sub,
        inv_mass,
        &mut acc,
        &mut pe,
        &mut interactions,
    );
    GatherRow {
        acc,
        pe,
        interactions,
    }
}

// ---------------------------------------------------------------------------
// Single-precision SoA shared by the Cell and GPU flavors.

/// Positions in f32 structure-of-arrays layout, as the single-precision
/// device flavors consume them (built from local-store quads or position
/// texels; the fourth quad lane is padding on both devices).
///
/// Like [`SoaPositions`], the coordinates are read-only after construction
/// so the lazily built j-block index can never go stale.
#[derive(Clone, Debug, Default)]
pub struct SoaPositionsF32 {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    cull: BlockCull,
}

impl SoaPositionsF32 {
    /// Transpose `[x, y, z, pad]` quads (local-store image or texture).
    pub fn from_quads(quads: impl Iterator<Item = [f32; 4]>) -> Self {
        let mut soa = Self::default();
        for q in quads {
            soa.x.push(q[0]);
            soa.y.push(q[1]);
            soa.z.push(q[2]);
        }
        soa
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    pub fn x(&self) -> &[f32] {
        &self.x
    }

    pub fn y(&self) -> &[f32] {
        &self.y
    }

    pub fn z(&self) -> &[f32] {
        &self.z
    }

    /// Atom `i`'s j-block list, or `None` for a full scan.
    #[inline(always)]
    fn blocks(&self, i: usize, box_len: f32, cutoff2: f32) -> Option<&[u32]> {
        self.cull
            .blocks([&self.x, &self.y, &self.z], i, box_len, cutoff2)
    }
}

/// One SPE row evaluated by the shared kernel: the acceleration triple, the
/// atom's (unhalved) PE contribution — the value the SPE kernel stores in
/// the quad's fourth lane — and the interaction count the cost interpreter
/// charges per-interaction cycles for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellRow {
    pub acc: [f32; 3],
    pub pe: f32,
    pub interactions: u64,
}

// ---------------------------------------------------------------------------
// Cell flavor (f32): the SPE `SimdAcceleration` kernel arithmetic.

/// Atom `i`'s row exactly as the fully SIMDized SPE kernel
/// (`SpeKernelVariant::SimdAcceleration`) computes it: compare/select
/// unit-cell shift on all axes, `dir = pi - (pj + shift)`, left-folded dot,
/// and — for surviving pairs — FMA accumulation (native policy) or widened
/// f64 row sums narrowed once (mixed policy). The self-pair the interpretive
/// loop skips with a branch is excluded here by the `r2 > 0` predicate,
/// which rejects exactly the same pairs.
#[inline]
pub fn cell_row(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { cell_row_avx2(soa, i, box_len, sub, inv_mass) };
    }
    cell_row_batched(soa, i, box_len, sub, inv_mass)
}

/// Accumulator state for one cell row; finishes by narrowing the mixed
/// sums if the policy widened them.
struct CellAccum {
    mixed: bool,
    acc: [f32; 3],
    pe: f32,
    acc64: [f64; 3],
    pe64: f64,
    interactions: u64,
}

impl CellAccum {
    fn new(mixed: bool) -> Self {
        Self {
            mixed,
            acc: [0.0; 3],
            pe: 0.0,
            acc64: [0.0; 3],
            pe64: 0.0,
            interactions: 0,
        }
    }

    /// One surviving pair, exactly the SPE kernel's accumulate stage.
    #[inline]
    fn pair(&mut self, dir: [f32; 3], r2: f32, sub: &Substrate<f32>, inv_mass: f32) {
        self.interactions += 1;
        let (e, f_over_r) = sub.energy_force(r2);
        if self.mixed {
            self.pe64 += f64::from(e);
            let s = f_over_r * inv_mass;
            self.acc64[0] += f64::from(dir[0] * s);
            self.acc64[1] += f64::from(dir[1] * s);
            self.acc64[2] += f64::from(dir[2] * s);
        } else {
            self.pe += e;
            let s = f_over_r * inv_mass;
            // `F32x4::madd`: per-lane fused multiply-add.
            self.acc[0] = dir[0].mul_add(s, self.acc[0]);
            self.acc[1] = dir[1].mul_add(s, self.acc[1]);
            self.acc[2] = dir[2].mul_add(s, self.acc[2]);
        }
    }

    fn finish(self) -> CellRow {
        if self.mixed {
            CellRow {
                acc: [
                    f32::from_f64(self.acc64[0]),
                    f32::from_f64(self.acc64[1]),
                    f32::from_f64(self.acc64[2]),
                ],
                pe: f32::from_f64(self.pe64),
                interactions: self.interactions,
            }
        } else {
            CellRow {
                acc: self.acc,
                pe: self.pe,
                interactions: self.interactions,
            }
        }
    }
}

/// Scalar remainder of a cell row: atoms `k..n`, per-lane exactly the
/// `F32x4` compare/select arithmetic.
#[inline]
#[allow(clippy::too_many_arguments)]
fn cell_row_tail(
    soa: &SoaPositionsF32,
    mut k: usize,
    pi: [f32; 3],
    box_len: f32,
    cutoff2: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
    st: &mut CellAccum,
) {
    let n = soa.len();
    let l = box_len;
    let half_l = 0.5 * l;
    while k < n {
        let pj = [soa.x[k], soa.y[k], soa.z[k]];
        let mut dir = [0.0f32; 3];
        for a in 0..3 {
            let d = pi[a] - pj[a];
            let s1 = if d > half_l { l } else { 0.0 };
            let s2 = if -half_l > d { -l } else { 0.0 };
            let shift = s1 + s2;
            dir[a] = pi[a] - (pj[a] + shift);
        }
        let r2 = dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2];
        if r2 < cutoff2 && r2 > 0.0 {
            st.pair(dir, r2, sub, inv_mass);
        }
        k += 1;
    }
}

/// Portable batched cell row on [`vecmath::F32x8`] lanes.
fn cell_row_batched(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = CellAccum::new(sub.accumulate_f64);

    let l = F32x8::splat(box_len);
    let neg_l = F32x8::splat(-box_len);
    let half = F32x8::splat(0.5 * box_len);
    let neg_half = F32x8::splat(-(0.5 * box_len));
    let vcut = F32x8::splat(cutoff2);
    let px = [
        F32x8::splat(pi[0]),
        F32x8::splat(pi[1]),
        F32x8::splat(pi[2]),
    ];

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 8, |k| {
        let axis = |pa: F32x8, src: &[f32]| -> F32x8 {
            let pj = F32x8::from_slice(&src[k..]);
            let d = pa.sub(pj);
            let s1 = F32x8::select(d.cmp_gt(half), l, F32x8::ZERO);
            let s2 = F32x8::select(d.cmp_lt(neg_half), neg_l, F32x8::ZERO);
            let shift = s1.add(s2);
            pa.sub(pj.add(shift))
        };
        let dx = axis(px[0], &soa.x);
        let dy = axis(px[1], &soa.y);
        let dz = axis(px[2], &soa.z);
        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
        let m = r2.cmp_lt(vcut).and(r2.cmp_gt(F32x8::ZERO));
        if m.any() {
            for lane in 0..8 {
                if m.test(lane) {
                    st.pair(
                        [dx.lane(lane), dy.lane(lane), dz.lane(lane)],
                        r2.lane(lane),
                        sub,
                        inv_mass,
                    );
                }
            }
        }
    });
    cell_row_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

/// Fused AVX2 cell row: 8-wide f32 distance pass, movemask early-skip,
/// serial in-order accumulate of the survivors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cell_row_avx2(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = CellAccum::new(sub.accumulate_f64);

    let l = _mm256_set1_ps(box_len);
    let neg_l = _mm256_set1_ps(-box_len);
    let half = _mm256_set1_ps(0.5 * box_len);
    let neg_half = _mm256_set1_ps(-(0.5 * box_len));
    let vcut = _mm256_set1_ps(cutoff2);
    let zero = _mm256_setzero_ps();
    let pxi = _mm256_set1_ps(pi[0]);
    let pyi = _mm256_set1_ps(pi[1]);
    let pzi = _mm256_set1_ps(pi[2]);

    let mut dxs = [0.0f32; 8];
    let mut dys = [0.0f32; 8];
    let mut dzs = [0.0f32; 8];
    let mut r2s = [0.0f32; 8];

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 8, |k| {
        macro_rules! axis {
            ($pa:expr, $src:expr) => {{
                let pj = _mm256_loadu_ps($src.as_ptr().add(k));
                let d = _mm256_sub_ps($pa, pj);
                let hi = _mm256_cmp_ps::<_CMP_GT_OQ>(d, half);
                let lo = _mm256_cmp_ps::<_CMP_LT_OQ>(d, neg_half);
                let s1 = _mm256_blendv_ps(zero, l, hi);
                let s2 = _mm256_blendv_ps(zero, neg_l, lo);
                let shift = _mm256_add_ps(s1, s2);
                _mm256_sub_ps($pa, _mm256_add_ps(pj, shift))
            }};
        }
        let dx = axis!(pxi, soa.x);
        let dy = axis!(pyi, soa.y);
        let dz = axis!(pzi, soa.z);
        let r2 = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let keep = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(r2, vcut),
            _mm256_cmp_ps::<_CMP_GT_OQ>(r2, zero),
        );
        let mask = _mm256_movemask_ps(keep);
        if mask != 0 {
            _mm256_storeu_ps(dxs.as_mut_ptr(), dx);
            _mm256_storeu_ps(dys.as_mut_ptr(), dy);
            _mm256_storeu_ps(dzs.as_mut_ptr(), dz);
            _mm256_storeu_ps(r2s.as_mut_ptr(), r2);
            for lane in 0..8 {
                if mask & (1 << lane) != 0 {
                    st.pair([dxs[lane], dys[lane], dzs[lane]], r2s[lane], sub, inv_mass);
                }
            }
        }
    });
    cell_row_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

// ---------------------------------------------------------------------------
// GPU flavor (f32): the predicated fragment-shader arithmetic.

/// Atom `i`'s output texel `[ax, ay, az, pe]` exactly as the acceleration
/// shader computes it: sequential-conditional minimum image per axis (the
/// second compare tests the *updated* coordinate), predicated cutoff mask,
/// `(d[k] * f_over_r) * inv_mass` accumulation — native or mixed policy.
/// The self-pair is examined and predicated off, as on hardware.
#[inline]
pub fn gpu_texel(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { gpu_texel_avx2(soa, i, box_len, sub, inv_mass) };
    }
    gpu_texel_batched(soa, i, box_len, sub, inv_mass)
}

/// Accumulator state for one GPU texel.
struct GpuAccum {
    mixed: bool,
    acc: [f32; 3],
    pe: f32,
    acc64: [f64; 3],
    pe64: f64,
}

impl GpuAccum {
    fn new(mixed: bool) -> Self {
        Self {
            mixed,
            acc: [0.0; 3],
            pe: 0.0,
            acc64: [0.0; 3],
            pe64: 0.0,
        }
    }

    /// One surviving (unmasked) pair, exactly the shader's accumulate.
    #[inline]
    fn pair(&mut self, d: [f32; 3], r2: f32, sub: &Substrate<f32>, inv_mass: f32) {
        let (e, f_over_r) = sub.energy_force(r2);
        if self.mixed {
            self.pe64 += f64::from(e);
            for (acc, dk) in self.acc64.iter_mut().zip(d) {
                *acc += f64::from(dk * f_over_r * inv_mass);
            }
        } else {
            self.pe += e;
            for (acc, dk) in self.acc.iter_mut().zip(d) {
                *acc += dk * f_over_r * inv_mass;
            }
        }
    }

    fn finish(mut self) -> [f32; 4] {
        if self.mixed {
            for k in 0..3 {
                self.acc[k] = f32::from_f64(self.acc64[k]);
            }
            self.pe = f32::from_f64(self.pe64);
        }
        [self.acc[0], self.acc[1], self.acc[2], self.pe]
    }
}

/// Scalar remainder of a GPU texel: atoms `k..n`, the exact shader
/// arithmetic.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gpu_texel_tail(
    soa: &SoaPositionsF32,
    mut k: usize,
    pi: [f32; 3],
    box_len: f32,
    cutoff2: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
    st: &mut GpuAccum,
) {
    let n = soa.len();
    let l = box_len;
    let half_l = 0.5 * l;
    while k < n {
        let pj = [soa.x[k], soa.y[k], soa.z[k]];
        let mut d = [0.0f32; 3];
        for a in 0..3 {
            let mut dk = pi[a] - pj[a];
            dk += if dk > half_l { -l } else { 0.0 };
            dk += if dk < -half_l { l } else { 0.0 };
            d[a] = dk;
        }
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 < cutoff2 && r2 > 0.0 {
            st.pair(d, r2, sub, inv_mass);
        }
        k += 1;
    }
}

/// Portable batched GPU texel on [`vecmath::F32x8`] lanes.
fn gpu_texel_batched(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = GpuAccum::new(sub.accumulate_f64);

    let l = F32x8::splat(box_len);
    let neg_l = F32x8::splat(-box_len);
    let half = F32x8::splat(0.5 * box_len);
    let neg_half = F32x8::splat(-(0.5 * box_len));
    let vcut = F32x8::splat(cutoff2);
    let px = [
        F32x8::splat(pi[0]),
        F32x8::splat(pi[1]),
        F32x8::splat(pi[2]),
    ];

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 8, |k| {
        let axis = |pa: F32x8, src: &[f32]| -> F32x8 {
            let pj = F32x8::from_slice(&src[k..]);
            let c = pa.sub(pj);
            let c1 = c.add(F32x8::select(c.cmp_gt(half), neg_l, F32x8::ZERO));
            c1.add(F32x8::select(c1.cmp_lt(neg_half), l, F32x8::ZERO))
        };
        let dx = axis(px[0], &soa.x);
        let dy = axis(px[1], &soa.y);
        let dz = axis(px[2], &soa.z);
        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
        let m = r2.cmp_lt(vcut).and(r2.cmp_gt(F32x8::ZERO));
        if m.any() {
            for lane in 0..8 {
                if m.test(lane) {
                    st.pair(
                        [dx.lane(lane), dy.lane(lane), dz.lane(lane)],
                        r2.lane(lane),
                        sub,
                        inv_mass,
                    );
                }
            }
        }
    });
    gpu_texel_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

/// Fused AVX2 GPU texel: 8-wide f32 distance pass with the shader's
/// sequential-conditional minimum image, movemask early-skip, serial
/// in-order accumulate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gpu_texel_avx2(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = GpuAccum::new(sub.accumulate_f64);

    let l = _mm256_set1_ps(box_len);
    let neg_l = _mm256_set1_ps(-box_len);
    let half = _mm256_set1_ps(0.5 * box_len);
    let neg_half = _mm256_set1_ps(-(0.5 * box_len));
    let vcut = _mm256_set1_ps(cutoff2);
    let zero = _mm256_setzero_ps();
    let pxi = _mm256_set1_ps(pi[0]);
    let pyi = _mm256_set1_ps(pi[1]);
    let pzi = _mm256_set1_ps(pi[2]);

    let mut dxs = [0.0f32; 8];
    let mut dys = [0.0f32; 8];
    let mut dzs = [0.0f32; 8];
    let mut r2s = [0.0f32; 8];

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 8, |k| {
        macro_rules! axis {
            ($pa:expr, $src:expr) => {{
                let pj = _mm256_loadu_ps($src.as_ptr().add(k));
                let c = _mm256_sub_ps($pa, pj);
                let m1 = _mm256_cmp_ps::<_CMP_GT_OQ>(c, half);
                let c1 = _mm256_add_ps(c, _mm256_blendv_ps(zero, neg_l, m1));
                let m2 = _mm256_cmp_ps::<_CMP_LT_OQ>(c1, neg_half);
                _mm256_add_ps(c1, _mm256_blendv_ps(zero, l, m2))
            }};
        }
        let dx = axis!(pxi, soa.x);
        let dy = axis!(pyi, soa.y);
        let dz = axis!(pzi, soa.z);
        let r2 = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let keep = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(r2, vcut),
            _mm256_cmp_ps::<_CMP_GT_OQ>(r2, zero),
        );
        let mask = _mm256_movemask_ps(keep);
        if mask != 0 {
            _mm256_storeu_ps(dxs.as_mut_ptr(), dx);
            _mm256_storeu_ps(dys.as_mut_ptr(), dy);
            _mm256_storeu_ps(dzs.as_mut_ptr(), dz);
            _mm256_storeu_ps(r2s.as_mut_ptr(), r2);
            for lane in 0..8 {
                if mask & (1 << lane) != 0 {
                    st.pair([dxs[lane], dys[lane], dzs[lane]], r2s[lane], sub, inv_mass);
                }
            }
        }
    });
    gpu_texel_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

#[cfg(test)]
// Bitwise assertions are the point: the memo contract is exact equality,
// not tolerance (DESIGN.md §4, §17).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::forces::gather_row;
    use crate::init::initialize;
    use crate::params::SimConfig;
    use crate::scenario::{PrecisionPolicy, ScenarioSpec};
    use crate::system::ParticleSystem;

    fn host_setup(spec: ScenarioSpec) -> (ParticleSystem<f64>, Substrate<f64>, f64) {
        let cfg = SimConfig::reduced_lj(251).with_scenario(spec);
        let sys = initialize(&cfg);
        let sub = cfg.substrate::<f64>();
        let box_len = sys.box_len;
        (sys, sub, box_len)
    }

    #[test]
    fn host_row_bitwise_matches_gather_row() {
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let (sys, sub, l) = host_setup(spec);
            let soa = SoaPositions::from_positions(&sys.positions);
            let inv_m = sys.mass.recip();
            for i in 0..sys.n() {
                let a = gather_row(&soa, i, l, &sub, inv_m);
                let b = host_row(&soa, i, l, &sub, inv_m);
                assert_eq!(a.acc.x.to_bits(), b.acc.x.to_bits(), "row {i} x");
                assert_eq!(a.acc.y.to_bits(), b.acc.y.to_bits(), "row {i} y");
                assert_eq!(a.acc.z.to_bits(), b.acc.z.to_bits(), "row {i} z");
                assert_eq!(a.pe.to_bits(), b.pe.to_bits(), "row {i} pe");
                assert_eq!(a.interactions, b.interactions, "row {i} count");
            }
        }
    }

    #[test]
    fn host_row_portable_and_native_agree() {
        let (sys, sub, l) = host_setup(ScenarioSpec::default());
        let soa = SoaPositions::from_positions(&sys.positions);
        let inv_m = sys.mass.recip();
        for i in 0..sys.n() {
            let a = host_row_batched(&soa, i, l, &sub, inv_m);
            let b = host_row(&soa, i, l, &sub, inv_m);
            assert_eq!(a, b, "row {i}");
        }
    }

    fn f32_soa(n: usize) -> (SoaPositionsF32, f32) {
        let cfg = SimConfig::reduced_lj(n);
        let sys: ParticleSystem<f64> = initialize(&cfg);
        let soa = SoaPositionsF32::from_quads(
            sys.positions
                .iter()
                .map(|p| [p.x as f32, p.y as f32, p.z as f32, 0.0]),
        );
        (soa, sys.box_len as f32)
    }

    #[test]
    fn cell_row_portable_and_native_agree() {
        let (soa, l) = f32_soa(139);
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let sub: Substrate<f32> = spec.substrate(2.5);
            for i in 0..soa.len() {
                let a = cell_row_batched(&soa, i, l, &sub, 1.0);
                let b = cell_row(&soa, i, l, &sub, 1.0);
                assert_eq!(a, b, "row {i}");
            }
        }
    }

    #[test]
    fn gpu_texel_portable_and_native_agree() {
        let (soa, l) = f32_soa(139);
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let sub: Substrate<f32> = spec.substrate(2.5);
            for i in 0..soa.len() {
                let a = gpu_texel_batched(&soa, i, l, &sub, 1.0);
                let b = gpu_texel(&soa, i, l, &sub, 1.0);
                for k in 0..4 {
                    assert_eq!(a[k].to_bits(), b[k].to_bits(), "texel {i}.{k}");
                }
            }
        }
    }

    #[test]
    fn cell_and_gpu_rows_agree_loosely_on_physics() {
        // Different minimum-image formulations, same physics: the flavors
        // must agree to f32 tolerance even though they are not bitwise
        // comparable with each other.
        let (soa, l) = f32_soa(139);
        let sub: Substrate<f32> = ScenarioSpec::default().substrate(2.5);
        for i in 0..soa.len() {
            let c = cell_row(&soa, i, l, &sub, 1.0);
            let g = gpu_texel(&soa, i, l, &sub, 1.0);
            for (k, gk) in g.iter().enumerate().take(3) {
                assert!(
                    (c.acc[k] - gk).abs() <= 1e-3 * c.acc[k].abs().max(1.0),
                    "row {i} axis {k}: {} vs {gk}",
                    c.acc[k]
                );
            }
            assert!((c.pe - g[3]).abs() <= 1e-3 * c.pe.abs().max(1.0));
        }
    }

    // -----------------------------------------------------------------------
    // j-block culling is exact: every culled row equals the all-pairs row,
    // taken from the scalar tails run from j = 0 (the per-lane arithmetic
    // of each flavor with nothing skipped).

    /// Bit patterns of a row, so NaN and signed zeros compare exactly.
    fn host_bits(r: GatherRow<f64>) -> [u64; 5] {
        [
            r.acc.x.to_bits(),
            r.acc.y.to_bits(),
            r.acc.z.to_bits(),
            r.pe.to_bits(),
            r.interactions,
        ]
    }

    fn cell_bits(r: CellRow) -> [u64; 5] {
        let [x, y, z] = r.acc.map(|v| u64::from(v.to_bits()));
        [x, y, z, u64::from(r.pe.to_bits()), r.interactions]
    }

    fn gpu_bits(t: [f32; 4]) -> [u32; 4] {
        t.map(f32::to_bits)
    }

    fn host_all_pairs(
        soa: &SoaPositions<f64>,
        i: usize,
        l: f64,
        sub: &Substrate<f64>,
    ) -> GatherRow<f64> {
        let mut row = GatherRow::default();
        let pi = (soa.x()[i], soa.y()[i], soa.z()[i]);
        let c2 = sub.cutoff2();
        host_row_tail(
            soa,
            0,
            pi,
            l,
            c2,
            sub,
            1.0,
            &mut row.acc,
            &mut row.pe,
            &mut row.interactions,
        );
        row
    }

    fn cell_all_pairs(soa: &SoaPositionsF32, i: usize, l: f32, sub: &Substrate<f32>) -> CellRow {
        let mut st = CellAccum::new(sub.accumulate_f64);
        let pi = [soa.x()[i], soa.y()[i], soa.z()[i]];
        cell_row_tail(soa, 0, pi, l, sub.cutoff2(), sub, 1.0, &mut st);
        st.finish()
    }

    fn gpu_all_pairs(soa: &SoaPositionsF32, i: usize, l: f32, sub: &Substrate<f32>) -> [f32; 4] {
        let mut st = GpuAccum::new(sub.accumulate_f64);
        let pi = [soa.x()[i], soa.y()[i], soa.z()[i]];
        gpu_texel_tail(soa, 0, pi, l, sub.cutoff2(), sub, 1.0, &mut st);
        st.finish()
    }

    /// Which SoAs the cull index engaged on, for tests that pin it.
    #[derive(Debug, PartialEq)]
    struct Engaged {
        f64: bool,
        f32: bool,
    }

    /// Every row of every flavor, native and portable, against the
    /// all-pairs reference, bit for bit. Returns whether culling engaged
    /// and whether it skipped at least one block.
    fn assert_rows_exact(
        pos: &[[f64; 3]],
        l: f64,
        spec: ScenarioSpec,
        cutoff: f64,
    ) -> (Engaged, bool) {
        let soa = SoaPositions::from_positions(
            &pos.iter()
                .map(|p| Vec3::new(p[0], p[1], p[2]))
                .collect::<Vec<_>>(),
        );
        let soa32 = SoaPositionsF32::from_quads(
            pos.iter()
                .map(|p| [p[0] as f32, p[1] as f32, p[2] as f32, 0.0]),
        );
        let l32 = l as f32;
        let sub: Substrate<f64> = spec.substrate(cutoff);
        let sub32: Substrate<f32> = spec.substrate(cutoff);
        let full = pos.len() / BLOCK;
        let mut skipped = false;
        for i in 0..pos.len() {
            let want = host_bits(host_all_pairs(&soa, i, l, &sub));
            assert_eq!(
                want,
                host_bits(host_row(&soa, i, l, &sub, 1.0)),
                "host row {i}"
            );
            assert_eq!(
                want,
                host_bits(host_row_batched(&soa, i, l, &sub, 1.0)),
                "host row {i} portable"
            );
            let want = cell_bits(cell_all_pairs(&soa32, i, l32, &sub32));
            assert_eq!(
                want,
                cell_bits(cell_row(&soa32, i, l32, &sub32, 1.0)),
                "cell row {i}"
            );
            assert_eq!(
                want,
                cell_bits(cell_row_batched(&soa32, i, l32, &sub32, 1.0)),
                "cell row {i} portable"
            );
            let want = gpu_bits(gpu_all_pairs(&soa32, i, l32, &sub32));
            assert_eq!(
                want,
                gpu_bits(gpu_texel(&soa32, i, l32, &sub32, 1.0)),
                "gpu texel {i}"
            );
            assert_eq!(
                want,
                gpu_bits(gpu_texel_batched(&soa32, i, l32, &sub32, 1.0)),
                "gpu texel {i} portable"
            );
            for list in [
                soa.blocks(i, l, sub.cutoff2()),
                soa32.blocks(i, l32, sub32.cutoff2()),
            ]
            .into_iter()
            .flatten()
            {
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "row {i}: list ascends"
                );
                skipped |= list.len() < full;
            }
        }
        let engaged = Engaged {
            f64: soa.blocks(0, l, sub.cutoff2()).is_some(),
            f32: soa32.blocks(0, l32, sub32.cutoff2()).is_some(),
        };
        (engaged, skipped)
    }

    const ON: Engaged = Engaged {
        f64: true,
        f32: true,
    };
    const OFF: Engaged = Engaged {
        f64: false,
        f32: false,
    };

    #[test]
    fn culled_rows_are_all_pairs_rows_after_verlet_steps() {
        use crate::sim::Simulation;
        for n in [864, 2048] {
            for spec in [
                ScenarioSpec::default(),
                ScenarioSpec::morse_nvt(),
                ScenarioSpec::coulomb_cutoff(),
            ] {
                for precision in [PrecisionPolicy::Native, PrecisionPolicy::MixedF64Accumulate] {
                    let cfg =
                        SimConfig::reduced_lj(n).with_scenario(spec.with_precision(precision));
                    let mut sim = Simulation::<f64>::prepare(cfg);
                    sim.run(10);
                    let sys = &sim.system;
                    let pos: Vec<[f64; 3]> =
                        sys.positions.iter().map(|p| [p.x, p.y, p.z]).collect();
                    let ctx = format!("{n} atoms, {}", cfg.scenario_token());
                    let (engaged, skipped) =
                        assert_rows_exact(&pos, sys.box_len, cfg.scenario, cfg.cutoff);
                    assert_eq!(engaged, ON, "{ctx}");
                    assert!(skipped, "{ctx}: culling skipped nothing");
                }
            }
        }
    }

    #[test]
    fn culled_rows_are_exact_on_uniform_random_positions() {
        let mut rng = crate::rng::SplitMix64::new(15);
        let l = 12.0;
        let pos: Vec<[f64; 3]> = (0..1003)
            .map(|_| {
                [
                    rng.uniform(0.0, l),
                    rng.uniform(0.0, l),
                    rng.uniform(0.0, l),
                ]
            })
            .collect();
        let (engaged, _) = assert_rows_exact(&pos, l, ScenarioSpec::default(), 2.5);
        assert_eq!(engaged, ON);
    }

    /// Compact 8-atom clusters far apart, so culling skips most blocks,
    /// around pairs within `cutoff·(1 ∓ 2⁻²⁰)` of each other across the
    /// periodic x face, each pair split over a block boundary, plus
    /// coordinates exactly at 0 and at L.
    fn edge_case_positions(n: usize, l: f64, cutoff: f64) -> Vec<[f64; 3]> {
        let mut rng = crate::rng::SplitMix64::new(n as u64);
        let mut pos: Vec<[f64; 3]> = (0..n)
            .map(|j| {
                let c = (j / BLOCK) as f64 * 1.618;
                [c, c * 1.3, c * 1.7].map(|v| v % (l - 0.3) + rng.uniform(0.0, 0.3))
            })
            .collect();
        let inside = cutoff * (1.0 - 2f64.powi(-20));
        let outside = cutoff * (1.0 + 2f64.powi(-20));
        for (j, reach) in [(7, inside), (15, outside), (23, inside)] {
            pos[j] = [l - 0.5 * reach, 3.0, 3.0];
            pos[j + 1] = [0.5 * reach, 3.0, 3.0];
        }
        pos[2] = [0.0, 0.0, l];
        pos[3] = [l, l, 0.0];
        pos
    }

    #[test]
    fn cutoff_edge_pairs_across_a_face_and_a_block_boundary_are_exact() {
        let (l, cutoff) = (14.0, 2.5);
        for n in [40, 43, 45] {
            let pos = edge_case_positions(n, l, cutoff);
            let (engaged, skipped) = assert_rows_exact(&pos, l, ScenarioSpec::default(), cutoff);
            assert_eq!(engaged, ON, "{n} atoms");
            assert!(skipped, "{n} atoms: culling skipped nothing");
            // The f64 pair at cutoff·(1 − 2⁻²⁰) interacts, the one at
            // cutoff·(1 + 2⁻²⁰) does not.
            let sub: Substrate<f64> = ScenarioSpec::default().substrate(cutoff);
            let soa = SoaPositions::from_positions(
                &pos.iter()
                    .map(|p| Vec3::new(p[0], p[1], p[2]))
                    .collect::<Vec<_>>(),
            );
            let near = |i: usize, j: usize| {
                let one = SoaPositions::from_positions(&[
                    Vec3::new(pos[i][0], pos[i][1], pos[i][2]),
                    Vec3::new(pos[j][0], pos[j][1], pos[j][2]),
                ]);
                host_all_pairs(&one, 0, l, &sub).interactions == 1
            };
            assert!(near(7, 8) && near(23, 24) && !near(15, 16), "{n} atoms");
            assert!(host_row(&soa, 7, l, &sub, 1.0).interactions >= 1);
        }
    }

    /// Two blocks of 8 coincident atoms: `A` at `x = xa`, just inside the
    /// `x = L` face, and `B` at `x = xb`, just past `x = 0`. The block gap is
    /// then the pair distance itself, so only the block test's rounding
    /// allowances decide whether `B`'s block is visited.
    fn point_blocks(xa: f64, xb: f64) -> Vec<[f64; 3]> {
        let mut pos = vec![[xa, 1.0, 1.0]; BLOCK];
        pos.extend([[xb, 1.0, 1.0]; BLOCK]);
        pos
    }

    #[test]
    fn tight_block_gaps_keep_every_pair_that_passes() {
        let lj = ScenarioSpec::default();
        // f64: a pair 2⁻⁴⁰ inside the cutoff interacts.
        let (l, cutoff) = (14.0, 2.5);
        let half = 0.5 * cutoff * (1.0 - 2f64.powi(-40));
        let pos = point_blocks(l - half, half);
        assert_eq!(assert_rows_exact(&pos, l, lj, cutoff).0, ON);
        let sub: Substrate<f64> = lj.substrate(cutoff);
        let soa = SoaPositions::from_positions(
            &pos.iter()
                .map(|p| Vec3::new(p[0], p[1], p[2]))
                .collect::<Vec<_>>(),
        );
        assert_eq!(host_row(&soa, 0, l, &sub, 1.0).interactions, 8);

        // f32 at L = 10⁵σ: one ulp of L is 2⁻⁷σ, so rounding the fold can pull
        // a pair from beyond cutoff·(1 + 10⁻³) to inside the cutoff. The
        // per-axis slack must keep its block. The cutoff sits 7·10⁻⁴σ above
        // a grid point of the fold, which is where such pairs land.
        let (l, cutoff) = (1e5, 2.5007);
        let xa = f64::from((l - 1.25) as f32);
        let mut witnessed = false;
        for k in 0..200 {
            let xb = f64::from((1.2530 + 1e-5 * f64::from(k)) as f32);
            let pos = point_blocks(xa, xb);
            assert_eq!(assert_rows_exact(&pos, l, lj, cutoff).0, ON, "xb = {xb}");
            let soa32 = SoaPositionsF32::from_quads(
                pos.iter()
                    .map(|p| [p[0] as f32, p[1] as f32, p[2] as f32, 0.0]),
            );
            let sub32: Substrate<f32> = lj.substrate(cutoff);
            let exact = l - xa + xb;
            witnessed |= exact > cutoff * (1.0 + 1e-3)
                && gpu_all_pairs(&soa32, 0, l as f32, &sub32)[3] != 0.0;
        }
        assert!(
            witnessed,
            "no f32 pair beyond the margin rounded inside the cutoff"
        );
    }

    #[test]
    fn nan_or_out_of_box_coordinates_force_the_full_scan() {
        let (l, cutoff) = (14.0, 2.5);
        for bad in [f64::NAN, -1e-3, l + 1e-3, f64::INFINITY] {
            let mut pos = edge_case_positions(45, l, cutoff);
            pos[30][1] = bad;
            let (engaged, _) = assert_rows_exact(&pos, l, ScenarioSpec::default(), cutoff);
            assert_eq!(engaged, OFF, "coordinate {bad}");
        }
    }

    #[test]
    fn a_second_box_or_cutoff_on_the_same_soa_runs_the_full_scan() {
        let (l, cutoff) = (14.0, 2.5);
        let pos = edge_case_positions(43, l, cutoff);
        let soa = SoaPositions::from_positions(
            &pos.iter()
                .map(|p| Vec3::new(p[0], p[1], p[2]))
                .collect::<Vec<_>>(),
        );
        let soa32 = SoaPositionsF32::from_quads(
            pos.iter()
                .map(|p| [p[0] as f32, p[1] as f32, p[2] as f32, 0.0]),
        );
        let lj = ScenarioSpec::default();
        let (sub, sub32): (Substrate<f64>, Substrate<f32>) =
            (lj.substrate(cutoff), lj.substrate(cutoff));
        // The first call builds the index for (14, 2.5).
        assert!(soa.blocks(0, l, sub.cutoff2()).is_some());
        assert!(soa32.blocks(0, l as f32, sub32.cutoff2()).is_some());
        for (l2, cut2) in [(15.0, cutoff), (l, 3.0)] {
            let (sub, sub32): (Substrate<f64>, Substrate<f32>) =
                (lj.substrate(cut2), lj.substrate(cut2));
            let l32 = l2 as f32;
            assert!(soa.blocks(0, l2, sub.cutoff2()).is_none());
            assert!(soa32.blocks(0, l32, sub32.cutoff2()).is_none());
            for i in 0..pos.len() {
                let want = host_bits(host_all_pairs(&soa, i, l2, &sub));
                assert_eq!(
                    want,
                    host_bits(host_row(&soa, i, l2, &sub, 1.0)),
                    "host {i}"
                );
                let want = cell_bits(cell_all_pairs(&soa32, i, l32, &sub32));
                assert_eq!(
                    want,
                    cell_bits(cell_row(&soa32, i, l32, &sub32, 1.0)),
                    "cell {i}"
                );
                let want = gpu_bits(gpu_all_pairs(&soa32, i, l32, &sub32));
                assert_eq!(
                    want,
                    gpu_bits(gpu_texel(&soa32, i, l32, &sub32, 1.0)),
                    "gpu {i}"
                );
            }
        }
    }

    #[test]
    fn small_boxes_never_engage() {
        // Below 4·cutoff the rows run the full scan with no index at all.
        let pos = edge_case_positions(43, 9.99, 2.5);
        let (engaged, _) = assert_rows_exact(&pos, 9.99, ScenarioSpec::default(), 2.5);
        assert_eq!(engaged, OFF);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn culled_rows_are_all_pairs_rows(
                l in 3.0f64..40.0,
                cutoff in 0.5f64..4.0,
                frac in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..140),
            ) {
                // Sorted along x, so blocks are compact on one axis and the
                // index has something to skip.
                let mut pos: Vec<[f64; 3]> = frac.iter().map(|&(x, y, z)| [x * l, y * l, z * l]).collect();
                pos.sort_by(|a, b| a[0].total_cmp(&b[0]));
                let (engaged, _) = assert_rows_exact(&pos, l, ScenarioSpec::default(), cutoff);
                let wide = l >= 4.0 * cutoff;
                prop_assert_eq!(engaged.f64, wide);
            }
        }
    }

    #[test]
    fn self_pair_is_predicated_off() {
        let soa = SoaPositionsF32::from_quads([[5.0f32, 5.0, 5.0, 0.0]].into_iter());
        let sub: Substrate<f32> = ScenarioSpec::default().substrate(2.5);
        let t = gpu_texel(&soa, 0, 20.0, &sub, 1.0);
        assert_eq!(t, [0.0; 4]);
        let c = cell_row(&soa, 0, 20.0, &sub, 1.0);
        assert_eq!(c, CellRow::default());
    }
}
