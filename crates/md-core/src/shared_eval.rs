//! Physics-once shared evaluation layer (DESIGN.md §17).
//!
//! Every device simulator splits its hot loop in two:
//!
//! 1. **Physics evaluation** — the actual forces/energies each simulated
//!    lane (SPE slice, fragment batch, MTA stream, Opteron row chunk) would
//!    compute. This runs *once per step* through the kernels in this
//!    module, which batch the distance pass across 4 (f64) or 8 (f32) pair
//!    lanes. It is every device's one production force path.
//! 2. **Cost interpretation** — the device crate replays its cost model
//!    (cycles, DMA, mailboxes, fragment ops, stream schedules) against the
//!    evaluated row without re-touching positions or forces.
//!
//! The contract: a device run through these kernels is **bitwise
//! identical** to the per-pair interpretive loop it replaced — positions,
//! velocities, energies, sim-seconds, and perf counters, at every thread
//! count (pinned end to end by the golden device matrix,
//! `tests/golden/device_matrix.json`). The kernels here guarantee their half
//! of that contract by construction: the batched distance pass performs
//! exactly the per-pair IEEE operations of each device's scalar reference
//! (same operations, same associativity, same rounding), and the
//! data-dependent accumulation runs serially in ascending-j order over the
//! surviving pairs. Restructuring *across* pairs never changes *per-pair*
//! rounding, so equality is an identity, not a tolerance.
//!
//! Three per-device arithmetic flavors are provided:
//!
//! - [`host_row`] — the f64 select-form minimum image of
//!   [`crate::reference::gather_row`] (Opteron rows, MTA streams).
//! - [`cell_stage_row`] — the Cell SPE kernel at any Figure 5 stage:
//!   compare/select unit-cell shift at the stage's threshold, FMA (SIMD
//!   acceleration stage) or `(d * f_over_r) * inv_mass` (earlier stages)
//!   accumulate, per-atom PE in the fourth lane. [`cell_row`] is its fully
//!   SIMDized stage.
//! - [`gpu_texel`] — the fragment shader's predicated sequential-conditional
//!   minimum image and `(d * f_over_r) * inv_mass` accumulate.
//!
//! Every row runs in two steps, **pack then drain**. The wide distance pass
//! writes each pair that passes the cutoff test — its displacement and `r2`
//! — into a fixed-size stack chunk, in ascending j, with no branch on the
//! data. Each flavor's drain then empties the chunk in two passes, with the
//! precision policy and the potential resolved once per drain, not per
//! pair: one branch-free loop evaluates every pair's `energy_force` into
//! stack arrays (it vectorizes), then one serial loop accumulates the pairs
//! in order. A full chunk is drained mid-row and refilled, so the pair set,
//! the per-pair arithmetic and the summation order are those of the scalar
//! loop.
//!
//! On x86-64 hosts with AVX2 and FMA each flavor's distance pass runs
//! hand-written intrinsics (its selects as bit masks, which round
//! identically) and packs survivors with a permute table; the drain is
//! compiled with AVX2 and FMA, so its potential pass runs four f64 or eight
//! f32 pairs per instruction and the Cell's `mul_add` is one `vfmadd`
//! (exactly rounded, as the portable build's `fmaf` call is). Elsewhere the
//! portable [`vecmath::wide`] lanes run the same distance pass and pack by
//! writing every lane and advancing by its predicate bit. Both paths share
//! the drain and are bitwise-equal to the scalar references (pinned by unit
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
use crate::device::HostParallelism;
use crate::forces::{GatherRow, SoaPositions};
use crate::parallel::map_indexed;
use crate::scenario::{PairFnUser, Substrate};
use crate::system::ParticleSystem;
use std::mem::MaybeUninit;
use std::ops::{Add, Mul, Sub};
use vecmath::{pbc, Real};
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

/// Do the fused AVX2 kernels run on this host? They need both `avx2` (the
/// distance pass and the pack) and `fma` (the drain's inline `vfmadd`).
/// Cached feature probe; the portable wide lanes run when it is false. Both
/// paths are bitwise-equal, so this only ever changes speed.
pub fn wide_kernels_native() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static NATIVE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *NATIVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Pack then drain: the chunk every flavor's row fills and empties.

/// Pairs a chunk collects before the row drains it.
const CHUNK: usize = 64;

/// Chunk capacity: one wide group (at most 8 lanes) stored at `len < CHUNK`.
const CAP: usize = CHUNK + 8;

/// One row's surviving pairs, packed in ascending j into a stack chunk:
/// each pair's minimum-image displacement and its `r2`, exactly as the
/// distance pass computed them.
///
/// The push methods are the only writers of `len`, and keep two invariants:
/// - every entry below `len` has been written;
/// - `len < CHUNK` between pushes: each push ends by draining the chunk once
///   it holds `CHUNK` pairs, so a whole group stored at `len` fits in `CAP`.
///
/// [`Packed::chunk`] relies on the first to read the entries, the AVX2 push
/// on the second for its unchecked stores.
struct Packed<'a, T> {
    buf: &'a mut ChunkBuf<T>,
    len: usize,
}

/// The stack chunk a [`Packed`] row fills. It starts uninitialized: zeroing
/// its 1–2 kB on every row cost 7–13% of a row. It is a value of its own so
/// that the drain sees the buffer while the running `len` stays in a
/// register.
struct ChunkBuf<T> {
    dx: [MaybeUninit<T>; CAP],
    dy: [MaybeUninit<T>; CAP],
    dz: [MaybeUninit<T>; CAP],
    r2: [MaybeUninit<T>; CAP],
}

impl<T: Copy> ChunkBuf<T> {
    fn new() -> Self {
        Self {
            dx: [MaybeUninit::uninit(); CAP],
            dy: [MaybeUninit::uninit(); CAP],
            dz: [MaybeUninit::uninit(); CAP],
            r2: [MaybeUninit::uninit(); CAP],
        }
    }
}

impl<'a, T: Copy> Packed<'a, T> {
    fn new(buf: &'a mut ChunkBuf<T>) -> Self {
        Self { buf, len: 0 }
    }

    /// The pairs packed so far.
    #[inline(always)]
    fn chunk(&self) -> Chunk<'_, T> {
        let n = self.len;
        // SAFETY: the entries below `len` have been written (see `Packed`).
        let init = |a| unsafe { written(a, n) };
        Chunk {
            dx: init(&self.buf.dx),
            dy: init(&self.buf.dy),
            dz: init(&self.buf.dz),
            r2: init(&self.buf.r2),
        }
    }

    #[inline(always)]
    fn drain_if_full(&mut self, drain: &mut impl FnMut(Chunk<'_, T>)) {
        if self.len >= CHUNK {
            drain(self.chunk());
            self.len = 0;
        }
    }

    /// Portable pack of one group of `W` pairs: writes every lane and
    /// advances by its keep bit, so no branch depends on the data.
    #[inline(always)]
    fn push<const W: usize>(
        &mut self,
        [dx, dy, dz]: [[T; W]; 3],
        r2: [T; W],
        keep: [bool; W],
        drain: &mut impl FnMut(Chunk<'_, T>),
    ) {
        for lane in 0..W {
            let at = self.len;
            self.buf.dx[at].write(dx[lane]);
            self.buf.dy[at].write(dy[lane]);
            self.buf.dz[at].write(dz[lane]);
            self.buf.r2[at].write(r2[lane]);
            self.len += usize::from(keep[lane]);
        }
        self.drain_if_full(drain);
    }
}

/// The first `n` entries of a stack array, as initialized values.
///
/// # Safety
/// Entries `0..n` must have been written.
#[inline(always)]
unsafe fn written<T>(a: &[MaybeUninit<T>; CAP], n: usize) -> &[T] {
    let a = &a[..n];
    // SAFETY: the caller wrote every entry of `a`, and `MaybeUninit<T>` has
    // the layout of `T`.
    unsafe { std::slice::from_raw_parts(a.as_ptr().cast::<T>(), n) }
}

/// The pairs one drain absorbs, in ascending j. Handed over as slices, so
/// the pack's running length never leaves a register.
#[derive(Clone, Copy)]
struct Chunk<'a, T> {
    dx: &'a [T],
    dy: &'a [T],
    dz: &'a [T],
    r2: &'a [T],
}

impl<T: Copy> Chunk<'_, T> {
    /// One drain in two passes. The potential pass evaluates `pair(r2)` for
    /// every pair of the chunk into stack arrays, in one loop with no store
    /// or exit that depends on the data: every packed pair has
    /// `0 < r2 < cutoff2`, so `energy_force`'s guard never fires, and LLVM
    /// runs the loop several pairs per instruction (packed divides and
    /// square roots; Morse's `exp` stays a scalar call). The accumulate pass
    /// then hands `each` every pair's displacement and `(e, f)`, in
    /// ascending j. Each pair runs exactly the IEEE operations of a per-pair
    /// call, so only the schedule changes.
    #[inline(always)]
    fn two_pass(self, pair: impl Fn(T) -> (T, T), mut each: impl FnMut([T; 3], T, T)) {
        let n = self.r2.len();
        // Per pair, the energy and a force factor.
        let (mut e, mut f) = ([MaybeUninit::uninit(); CAP], [MaybeUninit::uninit(); CAP]);
        for ((ek, fk), &r2) in e[..n].iter_mut().zip(&mut f[..n]).zip(self.r2) {
            let (ev, fv) = pair(r2);
            ek.write(ev);
            fk.write(fv);
        }
        // SAFETY: the potential pass wrote entries `0..n` of both arrays.
        let (e, f) = unsafe { (written(&e, n), written(&f, n)) };
        let d = self.dx.iter().zip(self.dy).zip(self.dz);
        for (((&dx, &dy), &dz), (&e, &f)) in d.zip(e.iter().zip(f)) {
            each([dx, dy, dz], e, f);
        }
    }
}

/// Per keep mask, the `_mm256_permutevar8x32_ps` indices that move the kept
/// pairs of a group to the front in lane order, and how many pairs it keeps
/// (a table load is cheaper than a popcount without the `popcnt` feature). A
/// register's eight 32-bit slots hold 4 f64 pairs (`M = 16` masks) or 8 f32
/// pairs (`M = 256`).
#[cfg(target_arch = "x86_64")]
#[repr(align(32))]
struct PackLut<const M: usize> {
    idx: [[i32; 8]; M],
    kept: [u8; M],
}

#[cfg(target_arch = "x86_64")]
impl<const M: usize> PackLut<M> {
    const fn new() -> Self {
        let slots = 8 / M.trailing_zeros() as usize;
        let mut idx = [[0i32; 8]; M];
        let mut kept = [0u8; M];
        let mut mask = 0;
        while mask < M {
            let mut out = 0;
            let mut lane = 0;
            while lane * slots < 8 {
                if mask & (1 << lane) != 0 {
                    let mut s = 0;
                    while s < slots {
                        idx[mask][out] = (lane * slots + s) as i32;
                        out += 1;
                        s += 1;
                    }
                }
                lane += 1;
            }
            kept[mask] = (out / slots) as u8;
            mask += 1;
        }
        Self { idx, kept }
    }
}

#[cfg(target_arch = "x86_64")]
static PACK_F64: PackLut<16> = PackLut::new();
#[cfg(target_arch = "x86_64")]
static PACK_F32: PackLut<256> = PackLut::new();

#[cfg(target_arch = "x86_64")]
impl<T: Copy> Packed<'_, T> {
    /// AVX2 pack of one group (`dx, dy, dz, r2`, one register each): the
    /// table row for `mask` moves the kept pairs to the front with one
    /// permute per register, the whole register is stored at `len`, and
    /// `len` advances by the number kept.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn push_avx2<const M: usize>(
        &mut self,
        lut: &PackLut<M>,
        lanes: [std::arch::x86_64::__m256; 4],
        mask: i32,
        drain: &mut impl FnMut(Chunk<'_, T>),
    ) {
        use std::arch::x86_64::{_mm256_load_si256, _mm256_permutevar8x32_ps, _mm256_storeu_ps};
        // A register holds `log2(M) ≤ 8` pairs of `T`, so a store at
        // `len < CHUNK` ends inside `CAP = CHUNK + 8`.
        assert!(M <= 256 && size_of::<T>() * M.trailing_zeros() as usize == 32);
        let mask = mask as usize & (M - 1);
        // Aligned load: the table is `repr(align(32))` with 32-byte rows.
        let idx = _mm256_load_si256(lut.idx[mask].as_ptr().cast());
        let len = self.len;
        let buf = &mut *self.buf;
        for (dst, v) in [&mut buf.dx, &mut buf.dy, &mut buf.dz, &mut buf.r2]
            .into_iter()
            .zip(lanes)
        {
            // SAFETY: `len < CHUNK` on entry (see `Packed`) and the store is
            // one group of at most 8 pairs (asserted above).
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(len).cast(),
                _mm256_permutevar8x32_ps(v, idx),
            );
        }
        self.len = len + usize::from(lut.kept[mask]);
        self.drain_if_full(drain);
    }
}

/// One drain: a row's accumulator `A` and the chunk it absorbs. Each
/// flavor's `PairFnUser` impl is its one dense accumulate loop, handed the
/// resolved pair function by [`Substrate::with_energy_force`].
struct Drain<'a, A, T> {
    st: &'a mut A,
    chunk: Chunk<'a, T>,
    inv_mass: T,
}

/// The drain compiled with AVX2 and FMA, for the native rows. Only the
/// instruction selection differs from the portable build: the potential
/// pass runs on 256-bit registers, and `mul_add` becomes `vfmadd` instead
/// of an `fmaf` call; both are exactly rounded.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn drain_fma<T: Real, U: PairFnUser<T, Out = ()>>(sub: &Substrate<T>, drain: U) {
    sub.with_energy_force(drain);
}

// ---------------------------------------------------------------------------
// Host flavor (f64): Opteron row chunks and MTA stream chunks.

/// Atom `i`'s gather row, bitwise identical to
/// [`crate::reference::gather_row`] but batched 4-wide.
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
        // SAFETY: AVX2 and FMA support was verified at runtime just above.
        return unsafe { host_row_avx2(soa, i, box_len, sub, inv_mass) };
    }
    host_row_batched(soa, i, box_len, sub, inv_mass)
}

/// One f64 force evaluation over every atom of `sys`: each atom's
/// [`host_row`] as an order-preserving indexed map on `par`, folded serially
/// in atom order. Overwrites `sys.accelerations`; returns the potential
/// energy and the number of in-cutoff (ordered) pairs. Bitwise
/// [`crate::reference::forces`] at any host parallelism.
///
/// [`crate::sim::Simulation`] and the Opteron both evaluate through this,
/// so `mdea run` and the Opteron compute the same trajectory bit for bit.
pub fn host_forces(
    sys: &mut ParticleSystem<f64>,
    sub: &Substrate<f64>,
    par: HostParallelism,
) -> (f64, u64) {
    let l = sys.box_len;
    let inv_m = sys.mass.recip();
    let soa = SoaPositions::from_positions(&sys.positions);
    let rows = map_indexed(par, sys.n(), |i| host_row(&soa, i, l, sub, inv_m));
    let mut pe_twice = 0.0f64;
    let mut interactions = 0u64;
    for (i, row) in rows.into_iter().enumerate() {
        sys.accelerations[i] = row.acc;
        pe_twice += row.pe;
        interactions += row.interactions;
    }
    (pe_twice * 0.5, interactions)
}

/// The host drain: `gather_row`'s per-pair arithmetic, with
/// `s = f_over_r * inv_mass` in the potential pass, then accumulated in
/// order.
impl PairFnUser<f64> for Drain<'_, GatherRow<f64>, f64> {
    type Out = ();

    #[inline(always)]
    fn with(self, energy_force: impl Fn(f64) -> (f64, f64)) {
        let (row, inv_mass) = (self.st, self.inv_mass);
        let (mut acc, mut pe) = (row.acc, row.pe);
        let pair = |r2| {
            let (e, f_over_r) = energy_force(r2);
            (e, f_over_r * inv_mass)
        };
        self.chunk.two_pass(pair, |[dx, dy, dz], e, s| {
            pe += e;
            acc.x += dx * s;
            acc.y += dy * s;
            acc.z += dz * s;
        });
        row.acc = acc;
        row.pe = pe;
        row.interactions += self.chunk.r2.len() as u64;
    }
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
    let pi = (soa.x[i], soa.y[i], soa.z[i]);
    let (xi, yi, zi) = pi;
    let mut row = GatherRow::default();
    let mut drain = |chunk: Chunk<'_, f64>| {
        sub.with_energy_force(Drain {
            st: &mut row,
            chunk,
            inv_mass,
        });
    };
    let mut buf = ChunkBuf::new();
    let mut pack = Packed::new(&mut buf);

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
        let keep = r2.cmp_lt(vcut).and(r2.cmp_gt(F64x4::ZERO));
        pack.push([dx.0, dy.0, dz.0], r2.0, keep.0, &mut drain);
    });
    host_row_tail(soa, k, pi, box_len, cutoff2, &mut pack, &mut drain);
    drain(pack.chunk());
    row
}

/// Scalar remainder of a host row: packs atoms `k..n` with the exact
/// `gather_row` arithmetic. `r2` is a sum of squares, so `r2 > 0` is
/// `gather_row`'s `r2 != 0`.
#[inline]
fn host_row_tail(
    soa: &SoaPositions<f64>,
    mut k: usize,
    (xi, yi, zi): (f64, f64, f64),
    box_len: f64,
    cutoff2: f64,
    pack: &mut Packed<'_, f64>,
    drain: &mut impl FnMut(Chunk<'_, f64>),
) {
    let n = soa.len();
    while k < n {
        let dx = pbc::min_image_coord_select(xi - soa.x[k], box_len);
        let dy = pbc::min_image_coord_select(yi - soa.y[k], box_len);
        let dz = pbc::min_image_coord_select(zi - soa.z[k], box_len);
        let r2 = dx * dx + dy * dy + dz * dz;
        pack.push([[dx], [dy], [dz]], [r2], [r2 < cutoff2 && r2 > 0.0], drain);
        k += 1;
    }
}

/// Fused AVX2 host row: 4-wide distance pass, permute-table pack of the
/// survivors, FMA-compiled in-order drain.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn host_row_avx2(
    soa: &SoaPositions<f64>,
    i: usize,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_castpd_ps, _mm256_cmp_pd,
        _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = (soa.x[i], soa.y[i], soa.z[i]);
    let (xi, yi, zi) = pi;
    let mut row = GatherRow::default();
    let mut drain = |chunk: Chunk<'_, f64>| {
        let drain = Drain {
            st: &mut row,
            chunk,
            inv_mass,
        };
        // SAFETY: this row runs only where AVX2 and FMA are present.
        unsafe { drain_fma(sub, drain) };
    };
    let mut buf = ChunkBuf::new();
    let mut pack = Packed::new(&mut buf);

    let l = _mm256_set1_pd(box_len);
    let neg_l = _mm256_set1_pd(-box_len);
    let half = _mm256_set1_pd(box_len * 0.5);
    let neg_half = _mm256_set1_pd(-(box_len * 0.5));
    let vcut = _mm256_set1_pd(cutoff2);
    let zero = _mm256_setzero_pd();
    let pxi = _mm256_set1_pd(xi);
    let pyi = _mm256_set1_pd(yi);
    let pzi = _mm256_set1_pd(zi);

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 4, |k| {
        macro_rules! axis {
            ($pi:expr, $src:expr) => {{
                let pj = _mm256_loadu_pd($src.as_ptr().add(k));
                let c = _mm256_sub_pd($pi, pj);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(c, half);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(c, neg_half);
                // The select form as `c - shift`, `shift` masked from
                // {L, -L, 0} (the `lt` case wins, as its select is last):
                // `c - L` is `down`, `c - (-L)` is exactly `up = c + L`, and
                // `c - 0` is `c`, -0 and NaN included.
                let shift_l = _mm256_andnot_pd(lt, _mm256_and_pd(gt, l));
                _mm256_sub_pd(c, _mm256_or_pd(shift_l, _mm256_and_pd(lt, neg_l)))
            }};
        }
        let dx = axis!(pxi, soa.x);
        let dy = axis!(pyi, soa.y);
        let dz = axis!(pzi, soa.z);
        let r2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );
        let keep = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(r2, vcut),
            _mm256_cmp_pd::<_CMP_GT_OQ>(r2, zero),
        );
        let lanes = [dx, dy, dz, r2].map(|v| _mm256_castpd_ps(v));
        pack.push_avx2(&PACK_F64, lanes, _mm256_movemask_pd(keep), &mut drain);
    });
    host_row_tail(soa, k, pi, box_len, cutoff2, &mut pack, &mut drain);
    drain(pack.chunk());
    row
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

/// Row sums of a single-precision flavor.
#[derive(Default)]
struct Sums32 {
    acc: [f32; 3],
    pe: f32,
}

impl Sums32 {
    /// The native accumulate `a += (d * f_over_r) * inv_mass` of one chunk:
    /// the GPU shader's and the SPE kernel's scalar stages'.
    #[inline(always)]
    fn add_unfused(
        &mut self,
        chunk: Chunk<'_, f32>,
        energy_force: impl Fn(f32) -> (f32, f32),
        inv_mass: f32,
    ) {
        let (mut acc, mut pe) = (self.acc, self.pe);
        chunk.two_pass(energy_force, |[dx, dy, dz], e, f_over_r| {
            pe += e;
            acc[0] += dx * f_over_r * inv_mass;
            acc[1] += dy * f_over_r * inv_mass;
            acc[2] += dz * f_over_r * inv_mass;
        });
        (self.acc, self.pe) = (acc, pe);
    }
}

// ---------------------------------------------------------------------------
// Cell flavor (f32): the SPE kernel arithmetic at each Figure 5 stage.

/// The two choices that tell the SPE kernel's Figure 5 stages apart in a
/// row's arithmetic (`cell_be::SpeKernelVariant` maps each variant to one).
/// The stages' other differences — scalar or SIMD direction and length —
/// perform the same IEEE operations, so they change only the cycle charge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellStage {
    /// The unit-cell reflect shifts an axis gap `d = pi - pj` by `+L` where
    /// `d > reflect_above` and by `-L` where `d < -reflect_above`.
    pub reflect_above: f32,
    /// The accumulate: `a = fma(d, f_over_r * inv_mass, a)` (the SIMD
    /// acceleration stage) if set, else `a += (d * f_over_r) * inv_mass`
    /// (the scalar stages, as the GPU shader sums).
    pub fused: bool,
}

impl CellStage {
    /// The fully SIMDized kernel: compare/select at `L/2`, FMA accumulate.
    pub fn simd(box_len: f32) -> Self {
        Self {
            reflect_above: 0.5 * box_len,
            fused: true,
        }
    }
}

/// Atom `i`'s row exactly as the fully SIMDized SPE kernel
/// (`SpeKernelVariant::SimdAcceleration`) computes it: [`cell_stage_row`] at
/// [`CellStage::simd`].
#[inline]
pub fn cell_row(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    cell_stage_row(soa, i, box_len, sub, inv_mass, CellStage::simd(box_len))
}

/// Atom `i`'s row exactly as the SPE kernel at `stage` computes it:
/// compare/select unit-cell shift on all axes at `stage.reflect_above`,
/// `dir = pi - (pj + shift)`, left-folded dot, and — for surviving pairs —
/// the stage's accumulate. The self-pair the per-pair loop skips with a
/// branch is excluded here by the `r2 > 0` predicate, which rejects exactly
/// the same pairs.
#[inline]
pub fn cell_stage_row(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
    stage: CellStage,
) -> CellRow {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 and FMA support was verified at runtime just above.
        return unsafe { cell_row_avx2(soa, i, box_len, sub, inv_mass, stage) };
    }
    cell_row_batched(soa, i, box_len, sub, inv_mass, stage)
}

/// Accumulator of one cell row.
struct CellAccum {
    sums: Sums32,
    fused: bool,
    interactions: u64,
}

impl CellAccum {
    fn new(fused: bool) -> Self {
        Self {
            sums: Sums32::default(),
            fused,
            interactions: 0,
        }
    }

    fn finish(self) -> CellRow {
        CellRow {
            acc: self.sums.acc,
            pe: self.sums.pe,
            interactions: self.interactions,
        }
    }
}

/// The cell drain: the SPE kernel's per-pair arithmetic, with
/// `s = f_over_r * inv_mass` in the potential pass (fused sums), then its
/// accumulate stage in order.
impl PairFnUser<f32> for Drain<'_, CellAccum, f32> {
    type Out = ();

    #[inline(always)]
    fn with(self, energy_force: impl Fn(f32) -> (f32, f32)) {
        let (st, inv_mass) = (self.st, self.inv_mass);
        st.interactions += self.chunk.r2.len() as u64;
        let sums = &mut st.sums;
        if !st.fused {
            sums.add_unfused(self.chunk, energy_force, inv_mass);
            return;
        }
        let pair = |r2| {
            let (e, f_over_r) = energy_force(r2);
            (e, f_over_r * inv_mass)
        };
        let (mut acc, mut pe) = (sums.acc, sums.pe);
        self.chunk.two_pass(pair, |[dx, dy, dz], e, s| {
            pe += e;
            // The SPE's per-lane fused multiply-add.
            acc[0] = dx.mul_add(s, acc[0]);
            acc[1] = dy.mul_add(s, acc[1]);
            acc[2] = dz.mul_add(s, acc[2]);
        });
        (sums.acc, sums.pe) = (acc, pe);
    }
}

/// Scalar remainder of a cell row: packs atoms `k..n`, per lane exactly the
/// SPE's compare/select arithmetic, shifting where `|d| > half_l`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn cell_row_tail(
    soa: &SoaPositionsF32,
    mut k: usize,
    pi: [f32; 3],
    box_len: f32,
    half_l: f32,
    cutoff2: f32,
    pack: &mut Packed<'_, f32>,
    drain: &mut impl FnMut(Chunk<'_, f32>),
) {
    let n = soa.len();
    let l = box_len;
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
        pack.push(dir.map(|d| [d]), [r2], [r2 < cutoff2 && r2 > 0.0], drain);
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
    stage: CellStage,
) -> CellRow {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = CellAccum::new(stage.fused);
    let mut drain = |chunk: Chunk<'_, f32>| {
        sub.with_energy_force(Drain {
            st: &mut st,
            chunk,
            inv_mass,
        });
    };
    let mut buf = ChunkBuf::new();
    let mut pack = Packed::new(&mut buf);

    let l = F32x8::splat(box_len);
    let neg_l = F32x8::splat(-box_len);
    let half = F32x8::splat(stage.reflect_above);
    let neg_half = F32x8::splat(-stage.reflect_above);
    let vcut = F32x8::splat(cutoff2);
    let px = pi.map(F32x8::splat);

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
        let keep = r2.cmp_lt(vcut).and(r2.cmp_gt(F32x8::ZERO));
        pack.push([dx.0, dy.0, dz.0], r2.0, keep.0, &mut drain);
    });
    let half_l = stage.reflect_above;
    cell_row_tail(soa, k, pi, box_len, half_l, cutoff2, &mut pack, &mut drain);
    drain(pack.chunk());
    st.finish()
}

/// Fused AVX2 cell row: 8-wide f32 distance pass, permute-table pack of the
/// survivors, FMA-compiled in-order drain.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn cell_row_avx2(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
    stage: CellStage,
) -> CellRow {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = CellAccum::new(stage.fused);
    let mut drain = |chunk: Chunk<'_, f32>| {
        let drain = Drain {
            st: &mut st,
            chunk,
            inv_mass,
        };
        // SAFETY: this row runs only where AVX2 and FMA are present.
        unsafe { drain_fma(sub, drain) };
    };
    let mut buf = ChunkBuf::new();
    let mut pack = Packed::new(&mut buf);

    let l = _mm256_set1_ps(box_len);
    let neg_l = _mm256_set1_ps(-box_len);
    let half = _mm256_set1_ps(stage.reflect_above);
    let neg_half = _mm256_set1_ps(-stage.reflect_above);
    let vcut = _mm256_set1_ps(cutoff2);
    let zero = _mm256_setzero_ps();
    let pxi = _mm256_set1_ps(pi[0]);
    let pyi = _mm256_set1_ps(pi[1]);
    let pzi = _mm256_set1_ps(pi[2]);

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 8, |k| {
        macro_rules! axis {
            ($pa:expr, $src:expr) => {{
                let pj = _mm256_loadu_ps($src.as_ptr().add(k));
                let d = _mm256_sub_ps($pa, pj);
                let hi = _mm256_cmp_ps::<_CMP_GT_OQ>(d, half);
                let lo = _mm256_cmp_ps::<_CMP_LT_OQ>(d, neg_half);
                let s1 = _mm256_and_ps(hi, l);
                let s2 = _mm256_and_ps(lo, neg_l);
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
        pack.push_avx2(
            &PACK_F32,
            [dx, dy, dz, r2],
            _mm256_movemask_ps(keep),
            &mut drain,
        );
    });
    let half_l = stage.reflect_above;
    cell_row_tail(soa, k, pi, box_len, half_l, cutoff2, &mut pack, &mut drain);
    drain(pack.chunk());
    st.finish()
}

// ---------------------------------------------------------------------------
// GPU flavor (f32): the predicated fragment-shader arithmetic.

/// Atom `i`'s output texel `[ax, ay, az, pe]` exactly as the acceleration
/// shader computes it: sequential-conditional minimum image per axis (the
/// second compare tests the *updated* coordinate), predicated cutoff mask,
/// `(d[k] * f_over_r) * inv_mass` accumulation.
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
        // SAFETY: AVX2 and FMA support was verified at runtime just above.
        return unsafe { gpu_texel_avx2(soa, i, box_len, sub, inv_mass) };
    }
    gpu_texel_batched(soa, i, box_len, sub, inv_mass)
}

/// Accumulator of one GPU texel.
struct GpuAccum(Sums32);

impl GpuAccum {
    fn finish(self) -> [f32; 4] {
        let Sums32 { acc, pe } = self.0;
        [acc[0], acc[1], acc[2], pe]
    }
}

/// The GPU drain: the shader's unmasked-pair accumulate, in order. The
/// potential pass keeps `f_over_r` alone: the shader scales
/// `(d * f_over_r) * inv_mass`, and folding `inv_mass` in first would
/// round differently.
impl PairFnUser<f32> for Drain<'_, GpuAccum, f32> {
    type Out = ();

    #[inline(always)]
    fn with(self, energy_force: impl Fn(f32) -> (f32, f32)) {
        self.st
            .0
            .add_unfused(self.chunk, energy_force, self.inv_mass);
    }
}

/// Scalar remainder of a GPU texel: packs atoms `k..n` with the exact
/// shader arithmetic.
#[inline]
fn gpu_texel_tail(
    soa: &SoaPositionsF32,
    mut k: usize,
    pi: [f32; 3],
    box_len: f32,
    cutoff2: f32,
    pack: &mut Packed<'_, f32>,
    drain: &mut impl FnMut(Chunk<'_, f32>),
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
        pack.push(d.map(|d| [d]), [r2], [r2 < cutoff2 && r2 > 0.0], drain);
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
    let mut st = GpuAccum(Sums32::default());
    let mut drain = |chunk: Chunk<'_, f32>| {
        sub.with_energy_force(Drain {
            st: &mut st,
            chunk,
            inv_mass,
        });
    };
    let mut buf = ChunkBuf::new();
    let mut pack = Packed::new(&mut buf);

    let l = F32x8::splat(box_len);
    let neg_l = F32x8::splat(-box_len);
    let half = F32x8::splat(0.5 * box_len);
    let neg_half = F32x8::splat(-(0.5 * box_len));
    let vcut = F32x8::splat(cutoff2);
    let px = pi.map(F32x8::splat);

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
        let keep = r2.cmp_lt(vcut).and(r2.cmp_gt(F32x8::ZERO));
        pack.push([dx.0, dy.0, dz.0], r2.0, keep.0, &mut drain);
    });
    gpu_texel_tail(soa, k, pi, box_len, cutoff2, &mut pack, &mut drain);
    drain(pack.chunk());
    st.finish()
}

/// Fused AVX2 GPU texel: 8-wide f32 distance pass with the shader's
/// sequential-conditional minimum image, permute-table pack of the
/// survivors, FMA-compiled in-order drain.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gpu_texel_avx2(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = GpuAccum(Sums32::default());
    let mut drain = |chunk: Chunk<'_, f32>| {
        let drain = Drain {
            st: &mut st,
            chunk,
            inv_mass,
        };
        // SAFETY: this row runs only where AVX2 and FMA are present.
        unsafe { drain_fma(sub, drain) };
    };
    let mut buf = ChunkBuf::new();
    let mut pack = Packed::new(&mut buf);

    let l = _mm256_set1_ps(box_len);
    let neg_l = _mm256_set1_ps(-box_len);
    let half = _mm256_set1_ps(0.5 * box_len);
    let neg_half = _mm256_set1_ps(-(0.5 * box_len));
    let vcut = _mm256_set1_ps(cutoff2);
    let zero = _mm256_setzero_ps();
    let pxi = _mm256_set1_ps(pi[0]);
    let pyi = _mm256_set1_ps(pi[1]);
    let pzi = _mm256_set1_ps(pi[2]);

    let k = for_each_group!(soa.blocks(i, box_len, cutoff2), n, 8, |k| {
        macro_rules! axis {
            ($pa:expr, $src:expr) => {{
                let pj = _mm256_loadu_ps($src.as_ptr().add(k));
                let c = _mm256_sub_ps($pa, pj);
                let m1 = _mm256_cmp_ps::<_CMP_GT_OQ>(c, half);
                let c1 = _mm256_add_ps(c, _mm256_and_ps(m1, neg_l));
                let m2 = _mm256_cmp_ps::<_CMP_LT_OQ>(c1, neg_half);
                _mm256_add_ps(c1, _mm256_and_ps(m2, l))
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
        pack.push_avx2(
            &PACK_F32,
            [dx, dy, dz, r2],
            _mm256_movemask_ps(keep),
            &mut drain,
        );
    });
    gpu_texel_tail(soa, k, pi, box_len, cutoff2, &mut pack, &mut drain);
    drain(pack.chunk());
    st.finish()
}

#[cfg(test)]
// Bitwise assertions are the point: the shared-eval contract is exact
// equality, not tolerance (DESIGN.md §4, §17).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::params::SimConfig;
    use crate::reference::gather_row;
    use crate::scenario::ScenarioSpec;
    use vecmath::Vec3;

    fn host_setup(spec: ScenarioSpec) -> (ParticleSystem<f64>, Substrate<f64>, f64) {
        let cfg = SimConfig::reduced_lj(251).with_scenario(spec);
        let sys = initialize(&cfg);
        let sub = cfg.substrate::<f64>();
        let box_len = sys.box_len;
        (sys, sub, box_len)
    }

    #[test]
    fn host_row_bitwise_matches_gather_row() {
        for spec in [ScenarioSpec::default(), ScenarioSpec::morse_nvt()] {
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
    fn host_forces_are_the_reference_forces_at_any_parallelism() {
        // 864 atoms: the box spans four cutoffs, so the rows cull.
        for spec in every_scenario() {
            let cfg = SimConfig::reduced_lj(864).with_scenario(spec);
            let sub = cfg.substrate::<f64>();
            let mut want: ParticleSystem<f64> = initialize(&cfg);
            let pe = crate::reference::forces(&mut want, &sub);
            for par in [HostParallelism::Serial, HostParallelism::Threads(3)] {
                let mut got: ParticleSystem<f64> = initialize(&cfg);
                let (got_pe, _) = host_forces(&mut got, &sub, par);
                assert_eq!(got_pe.to_bits(), pe.to_bits(), "{spec} {par:?}");
                assert_eq!(got.accelerations, want.accelerations, "{spec} {par:?}");
            }
        }
    }

    fn soa_f64(pos: &[[f64; 3]]) -> SoaPositions<f64> {
        let v: Vec<Vec3<f64>> = pos.iter().map(|p| Vec3::new(p[0], p[1], p[2])).collect();
        SoaPositions::from_positions(&v)
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
    // Every row is exact: native and portable rows, culled or not, equal the
    // all-pairs row packed by the flavor's scalar tail from j = 0, and that
    // equals a plain per-pair loop sharing no pack or drain code
    // (`gather_row` for the host flavor).

    /// The mass factor of the exactness tests: not 1, so an accumulate that
    /// regroups `d * f * inv_mass` shows.
    const INV_MASS: f64 = 0.37;

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
        let mut drain = |chunk: Chunk<'_, f64>| {
            sub.with_energy_force(Drain {
                st: &mut row,
                chunk,
                inv_mass: INV_MASS,
            });
        };
        let mut buf = ChunkBuf::new();
        let mut pack = Packed::new(&mut buf);
        let pi = (soa.x()[i], soa.y()[i], soa.z()[i]);
        host_row_tail(soa, 0, pi, l, sub.cutoff2(), &mut pack, &mut drain);
        drain(pack.chunk());
        row
    }

    fn cell_all_pairs(
        soa: &SoaPositionsF32,
        i: usize,
        l: f32,
        sub: &Substrate<f32>,
        stage: CellStage,
    ) -> CellRow {
        let mut st = CellAccum::new(stage.fused);
        let mut drain = |chunk: Chunk<'_, f32>| {
            sub.with_energy_force(Drain {
                st: &mut st,
                chunk,
                inv_mass: INV_MASS as f32,
            });
        };
        let mut buf = ChunkBuf::new();
        let mut pack = Packed::new(&mut buf);
        let pi = [soa.x()[i], soa.y()[i], soa.z()[i]];
        let half_l = stage.reflect_above;
        cell_row_tail(soa, 0, pi, l, half_l, sub.cutoff2(), &mut pack, &mut drain);
        drain(pack.chunk());
        st.finish()
    }

    fn gpu_all_pairs(soa: &SoaPositionsF32, i: usize, l: f32, sub: &Substrate<f32>) -> [f32; 4] {
        let mut st = GpuAccum(Sums32::default());
        let mut drain = |chunk: Chunk<'_, f32>| {
            sub.with_energy_force(Drain {
                st: &mut st,
                chunk,
                inv_mass: INV_MASS as f32,
            });
        };
        let mut buf = ChunkBuf::new();
        let mut pack = Packed::new(&mut buf);
        let pi = [soa.x()[i], soa.y()[i], soa.z()[i]];
        gpu_texel_tail(soa, 0, pi, l, sub.cutoff2(), &mut pack, &mut drain);
        drain(pack.chunk());
        st.finish()
    }

    /// The SPE kernel's scalar loop: per pair, the compare/select shift and,
    /// for a surviving pair, the accumulate stage (FMA or unfused).
    fn cell_reference(
        soa: &SoaPositionsF32,
        i: usize,
        l: f32,
        sub: &Substrate<f32>,
        stage: CellStage,
    ) -> CellRow {
        let (half_l, inv_mass) = (stage.reflect_above, INV_MASS as f32);
        let pi = [soa.x()[i], soa.y()[i], soa.z()[i]];
        let (mut acc, mut pe) = ([0.0f32; 3], 0.0f32);
        let mut interactions = 0;
        for j in 0..soa.len() {
            let pj = [soa.x()[j], soa.y()[j], soa.z()[j]];
            let dir: [f32; 3] = std::array::from_fn(|a| {
                let d = pi[a] - pj[a];
                let s1 = if d > half_l { l } else { 0.0 };
                let s2 = if -half_l > d { -l } else { 0.0 };
                pi[a] - (pj[a] + (s1 + s2))
            });
            let r2 = dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2];
            if !(r2 < sub.cutoff2() && r2 > 0.0) {
                continue;
            }
            interactions += 1;
            let (e, f_over_r) = sub.energy_force(r2);
            pe += e;
            for a in 0..3 {
                acc[a] = if stage.fused {
                    dir[a].mul_add(f_over_r * inv_mass, acc[a])
                } else {
                    acc[a] + dir[a] * f_over_r * inv_mass
                };
            }
        }
        CellRow {
            acc,
            pe,
            interactions,
        }
    }

    /// The fragment shader's scalar loop: per pair, the sequential
    /// conditional minimum image and, for an unmasked pair, the accumulate.
    fn gpu_reference(soa: &SoaPositionsF32, i: usize, l: f32, sub: &Substrate<f32>) -> [f32; 4] {
        let (half_l, inv_mass) = (0.5 * l, INV_MASS as f32);
        let pi = [soa.x()[i], soa.y()[i], soa.z()[i]];
        let (mut acc, mut pe) = ([0.0f32; 3], 0.0f32);
        for j in 0..soa.len() {
            let pj = [soa.x()[j], soa.y()[j], soa.z()[j]];
            let d: [f32; 3] = std::array::from_fn(|a| {
                let mut dk = pi[a] - pj[a];
                dk += if dk > half_l { -l } else { 0.0 };
                dk += if dk < -half_l { l } else { 0.0 };
                dk
            });
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if !(r2 < sub.cutoff2() && r2 > 0.0) {
                continue;
            }
            let (e, f_over_r) = sub.energy_force(r2);
            pe += e;
            for a in 0..3 {
                acc[a] += d[a] * f_over_r * inv_mass;
            }
        }
        [acc[0], acc[1], acc[2], pe]
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
        let soa = soa_f64(pos);
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
                host_bits(gather_row(&soa, i, l, &sub, INV_MASS)),
                "host row {i} per-pair reference"
            );
            assert_eq!(
                want,
                host_bits(host_row(&soa, i, l, &sub, INV_MASS)),
                "host row {i}"
            );
            assert_eq!(
                want,
                host_bits(host_row_batched(&soa, i, l, &sub, INV_MASS)),
                "host row {i} portable"
            );
            // The SIMD stage, and an unfused stage whose reflect threshold
            // sits an ulp below L/2 (as the copysign stage's does).
            let below_half = f32::from_bits((0.5 * l32).to_bits() - 1);
            for stage in [
                CellStage::simd(l32),
                CellStage {
                    reflect_above: below_half,
                    fused: false,
                },
            ] {
                let want = cell_bits(cell_all_pairs(&soa32, i, l32, &sub32, stage));
                assert_eq!(
                    want,
                    cell_bits(cell_reference(&soa32, i, l32, &sub32, stage)),
                    "cell row {i} per-pair reference, {stage:?}"
                );
                let m = INV_MASS as f32;
                assert_eq!(
                    want,
                    cell_bits(cell_stage_row(&soa32, i, l32, &sub32, m, stage)),
                    "cell row {i}, {stage:?}"
                );
                assert_eq!(
                    want,
                    cell_bits(cell_row_batched(&soa32, i, l32, &sub32, m, stage)),
                    "cell row {i} portable, {stage:?}"
                );
            }
            let want = gpu_bits(gpu_all_pairs(&soa32, i, l32, &sub32));
            assert_eq!(
                want,
                gpu_bits(gpu_reference(&soa32, i, l32, &sub32)),
                "gpu texel {i} per-pair reference"
            );
            assert_eq!(
                want,
                gpu_bits(gpu_texel(&soa32, i, l32, &sub32, INV_MASS as f32)),
                "gpu texel {i}"
            );
            assert_eq!(
                want,
                gpu_bits(gpu_texel_batched(&soa32, i, l32, &sub32, INV_MASS as f32)),
                "gpu texel {i} portable"
            );
            for (list, cull) in [
                (soa.blocks(i, l, sub.cutoff2()), &soa.cull),
                (soa32.blocks(i, l32, sub32.cutoff2()), &soa32.cull),
            ] {
                let Some(list) = list else { continue };
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "row {i}: list ascends"
                );
                skipped |= list.len() < full;
                // The portable and (where it runs) the native builder list
                // the same blocks.
                let fresh = cull.fresh_lists(i);
                assert!(!fresh.is_empty(), "row {i}: index engaged");
                for rebuilt in fresh {
                    assert_eq!(&*rebuilt, list, "row {i}: rebuilt list");
                }
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

    /// 864 and 2,048 atoms are whole cubes; the 1,024-atom lattice's z-rows
    /// are 28 atoms, so some of its blocks straddle the periodic z face.
    #[test]
    fn culled_rows_are_all_pairs_rows_after_verlet_steps() {
        use crate::sim::Simulation;
        for n in [864, 1024, 2048] {
            for spec in every_scenario() {
                let cfg = SimConfig::reduced_lj(n).with_scenario(spec);
                let mut sim = Simulation::prepare(cfg);
                sim.run(10);
                let sys = &sim.system;
                let pos: Vec<[f64; 3]> = sys.positions.iter().map(|p| [p.x, p.y, p.z]).collect();
                let ctx = format!("{n} atoms, {}", cfg.scenario_token());
                let (engaged, skipped) =
                    assert_rows_exact(&pos, sys.box_len, cfg.scenario, cfg.cutoff);
                assert_eq!(engaged, ON, "{ctx}");
                assert!(skipped, "{ctx}: culling skipped nothing");
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
            let soa = soa_f64(&pos);
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
        let soa = soa_f64(&pos);
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
        let soa = soa_f64(&pos);
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
                    host_bits(host_row(&soa, i, l2, &sub, INV_MASS)),
                    "host {i}"
                );
                let want = cell_bits(cell_all_pairs(&soa32, i, l32, &sub32, CellStage::simd(l32)));
                assert_eq!(
                    want,
                    cell_bits(cell_row(&soa32, i, l32, &sub32, INV_MASS as f32)),
                    "cell {i}"
                );
                let want = gpu_bits(gpu_all_pairs(&soa32, i, l32, &sub32));
                assert_eq!(
                    want,
                    gpu_bits(gpu_texel(&soa32, i, l32, &sub32, INV_MASS as f32)),
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

    /// Every potential, under the native policy.
    fn every_scenario() -> [ScenarioSpec; 3] {
        [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
        ]
    }

    #[test]
    fn full_scan_rows_are_exact_for_every_potential() {
        let cfg = SimConfig::reduced_lj(139);
        let sys: ParticleSystem<f64> = initialize(&cfg);
        let pos: Vec<[f64; 3]> = sys.positions.iter().map(|p| [p.x, p.y, p.z]).collect();
        for spec in every_scenario() {
            let (engaged, _) = assert_rows_exact(&pos, sys.box_len, spec, cfg.cutoff);
            assert_eq!(engaged, OFF, "{spec}");
        }
    }

    /// `m` lattice atoms inside the cutoff of atom `m`, all ahead of it in j,
    /// then 13 atoms out of its reach. Row `m` packs its neighbors in whole
    /// groups, so its chunk fills exactly at each multiple of `CHUNK`.
    fn crowded_row(m: usize, l: f64, cutoff: f64) -> Vec<[f64; 3]> {
        let (c, h, reach) = (0.5 * l, 0.6, 0.95 * cutoff);
        let k = (reach / h) as i32;
        let mut pos: Vec<[f64; 3]> = (-k..=k)
            .flat_map(|a| (-k..=k).flat_map(move |b| (-k..=k).map(move |e| [a, b, e])))
            .map(|p| p.map(|s| f64::from(s) * h))
            .filter(|d| {
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                r2 > 0.0 && r2 <= reach * reach
            })
            .map(|d| d.map(|v| c + v))
            .take(m)
            .collect();
        assert_eq!(pos.len(), m, "lattice too small");
        pos.push([c; 3]);
        pos.extend((0..13).map(|j| [j % 3, j / 3 % 3, j / 9].map(|s| 0.2 + 0.7 * f64::from(s))));
        pos
    }

    #[test]
    fn rows_past_a_chunk_drain_mid_row_and_at_the_boundary() {
        let (l, cutoff) = (9.5, 2.5);
        for m in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 3] {
            let pos = crowded_row(m, l, cutoff);
            for spec in every_scenario() {
                let (engaged, _) = assert_rows_exact(&pos, l, spec, cutoff);
                assert_eq!(engaged, OFF, "{m} neighbors, {spec}");
            }
            let soa = soa_f64(&pos);
            let sub: Substrate<f64> = ScenarioSpec::default().substrate(cutoff);
            assert_eq!(host_row(&soa, m, l, &sub, 1.0).interactions, m as u64);
        }
    }

    /// A jittered simple-cubic lattice below 4·cutoff, dense enough that
    /// every row holds about two chunks of survivors, with two NaN
    /// coordinates.
    #[test]
    fn dense_rows_with_nan_coordinates_are_exact() {
        let (l, cutoff, side) = (8.0, 2.5, 10);
        let h = l / f64::from(side);
        let mut rng = crate::rng::SplitMix64::new(18);
        let mut pos: Vec<[f64; 3]> = (0..side * side * side)
            .map(|j| [j % side, j / side % side, j / (side * side)])
            .map(|s| s.map(|s| (f64::from(s) + 0.5) * h + rng.uniform(-0.05, 0.05)))
            .collect();
        pos[17][0] = f64::NAN;
        pos[600][2] = f64::NAN;
        let soa = soa_f64(&pos);
        let sub: Substrate<f64> = ScenarioSpec::default().substrate(cutoff);
        assert!(host_row(&soa, 0, l, &sub, 1.0).interactions > CHUNK as u64);
        assert_eq!(host_row(&soa, 17, l, &sub, 1.0), GatherRow::default());
        for spec in every_scenario() {
            let (engaged, _) = assert_rows_exact(&pos, l, spec, cutoff);
            assert_eq!(engaged, OFF, "{spec}");
        }
    }

    /// The drains before the potential pass was split out: per pair,
    /// `energy_force` and then its accumulate, in one loop.
    fn one_pass_host(sub: &Substrate<f64>, c: Chunk<'_, f64>, row: &mut GatherRow<f64>) {
        for k in 0..c.r2.len() {
            let (e, f_over_r) = sub.energy_force(c.r2[k]);
            row.pe += e;
            let s = f_over_r * INV_MASS;
            row.acc.x += c.dx[k] * s;
            row.acc.y += c.dy[k] * s;
            row.acc.z += c.dz[k] * s;
        }
        row.interactions += c.r2.len() as u64;
    }

    fn one_pass_cell(sub: &Substrate<f32>, c: Chunk<'_, f32>, st: &mut CellAccum) {
        let fused = st.fused;
        let (inv_mass, sums) = (INV_MASS as f32, &mut st.sums);
        for k in 0..c.r2.len() {
            let (e, f_over_r) = sub.energy_force(c.r2[k]);
            let s = f_over_r * inv_mass;
            let d = [c.dx[k], c.dy[k], c.dz[k]];
            sums.pe += e;
            for (acc, d) in sums.acc.iter_mut().zip(d) {
                *acc = if fused {
                    d.mul_add(s, *acc)
                } else {
                    *acc + d * f_over_r * inv_mass
                };
            }
        }
        st.interactions += c.r2.len() as u64;
    }

    fn one_pass_gpu(sub: &Substrate<f32>, c: Chunk<'_, f32>, st: &mut GpuAccum) {
        let (inv_mass, sums) = (INV_MASS as f32, &mut st.0);
        for k in 0..c.r2.len() {
            let (e, f_over_r) = sub.energy_force(c.r2[k]);
            let d = [c.dx[k], c.dy[k], c.dz[k]];
            sums.pe += e;
            for (acc, d) in sums.acc.iter_mut().zip(d) {
                *acc += d * f_over_r * inv_mass;
            }
        }
    }

    /// `n` displacements with `0 < r2 < cutoff2` in precision `T`, as the
    /// pack hands them over: random ones, plus one pair just inside the
    /// cutoff and one close pair.
    fn random_chunk<T: Real>(n: usize, cutoff: f64, seed: u64) -> [Vec<T>; 4] {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let cutoff2 = T::from_f64(cutoff) * T::from_f64(cutoff);
        let mut out: [Vec<T>; 4] = Default::default();
        while out[3].len() < n {
            let k = out[3].len();
            let d: [T; 3] = match k {
                1 => [T::from_f64(cutoff * (1.0 - 1e-6)), T::ZERO, T::ZERO],
                2 => [T::from_f64(0.8), T::from_f64(-0.1), T::from_f64(0.05)],
                _ => std::array::from_fn(|_| T::from_f64(rng.uniform(-cutoff, cutoff))),
            };
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 < cutoff2 && r2 > T::ZERO {
                for (v, x) in out.iter_mut().zip([d[0], d[1], d[2], r2]) {
                    v.push(x);
                }
            }
        }
        out
    }

    fn chunk_of<T>(c: &[Vec<T>; 4]) -> Chunk<'_, T> {
        Chunk {
            dx: &c[0],
            dy: &c[1],
            dz: &c[2],
            r2: &c[3],
        }
    }

    /// Each flavor's drain, portable and native, is bitwise the one-pass
    /// drain for every chunk length a drain can see (`0..CAP`: a full group
    /// stored at `CHUNK - 1` is the longest) and every potential. Each chunk
    /// is drained twice, so the second drain starts from nonzero sums.
    #[test]
    fn two_pass_drains_equal_one_pass_drains() {
        for spec in every_scenario() {
            let cutoff = 2.5;
            let (sub, sub32): (Substrate<f64>, Substrate<f32>) =
                (spec.substrate(cutoff), spec.substrate(cutoff));
            for n in 0..CAP {
                let ctx = format!("{spec}, {n} pairs");
                let c64 = random_chunk::<f64>(n, cutoff, n as u64);
                let c32 = random_chunk::<f32>(n, cutoff, n as u64);
                let (c64, c32) = (chunk_of(&c64), chunk_of(&c32));

                let mut want = GatherRow::default();
                one_pass_host(&sub, c64, &mut want);
                one_pass_host(&sub, c64, &mut want);
                let cell_want = [false, true].map(|fused| {
                    let mut st = CellAccum::new(fused);
                    one_pass_cell(&sub32, c32, &mut st);
                    one_pass_cell(&sub32, c32, &mut st);
                    cell_bits(st.finish())
                });
                let mut gpu_want = GpuAccum(Sums32::default());
                one_pass_gpu(&sub32, c32, &mut gpu_want);
                one_pass_gpu(&sub32, c32, &mut gpu_want);
                let (want, gpu_want) = (host_bits(want), gpu_bits(gpu_want.finish()));

                for native in [false, true] {
                    if native && !wide_kernels_native() {
                        continue;
                    }
                    let mut row = GatherRow::default();
                    let mut cell = [false, true].map(CellAccum::new);
                    let mut gpu = GpuAccum(Sums32::default());
                    for _ in 0..2 {
                        drain_with(&sub, native, &mut row, c64, INV_MASS);
                        for st in &mut cell {
                            drain_with(&sub32, native, st, c32, INV_MASS as f32);
                        }
                        drain_with(&sub32, native, &mut gpu, c32, INV_MASS as f32);
                    }
                    assert_eq!(want, host_bits(row), "host, native {native}, {ctx}");
                    let cell = cell.map(|st| cell_bits(st.finish()));
                    assert_eq!(cell_want, cell, "cell, native {native}, {ctx}");
                    let gpu = gpu_bits(gpu.finish());
                    assert_eq!(gpu_want, gpu, "gpu, native {native}, {ctx}");
                }
            }
        }
    }

    /// One drain of `chunk` into `st`, compiled natively (AVX2 and FMA) or
    /// portably.
    fn drain_with<A, T: Real>(
        sub: &Substrate<T>,
        native: bool,
        st: &mut A,
        chunk: Chunk<'_, T>,
        inv_mass: T,
    ) where
        for<'a> Drain<'a, A, T>: PairFnUser<T, Out = ()>,
    {
        let drain = Drain {
            st,
            chunk,
            inv_mass,
        };
        #[cfg(target_arch = "x86_64")]
        if native {
            // SAFETY: the callers pass `native` only where the CPU has AVX2
            // and FMA.
            return unsafe { drain_fma(sub, drain) };
        }
        assert!(!native, "no native drain on this target");
        sub.with_energy_force(drain);
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
