//! Host-side j-block culling for the shared evaluator (DESIGN.md §17).
//!
//! The shared-eval rows ([`crate::shared_eval`]) walk j in aligned blocks of
//! [`BLOCK`] atoms. Most blocks hold no pair inside the cutoff, so the index
//! here lists, per i-block, only the j-blocks that can reach the cutoff.
//! Each block is bounded per axis by the periodic arc that covers its atoms,
//! so a block that holds the end of one lattice row and the start of the
//! next (its atoms neighbours across the periodic face) stays as tight as
//! any other. A skipped block provably holds no pair whose *computed* `r2`
//! passes the kernel's `r2 < cutoff2` test, so a culled row accumulates
//! exactly the pairs of the full scan, in the same ascending-j order: the
//! row is bitwise the all-pairs row.
//!
//! The lists are built in two levels. Each super-block of [`SUPER`]
//! consecutive blocks is bounded by its own arc, computed from its atoms
//! the same way, so an i-super-block is tested against every j-super-block
//! first and its i-blocks only against the members of the j-super-blocks
//! within reach.
//!
//! This is host wall-clock work only. The simulated devices are still
//! charged for all N² pair tests, in closed form, by their cost replays.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;
use vecmath::Real;

/// Atoms per j-block: one f32 SIMD group, or two f64 groups.
pub(crate) const BLOCK: usize = 8;

/// Blocks per super-block, the first level of the list build.
const SUPER: usize = 4;

/// Relative reach margin of the block test: a j-block is kept when its gap
/// to the i-block satisfies `gap² ≤ (cutoff·(1 + MARGIN))²`.
///
/// Derivation. Let `d` be a pair's true displacement on one axis and `d̂` the
/// kernel's rounded minimum image of it. Every flavor computes `d̂` in at most
/// three rounded operations on values of magnitude ≤ 2L, so
/// `|d̂ − (d + kL)| ≤ 6uL` for some image `k` (u = unit roundoff of the
/// coordinate type). Any image is at least as far as the minimum image, which
/// is at least the per-axis arc gap `g = min(|cᵢ − cⱼ|, L − |cᵢ − cⱼ|) − hᵢ − hⱼ`
/// (each atom lies within its block's half-width `h` of the block's centre
/// `c` on the periodic circle), so `|d̂| ≥ g − 6uL`. The index computes `g`
/// in f64: per block, each atom's folded offset takes two roundings, the
/// centre two more and its fold one, the half-width one; the gap takes five.
/// Those 17 roundings act on values of magnitude ≤ 2L, each off by at most
/// `2u₆₄L`, so the computed gap exceeds `g` by at most `34u₆₄L ≈ 4·10⁻¹⁵L`.
/// A super-block's arc is computed by the same fold over its atoms, so the
/// same bound holds for the super-block test.
/// The list test subtracts [`SLACK_PER_BOX`]`·L = 16u₃₂L` from each axis gap
/// before squaring (`u₃₂` bounds both precisions); that covers the kernel's
/// `6uL` and leaves `10u₃₂L ≈ 6·10⁻⁷L`, over 10⁸ times the index's own
/// error, for any box. The kernel's `r2` then sums three rounded
/// squares in at most five rounded operations, a relative error below
/// 5u ≤ 3·10⁻⁷, and the test's squares and sum are f64 arithmetic with error
/// near 10⁻¹⁶. A skipped block therefore has computed
/// `r2 ≥ cutoff²·(1 + MARGIN)²·(1 − 3·10⁻⁷) > cutoff²`. `MARGIN` is a
/// correctness constant, not a tuning knob: it only has to exceed those
/// relative errors, and 10⁻³ does so more than 1000-fold.
const MARGIN: f64 = 1e-3;

/// Per-axis rounding slack of the block test, per unit of box length:
/// `8·ε₃₂ = 16·u₃₂`, which covers the kernel's minimum image and the
/// index's own f64 arc arithmetic (see [`MARGIN`]). At L ≈ 22σ it is
/// 2·10⁻⁵σ.
const SLACK_PER_BOX: f64 = 8.0 * f32::EPSILON as f64;

/// Arcs a list build measures per stack batch.
const GROUP: usize = 64;

thread_local! {
    /// The list build's reused buffers: the j-super-blocks within reach of
    /// one i-super-block, and the lists of its blocks, which are then
    /// copied out at their exact size.
    static SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The lazily built j-block index of one structure-of-arrays position set.
///
/// It is built on the first culled row call and keyed on the bits of the
/// `(box_len, cutoff2)` it was built for; a call with any other key runs the
/// full scan. The owning SoA's coordinates are read-only, so the index can
/// never go stale.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockCull(OnceLock<Index>);

#[derive(Clone, Debug)]
struct Index {
    key: (u64, u64),
    /// `None` when some coordinate is non-finite or outside `[0, L]`.
    blocks: Option<Blocks>,
}

/// Per-axis periodic arcs of consecutive chunks of atoms: each chunk's
/// centre in `[0, L)` and its half-width.
#[derive(Clone, Debug)]
struct Arcs {
    centre: [Vec<f64>; 3],
    half: [Vec<f64>; 3],
}

#[derive(Clone, Debug)]
struct Blocks {
    /// The arc of each block, `ceil(n / BLOCK)` blocks (the last may be
    /// partial; it is an i-block but never a listed j-block).
    blocks: Arcs,
    /// The arc of each super-block of [`SUPER`] blocks (the last may be
    /// partial).
    supers: Arcs,
    /// Number of full j-blocks, `n / BLOCK`.
    full: usize,
    box_len: f64,
    slack: f64,
    reach2: f64,
    /// Per i-super-block, the ascending lists of full j-blocks its blocks
    /// visit, built on first use so a caller that evaluates a slice of rows
    /// (one Cell SPE) builds only the lists of its own i-super-blocks.
    lists: Vec<OnceLock<SuperLists>>,
}

/// The lists of one i-super-block's blocks, back to back in one allocation
/// of their exact size.
#[derive(Clone, Debug)]
struct SuperLists {
    /// Where each block's list ends in `blocks`; the next one starts there.
    ends: [u32; SUPER],
    blocks: Box<[u32]>,
}

impl SuperLists {
    /// The list of the super-block's `k`-th block.
    fn list(&self, k: usize) -> &[u32] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.blocks[start..self.ends[k] as usize]
    }
}

impl BlockCull {
    /// The ascending full j-blocks atom `i`'s row must visit, or `None` when
    /// culling does not engage and the row scans every j.
    ///
    /// Culling engages only when `box_len ≥ 4·cutoff` and every coordinate
    /// is finite and inside `[0, L]`, where one fold is the exact minimum
    /// image. Below `4·cutoff` a block's reach spans most of the box, so the
    /// index would cost more than it skips; that check runs first and adds
    /// no other work.
    #[inline(always)]
    pub(crate) fn blocks<T: Real>(
        &self,
        axes: [&[T]; 3],
        i: usize,
        box_len: T,
        cutoff2: T,
    ) -> Option<&[u32]> {
        let (l, c2) = (box_len.to_f64(), cutoff2.to_f64());
        // Written so a NaN box or cutoff also takes the full scan.
        let wide = l * l >= 16.0 * c2;
        if !wide {
            return None;
        }
        self.engaged(axes, i, l, c2)
    }

    /// [`Self::blocks`] past the box-size check, kept out of line so the
    /// full-scan rows of small boxes pay only that check.
    #[inline(never)]
    fn engaged<T: Real>(&self, axes: [&[T]; 3], i: usize, l: f64, c2: f64) -> Option<&[u32]> {
        let key = (l.to_bits(), c2.to_bits());
        let index = self.0.get_or_init(|| Index {
            key,
            blocks: Blocks::build(axes, l, c2),
        });
        if index.key != key {
            return None;
        }
        index.blocks.as_ref().map(|b| b.list(i / BLOCK))
    }
}

impl Arcs {
    /// The arcs of `axes` in chunks of `atoms`, or `None` when some
    /// coordinate is non-finite or outside `[0, L]`.
    fn of<T: Real>(axes: [&[T]; 3], atoms: usize, box_len: f64) -> Option<Self> {
        let half_box = 0.5 * box_len;
        let chunks = axes[0].len().div_ceil(atoms);
        let mut centre = [(); 3].map(|_| Vec::with_capacity(chunks));
        let mut half = [(); 3].map(|_| Vec::with_capacity(chunks));
        for (a, coords) in axes.iter().enumerate() {
            for chunk in coords.chunks(atoms) {
                let first = chunk[0].to_f64();
                let (mut lo, mut hi) = (0.0f64, 0.0f64);
                for &c in chunk {
                    let c = c.to_f64();
                    // Also rejects NaN.
                    if !(0.0..=box_len).contains(&c) {
                        return None;
                    }
                    // The offset from the chunk's first atom, folded into
                    // [−L/2, L/2]: both ends lie in [0, L], so one fold does.
                    let mut d = c - first;
                    if d > half_box {
                        d -= box_len;
                    } else if d < -half_box {
                        d += box_len;
                    }
                    lo = lo.min(d);
                    hi = hi.max(d);
                }
                let mut mid = first + 0.5 * (lo + hi);
                if mid < 0.0 {
                    mid += box_len;
                } else if mid >= box_len {
                    mid -= box_len;
                }
                centre[a].push(mid);
                half[a].push(0.5 * (hi - lo));
            }
        }
        Some(Self { centre, half })
    }

    fn len(&self) -> usize {
        self.centre[0].len()
    }

    /// Chunk `k`'s centre and its half-width widened by `slack`, per axis.
    fn own(&self, k: usize, slack: f64) -> [(f64, f64); 3] {
        [0, 1, 2].map(|a| (self.centre[a][k], self.half[a][k] + slack))
    }
}

impl Blocks {
    fn build<T: Real>(axes: [&[T]; 3], box_len: f64, cutoff2: f64) -> Option<Self> {
        let n = axes[0].len();
        let reach = cutoff2.sqrt() * (1.0 + MARGIN);
        Some(Self {
            blocks: Arcs::of(axes, BLOCK, box_len)?,
            supers: Arcs::of(axes, SUPER * BLOCK, box_len)?,
            full: n / BLOCK,
            box_len,
            slack: SLACK_PER_BOX * box_len,
            reach2: reach * reach,
            lists: (0..n.div_ceil(SUPER * BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
        })
    }

    /// The j-blocks whose squared gap to block `ib` is within reach, built
    /// with the rest of its super-block's lists on first use.
    fn list(&self, ib: usize) -> &[u32] {
        let sb = ib / SUPER;
        let lists = self.lists[sb].get_or_init(|| {
            SCRATCH.with_borrow_mut(|(kept, lists)| {
                #[cfg(target_arch = "x86_64")]
                if crate::shared_eval::wide_kernels_native() {
                    // SAFETY: AVX2 (and FMA) support was verified at
                    // runtime just above.
                    return unsafe { self.build_lists_avx2(sb, kept, lists) };
                }
                self.build_lists(sb, kept, lists)
            })
        });
        lists.list(ib % SUPER)
    }

    /// [`Self::build_lists`] compiled with AVX2: four arcs per instruction
    /// instead of two. Only the instruction selection differs; the
    /// operations and their order are the same, so the lists are equal.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn build_lists_avx2(
        &self,
        sb: usize,
        kept: &mut Vec<u32>,
        lists: &mut Vec<u32>,
    ) -> SuperLists {
        self.build_lists(sb, kept, lists)
    }

    /// The lists of i-super-block `sb`'s blocks, in two levels: the
    /// j-super-blocks within reach of `sb` are collected in `kept`, then
    /// each of its blocks is tested against the full j-blocks of those only,
    /// its list appended to `lists`. Runs of consecutive kept
    /// j-super-blocks are one range of j-blocks, so each block's list
    /// ascends. Both buffers only grow, so a warm thread allocates nothing
    /// here but the exact-size copy it returns.
    ///
    /// A j-super-block's arc covers every atom of its members, so a j-block
    /// outside `kept` is at least as far from the i-block as the bound that
    /// rejected its super-block: the super-block test skips only blocks the
    /// block test could also skip (DESIGN.md §17).
    #[inline(always)]
    fn build_lists(&self, sb: usize, kept: &mut Vec<u32>, lists: &mut Vec<u32>) -> SuperLists {
        let (full, slack) = (self.full, self.slack);
        let mut gap2 = [0.0; GROUP];
        let j_supers = full.div_ceil(SUPER);
        let kept = grown(kept, j_supers);
        let own = self.supers.own(sb, slack);
        let n_kept = self.within_reach(&self.supers, own, 0..j_supers, &mut gap2, kept, 0);
        let kept = &kept[..n_kept];
        // Each i-block lists at most the members of the kept j-super-blocks.
        let out = grown(lists, SUPER * SUPER * n_kept);
        let mut len = 0;
        let mut ends = [0; SUPER];
        for (k, end) in ends.iter_mut().enumerate() {
            let ib = sb * SUPER + k;
            if ib < self.blocks.len() {
                let own = self.blocks.own(ib, slack);
                for run in kept.chunk_by(|a, b| a + 1 == *b) {
                    let first = run[0] as usize * SUPER;
                    let last = ((run[run.len() - 1] as usize + 1) * SUPER).min(full);
                    len = self.within_reach(&self.blocks, own, first..last, &mut gap2, out, len);
                }
            }
            *end = len as u32;
        }
        SuperLists {
            ends,
            blocks: out[..len].into(),
        }
    }

    /// Writes to `out` from `len` on, ascending, each chunk in `range` of
    /// `arcs` whose squared gap to `own` (centre and slack-widened
    /// half-width per axis) is within reach; returns the new length. `out`
    /// must have room for `len + range.len()` entries.
    ///
    /// The gap is a lower bound on the minimum-image distance between any
    /// atom of the two chunks, less the rounding slack. On one axis every
    /// atom lies within its chunk's half-width `h` of the chunk's centre `c`
    /// on the periodic circle, so by the triangle inequality two atoms are
    /// at least the centres' circle distance `min(|cᵢ − cⱼ|, L − |cᵢ − cⱼ|)`
    /// less `hᵢ + hⱼ` apart. Each group of [`GROUP`] chunks sums its three
    /// axes' squared gaps into `gap2` in one branch-free loop, which
    /// vectorizes, then writes the chunks within reach with no branch: each
    /// is written at `len`, and `len` advances when it is kept.
    #[inline(always)]
    fn within_reach(
        &self,
        arcs: &Arcs,
        own: [(f64, f64); 3],
        range: Range<usize>,
        gap2: &mut [f64; GROUP],
        out: &mut [u32],
        mut len: usize,
    ) -> usize {
        let min = |a: f64, b: f64| if a < b { a } else { b };
        let max = |a: f64, b: f64| if a > b { a } else { b };
        let l = self.box_len;
        for start in range.clone().step_by(GROUP) {
            let gap2 = &mut gap2[..GROUP.min(range.end - start)];
            let end = start + gap2.len();
            let centre = [0, 1, 2].map(|a| &arcs.centre[a][start..end]);
            let half = [0, 1, 2].map(|a| &arcs.half[a][start..end]);
            for (k, s) in gap2.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (a, &(ci, hi)) in own.iter().enumerate() {
                    let dc = (centre[a][k] - ci).abs();
                    let d = max(min(dc, l - dc) - (half[a][k] + hi), 0.0);
                    sum += d * d;
                }
                *s = sum;
            }
            for (j, &s) in (start..end).zip(gap2.iter()) {
                out[len] = j as u32;
                len += usize::from(s <= self.reach2);
            }
        }
        len
    }
}

/// `buf`, grown to at least `len` entries, as a slice of `len`.
fn grown(buf: &mut Vec<u32>, len: usize) -> &mut [u32] {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

#[cfg(test)]
impl BlockCull {
    /// Atom `i`'s list built afresh, into new buffers, by the portable
    /// builder and, where the CPU has AVX2, by the native one; empty when no
    /// index is engaged.
    pub(crate) fn fresh_lists(&self, i: usize) -> Vec<Vec<u32>> {
        let Some(blocks) = self.0.get().and_then(|index| index.blocks.as_ref()) else {
            return Vec::new();
        };
        let (sb, k) = (i / BLOCK / SUPER, i / BLOCK % SUPER);
        let portable = blocks.build_lists(sb, &mut Vec::new(), &mut Vec::new());
        let mut lists = vec![portable.list(k).to_vec()];
        #[cfg(target_arch = "x86_64")]
        if crate::shared_eval::wide_kernels_native() {
            // SAFETY: AVX2 (and FMA) support was verified just above.
            let native = unsafe { blocks.build_lists_avx2(sb, &mut Vec::new(), &mut Vec::new()) };
            lists.push(native.list(k).to_vec());
        }
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimConfig;
    use crate::sim::Simulation;

    /// `pos` as per-axis coordinate arrays of `T`.
    fn axes<T: Real>(pos: &[[f64; 3]]) -> [Vec<T>; 3] {
        [0, 1, 2].map(|a| pos.iter().map(|p| T::from_f64(p[a])).collect())
    }

    /// Every block's list of a fresh index over `pos` as `T`, checked
    /// against the same lists built afresh (see [`BlockCull::fresh_lists`]).
    fn lists<T: Real>(pos: &[[f64; 3]], l: f64, cutoff: f64) -> Vec<Vec<u32>> {
        let axes = axes::<T>(pos);
        let axes = [&axes[0][..], &axes[1][..], &axes[2][..]];
        let (l, cutoff) = (T::from_f64(l), T::from_f64(cutoff));
        let cull = BlockCull::default();
        (0..pos.len())
            .step_by(BLOCK)
            .map(|i| {
                let list = cull.blocks(axes, i, l, cutoff * cutoff);
                let list = list.expect("the index engages").to_vec();
                // The portable and (where it runs) the native build list the
                // same blocks as the one the rows use.
                let fresh = cull.fresh_lists(i);
                assert!(!fresh.is_empty());
                for rebuilt in fresh {
                    assert_eq!(rebuilt, list, "block {}: rebuilt list", i / BLOCK);
                }
                list
            })
            .collect()
    }

    /// The index's safety property, checked without the rows' arithmetic:
    /// for every i-block of `pos` (as `T`), each full j-block holding a
    /// pair whose per-pair `r2`, computed in `T` with either common
    /// minimum-image form, passes `r2 < cutoff²` is listed. Returns the
    /// number of listed blocks.
    fn assert_lists_cover_passing_pairs<T: Real>(pos: &[[f64; 3]], l: f64, cutoff: f64) -> usize {
        let lists = lists::<T>(pos, l, cutoff);
        let axes = axes::<T>(pos);
        let (l, cutoff) = (T::from_f64(l), T::from_f64(cutoff));
        let half = l * T::from_f64(0.5);
        let fold = |d: T| {
            if d > half {
                d - l
            } else if d < -half {
                d + l
            } else {
                d
            }
        };
        let nearest = |d: T| d - l * (d / l).round();
        let passes = |i: usize, j: usize, image: &dyn Fn(T) -> T| {
            let d = [0, 1, 2].map(|a| image(axes[a][i] - axes[a][j]));
            d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutoff * cutoff
        };
        for i in 0..pos.len() {
            let list = &lists[i / BLOCK];
            for j in 0..pos.len() / BLOCK * BLOCK {
                if passes(i, j, &fold) || passes(i, j, &nearest) {
                    let jb = (j / BLOCK) as u32;
                    assert!(
                        list.binary_search(&jb).is_ok(),
                        "atom {i} ({}): its pair with atom {j} passes, block {jb} is not listed",
                        std::any::type_name::<T>()
                    );
                }
            }
        }
        lists.iter().map(Vec::len).sum()
    }

    /// [`assert_lists_cover_passing_pairs`] in the f32 and the f64 flavor;
    /// returns the f64 index's listed blocks.
    fn assert_covered(pos: &[[f64; 3]], l: f64, cutoff: f64) -> usize {
        assert_lists_cover_passing_pairs::<f32>(pos, l, cutoff);
        assert_lists_cover_passing_pairs::<f64>(pos, l, cutoff)
    }

    /// Whether some block's coordinates on some axis span more than half
    /// the box, so its axis-aligned bounds would cover the whole axis.
    fn some_block_straddles(pos: &[[f64; 3]], l: f64) -> bool {
        pos.chunks(BLOCK).any(|b| {
            (0..3).any(|a| {
                let lo = b.iter().map(|p| p[a]).fold(f64::INFINITY, f64::min);
                let hi = b.iter().map(|p| p[a]).fold(f64::NEG_INFINITY, f64::max);
                hi - lo > 0.5 * l
            })
        })
    }

    #[test]
    fn lists_cover_every_passing_pair_on_lattices_after_verlet_steps() {
        for n in [1024, 4096] {
            let cfg = SimConfig::reduced_lj(n);
            let mut sim = Simulation::prepare(cfg);
            sim.run(3);
            let sys = &sim.system;
            let pos: Vec<[f64; 3]> = sys.positions.iter().map(|p| [p.x, p.y, p.z]).collect();
            assert!(some_block_straddles(&pos, sys.box_len), "{n} atoms");
            let listed = assert_covered(&pos, sys.box_len, cfg.cutoff);
            assert!(
                listed < n.div_ceil(BLOCK) * (n / BLOCK),
                "{n} atoms: nothing skipped"
            );
        }
    }

    /// The listed-block totals on the initial lattices (DESIGN.md §17), in
    /// both flavors. A looser list moves them; a list that drops a block
    /// fails the per-pair oracle instead.
    #[test]
    fn listed_block_totals_on_the_initial_lattices_are_pinned() {
        let pinned = [
            (864, 2_916),
            (1024, 5_962),
            (2048, 6_912),
            (4096, 25_830),
            (8192, 29_092),
        ];
        for (n, want) in pinned {
            let cfg = SimConfig::reduced_lj(n);
            let sys = Simulation::prepare(cfg).system;
            let pos: Vec<[f64; 3]> = sys.positions.iter().map(|p| [p.x, p.y, p.z]).collect();
            let (l, cutoff) = (sys.box_len, cfg.cutoff);
            let listed = [lists::<f64>(&pos, l, cutoff), lists::<f32>(&pos, l, cutoff)]
                .map(|lists| lists.iter().map(Vec::len).sum::<usize>());
            assert_eq!(listed, [want; 2], "{n} atoms, [f64, f32]");
        }
    }

    #[test]
    fn lists_cover_every_passing_pair_on_uniform_random_positions() {
        let mut rng = crate::rng::SplitMix64::new(27);
        for (n, l) in [(1003, 12.0), (517, 20.0)] {
            let pos: Vec<[f64; 3]> = (0..n)
                .map(|_| [(); 3].map(|_| rng.uniform(0.0, l)))
                .collect();
            assert_covered(&pos, l, 2.5);
        }
    }

    /// Blocks that straddle the periodic faces, with coordinates exactly 0
    /// and L, and blocks at `cutoff·(1 − 2⁻²⁰)` and `cutoff·(1 + 2·MARGIN)`
    /// from them across a face.
    fn straddling_blocks(l: f64, cutoff: f64) -> Vec<[f64; 3]> {
        let (inside, outside) = (
            cutoff * (1.0 - 2f64.powi(-20)),
            cutoff * (1.0 + 2.0 * MARGIN),
        );
        let mut pos = Vec::new();
        // Block 0 straddles z = 0/L.
        pos.extend([l, 0.0, 0.05, 0.1, l - 0.05, l - 0.1, 0.0, l].map(|z| [7.0, 7.0, z]));
        // Block 1, L/2 away from it on z.
        pos.extend((0..8).map(|k| [7.0, 7.0, 0.5 * l + 0.01 * f64::from(k)]));
        // Blocks 2 and 3 reach block 0 from either side; block 4 does not.
        pos.extend([[7.0, 7.0, 0.1 + inside]; BLOCK]);
        pos.extend([[7.0, 7.0, l - 0.1 - inside]; BLOCK]);
        pos.extend([[7.0, 7.0, 0.1 + outside]; BLOCK]);
        // Block 5 straddles the x = 0/L and y = 0/L edge; block 6 reaches
        // it across the y face.
        pos.extend([0.0, l, 0.2, l - 0.2, 0.0, l, 0.1, l - 0.1].map(|x| [x, l - x, 3.0]));
        pos.extend([[0.0, 0.2 + inside, 3.0]; BLOCK]);
        // A partial tail block that straddles z.
        pos.extend([[7.0, 7.0, 0.0], [7.0, 7.0, l], [7.0, 3.0, l]]);
        pos
    }

    #[test]
    fn lists_cover_every_passing_pair_across_straddled_faces() {
        let (l, cutoff) = (14.0, 2.5);
        let pos = straddling_blocks(l, cutoff);
        assert_covered(&pos, l, cutoff);
        // The pairs just inside the cutoff are listed, the one past the
        // margin is not.
        for lists in [lists::<f64>(&pos, l, cutoff), lists::<f32>(&pos, l, cutoff)] {
            assert_eq!(lists[0], [0, 2, 3]);
            assert_eq!(lists[5], [5, 6]);
        }
    }

    /// Block 0 straddles z = 0/L, so its z-coordinates run from 0 to L and
    /// axis-aligned bounds would reach every block in its (x, y) band. Its
    /// arc is 0.2 wide, so block 1, L/2 away on z, does not list it.
    #[test]
    fn a_straddling_block_is_not_listed_half_a_box_away() {
        let (l, cutoff) = (14.0, 2.5);
        let pos = straddling_blocks(l, cutoff);
        let z = pos[..BLOCK].iter().map(|p| p[2]);
        assert_eq!(z.clone().fold(f64::INFINITY, f64::min), 0.0);
        assert_eq!(z.fold(f64::NEG_INFINITY, f64::max), l);
        for lists in [lists::<f64>(&pos, l, cutoff), lists::<f32>(&pos, l, cutoff)] {
            assert!(!lists[1].contains(&0), "{:?}", lists[1]);
            assert!(!lists[0].contains(&1), "{:?}", lists[0]);
        }
    }
}
