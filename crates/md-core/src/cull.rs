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
//! This is host wall-clock work only. The simulated devices are still
//! charged for all N² pair tests, in closed form, by their cost replays.

use std::sync::OnceLock;
use vecmath::Real;

/// Atoms per j-block: one f32 SIMD group, or two f64 groups.
pub(crate) const BLOCK: usize = 8;

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

/// j-blocks a list build measures per stack batch.
const GROUP: usize = 64;

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

#[derive(Clone, Debug)]
struct Blocks {
    /// Per-axis periodic arc of each block, `ceil(n / BLOCK)` blocks (the
    /// last may be partial; it is an i-block but never a listed j-block):
    /// its centre in `[0, L)` and its half-width.
    centre: [Vec<f64>; 3],
    half: [Vec<f64>; 3],
    /// Number of full j-blocks, `n / BLOCK`.
    full: usize,
    box_len: f64,
    slack: f64,
    reach2: f64,
    /// Per i-block ascending list of full j-blocks to visit, built on first
    /// use so a caller that evaluates a slice of rows (one Cell SPE) only
    /// pays for its own i-blocks.
    lists: Vec<OnceLock<Box<[u32]>>>,
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

impl Blocks {
    fn build<T: Real>(axes: [&[T]; 3], box_len: f64, cutoff2: f64) -> Option<Self> {
        let n = axes[0].len();
        let half_box = 0.5 * box_len;
        let n_blocks = n.div_ceil(BLOCK);
        let mut centre = [(); 3].map(|_| Vec::with_capacity(n_blocks));
        let mut half = [(); 3].map(|_| Vec::with_capacity(n_blocks));
        for (a, coords) in axes.iter().enumerate() {
            for block in coords.chunks(BLOCK) {
                let first = block[0].to_f64();
                let (mut lo, mut hi) = (0.0f64, 0.0f64);
                for &c in block {
                    let c = c.to_f64();
                    // Also rejects NaN.
                    if !(0.0..=box_len).contains(&c) {
                        return None;
                    }
                    // The offset from the block's first atom, folded into
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
        let reach = cutoff2.sqrt() * (1.0 + MARGIN);
        Some(Self {
            centre,
            half,
            full: n / BLOCK,
            box_len,
            slack: SLACK_PER_BOX * box_len,
            reach2: reach * reach,
            lists: (0..n_blocks).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The j-blocks whose squared gap to block `ib` is within reach, built
    /// on first use.
    fn list(&self, ib: usize) -> &[u32] {
        self.lists[ib].get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if crate::shared_eval::wide_kernels_native() {
                // SAFETY: AVX2 (and FMA) support was verified at runtime
                // just above.
                return unsafe { self.build_list_avx2(ib) };
            }
            self.build_list(ib)
        })
    }

    /// [`Self::build_list`] compiled with AVX2: four j-blocks per
    /// instruction instead of two. Only the instruction selection differs;
    /// the operations and their order are the same, so the lists are equal.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn build_list_avx2(&self, ib: usize) -> Box<[u32]> {
        self.build_list(ib)
    }

    /// Block `ib`'s list, in one pass over the full j-blocks.
    ///
    /// The gap is a lower bound on the minimum-image distance between any
    /// atom of `ib` and any atom of `jb`, less the rounding slack. On one
    /// axis every atom lies within its block's half-width `h` of the block's
    /// centre `c` on the periodic circle, so by the triangle inequality two
    /// atoms are at least the centres' circle distance
    /// `min(|cᵢ − cⱼ|, L − |cᵢ − cⱼ|)` less `hᵢ + hⱼ` apart. Each group of
    /// [`GROUP`] j-blocks sums its three axes' squared gaps into a stack
    /// array in one branch-free loop, which vectorizes, then appends the
    /// blocks within reach with no branch: each is written at `len`, and
    /// `len` advances when it is kept. `len ≤ jb`, so the writes stay inside
    /// `full`.
    #[inline(always)]
    fn build_list(&self, ib: usize) -> Box<[u32]> {
        let min = |a: f64, b: f64| if a < b { a } else { b };
        let max = |a: f64, b: f64| if a > b { a } else { b };
        let (l, full) = (self.box_len, self.full);
        let own = [0, 1, 2].map(|a| (self.centre[a][ib], self.half[a][ib] + self.slack));
        let mut out = vec![0u32; full];
        let mut len = 0;
        let mut gap2 = [0.0f64; GROUP];
        for start in (0..full).step_by(GROUP) {
            let gap2 = &mut gap2[..GROUP.min(full - start)];
            let end = start + gap2.len();
            let centre = [0, 1, 2].map(|a| &self.centre[a][start..end]);
            let half = [0, 1, 2].map(|a| &self.half[a][start..end]);
            for (k, s) in gap2.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (a, &(ci, hi)) in own.iter().enumerate() {
                    let dc = (centre[a][k] - ci).abs();
                    let d = max(min(dc, l - dc) - (half[a][k] + hi), 0.0);
                    sum += d * d;
                }
                *s = sum;
            }
            for (jb, &s) in (start..end).zip(gap2.iter()) {
                out[len] = jb as u32;
                len += usize::from(s <= self.reach2);
            }
        }
        out.truncate(len);
        out.into_boxed_slice()
    }
}

#[cfg(test)]
impl BlockCull {
    /// Atom `i`'s list built afresh by the portable builder and, where the
    /// CPU has AVX2, by the native one; empty when no index is engaged.
    pub(crate) fn fresh_lists(&self, i: usize) -> Vec<Box<[u32]>> {
        let Some(blocks) = self.0.get().and_then(|index| index.blocks.as_ref()) else {
            return Vec::new();
        };
        let ib = i / BLOCK;
        let mut lists = vec![blocks.build_list(ib)];
        #[cfg(target_arch = "x86_64")]
        if crate::shared_eval::wide_kernels_native() {
            // SAFETY: AVX2 (and FMA) support was verified just above.
            lists.push(unsafe { blocks.build_list_avx2(ib) });
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

    /// Every block's list of a fresh index over `pos` as `T`.
    fn lists<T: Real>(pos: &[[f64; 3]], l: f64, cutoff: f64) -> Vec<Vec<u32>> {
        let axes = axes::<T>(pos);
        let axes = [&axes[0][..], &axes[1][..], &axes[2][..]];
        let (l, cutoff) = (T::from_f64(l), T::from_f64(cutoff));
        let cull = BlockCull::default();
        (0..pos.len())
            .step_by(BLOCK)
            .map(|i| {
                let list = cull.blocks(axes, i, l, cutoff * cutoff);
                list.expect("the index engages").to_vec()
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
