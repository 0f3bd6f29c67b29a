//! Host-side j-block culling for the shared evaluator (DESIGN.md §17).
//!
//! The shared-eval rows ([`crate::shared_eval`]) walk j in aligned blocks of
//! [`BLOCK`] atoms. Most blocks hold no pair inside the cutoff, so the index
//! here lists, per i-block, only the j-blocks whose minimum-image
//! box-to-box gap can reach the cutoff. A skipped block provably holds no
//! pair whose *computed* `r2` passes the kernel's `r2 < cutoff2` test, so a
//! culled row accumulates exactly the pairs of the full scan, in the same
//! ascending-j order: the row is bitwise the all-pairs row.
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
/// is at least the per-axis block gap `g`, so `|d̂| ≥ g − 6uL`. The list test
/// subtracts [`SLACK_PER_BOX`]`·L = 16u₃₂L ≥ 6uL` from each axis gap before
/// squaring (`u₃₂` bounds both precisions), which covers that term for any
/// box. The kernel's `r2` then sums three rounded squares in at most five
/// rounded operations, a relative error below 5u ≤ 3·10⁻⁷, and the test
/// itself is f64 arithmetic with error near 10⁻¹⁶. A skipped block therefore
/// has computed `r2 ≥ cutoff²·(1 + MARGIN)²·(1 − 3·10⁻⁷) > cutoff²`.
/// `MARGIN` is a correctness constant, not a tuning knob: it only has to
/// exceed those relative errors, and 10⁻³ does so more than 1000-fold.
const MARGIN: f64 = 1e-3;

/// Per-axis rounding slack of the block test, per unit of box length:
/// `8·ε₃₂ = 16·u₃₂` (see [`MARGIN`]). At L ≈ 22σ it is 2·10⁻⁵σ.
const SLACK_PER_BOX: f64 = 8.0 * f32::EPSILON as f64;

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
    /// Per-axis block bounds, `ceil(n / BLOCK)` blocks (the last may be
    /// partial; it is an i-block but never a listed j-block).
    lo: [Vec<f64>; 3],
    hi: [Vec<f64>; 3],
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
        let n_blocks = n.div_ceil(BLOCK);
        let mut lo = [(); 3].map(|_| vec![f64::INFINITY; n_blocks]);
        let mut hi = [(); 3].map(|_| vec![f64::NEG_INFINITY; n_blocks]);
        for (a, coords) in axes.iter().enumerate() {
            for (j, &c) in coords.iter().enumerate() {
                let c = c.to_f64();
                // Also rejects NaN.
                if !(0.0..=box_len).contains(&c) {
                    return None;
                }
                let b = j / BLOCK;
                lo[a][b] = lo[a][b].min(c);
                hi[a][b] = hi[a][b].max(c);
            }
        }
        let reach = cutoff2.sqrt() * (1.0 + MARGIN);
        Some(Self {
            lo,
            hi,
            full: n / BLOCK,
            box_len,
            slack: SLACK_PER_BOX * box_len,
            reach2: reach * reach,
            lists: (0..n_blocks).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The j-blocks whose squared gap to block `ib` is within reach.
    ///
    /// The gap is a lower bound on the minimum-image distance between any
    /// atom of `ib` and any atom of `jb`, less the rounding slack. On one
    /// axis the separations fill `[g, span]`; the minimum image of a
    /// separation `s ≤ L` is `min(s, L − s)`, concave in `s`, so its least
    /// value is at an end of that range. The gaps are summed axis by axis
    /// over all j-blocks first (branch-free, so the loop vectorizes), then
    /// filtered.
    fn list(&self, ib: usize) -> &[u32] {
        self.lists[ib].get_or_init(|| {
            let min = |a: f64, b: f64| if a < b { a } else { b };
            let max = |a: f64, b: f64| if a > b { a } else { b };
            let (l, slack) = (self.box_len, self.slack);
            let mut gap2 = vec![0.0f64; self.full];
            for a in 0..3 {
                let (li, hi) = (self.lo[a][ib], self.hi[a][ib]);
                let lo_j = &self.lo[a][..self.full];
                let hi_j = &self.hi[a][..self.full];
                for ((s, &lj), &hj) in gap2.iter_mut().zip(lo_j).zip(hi_j) {
                    let g = max(max(lj - hi, li - hj), 0.0);
                    let span = max(hi, hj) - min(li, lj);
                    let d = max(min(g, l - span) - slack, 0.0);
                    *s += d * d;
                }
            }
            (0..self.full)
                .filter(|&jb| gap2[jb] <= self.reach2)
                .map(|jb| jb as u32)
                .collect()
        })
    }
}
