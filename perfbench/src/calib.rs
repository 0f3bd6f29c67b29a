//! The host-speed reference the gated timings are expressed in.
//!
//! A shared host, such as a 2-vCPU cloud VM, can change speed by 20–60% over
//! seconds to minutes (other tenants share its cores), and no amount of
//! sampling inside one run averages that away. So right after each timed
//! part of an op the benchmark times a fixed kernel of its own, and reports
//! the part's time as a multiple of that kernel's time: a slow phase of the
//! host slows both and cancels. The kernel is benchmark code, so no change
//! to the repository can speed it up or slow it down.

use std::hint::black_box;
use std::time::Instant;

/// One reference-second is the time in which [`kernel`] runs 1000 times:
/// a gated time of `x` ref-ms is `x` runs of the kernel.
pub const REF_SECONDS_PER_KERNEL: f64 = 1e-3;

/// Scalar f64 Lennard-Jones energy over all pairs of 400 fixed points in a
/// periodic box: about 1 ms on a 2.0 GHz Xeon vCPU.
fn kernel() -> f64 {
    const N: usize = 400;
    const L: f64 = 8.0;
    let pos: Vec<[f64; 3]> = (0..N)
        .map(|i| {
            [
                (i % 8) as f64 + 0.1 * (i % 3) as f64,
                ((i / 8) % 8) as f64,
                (i / 64) as f64 * 1.3,
            ]
        })
        .collect();
    let pos = black_box(pos);
    let mut e = 0.0;
    for (i, pi) in pos.iter().enumerate() {
        for (j, pj) in pos.iter().enumerate() {
            if i == j {
                continue;
            }
            let mut r2 = 0.0;
            for k in 0..3 {
                let mut d = pi[k] - pj[k];
                if d > L * 0.5 {
                    d -= L;
                } else if d < -L * 0.5 {
                    d += L;
                }
                r2 += d * d;
            }
            if r2 < 6.25 {
                let s6 = 1.0 / (r2 * r2 * r2);
                e += s6 * s6 - s6;
            }
        }
    }
    e
}

/// Host seconds of one kernel run, now.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// One timed part of an op: its host seconds, and the kernel's host seconds
/// measured right after it.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    pub seconds: f64,
    pub kernel_s: f64,
}

impl Part {
    /// Pair `seconds`, just measured, with a kernel run.
    pub fn timed(seconds: f64) -> Self {
        Self {
            seconds,
            kernel_s: sample(),
        }
    }

    /// The part's time in reference seconds.
    pub fn ref_seconds(self) -> f64 {
        self.seconds / self.kernel_s * REF_SECONDS_PER_KERNEL
    }
}
