//! Physics oracles that do not trust the implementation: properties every
//! correct molecular-dynamics code has, checked on every simulated device.
//!
//! **NVE conserves total momentum.** Every device evaluates each pair force
//! from `d = pi - pj` folded by the minimum image, `r² = d·d`, and a scalar
//! `s(r²)`, giving `f_ij = s(r²)·d`. IEEE subtraction is exactly
//! antisymmetric (`pj - pi == -(pi - pj)`), the fold `c > L/2 → c - L`,
//! `c < -L/2 → c + L` maps `-c` to exactly the negation of the fold of `c`,
//! and `r²` is a sum of squares, so `f_ji == -f_ij` exactly, up to the sign
//! of a zero ([`pair_forces_are_exactly_antisymmetric`] checks this for every
//! flavor in both precisions). The exact sum of all pair forces is therefore
//! zero, and with unit mass the momentum `P = Σ v_i` can move only by
//! roundoff:
//!
//! - each atom's acceleration is a floating-point sum of its pair terms, off
//!   the exact sum by at most `γ(N−1)·Σ_j |f_ij|` (any summation order;
//!   `γ(k) = k·u / (1 − k·u)` with `u` the unit roundoff), so
//!   `|Σ_i a_i| ≤ γ(N−1)·F` where `F = Σ_i Σ_j |f_ij|`;
//! - each half kick `v_i += h·a_i` (`h = dt/2`) rounds twice, adding at most
//!   `u·(|v_i| + h·|a_i|)` per atom, at most `u·(V + h·F)` in all, where
//!   `V = Σ_i |v_i|`.
//!
//! Over `steps` steps (two half kicks each) the drift of each component is
//! bounded by `2·steps·(u·(V + h·F) + h·γ(N−1)·F)`, plus the error of
//! measuring `P` twice (compensated summation: `2·2u·V`). `V` and `F` are
//! taken at the initial and final states, the larger one doubled: over 10
//! steps of the equilibrated liquid they move by a few percent. The bound
//! uses `u = 2⁻⁵³` for the f64 devices (Opteron, MTA-2) and `u = 2⁻²⁴` for
//! the f32 ones (Cell, GPU). At 256 atoms it works out to ~4e-11 (f64) and
//! ~2e-2 (f32) against observed drifts near 1e-14 and 3e-6, while one
//! missing or one-sided pair force moves `P` by `h·|f_ij|` ≈ 0.1 per kick.

use cell_be::SpeKernelVariant;
use harness::{DeviceKind, GpuModel};
use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{DeviceRun, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::{Ensemble, PrecisionPolicy, ScenarioSpec};
use mta::ThreadingMode;
use vecmath::pbc::min_image_branchy;
use vecmath::{Real, Vec3};

const ATOMS: usize = 256;
const STEPS: usize = 10;

/// The paper's four devices and their working precision's unit roundoff.
fn devices() -> [(DeviceKind, f64); 4] {
    let f64_u = f64::EPSILON / 2.0;
    let f32_u = f64::from(f32::EPSILON) / 2.0;
    [
        (DeviceKind::Opteron, f64_u),
        (
            DeviceKind::Mta {
                mode: ThreadingMode::FullyMultithreaded,
            },
            f64_u,
        ),
        (DeviceKind::cell_best(), f32_u),
        (
            DeviceKind::Gpu {
                model: GpuModel::GeForce7900Gtx,
            },
            f32_u,
        ),
    ]
}

/// LJ, Morse and Coulomb, all under NVE (the canonical Morse scenario is
/// NVT; its thermostat rescales velocities, which momentum need not obey).
fn flavors() -> [ScenarioSpec; 3] {
    [
        ScenarioSpec::default(),
        ScenarioSpec::morse_nvt().with_ensemble(Ensemble::Nve),
        ScenarioSpec::coulomb_cutoff(),
    ]
}

/// Neumaier-compensated sum: off the exact sum by at most `2u·|Σx|` plus a
/// term of order `N·u²·Σ|x|`.
fn compensated_sum(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for x in xs {
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Total momentum `Σ v_i` per axis (unit mass).
fn momentum(c: &SystemCheckpoint) -> [f64; 3] {
    let axis = |get: fn(&Vec3<f64>) -> f64| compensated_sum(c.velocities.iter().map(get));
    [axis(|v| v.x), axis(|v| v.y), axis(|v| v.z)]
}

/// `(V, F)` of the bound: `Σ_i |v_i|` and `Σ_i Σ_j |f_ij|`, per axis summed,
/// with the pair forces evaluated in f64 from the checkpoint's positions.
fn scales(sim: &SimConfig, c: &SystemCheckpoint) -> (f64, f64) {
    let sub = sim.substrate::<f64>();
    let rc2 = sub.cutoff2();
    let abs_sum = |d: Vec3<f64>| d.x.abs() + d.y.abs() + d.z.abs();
    let v: f64 = c.velocities.iter().map(|v| abs_sum(*v)).sum();
    let mut f = 0.0;
    for (i, pi) in c.positions.iter().enumerate() {
        for (j, pj) in c.positions.iter().enumerate() {
            let d = min_image_branchy(*pi - *pj, c.box_len);
            let r2 = d.dot(d);
            if i != j && r2 < rc2 {
                f += abs_sum(d * sub.energy_force(r2).1);
            }
        }
    }
    (v, f)
}

fn assert_momentum_conserved(flavor: ScenarioSpec) {
    let sim = SimConfig::reduced_lj(ATOMS).with_scenario(flavor);
    let label = flavor.potential.kind_label();
    for (kind, u) in devices() {
        let run = |steps| {
            kind.build()
                .run(&sim, RunOptions::steps(steps))
                .unwrap_or_else(|e| panic!("{label} on {}: {e}", kind.label()))
                .checkpoint
        };
        let (start, end) = (run(0), run(STEPS));
        assert_eq!(start.mass, 1.0, "the bound assumes reduced unit mass");
        let (v0, f0) = scales(&sim, &start);
        let (v1, f1) = scales(&sim, &end);
        let (v, f) = (2.0 * v0.max(v1), 2.0 * f0.max(f1));
        let h = sim.dt / 2.0;
        let gamma = (ATOMS - 1) as f64 * u / (1.0 - (ATOMS - 1) as f64 * u);
        let bound = 2.0 * STEPS as f64 * (u * (v + h * f) + h * gamma * f) + 4.0 * u * v;
        let (p0, p1) = (momentum(&start), momentum(&end));
        for axis in 0..3 {
            let drift = (p1[axis] - p0[axis]).abs();
            assert!(
                drift <= bound,
                "{label} on {}: momentum axis {axis} drifted {drift:e} > bound {bound:e} \
                 ({p0:?} -> {p1:?})",
                kind.label()
            );
        }
    }
}

#[test]
fn nve_conserves_momentum_with_lennard_jones() {
    assert_momentum_conserved(flavors()[0]);
}

#[test]
fn nve_conserves_momentum_with_morse() {
    assert_momentum_conserved(flavors()[1]);
}

#[test]
fn nve_conserves_momentum_with_coulomb() {
    assert_momentum_conserved(flavors()[2]);
}

/// The premise of the bound: with the devices' minimum-image fold and each
/// flavor's pair scalar, `f_ji` is exactly `-f_ij` for every pair of the
/// initial lattice, in f64 and in f32.
#[test]
fn pair_forces_are_exactly_antisymmetric() {
    fn check<T: Real>(sim: &SimConfig) {
        let sys = md_core::init::initialize::<T>(sim);
        let sub = sim.substrate::<T>();
        let force = |a: Vec3<T>, b: Vec3<T>| {
            let d = min_image_branchy(a - b, sys.box_len);
            d * sub.energy_force(d.dot(d)).1
        };
        for (i, &pi) in sys.positions.iter().enumerate() {
            for &pj in &sys.positions[i + 1..] {
                let (fij, fji) = (force(pi, pj), force(pj, pi));
                // Value equality: exact, but `0.0 == -0.0` for axes where
                // the displacement is zero.
                let vals = |v: Vec3<T>| [v.x, v.y, v.z].map(Real::to_f64);
                assert_eq!(vals(fji), vals(-fij), "{:?}", sim.scenario.potential);
            }
        }
    }
    for flavor in flavors() {
        let sim = SimConfig::reduced_lj(ATOMS).with_scenario(flavor);
        check::<f64>(&sim);
        check::<f32>(&sim);
    }
}

/// **The Figure 5 probe reports the lattice's potential energy.** Each
/// single-SPE probe evaluates the f32 initial lattice once, at the paper's
/// 2,048 atoms. Its PE must be negative (the lattice at liquid density is
/// bound) and agree with the f64 reference PE of the same lattice — the
/// f32 positions widened exactly to f64, so both evaluate the same inputs.
///
/// The stated f32 bound: each pair energy `4(r⁻¹² − r⁻⁶)` is a few dozen
/// roundings from its positions (displacement, minimum-image fold, `r²`,
/// the powers, the difference), so it is off by at most `k·u·t_ij` with
/// `k = 32` and `t_ij = 4(r⁻¹² + r⁻⁶)` the cancellation-free term size; the
/// row sums and the sum over rows add at most `γ(2N)·Σ t_ij`. So
/// `|PE₃₂ − PE₆₄| ≤ (γ(2N) + 32u)·T` with `T = Σ_{i<j} t_ij` and
/// `u = 2⁻²⁴`. At 2,048 atoms that is 2.5e-4·T; every variant's observed
/// gap is 4.3e-6·T (PE −13871.97 against −13871.86 in f64).
#[test]
fn figure5_probes_report_the_lattice_potential_energy() {
    let sim = SimConfig::reduced_lj(2048);
    assert_eq!(sim.scenario, ScenarioSpec::default(), "LJ with ε = σ = 1");
    let lattice: md_core::system::ParticleSystem<f32> = md_core::init::initialize(&sim);
    let mut widened = SystemCheckpoint::capture(&lattice, 0).restore::<f64>();
    let sub = sim.substrate::<f64>();
    let reference = md_core::reference::forces(&mut widened, &sub);
    let rc2 = sub.cutoff2();
    let mut t = 0.0;
    for (i, &pi) in widened.positions.iter().enumerate() {
        for &pj in &widened.positions[i + 1..] {
            let d = min_image_branchy(pi - pj, widened.box_len);
            let r2 = d.dot(d);
            if r2 < rc2 {
                let s6 = (1.0 / r2).powi(3);
                t += 4.0 * (s6 * s6 + s6);
            }
        }
    }
    let (n, u) = (widened.n() as f64, f64::from(f32::EPSILON) / 2.0);
    let gamma = 2.0 * n * u / (1.0 - 2.0 * n * u);
    let bound = (gamma + 32.0 * u) * t;
    assert!(reference < 0.0, "f64 lattice PE {reference}");
    for variant in SpeKernelVariant::ALL {
        let run = DeviceKind::CellAccel { variant }
            .build()
            .run(&sim, RunOptions::steps(0))
            .unwrap_or_else(|e| panic!("{variant:?} probe: {e}"));
        let pe = run.energies.potential;
        assert!(pe < 0.0, "{variant:?} probe PE {pe}");
        assert!(
            (pe - reference).abs() <= bound,
            "{variant:?} probe PE {pe} vs f64 {reference}: gap {:e} > bound {bound:e}",
            (pe - reference).abs()
        );
    }
}

/// How far a run ended from the f64 reference: the RMS minimum-image
/// distance between final positions, and the absolute total-energy gap.
fn deviation(run: &DeviceRun, reference: &DeviceRun) -> (f64, f64) {
    let (a, b) = (&run.checkpoint, &reference.checkpoint);
    let sq: f64 = (a.positions.iter().zip(&b.positions))
        .map(|(&p, &q)| {
            let d = min_image_branchy(p - q, b.box_len);
            d.dot(d)
        })
        .sum();
    let rms = (sq / b.positions.len() as f64).sqrt();
    (rms, (run.energies.total - reference.energies.total).abs())
}

/// **Mixed precision buys accuracy.** `mixed-f64-accumulate` evaluates each
/// pair in f32 but sums every atom's forces and energy in f64, so on the
/// single-precision devices it must end measurably closer to the Opteron's
/// f64 run than native f32 does: at most 0.9 times native's deviation, in
/// final positions and in total energy, on the Cell and on the GPU (LJ, 256
/// atoms × 10 steps).
///
/// It fails today, so it is ignored rather than loosened; run it with
/// `--ignored`. Both policies end 5.0·10⁻⁷σ RMS from the reference, and
/// still 4.7·10⁻⁷σ when the reference starts from the f32-rounded lattice:
/// the f32 rounding of every position update sets that floor. Both
/// report total energy through f32 kinetic and potential sums whose
/// rounding exceeds the gap: the Cell's two totals are the same number.
/// The ROADMAP item "Physics oracles that do not trust the implementation"
/// has the measurements and the next form of this oracle.
#[test]
#[ignore = "fails: f32 state storage, not the force sums, sets the deviation \
            (ROADMAP: Physics oracles that do not trust the implementation)"]
fn mixed_accumulation_is_closer_to_f64_than_native_f32() {
    let run = |kind: &DeviceKind, precision| {
        let sim = SimConfig::reduced_lj(ATOMS)
            .with_scenario(ScenarioSpec::default().with_precision(precision));
        kind.build()
            .run(&sim, RunOptions::steps(STEPS))
            .unwrap_or_else(|e| panic!("{precision} on {}: {e}", kind.label()))
    };
    let reference = run(&DeviceKind::Opteron, PrecisionPolicy::Native);
    let mut failures = Vec::new();
    for (kind, _) in &devices()[2..] {
        let native = deviation(&run(kind, PrecisionPolicy::Native), &reference);
        let mixed = deviation(&run(kind, PrecisionPolicy::MixedF64Accumulate), &reference);
        if !(mixed.0 <= 0.9 * native.0 && mixed.1 <= 0.9 * native.1) {
            failures.push(format!(
                "{}: mixed (positions {:e}, energy {:e}) vs native (positions {:e}, energy {:e})",
                kind.label(),
                mixed.0,
                mixed.1,
                native.0,
                native.1
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "mixed accumulation is not measurably closer to f64: {failures:#?}"
    );
}
