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
use md_core::device::{HostParallelism, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::{Ensemble, ScenarioSpec};
use md_core::shared_eval::{cell_stage_row, gpu_texel, host_forces, SoaPositionsF32};
use md_core::system::ParticleSystem;
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
    let lattice: ParticleSystem<f32> = md_core::init::initialize(&sim);
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

/// **The f32 force rows are within a derived bound of f64.** The GPU's
/// [`gpu_texel`] and the Cell's [`cell_stage_row`], at every stage a Cell
/// kernel variant runs, evaluate one f32 liquid state (864 LJ atoms, the
/// GPU's state after 50 steps, so the rows cull). Each row's acceleration
/// and the total potential energy must lie within a bound of
/// [`host_forces`] on the same positions widened exactly to f64. The bound
/// is derived per pair from the unit roundoff `u`, not from either
/// implementation, with `Δ`, `ρ`, `S`, `S'`, `E`, `E'` below:
///
/// - **Displacement.** Coordinates lie in `[0, L)`. Each axis gap `d` is
///   folded by at most three roundings of values no larger than `2L`, each
///   exact shifts by `±L`. So `|d̂ − d| ≤ Δ = 3uL`.
/// - **Squared length.** `r̂²` sums three rounded squares. So
///   `|r̂² − r²| ≤ ρ = D + γ(3)·(r² + D)`, where `D = Σ_k Δ(2|d_k| + Δ)` and
///   `γ(k) = k·u / (1 − k·u)`.
/// - **Pair scalar.** `f/r = 24(2r⁻¹⁴ − r⁻⁸)` (ε = σ = 1) is a few dozen
///   roundings from `r̂²`: at most `32u·S(r̂²)` off the exact value at
///   `r̂²`, where `S = 24(2r⁻¹⁴ + r⁻⁸)` is its cancellation-free size. It
///   is also at most `ρ·S'` from the value at `r²`, where
///   `S' = 24(14r⁻¹⁶ + 4r⁻¹⁰)` bounds its slope in `r²`. `S` and `S'` are
///   decreasing in `r²`, so both are taken at `y = r² − ρ`. The energy
///   `4(r⁻¹² − r⁻⁶)` is bounded the same way, with `E = 4(r⁻¹² + r⁻⁶)` and
///   `E' = 4(6r⁻¹⁴ + 3r⁻⁸)`.
/// - **Pair term.** Each term `d_k·(f/r)` is off by at most
///   `Δ·(1 + 32u)·S + |d_k|·(32u·S + ρ·S')`.
/// - **Sums.** A row sums at most `N` products or energies, in any order,
///   with or without FMA. This adds `γ(N)` times the sum of the terms'
///   magnitudes, `(|d_k| + Δ)·(1 + 32u)·S` each.
/// - **Cutoff.** A pair with `|r² − r_c²| ≤ ρ` may be kept by one side
///   and dropped by the other. Its whole term, twice its magnitude bound,
///   is added.
/// - **Total energy.** The test sums the rows' energies in f64. That adds
///   `γ(N)` times half the sum of every pair's energy magnitude.
///
/// The f64 reference obeys the same bound with `u = 2⁻⁵³`. The bound
/// grows superadditively with `u`, so one evaluation at
/// `u = 2⁻²⁴ + 2⁻⁵³` covers the sum of both sides' errors. The bound is
/// about 1.4e-3 of the acceleration magnitudes, and the largest observed
/// acceleration error is 1.3% of it. The energy error is below 1e-5 of its
/// bound: the per-pair worst cases add up in the bound, while the actual
/// errors largely cancel in the sum. A flavor that drops a pair, shifts by
/// the wrong image or mis-scales a term exceeds the bound.
#[test]
fn f32_force_rows_are_within_a_derived_bound_of_f64() {
    const N: usize = 864;
    let sim = SimConfig::reduced_lj(N);
    assert_eq!(sim.scenario, ScenarioSpec::default(), "LJ with ε = σ = 1");
    let gpu = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    let state = gpu
        .build()
        .run(&sim, RunOptions::steps(50))
        .unwrap_or_else(|e| panic!("GPU run: {e}"))
        .checkpoint;
    let mut wide: ParticleSystem<f64> = state.restore();
    let (pe64, _) = host_forces(&mut wide, &sim.substrate(), HostParallelism::Serial);
    let (l, rc2) = (wide.box_len, sim.cutoff * sim.cutoff);
    assert_eq!(wide.mass, 1.0, "unit mass: inv_mass scales exactly");
    assert!(
        sim.cutoff < 0.25 * l,
        "the rows cull, no image is ambiguous"
    );
    let coords = |p: &Vec3<f64>| [p.x, p.y, p.z];
    assert!(
        wide.positions
            .iter()
            .flat_map(coords)
            .all(|c| (0.0..l).contains(&c)),
        "coordinates in [0, L)"
    );

    let u = f64::from(f32::EPSILON) / 2.0 + f64::EPSILON / 2.0;
    let gamma = |k: f64| k * u / (1.0 - k * u);
    let delta = 3.0 * u * l;
    let mut acc_bound = vec![[0.0f64; 3]; N];
    let mut row_pe_bound = vec![0.0f64; N];
    let mut pe_size = 0.0;
    for (i, &pi) in wide.positions.iter().enumerate() {
        for (j, &pj) in wide.positions.iter().enumerate() {
            let d = coords(&min_image_branchy(pi - pj, l));
            let r2: f64 = d.iter().map(|c| c * c).sum();
            let dd: f64 = d.iter().map(|c| delta * (2.0 * c.abs() + delta)).sum();
            let rho = dd + gamma(3.0) * (r2 + dd);
            let y = r2 - rho;
            if i == j || y >= rc2 {
                continue;
            }
            assert!(y > 0.0, "atoms {i} and {j} overlap");
            let (inv, inv2) = (y.recip(), y.recip().powi(2));
            let (s, slope) = (
                24.0 * (2.0 * inv2.powi(3) * inv + inv2 * inv2),
                24.0 * (14.0 * inv2.powi(4) + 4.0 * inv2 * inv2 * inv),
            );
            let (e, e_slope) = (
                4.0 * (inv2.powi(3) + inv2 * inv),
                4.0 * (6.0 * inv2.powi(3) * inv + 3.0 * inv2 * inv2),
            );
            let crossing = if r2 + rho >= rc2 { 2.0 } else { 0.0 };
            for (bound, c) in acc_bound[i].iter_mut().zip(d) {
                let size = (c.abs() + delta) * (1.0 + 32.0 * u) * s;
                *bound += delta * (1.0 + 32.0 * u) * s
                    + c.abs() * (32.0 * u * s + rho * slope)
                    + (gamma(N as f64) + crossing) * size;
            }
            let e_size = (1.0 + 32.0 * u) * e;
            row_pe_bound[i] += 32.0 * u * e + rho * e_slope + (gamma(N as f64) + crossing) * e_size;
            pe_size += e_size;
        }
    }
    let pe_bound = 0.5 * row_pe_bound.iter().sum::<f64>() + gamma(N as f64) * 0.5 * pe_size;

    let narrow: ParticleSystem<f32> = state.restore();
    let soa = SoaPositionsF32::from_quads(narrow.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]));
    let (l32, sub) = (narrow.box_len, sim.substrate::<f32>());
    let mut flavors = vec![(
        "gpu_texel".to_string(),
        (0..N)
            .map(|i| gpu_texel(&soa, i, l32, &sub, 1.0))
            .collect::<Vec<_>>(),
    )];
    for variant in SpeKernelVariant::ALL {
        let stage = variant.stage(l32);
        let rows = (0..N).map(|i| {
            let row = cell_stage_row(&soa, i, l32, &sub, 1.0, stage);
            [row.acc[0], row.acc[1], row.acc[2], row.pe]
        });
        flavors.push((format!("cell_stage_row at {stage:?}"), rows.collect()));
    }
    for (name, rows) in flavors {
        for (i, row) in rows.iter().enumerate() {
            for (k, want) in coords(&wide.accelerations[i]).into_iter().enumerate() {
                let err = (f64::from(row[k]) - want).abs();
                assert!(
                    err <= acc_bound[i][k],
                    "{name}: atom {i} axis {k}: {} vs f64 {want}: error {err:e} > bound {:e}",
                    row[k],
                    acc_bound[i][k]
                );
            }
        }
        let pe = 0.5 * rows.iter().map(|row| f64::from(row[3])).sum::<f64>();
        let err = (pe - pe64).abs();
        assert!(
            err <= pe_bound,
            "{name}: PE {pe} vs f64 {pe64}: error {err:e} > bound {pe_bound:e}"
        );
    }
}

/// **Velocity Verlet is second order.** Over a fixed span of simulated
/// time its total-energy error on a smooth Hamiltonian scales as `dt²`, so
/// halving `dt` cuts it about 4×. This checks the host flavor of the
/// driver every f64 device prices ([`Trajectory`]) without trusting its
/// bits: the error
/// is measured against the run's own starting energy, not against another
/// implementation.
///
/// The run is a cold 108-atom FCC crystal (`T* = 0.01`). Its pair
/// distances stay in shells well inside or outside the 2.5σ cutoff, so no
/// pair crosses it and the truncated potential is smooth along the whole
/// trajectory; every evaluation's interaction count equalling the first one
/// confirms that. In a liquid, pairs cross the cutoff throughout the span,
/// and each crossing is a jump in the potential that no integrator
/// conserves. The error is the largest `|E(t) − E(0)|` over the span, which
/// does not depend on where the bounded Verlet oscillation ends.
#[test]
fn halving_dt_cuts_the_f64_drivers_energy_error_fourfold() {
    use md_core::device::HostParallelism;
    use md_core::trajectory::{Flavor, Trajectory};

    const SPAN: f64 = 0.5;
    let worst_error = |dt: f64| {
        let sim = SimConfig::reduced_lj(108)
            .with_temperature(0.01)
            .with_dt(dt);
        let drive = |start: Option<&_>, steps, resume: Option<&_>| {
            Trajectory::drive(
                Flavor::Host,
                &sim,
                start,
                steps,
                HostParallelism::Serial,
                resume,
            )
        };
        let mut traj = drive(None, 0, None);
        let (e0, pairs) = (
            traj.record().energies().total,
            traj.record().last_eval().interactions,
        );
        let mut worst = 0.0f64;
        for _ in 0..(SPAN / dt).round() as usize {
            let start = traj.checkpoint();
            traj = drive(Some(&start), 1, Some(&traj));
            assert_eq!(
                traj.record().last_eval().interactions,
                pairs,
                "dt {dt}: a pair crossed the cutoff"
            );
            worst = worst.max((traj.record().energies().total - e0).abs());
        }
        worst
    };
    let errors = [0.004, 0.002, 0.001].map(worst_error);
    for pair in errors.windows(2) {
        let ratio = pair[0] / pair[1];
        assert!(
            (3.8..4.2).contains(&ratio),
            "halving dt cut the energy error {ratio:.2}x, not ~4x: {errors:?}"
        );
    }
}
