//! Property-based invariants spanning crates: physical conservation laws and
//! simulator consistency under randomized workloads.

use harness::{DeviceKind, GpuModel};
use md_core::device::RunOptions;
use md_core::params::SimConfig;
use md_core::prelude::*;
use md_core::reference;
use md_core::shared_eval::host_forces;
use proptest::prelude::*;
use vecmath::Vec3;

/// Small, fast workloads with randomized seeds/densities/temperatures.
fn workload_strategy() -> impl Strategy<Value = SimConfig> {
    // Density capped at 0.84: for N = 108 and r_c = 2.5σ the minimum-image
    // convention requires L/2 = (N/ρ)^⅓ / 2 > r_c, i.e. ρ < 108/125.
    (0u64..1000, 0.4f64..0.84, 0.3f64..1.5).prop_map(|(seed, density, temperature)| {
        SimConfig::reduced_lj(108)
            .with_seed(seed)
            .with_density(density)
            .with_temperature(temperature)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// NVE total energy is conserved (shifted potential, bounded drift).
    /// The timestep is tightened below the production default because the
    /// randomized workloads include hot (T* up to 1.5), fast-moving states
    /// where dt = 0.005 genuinely under-resolves collisions.
    #[test]
    fn energy_conservation(cfg in workload_strategy()) {
        let cfg = cfg.with_dt(0.002);
        let mut sys: ParticleSystem<f64> = md_core::init::initialize(&cfg);
        let params = Substrate::from_lj(cfg.lj_params::<f64>().shifted());
        let vv = VelocityVerlet::new(cfg.dt);
        let pe0 = reference::forces(&mut sys, &params);
        let e0 = pe0 + sys.kinetic_energy();
        let mut pe = pe0;
        for _ in 0..50 {
            pe = vv.step(&mut sys, &params, |s| reference::forces(s, &params));
        }
        let e1 = pe + sys.kinetic_energy();
        let drift = ((e1 - e0) / e0).abs();
        prop_assert!(drift < 2e-2, "drift {drift:.2e} for {cfg:?}");
        prop_assert!(sys.is_finite());
    }

    /// Newton's third law: net force is zero for any configuration.
    #[test]
    fn net_force_zero(cfg in workload_strategy()) {
        let mut sys: ParticleSystem<f64> = md_core::init::initialize(&cfg);
        let params = cfg.substrate::<f64>();
        reference::forces(&mut sys, &params);
        let mut net = Vec3::zero();
        for a in &sys.accelerations {
            net += *a;
        }
        prop_assert!(net.norm() < 1e-9, "net acceleration {net:?}");
    }

    /// Linear momentum is conserved across dynamics.
    #[test]
    fn momentum_conservation(cfg in workload_strategy()) {
        let mut sim = Simulation::prepare(cfg);
        let p0 = sim.system.total_momentum();
        sim.run(30);
        let p1 = sim.system.total_momentum();
        prop_assert!((p1 - p0).norm() < 1e-8, "momentum moved {:?} -> {:?}", p0, p1);
    }

    /// The shared evaluator agrees with the scalar reference on any valid
    /// configuration, serial or threaded.
    #[test]
    fn kernels_agree(cfg in workload_strategy()) {
        let sys: ParticleSystem<f64> = md_core::init::initialize(&cfg);
        let params = cfg.substrate::<f64>();
        let mut want = sys.clone();
        let pe0 = reference::forces(&mut want, &params);
        for par in [HostParallelism::Serial, HostParallelism::Threads(2)] {
            let mut s = sys.clone();
            let (pe, _) = host_forces(&mut s, &params, par);
            prop_assert!(
                (pe - pe0).abs() < 1e-8 * pe0.abs().max(1.0),
                "{par:?}: PE {pe} vs {pe0}"
            );
            for (a, b) in s.accelerations.iter().zip(&want.accelerations) {
                prop_assert!((*a - *b).norm() < 1e-8, "{par:?}: {a:?} vs {b:?}");
            }
        }
    }

    /// The Cell device's f32 physics stays within single-precision distance
    /// of the f64 reference trajectory for random seeds.
    #[test]
    fn cell_f32_tracks_f64(seed in 0u64..200) {
        let cfg = SimConfig::reduced_lj(108).with_seed(seed);
        let run = DeviceKind::cell_best()
            .build()
            .run(&cfg, RunOptions::steps(2))
            .unwrap();
        let mut sim64 = Simulation::prepare(cfg);
        let r64 = sim64.run(2);
        let err = ((run.energies.total - r64.total) / r64.total).abs();
        prop_assert!(err < 5e-3, "f32 deviation {err:.2e}");
    }

    /// Simulated runtimes are monotone in workload size for every device.
    #[test]
    fn runtimes_monotone_in_n(seed in 0u64..50) {
        let small = SimConfig::reduced_lj(128).with_seed(seed);
        let large = SimConfig::reduced_lj(256).with_seed(seed);
        for kind in [DeviceKind::Opteron, DeviceKind::Gpu { model: GpuModel::GeForce7900Gtx }] {
            let t_small = kind.build().run(&small, RunOptions::steps(1)).unwrap().sim_seconds;
            let t_large = kind.build().run(&large, RunOptions::steps(1)).unwrap().sim_seconds;
            prop_assert!(t_large > t_small, "{} not monotone", kind.label());
        }
    }
}
