//! Melting a Lennard-Jones solid — the kind of bio/materials workload the
//! paper's introduction motivates, exercising thermostats and the radial
//! distribution function.
//!
//! A cold FCC crystal is heated in stages; the g(r) structure and the
//! diffusion of atoms show the solid→liquid transition.
//!
//! ```text
//! cargo run --release --example argon_melt
//! ```

use md_emerging_arch::md::observables::radial_distribution;
use md_emerging_arch::md::prelude::*;

/// First-peak height and long-range structure of g(r) summarize order.
fn structure_report(sys: &ParticleSystem<f64>) -> (f64, f64) {
    let g = radial_distribution(sys, 2.5, 64);
    let first_peak = g
        .iter()
        .filter(|(r, _)| (0.9..1.4).contains(r))
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    // Structure beyond 2 sigma: high and spiky for a crystal, ~1 for liquid.
    let far: Vec<f64> = g
        .iter()
        .filter(|(r, _)| *r > 2.0)
        .map(|(_, v)| *v)
        .collect();
    let mean = far.iter().sum::<f64>() / far.len() as f64;
    let var = far.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / far.len() as f64;
    (first_peak, var.sqrt())
}

fn main() {
    // A cold, dense FCC solid.
    let config = SimConfig::reduced_lj(500)
        .with_density(1.05)
        .with_temperature(0.1)
        .with_dt(0.002);
    let mut sim = Simulation::prepare(config);

    println!("heating a 500-atom LJ crystal from T* = 0.1 (solid) to T* = 1.6 (liquid)\n");
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>16}",
        "target", "T*", "PE/atom", "g(r) 1st peak", "far-field spread"
    );

    for &target in &[0.1, 0.4, 0.8, 1.2, 1.6] {
        let thermostat = VelocityRescale::new(target, 0.5);
        // Equilibrate at this temperature: thermostatted blocks.
        for _ in 0..30 {
            sim.step();
            thermostat.apply(&mut sim.system);
        }
        // Short NVE production.
        let r = sim.run(40);
        let (peak, spread) = structure_report(&sim.system);
        println!(
            "{:>8.2} {:>8.3} {:>12.4} {:>14.2} {:>16.3}",
            target,
            r.temperature,
            r.potential / sim.system.n() as f64,
            peak,
            spread
        );
    }

    let (final_peak, _) = structure_report(&sim.system);
    println!(
        "\nfirst g(r) peak dropped as the crystal melted (liquid peaks are broad): {final_peak:.2}"
    );
    println!(
        "the system is {}",
        if final_peak < 4.0 {
            "molten"
        } else {
            "still ordered"
        }
    );
}
