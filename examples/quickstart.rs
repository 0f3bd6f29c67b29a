//! Quickstart: set up a Lennard-Jones liquid and run NVE molecular dynamics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use md_emerging_arch::md::prelude::*;

fn main() {
    // 864 atoms of LJ "argon" near the triple point (reduced units),
    // initialized on an FCC lattice with Maxwell-Boltzmann velocities.
    let config = SimConfig::reduced_lj(864);
    println!(
        "LJ liquid: N = {}, rho* = {}, T* = {}, dt = {}, cutoff = {} sigma",
        config.n_atoms, config.density, config.temperature, config.dt, config.cutoff
    );
    println!("box length L = {:.3} sigma\n", config.box_len());

    let mut sim = Simulation::prepare(config);
    let e0 = sim.total_energy();

    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>8}",
        "step", "kinetic", "potential", "total", "T*"
    );
    for block in 0..10 {
        let r = sim.run(20);
        println!(
            "{:>6} {:>12.4} {:>12.4} {:>12.4} {:>8.4}",
            (block + 1) * 20,
            r.kinetic,
            r.potential,
            r.total,
            r.temperature
        );
    }

    let drift = ((sim.total_energy() - e0) / e0).abs();
    println!("\nrelative energy drift over 200 NVE steps: {drift:.2e}");
    assert!(drift < 0.02, "NVE energy should be conserved");
    println!("energy conserved — the integrator and force kernel are consistent.");
}
