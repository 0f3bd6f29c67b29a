//! A fluid of diatomic molecules: harmonic bonds on top of the LJ kernel —
//! the bonded + non-bonded force-field split the paper describes in §3.5
//! ("calculation of forces between bonded atoms is straightforward and less
//! computationally intensive ... we model non-bonded interactions with a
//! 6-12 Lennard-Jones potential").
//!
//! ```text
//! cargo run --release --example diatomic_fluid
//! ```

use md_emerging_arch::md::prelude::*;

fn main() {
    // 256 atoms = 128 diatomic molecules at moderate density.
    let config = SimConfig::reduced_lj(256)
        .with_density(0.5)
        .with_temperature(0.9)
        .with_dt(0.002);
    // Truncated-and-shifted LJ: the energy is continuous at the cutoff, so
    // the NVE drift below measures the integrator, not truncation jumps.
    let shifted = config.lj_params::<f64>().shifted();
    let mut sim = Simulation::prepare(config);
    sim.substrate = Substrate::from_lj(shifted);

    // Pair up lattice neighbors (2i, 2i+1) with stiff springs, making
    // N₂-style dumbbells. Each bond's rest length is its initial separation
    // so the system starts at bonded equilibrium and the NVE check is clean.
    let k = 150.0;
    let mut topo = BondedTopology::new();
    let mut r0 = 0.0;
    for m in 0..sim.system.n() / 2 {
        let rest = sim.system.distance2(2 * m, 2 * m + 1).sqrt();
        r0 = rest; // uniform on the lattice
        topo = topo.with_bond(2 * m, 2 * m + 1, k, rest);
    }
    sim.set_topology(topo);
    println!(
        "{} diatomic molecules (k = {k}, r0 = {r0}), NVE dynamics\n",
        sim.system.n() / 2
    );

    let e0 = sim.total_energy();
    println!(
        "{:>6} {:>10} {:>12} {:>14} {:>16}",
        "step", "T*", "E total", "drift", "mean bond len"
    );
    for block in 0..8 {
        let r = sim.run(50);
        // Average bond length across molecules.
        let mut mean_len = 0.0;
        for b in &sim.topology().bonds.clone() {
            mean_len += sim.system.distance2(b.i, b.j).sqrt();
        }
        mean_len /= (sim.system.n() / 2) as f64;
        println!(
            "{:>6} {:>10.4} {:>12.4} {:>14.2e} {:>16.4}",
            (block + 1) * 50,
            r.temperature,
            r.total,
            (r.total - e0) / e0,
            mean_len
        );
    }

    // The bonds hold: every molecule stays intact near its rest length.
    let mut max_len: f64 = 0.0;
    for b in &sim.topology().bonds.clone() {
        max_len = max_len.max(sim.system.distance2(b.i, b.j).sqrt());
    }
    println!("\nlongest bond after the run: {max_len:.3} σ (rest length {r0})");
    assert!(max_len < r0 + 0.5, "molecules must stay bound");
    println!("all molecules intact — bonded + non-bonded forces coexist correctly.");
}
