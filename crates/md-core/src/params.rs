//! Simulation configuration.

use crate::init::Lattice;
use crate::lj::LjParams;
use crate::scenario::{ScenarioSpec, Substrate};

/// Full description of an MD workload — enough to reproduce any experiment.
///
/// All quantities are in reduced Lennard-Jones units (ε = σ = m = 1), the
/// conventional choice for LJ benchmark kernels like the paper's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of atoms. Lattice initialization may round this up to the next
    /// perfect lattice filling unless `exact_n` is set.
    pub n_atoms: usize,
    /// Reduced number density ρ* = N σ³ / V.
    pub density: f64,
    /// Initial reduced temperature T* = k_B T / ε.
    pub temperature: f64,
    /// Integration timestep Δt* (in units of σ √(m/ε)).
    pub dt: f64,
    /// Radial interaction cutoff in σ.
    pub cutoff: f64,
    /// Lattice used for initial positions.
    pub lattice: Lattice,
    /// RNG seed for velocity initialization and lattice jitter.
    pub seed: u64,
    /// If true, truncate to exactly `n_atoms` after lattice fill.
    pub exact_n: bool,
    /// Which physics scenario to run: potential × ensemble × precision
    /// policy (DESIGN.md §16). Defaults to the paper-faithful LJ/NVE/native.
    pub scenario: ScenarioSpec,
}

impl SimConfig {
    /// The canonical benchmark workload: LJ liquid near the triple point
    /// (ρ* = 0.8442, T* = 0.728), dt = 0.005, cutoff 2.5σ — the same regime
    /// classic MD kernel benchmarks use, and dense enough that a meaningful
    /// fraction of pairs falls inside the cutoff (the paper notes only a few
    /// tested pairs of the full N² interact).
    pub fn reduced_lj(n_atoms: usize) -> Self {
        Self {
            n_atoms,
            density: 0.8442,
            temperature: 0.728,
            dt: 0.005,
            cutoff: 2.5,
            lattice: Lattice::Fcc,
            seed: 0x5EED_0001,
            exact_n: true,
            scenario: ScenarioSpec::default(),
        }
    }

    /// The paper's headline workload size (2048 atoms, 10 time steps is the
    /// Table 1 configuration; steps are chosen by the caller).
    pub fn paper_2048() -> Self {
        Self::reduced_lj(2048)
    }

    /// Lennard-Jones parameters implied by reduced units. Kept for
    /// LJ-specific call sites (analysis, tests); the run path resolves the
    /// scenario through [`Self::substrate`] instead.
    pub fn lj_params<T: vecmath::Real>(&self) -> LjParams<T> {
        LjParams::reduced(T::from_f64(self.cutoff))
    }

    /// Resolve this config's scenario into precision `T` — the evaluator
    /// every force kernel and device lane runs against.
    pub fn substrate<T: vecmath::Real>(&self) -> Substrate<T> {
        self.scenario.substrate(self.cutoff)
    }

    /// The scenario identity token, for cache keys and ledgers.
    pub fn scenario_token(&self) -> String {
        self.scenario.cache_token()
    }

    /// Cubic box side length L for this (N, ρ).
    pub fn box_len(&self) -> f64 {
        (self.n_atoms as f64 / self.density).cbrt()
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    pub fn with_cutoff(mut self, cutoff: f64) -> Self {
        self.cutoff = cutoff;
        self
    }

    pub fn with_density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }

    pub fn with_temperature(mut self, temperature: f64) -> Self {
        self.temperature = temperature;
        self
    }

    pub fn with_lattice(mut self, lattice: Lattice) -> Self {
        self.lattice = lattice;
        self
    }

    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sanity checks; panics with a descriptive message on nonsense input.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Non-panicking validation, for surfaces (CLI) that report errors
    /// gracefully.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.n_atoms < 2 {
            return Err("need at least two atoms".into());
        }
        // Negated positive tests rather than `x <= 0.0`, so NaN fails too.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.density) {
            return Err("density must be positive and finite".into());
        }
        if !positive(self.dt) {
            return Err("timestep must be positive and finite".into());
        }
        if !positive(self.cutoff) {
            return Err("cutoff must be positive and finite".into());
        }
        if !(self.temperature.is_finite() && self.temperature >= 0.0) {
            return Err("temperature must be finite and non-negative".into());
        }
        if self.cutoff > self.box_len() / 2.0 {
            return Err(format!(
                "cutoff {:.3} exceeds half the box length {:.3}; minimum-image is invalid \
                 (reduce cutoff or increase N)",
                self.cutoff,
                self.box_len() / 2.0,
            ));
        }
        self.scenario.try_validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_len_matches_density() {
        let c = SimConfig::reduced_lj(1000);
        let v = c.box_len().powi(3);
        assert!((1000.0 / v - 0.8442).abs() < 1e-9);
    }

    #[test]
    fn paper_workload_is_valid() {
        SimConfig::paper_2048().validate();
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_larger_than_half_box_rejected() {
        // 16 atoms at liquid density → box ~2.67σ; cutoff 2.5σ is too big.
        SimConfig::reduced_lj(16).validate();
    }

    #[test]
    fn non_finite_or_negative_parameters_are_rejected() {
        let base = SimConfig::reduced_lj(256);
        assert!(base.try_validate().is_ok());
        assert!(base.with_temperature(0.0).try_validate().is_ok(), "T* = 0");
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(base.with_dt(bad).try_validate().is_err(), "dt {bad}");
            assert!(
                base.with_density(bad).try_validate().is_err(),
                "density {bad}"
            );
            assert!(
                base.with_cutoff(bad).try_validate().is_err(),
                "cutoff {bad}"
            );
            assert!(
                base.with_temperature(bad).try_validate().is_err(),
                "T {bad}"
            );
        }
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::reduced_lj(500)
            .with_seed(9)
            .with_dt(0.001)
            .with_cutoff(2.0)
            .with_density(0.5)
            .with_temperature(1.5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.dt, 0.001);
        assert_eq!(c.cutoff, 2.0);
        assert_eq!(c.density, 0.5);
        assert_eq!(c.temperature, 1.5);
    }

    #[test]
    fn lj_params_reduced_units() {
        let c = SimConfig::reduced_lj(500);
        let p = c.lj_params::<f64>();
        assert_eq!(p.cutoff, 2.5);
        assert_eq!(p.epsilon, 1.0);
        assert_eq!(p.sigma, 1.0);
    }
}
