//! Scenario substrate (DESIGN.md §16): pluggable potentials, ensembles, and
//! precision policies behind one resolved evaluator.
//!
//! The paper fixes a single scenario — LJ 6-12, NVE, f32 on Cell/GPU vs f64
//! on MTA/Opteron — and the seed code baked that split into every kernel
//! signature. This module makes the scenario a first-class value instead:
//!
//! - [`ScenarioSpec`] is the *workload identity*: which pair potential, which
//!   ensemble, which precision policy. It lives on
//!   [`SimConfig`](crate::params::SimConfig), prints/parses a stable token
//!   (`Display`/`FromStr` round-trip), and participates in every cache key
//!   via [`ScenarioSpec::cache_token`].
//! - [`Substrate`] is the spec *resolved* into one precision `T`: the thing
//!   force kernels actually evaluate pairs against, integrators pull the
//!   thermostat from, and device cost models query for extra per-pair work.
//!
//! The faithful default ([`ScenarioSpec::default`]) resolves to exactly the
//! seed's LJ evaluation — same [`LjParams`] construction, same
//! `energy_force` arithmetic, zero extra cost — so default-scenario runs are
//! bitwise-identical to the pre-substrate code (pinned by
//! `tests/substrate.rs` on all four devices).

use crate::lj::LjParams;
use crate::system::ParticleSystem;
use crate::thermostat::VelocityRescale;
use std::fmt;
use std::str::FromStr;
use vecmath::Real;

// ---------------------------------------------------------------------------
// Spec layer: plain f64 workload description.
// ---------------------------------------------------------------------------

/// Which pair potential the scenario runs. Parameters are in reduced units,
/// stored as `f64` and narrowed at [`ScenarioSpec::substrate`] resolution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Potential {
    /// The paper's 6-12 Lennard-Jones: `V(r) = 4ε[(σ/r)¹² − (σ/r)⁶]`.
    LennardJones { epsilon: f64, sigma: f64 },
    /// Morse bond potential `V(r) = D(1 − e^{−a(r−r₀)})² − D`, the standard
    /// anharmonic pair form for covalent-like wells.
    Morse { depth: f64, stiffness: f64, r0: f64 },
    /// Truncated Coulomb `V(r) = q²/r` (reduced units, 4πε₀ = 1), cut at the
    /// scenario cutoff like every other pair term.
    Coulomb { q2: f64 },
}

impl Potential {
    /// Short family name ("lj", "morse", "coul") for reports and ledgers.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Potential::LennardJones { .. } => "lj",
            Potential::Morse { .. } => "morse",
            Potential::Coulomb { .. } => "coul",
        }
    }

    /// Extra arithmetic operations one in-cutoff pair evaluation costs on
    /// top of the LJ 6-12 baseline each device already charges. Zero for LJ
    /// *by construction* — that keeps default-scenario cost models bitwise
    /// identical to seed. Morse pays for the sqrt + exponential; Coulomb for
    /// the sqrt + divide (fewer terms than LJ, but the transcendental-free
    /// LJ form is what the baseline constants price).
    pub fn extra_eval_ops(&self) -> f64 {
        match self {
            Potential::LennardJones { .. } => 0.0,
            Potential::Morse { .. } => 9.0,
            Potential::Coulomb { .. } => 3.0,
        }
    }

    /// Cache-key component. Encodes every field of every variant: two specs
    /// with different physics must never share a cached result.
    pub fn cache_token(&self) -> String {
        match self {
            Potential::LennardJones { epsilon, sigma } => format!("lj:e{epsilon},s{sigma}"),
            Potential::Morse {
                depth,
                stiffness,
                r0,
            } => format!("morse:d{depth},a{stiffness},r{r0}"),
            Potential::Coulomb { q2 } => format!("coul:q{q2}"),
        }
    }

    fn try_validate(&self) -> Result<(), String> {
        match *self {
            Potential::LennardJones { epsilon, sigma } => {
                if !(positive_finite(epsilon) && positive_finite(sigma)) {
                    return Err(format!(
                        "LJ needs finite positive epsilon/sigma, got e={epsilon}, s={sigma}"
                    ));
                }
            }
            Potential::Morse {
                depth,
                stiffness,
                r0,
            } => {
                if !(positive_finite(depth) && positive_finite(stiffness) && positive_finite(r0)) {
                    return Err(format!(
                        "Morse needs finite positive depth/stiffness/r0, got d={depth}, a={stiffness}, r={r0}"
                    ));
                }
            }
            Potential::Coulomb { q2 } => {
                if q2 == 0.0 || !q2.is_finite() {
                    return Err(format!("Coulomb needs finite nonzero q2, got {q2}"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Potential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cache_token())
    }
}

impl FromStr for Potential {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = s.split_once(':').unwrap_or((s, ""));
        match kind {
            "lj" => {
                let [e, sg] = parse_fields(rest, ["e", "s"], "lj:e<ε>,s<σ>")?;
                Ok(Potential::LennardJones {
                    epsilon: e,
                    sigma: sg,
                })
            }
            "morse" => {
                let [d, a, r] = parse_fields(rest, ["d", "a", "r"], "morse:d<D>,a<a>,r<r0>")?;
                Ok(Potential::Morse {
                    depth: d,
                    stiffness: a,
                    r0: r,
                })
            }
            "coul" => {
                let [q] = parse_fields(rest, ["q"], "coul:q<q²>")?;
                Ok(Potential::Coulomb { q2: q })
            }
            other => Err(format!(
                "unknown potential {other:?} (expected lj, morse, or coul)"
            )),
        }
    }
}

/// Which statistical ensemble the integrator targets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ensemble {
    /// Microcanonical: plain velocity-Verlet, the paper's kernel.
    Nve,
    /// Canonical via the deterministic velocity-rescaling thermostat
    /// ([`VelocityRescale`]), applied after each step's final kick.
    Nvt { target: f64, kappa: f64 },
}

impl Ensemble {
    /// Per-atom per-step operations the ensemble adds on top of the NVE
    /// integration each device already charges: zero for NVE (bitwise seed
    /// cost), ~6 for NVT (kinetic-energy reduction term + scale per atom).
    pub fn extra_step_ops_per_atom(&self) -> f64 {
        match self {
            Ensemble::Nve => 0.0,
            Ensemble::Nvt { .. } => 6.0,
        }
    }

    /// Cache-key component; encodes every field of every variant.
    pub fn cache_token(&self) -> String {
        match self {
            Ensemble::Nve => "nve".to_string(),
            Ensemble::Nvt { target, kappa } => format!("nvt:t{target},k{kappa}"),
        }
    }

    fn try_validate(&self) -> Result<(), String> {
        if let Ensemble::Nvt { target, kappa } = *self {
            if target < 0.0 || !target.is_finite() {
                return Err(format!("NVT target temperature must be >= 0, got {target}"));
            }
            if !(kappa > 0.0 && kappa <= 1.0) {
                return Err(format!("NVT coupling must be in (0, 1], got {kappa}"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Ensemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cache_token())
    }
}

impl FromStr for Ensemble {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = s.split_once(':').unwrap_or((s, ""));
        match kind {
            "nve" if rest.is_empty() => Ok(Ensemble::Nve),
            "nve" => Err(format!("nve takes no parameters, got {rest:?}")),
            "nvt" => {
                let [t, k] = parse_fields(rest, ["t", "k"], "nvt:t<T*>,k<κ>")?;
                Ok(Ensemble::Nvt {
                    target: t,
                    kappa: k,
                })
            }
            other => Err(format!("unknown ensemble {other:?} (expected nve or nvt)")),
        }
    }
}

/// How pair terms are evaluated relative to the device's native precision
/// (the paper's split: f32 on Cell/GPU, f64 on MTA/Opteron).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrecisionPolicy {
    /// Evaluate in whatever precision the device natively runs — the
    /// faithful default.
    #[default]
    Native,
    /// Force pair evaluation in f32 everywhere (what an f64 machine loses).
    ForceF32,
    /// Force pair evaluation in f64 everywhere (what an f32 machine gains).
    ForceF64,
}

impl PrecisionPolicy {
    /// Cache-key component.
    pub fn cache_token(&self) -> &'static str {
        match self {
            PrecisionPolicy::Native => "native",
            PrecisionPolicy::ForceF32 => "f32",
            PrecisionPolicy::ForceF64 => "f64",
        }
    }
}

impl fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cache_token())
    }
}

impl FromStr for PrecisionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "native" => Ok(PrecisionPolicy::Native),
            "f32" => Ok(PrecisionPolicy::ForceF32),
            "f64" => Ok(PrecisionPolicy::ForceF64),
            other => Err(format!(
                "unknown precision policy {other:?} (expected native, f32 or f64)"
            )),
        }
    }
}

/// The full scenario identity: potential × ensemble × precision policy.
///
/// Prints as `<potential>/<ensemble>/<precision>` (e.g.
/// `lj:e1,s1/nve/native`) and parses the same form back; trailing segments
/// may be omitted on input and default (`morse:d1,a2,r1.2` alone is a valid
/// spec). The printed form *is* the cache token, so everything that keys a
/// cache on a scenario and everything that names one in a CLI agree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    pub potential: Potential,
    pub ensemble: Ensemble,
    pub precision: PrecisionPolicy,
}

impl Default for ScenarioSpec {
    /// The paper-faithful scenario: reduced LJ 6-12, NVE, device-native
    /// precision.
    fn default() -> Self {
        Self {
            potential: Potential::LennardJones {
                epsilon: 1.0,
                sigma: 1.0,
            },
            ensemble: Ensemble::Nve,
            precision: PrecisionPolicy::Native,
        }
    }
}

impl ScenarioSpec {
    /// The canonical extension scenario A: a Morse well under NVT at the
    /// paper's liquid temperature. Exercises the transcendental pair path
    /// and the thermostat on every device.
    pub fn morse_nvt() -> Self {
        Self {
            potential: Potential::Morse {
                depth: 1.0,
                stiffness: 2.0,
                r0: 1.2,
            },
            ensemble: Ensemble::Nvt {
                target: 0.728,
                kappa: 0.5,
            },
            precision: PrecisionPolicy::Native,
        }
    }

    /// The canonical extension scenario B: truncated Coulomb repulsion, NVE.
    pub fn coulomb_cutoff() -> Self {
        Self {
            potential: Potential::Coulomb { q2: 1.0 },
            ensemble: Ensemble::Nve,
            precision: PrecisionPolicy::Native,
        }
    }

    pub fn with_potential(mut self, potential: Potential) -> Self {
        self.potential = potential;
        self
    }

    pub fn with_ensemble(mut self, ensemble: Ensemble) -> Self {
        self.ensemble = ensemble;
        self
    }

    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    /// Cache-key component covering every reachable field of the scenario:
    /// the three sub-tokens each encode all fields of their own enum. Two
    /// specs that could produce different trajectories or different costs
    /// must produce different tokens (enforced by the sim-vet `cache-token`
    /// rule and the mutation tests in `tests/substrate.rs`).
    pub fn cache_token(&self) -> String {
        let potential = self.potential.cache_token();
        let ensemble = self.ensemble.cache_token();
        let precision = self.precision.cache_token();
        format!("{potential}/{ensemble}/{precision}")
    }

    pub fn try_validate(&self) -> Result<(), String> {
        self.potential.try_validate()?;
        self.ensemble.try_validate()
    }

    /// Resolve into precision `T` (a device's native width). `cutoff` comes
    /// from the [`SimConfig`](crate::params::SimConfig), the same way the
    /// seed's `lj_params` took it.
    pub fn substrate<T: Real>(&self, cutoff: f64) -> Substrate<T> {
        let native_is_f32 = size_of::<T>() == size_of::<f32>();
        let eval = match self.precision {
            PrecisionPolicy::Native => EvalPrecision::Native,
            PrecisionPolicy::ForceF32 if native_is_f32 => EvalPrecision::Native,
            PrecisionPolicy::ForceF32 => EvalPrecision::ForceF32,
            PrecisionPolicy::ForceF64 if !native_is_f32 => EvalPrecision::Native,
            PrecisionPolicy::ForceF64 => EvalPrecision::ForceF64,
        };
        let thermostat = match self.ensemble {
            Ensemble::Nve => None,
            Ensemble::Nvt { target, kappa } => Some(VelocityRescale::new(
                T::from_f64(target),
                T::from_f64(kappa),
            )),
        };
        Substrate {
            pot: PairPotential::resolve(&self.potential, cutoff),
            pot32: PairPotential::resolve(&self.potential, cutoff),
            pot64: PairPotential::resolve(&self.potential, cutoff),
            eval,
            thermostat,
            spec: *self,
        }
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cache_token())
    }
}

impl FromStr for ScenarioSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err("empty scenario spec".to_string());
        }
        if s == "default" {
            return Ok(Self::default());
        }
        let mut out = Self::default();
        let mut parts = s.split('/');
        if let Some(p) = parts.next() {
            out.potential = p.parse()?;
        }
        if let Some(e) = parts.next() {
            out.ensemble = e.parse()?;
        }
        if let Some(p) = parts.next() {
            out.precision = p.parse()?;
        }
        if let Some(extra) = parts.next() {
            return Err(format!(
                "trailing scenario segment {extra:?} (expected potential/ensemble/precision)"
            ));
        }
        out.try_validate()?;
        Ok(out)
    }
}

/// Whether a potential parameter is usable: not zero, negative, infinite
/// or NaN (which no `<= 0.0` comparison catches).
fn positive_finite(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// Parse `"e1,s2"`-style field lists: each comma-separated piece must start
/// with its expected one-letter tag followed by a float.
fn parse_fields<const N: usize>(
    rest: &str,
    tags: [&str; N],
    example: &str,
) -> Result<[f64; N], String> {
    let mut out = [0.0; N];
    let mut pieces = rest.split(',');
    for (slot, tag) in out.iter_mut().zip(tags) {
        let piece = pieces
            .next()
            .ok_or_else(|| format!("missing field {tag:?} (expected {example})"))?;
        let value = piece
            .strip_prefix(tag)
            .ok_or_else(|| format!("expected field {tag:?} in {piece:?} (format: {example})"))?;
        *slot = value
            .parse::<f64>()
            .map_err(|e| format!("bad value for {tag:?} in {piece:?}: {e}"))?;
    }
    if let Some(extra) = pieces.next() {
        return Err(format!("trailing field {extra:?} (expected {example})"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Resolved layer: what kernels evaluate against.
// ---------------------------------------------------------------------------

/// Morse parameters resolved into precision `T`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MorseParams<T> {
    pub depth: T,
    pub stiffness: T,
    pub r0: T,
    pub cutoff: T,
}

impl<T: Real> MorseParams<T> {
    #[inline(always)]
    pub fn cutoff2(&self) -> T {
        self.cutoff * self.cutoff
    }

    /// Energy and force/r from squared separation, zero beyond the cutoff.
    ///
    /// `V(r) = D(1 − x)² − D` with `x = e^{−a(r−r₀)}`, so
    /// `F/r = −dV/dr / r = −2Dax(1 − x)/r`.
    #[inline(always)]
    pub fn energy_force(&self, r2: T) -> (T, T) {
        if r2 >= self.cutoff2() || r2 == T::ZERO {
            return (T::ZERO, T::ZERO);
        }
        let r = r2.sqrt();
        let x = (-(self.stiffness * (r - self.r0))).exp();
        let one_minus = T::ONE - x;
        let e = self.depth * (one_minus * one_minus - T::ONE);
        let f_over_r = -(T::TWO * self.depth * self.stiffness * x * one_minus) / r;
        (e, f_over_r)
    }
}

/// Truncated-Coulomb parameters resolved into precision `T`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoulombParams<T> {
    pub q2: T,
    pub cutoff: T,
}

impl<T: Real> CoulombParams<T> {
    #[inline(always)]
    pub fn cutoff2(&self) -> T {
        self.cutoff * self.cutoff
    }

    /// `V(r) = q²/r`, `F/r = q²/r³ = q² · r⁻² / r`; positive = repulsive for
    /// like charges (q² > 0), matching the LJ sign convention.
    #[inline(always)]
    pub fn energy_force(&self, r2: T) -> (T, T) {
        if r2 >= self.cutoff2() || r2 == T::ZERO {
            return (T::ZERO, T::ZERO);
        }
        let inv_r2 = r2.recip();
        let inv_r = inv_r2.sqrt();
        let e = self.q2 * inv_r;
        let f_over_r = self.q2 * inv_r2 * inv_r;
        (e, f_over_r)
    }
}

/// One pair potential resolved into precision `T`. The LJ arm *is* the
/// seed's [`LjParams`] — same struct, same `energy_force` — so dispatching
/// through this enum with the default scenario reproduces seed arithmetic
/// bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PairPotential<T> {
    LennardJones(LjParams<T>),
    Morse(MorseParams<T>),
    Coulomb(CoulombParams<T>),
}

impl<T: Real> PairPotential<T> {
    fn resolve(spec: &Potential, cutoff: f64) -> Self {
        let cut = T::from_f64(cutoff);
        match *spec {
            Potential::LennardJones { epsilon, sigma } => PairPotential::LennardJones(
                LjParams::new(T::from_f64(epsilon), T::from_f64(sigma), cut),
            ),
            Potential::Morse {
                depth,
                stiffness,
                r0,
            } => PairPotential::Morse(MorseParams {
                depth: T::from_f64(depth),
                stiffness: T::from_f64(stiffness),
                r0: T::from_f64(r0),
                cutoff: cut,
            }),
            Potential::Coulomb { q2 } => PairPotential::Coulomb(CoulombParams {
                q2: T::from_f64(q2),
                cutoff: cut,
            }),
        }
    }

    #[inline(always)]
    pub fn cutoff2(&self) -> T {
        match self {
            PairPotential::LennardJones(p) => p.cutoff2(),
            PairPotential::Morse(p) => p.cutoff2(),
            PairPotential::Coulomb(p) => p.cutoff2(),
        }
    }

    /// Radial cutoff (unsquared), for neighbor-structure reach computations.
    #[inline(always)]
    pub fn cutoff(&self) -> T {
        match self {
            PairPotential::LennardJones(p) => p.cutoff,
            PairPotential::Morse(p) => p.cutoff,
            PairPotential::Coulomb(p) => p.cutoff,
        }
    }

    /// Energy and force/r from squared separation (zero beyond the cutoff or
    /// at zero separation — every arm carries the same guard the seed LJ
    /// evaluator had).
    #[inline(always)]
    pub fn energy_force(&self, r2: T) -> (T, T) {
        match self {
            PairPotential::LennardJones(p) => p.energy_force(r2),
            PairPotential::Morse(p) => p.energy_force(r2),
            PairPotential::Coulomb(p) => p.energy_force(r2),
        }
    }
}

/// How the substrate evaluates pair terms relative to `T`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalPrecision {
    /// Evaluate in `T` — the seed behavior.
    Native,
    /// Narrow r² to f32, evaluate, widen the results back to `T`.
    ForceF32,
    /// Widen r² to f64, evaluate, narrow the results back to `T`.
    ForceF64,
}

/// A computation over one resolved pair function, handed to
/// [`Substrate::with_energy_force`]: `with` receives a function bitwise
/// equal to [`Substrate::energy_force`], monomorphized per potential and
/// evaluation precision.
pub(crate) trait PairFnUser<T> {
    type Out;
    fn with(self, energy_force: impl Fn(T) -> (T, T)) -> Self::Out;
}

/// A [`ScenarioSpec`] resolved into one precision: the object force kernels
/// evaluate against and integrators take their thermostat from. `Copy`, so
/// device lanes can carry it by value like the old per-device param structs.
#[derive(Clone, Copy, Debug)]
pub struct Substrate<T> {
    /// The potential in native precision `T`.
    pub pot: PairPotential<T>,
    /// The same potential resolved to f32, for [`EvalPrecision::ForceF32`].
    pot32: PairPotential<f32>,
    /// The same potential resolved to f64, for [`EvalPrecision::ForceF64`].
    pot64: PairPotential<f64>,
    /// How pair terms are evaluated (resolved from the precision policy, so
    /// an on-native request is already [`EvalPrecision::Native`] here).
    pub eval: EvalPrecision,
    /// Resolved thermostat; `None` for NVE.
    pub thermostat: Option<VelocityRescale<T>>,
    /// The spec this substrate was resolved from (for labels and ledgers).
    pub spec: ScenarioSpec,
}

impl<T: Real> Substrate<T> {
    /// Wrap a bare LJ parameter set as an NVE/native substrate. For
    /// LJ-specific call sites (shifted-potential runs, analysis helpers)
    /// that need kernel plumbing but no scenario machinery — the shift is
    /// carried even though [`ScenarioSpec`] doesn't express it, so the
    /// `spec` here is label-only, not a cache identity.
    pub fn from_lj(params: LjParams<T>) -> Self {
        let widen = |p: &LjParams<T>| LjParams::<f64> {
            epsilon: p.epsilon.to_f64(),
            sigma: p.sigma.to_f64(),
            cutoff: p.cutoff.to_f64(),
            shift: p.shift.to_f64(),
        };
        let p64 = widen(&params);
        let p32 = LjParams::<f32> {
            epsilon: f32::from_f64(p64.epsilon),
            sigma: f32::from_f64(p64.sigma),
            cutoff: f32::from_f64(p64.cutoff),
            shift: f32::from_f64(p64.shift),
        };
        Substrate {
            pot: PairPotential::LennardJones(params),
            pot32: PairPotential::LennardJones(p32),
            pot64: PairPotential::LennardJones(p64),
            eval: EvalPrecision::Native,
            thermostat: None,
            spec: ScenarioSpec::default().with_potential(Potential::LennardJones {
                epsilon: p64.epsilon,
                sigma: p64.sigma,
            }),
        }
    }

    /// Squared cutoff the kernel's pair guard compares against.
    #[inline(always)]
    pub fn cutoff2(&self) -> T {
        self.pot.cutoff2()
    }

    /// Radial cutoff (unsquared).
    #[inline(always)]
    pub fn cutoff(&self) -> T {
        self.pot.cutoff()
    }

    /// Evaluate one pair: energy and force/r from squared separation, in the
    /// scenario's evaluation precision. With the default policy this is a
    /// direct native dispatch — for LJ, bitwise the seed's
    /// [`LjParams::energy_force`].
    #[inline(always)]
    pub fn energy_force(&self, r2: T) -> (T, T) {
        struct One<T>(T);
        impl<T> PairFnUser<T> for One<T> {
            type Out = (T, T);
            #[inline(always)]
            fn with(self, energy_force: impl Fn(T) -> (T, T)) -> (T, T) {
                energy_force(self.0)
            }
        }
        self.with_energy_force(One(r2))
    }

    /// Run `user` with [`Self::energy_force`] resolved: the precision policy
    /// and the potential are matched once, here, so a loop inside `user`
    /// evaluates its pairs with no per-pair dispatch. `energy_force` itself
    /// goes through this match, so the two are bitwise the same.
    #[inline(always)]
    pub(crate) fn with_energy_force<U: PairFnUser<T>>(&self, user: U) -> U::Out {
        macro_rules! per_potential {
            ($pot:expr, |$p:ident, $r2:ident| $eval:expr) => {
                match $pot {
                    PairPotential::LennardJones($p) => user.with(move |$r2: T| $eval),
                    PairPotential::Morse($p) => user.with(move |$r2: T| $eval),
                    PairPotential::Coulomb($p) => user.with(move |$r2: T| $eval),
                }
            };
        }
        match self.eval {
            EvalPrecision::Native => per_potential!(self.pot, |p, r2| p.energy_force(r2)),
            EvalPrecision::ForceF32 => per_potential!(self.pot32, |p, r2| {
                let (e, f) = p.energy_force(f32::from_f64(r2.to_f64()));
                (T::from_f64(f64::from(e)), T::from_f64(f64::from(f)))
            }),
            EvalPrecision::ForceF64 => per_potential!(self.pot64, |p, r2| {
                let (e, f) = p.energy_force(r2.to_f64());
                (T::from_f64(e), T::from_f64(f))
            }),
        }
    }

    /// Apply the ensemble's thermostat, if any (call after the final kick of
    /// each step). No-op for NVE, so the seed integration path is untouched.
    #[inline]
    pub fn apply_thermostat(&self, sys: &mut ParticleSystem<T>) {
        if let Some(t) = &self.thermostat {
            t.apply(sys);
        }
    }

    /// Extra per-interaction arithmetic this scenario costs a device on top
    /// of its LJ baseline (see [`Potential::extra_eval_ops`]).
    pub fn extra_eval_ops(&self) -> f64 {
        self.spec.potential.extra_eval_ops()
    }

    /// Extra per-atom per-step arithmetic this scenario's ensemble costs
    /// (see [`Ensemble::extra_step_ops_per_atom`]).
    pub fn extra_step_ops_per_atom(&self) -> f64 {
        self.spec.ensemble.extra_step_ops_per_atom()
    }

    /// The potential's constant-block fields as f32: a discriminant (0 = LJ,
    /// 1 = Morse, 2 = Coulomb) plus up to three parameters. For devices that
    /// bake kernel parameters into compiled programs (the GPU's JIT constant
    /// folding): every value that changes the program appears here.
    pub fn pot_constants(&self) -> (f32, f32, f32, f32) {
        match &self.pot32 {
            PairPotential::LennardJones(p) => (0.0, p.epsilon, p.sigma * p.sigma, 0.0),
            PairPotential::Morse(p) => (1.0, p.depth, p.stiffness, p.r0),
            PairPotential::Coulomb(p) => (2.0, p.q2, 0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_is_the_paper_scenario() {
        let s = ScenarioSpec::default();
        assert_eq!(
            s.potential,
            Potential::LennardJones {
                epsilon: 1.0,
                sigma: 1.0
            }
        );
        assert_eq!(s.ensemble, Ensemble::Nve);
        assert_eq!(s.precision, PrecisionPolicy::Native);
        assert_eq!(s.cache_token(), "lj:e1,s1/nve/native");
        s.try_validate().expect("default validates");
    }

    #[test]
    fn default_substrate_matches_seed_lj_bitwise() {
        let sub = ScenarioSpec::default().substrate::<f64>(2.5);
        let seed = LjParams::<f64>::reduced(2.5);
        assert_eq!(sub.cutoff2(), seed.cutoff2());
        for &r2 in &[0.64, 0.9025, 1.0, 1.2544, 2.25, 4.0, 5.76, 6.2499] {
            assert_eq!(sub.energy_force(r2), seed.energy_force(r2));
        }
        assert!(sub.thermostat.is_none());
        assert_eq!(sub.extra_eval_ops(), 0.0);
        assert_eq!(sub.extra_step_ops_per_atom(), 0.0);
    }

    #[test]
    fn display_round_trips_canonical_specs() {
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::ForceF32),
            ScenarioSpec::morse_nvt().with_precision(PrecisionPolicy::ForceF64),
        ] {
            let text = spec.to_string();
            let back: ScenarioSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, spec, "round trip through {text:?}");
        }
    }

    #[test]
    fn partial_specs_default_missing_segments() {
        let s: ScenarioSpec = "morse:d1,a2,r1.2".parse().expect("potential only");
        assert_eq!(s.potential, ScenarioSpec::morse_nvt().potential);
        assert_eq!(s.ensemble, Ensemble::Nve);
        assert_eq!(s.precision, PrecisionPolicy::Native);
        let s: ScenarioSpec = "default".parse().expect("named default");
        assert_eq!(s, ScenarioSpec::default());
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "",
            "lj",
            "lj:e1",
            "lj:e1,s1,x2",
            "quartic:a1",
            "lj:e1,s1/nvt",
            "lj:e1,s1/nve/quantum",
            "lj:e1,s1/nve/mixed",
            "lj:e1,s1/nve/native/extra",
            "lj:e0,s1",
            "lj:eNaN,s1",
            "lj:e1,sinf",
            "morse:d1,a-2,r1",
            "morse:dNaN,a2,r1",
            "coul:q0",
            "lj:e1,s1/nvt:t-1,k0.5",
            "lj:e1,s1/nvt:t1,k0",
            "nve",
        ] {
            assert!(bad.parse::<ScenarioSpec>().is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn morse_shape_is_a_well_at_r0() {
        let sub = ScenarioSpec::morse_nvt().substrate::<f64>(2.5);
        let (e_min, f_min) = sub.energy_force(1.2 * 1.2);
        assert!((e_min + 1.0).abs() < 1e-12, "V(r0) = -D, got {e_min}");
        assert!(f_min.abs() < 1e-12, "force vanishes at r0, got {f_min}");
        let (_, f_in) = sub.energy_force(1.0);
        assert!(f_in > 0.0, "repulsive inside r0");
        let (_, f_out) = sub.energy_force(1.5 * 1.5);
        assert!(f_out < 0.0, "attractive outside r0");
        assert_eq!(sub.energy_force(6.25), (0.0, 0.0), "cut at cutoff");
        assert_eq!(sub.energy_force(0.0), (0.0, 0.0), "self-pair guard");
    }

    #[test]
    fn coulomb_shape_is_repulsive_1_over_r() {
        let sub = ScenarioSpec::coulomb_cutoff().substrate::<f64>(2.5);
        let (e, f) = sub.energy_force(4.0); // r = 2
        assert!((e - 0.5).abs() < 1e-12, "q²/r at r=2, got {e}");
        assert!((f - 0.125).abs() < 1e-12, "q²/r³ at r=2, got {f}");
        assert_eq!(sub.energy_force(6.25), (0.0, 0.0));
        assert_eq!(sub.energy_force(0.0), (0.0, 0.0));
    }

    proptest! {
        /// Display/FromStr round-trip for *arbitrary* finite parameters, not
        /// just the canonical constructors: `{}` formatting of f64 prints
        /// the shortest string that parses back to the same bits, so any
        /// valid spec survives the text form (and therefore the cache key
        /// distinguishes any two numerically different specs).
        #[test]
        fn spec_text_round_trips_arbitrary_parameters(
            e in 0.01f64..100.0,
            sg in 0.1f64..4.0,
            d in 0.01f64..100.0,
            a in 0.1f64..10.0,
            r0 in 0.1f64..4.0,
            q2 in 0.01f64..50.0,
            t in 0.0f64..10.0,
            k in 0.001f64..1.0,
            pot_pick in 0usize..3,
            ens_pick in 0usize..2,
            prec_pick in 0usize..3,
        ) {
            let potential = match pot_pick {
                0 => Potential::LennardJones { epsilon: e, sigma: sg },
                1 => Potential::Morse { depth: d, stiffness: a, r0 },
                _ => Potential::Coulomb { q2 },
            };
            let ensemble = match ens_pick {
                0 => Ensemble::Nve,
                _ => Ensemble::Nvt { target: t, kappa: k },
            };
            let precision = [
                PrecisionPolicy::Native,
                PrecisionPolicy::ForceF32,
                PrecisionPolicy::ForceF64,
            ][prec_pick];
            let spec = ScenarioSpec { potential, ensemble, precision };
            let text = spec.to_string();
            let back: ScenarioSpec = text.parse().map_err(|e: String| {
                TestCaseError::fail(format!("{text}: {e}"))
            })?;
            prop_assert_eq!(back, spec);
            prop_assert_eq!(text, spec.cache_token());
        }

        /// force_over_r is the negative energy gradient for both new
        /// potentials (central difference), mirroring the LJ property test.
        #[test]
        fn new_potentials_force_matches_gradient(r in 0.9f64..2.4) {
            for spec in [ScenarioSpec::morse_nvt(), ScenarioSpec::coulomb_cutoff()] {
                let sub = spec.substrate::<f64>(2.5);
                let h = 1e-6;
                let (e_plus, _) = sub.energy_force((r + h) * (r + h));
                let (e_minus, _) = sub.energy_force((r - h) * (r - h));
                let f_numeric = -(e_plus - e_minus) / (2.0 * h);
                let (_, f_over_r) = sub.energy_force(r * r);
                let f_analytic = f_over_r * r;
                let tol = 1e-4 * f_analytic.abs().max(1.0);
                prop_assert!((f_numeric - f_analytic).abs() < tol,
                    "{}: r={r}: numeric {f_numeric} vs analytic {f_analytic}",
                    spec.potential.kind_label());
            }
        }
    }

    #[test]
    fn precision_policies_resolve_per_native_width() {
        let spec = ScenarioSpec::default().with_precision(PrecisionPolicy::ForceF64);
        assert_eq!(spec.substrate::<f64>(2.5).eval, EvalPrecision::Native);
        assert_eq!(spec.substrate::<f32>(2.5).eval, EvalPrecision::ForceF64);
        let spec = spec.with_precision(PrecisionPolicy::ForceF32);
        assert_eq!(spec.substrate::<f32>(2.5).eval, EvalPrecision::Native);
        assert_eq!(spec.substrate::<f64>(2.5).eval, EvalPrecision::ForceF32);
    }

    #[test]
    fn forced_f64_evaluation_on_f32_matches_f64_reference() {
        let spec = ScenarioSpec::default().with_precision(PrecisionPolicy::ForceF64);
        let sub32 = spec.substrate::<f32>(2.5);
        let ref64 = LjParams::<f64>::reduced(2.5);
        // The forced-f64 path evaluates in f64 then narrows once: the result
        // is the correctly-rounded f32 of the f64 value, not the drifted
        // all-f32 evaluation.
        for &r2 in &[0.9025f32, 1.0, 1.21, 2.25, 4.41] {
            let (e32, f32v) = sub32.energy_force(r2);
            let (e64, f64v) = ref64.energy_force(f64::from(r2));
            assert_eq!(e32, e64 as f32);
            assert_eq!(f32v, f64v as f32);
        }
    }

    #[test]
    fn nvt_substrate_carries_thermostat_and_cost() {
        let sub = ScenarioSpec::morse_nvt().substrate::<f64>(2.5);
        let t = sub.thermostat.expect("NVT resolves a thermostat");
        assert_eq!(t.target, 0.728);
        assert_eq!(t.kappa, 0.5);
        assert!(sub.extra_eval_ops() > 0.0, "morse costs more than LJ");
        assert!(sub.extra_step_ops_per_atom() > 0.0, "NVT costs per atom");
    }

    #[test]
    fn cache_tokens_separate_all_canonical_scenarios() {
        let tokens: Vec<String> = [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::ForceF32),
            ScenarioSpec::default().with_precision(PrecisionPolicy::ForceF64),
            ScenarioSpec::default().with_ensemble(Ensemble::Nvt {
                target: 0.728,
                kappa: 1.0,
            }),
        ]
        .iter()
        .map(ScenarioSpec::cache_token)
        .collect();
        for (i, a) in tokens.iter().enumerate() {
            for b in &tokens[i + 1..] {
                assert_ne!(a, b, "distinct scenarios must have distinct tokens");
            }
        }
    }
}
