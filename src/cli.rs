//! Command-line interface for the `mdea` binary.
//!
//! Hand-rolled flag parsing (no external dependency) kept in the library so
//! the parser is unit-testable. Subcommands:
//!
//! - `run` — run an MD simulation, optionally writing XYZ frames and a final
//!   checkpoint;
//! - `devices` — run one workload on all four simulated systems;
//! - `trace` — produce a Chrome-trace timeline of a simulated Cell run.

use md_core::params::SimConfig;
use md_core::scenario::ScenarioSpec;

/// Parsed `mdea run` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub config: SimConfig,
    pub steps: usize,
    /// Host threads for the force evaluation (0 = one per core, 1 =
    /// serial). Results are bitwise identical at any value.
    pub host_threads: usize,
    /// Write an XYZ frame every `xyz_every` steps to this path.
    pub xyz_path: Option<String>,
    pub xyz_every: usize,
    /// Write a final checkpoint here.
    pub checkpoint_path: Option<String>,
}

/// Parsed `mdea devices` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct DevicesArgs {
    pub config: SimConfig,
    pub steps: usize,
    /// Host threads for each device's simulated lanes (0 = one per core,
    /// 1 = serial). Results are bitwise identical at any value; only host
    /// wall-clock changes.
    pub host_threads: usize,
}

/// Parsed `mdea trace` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArgs {
    pub config: SimConfig,
    pub steps: usize,
    pub out_path: String,
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Devices(DevicesArgs),
    Trace(TraceArgs),
    Help,
}

pub const USAGE: &str = "\
mdea — molecular dynamics on simulated 2006 'emerging' architectures

USAGE:
  mdea run     [--atoms N] [--steps S] [--density D] [--temperature T]
               [--dt DT] [--seed X] [--host-threads T] [--scenario SPEC]
               [--xyz FILE [--every K]] [--checkpoint FILE]
  mdea devices [--atoms N] [--steps S] [--host-threads T] [--scenario SPEC]
  mdea trace   [--atoms N] [--steps S] --out FILE
  mdea help

SCENARIO:
  <potential>/<ensemble>/<precision>, trailing segments optional.
  Potentials: lj:e<ε>,s<σ> | morse:d<D>,a<a>,r<r0> | coul:q<q²>
  Ensembles:  nve | nvt:t<T*>,k<κ>      Precision: native|f32|f64
  Default ('default') is the paper-faithful LJ/NVE/native scenario.
";

fn take_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| format!("invalid value '{v}' for {flag}: {e}"))
}

/// Shared workload flags. Returns leftover flags it did not consume.
struct WorkloadFlags {
    atoms: usize,
    steps: usize,
    density: f64,
    temperature: f64,
    dt: f64,
    seed: u64,
    scenario: ScenarioSpec,
}

impl Default for WorkloadFlags {
    fn default() -> Self {
        Self {
            atoms: 864,
            steps: 100,
            density: 0.8442,
            temperature: 0.728,
            dt: 0.005,
            seed: 0x5EED_0001,
            scenario: ScenarioSpec::default(),
        }
    }
}

impl WorkloadFlags {
    fn config(&self) -> Result<SimConfig, String> {
        let cfg = SimConfig::reduced_lj(self.atoms)
            .with_density(self.density)
            .with_temperature(self.temperature)
            .with_dt(self.dt)
            .with_seed(self.seed)
            .with_scenario(self.scenario);
        cfg.try_validate()?;
        Ok(cfg)
    }

    /// Try to consume one flag; `Ok(true)` if it was a workload flag.
    fn try_consume<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, String> {
        match flag {
            "--atoms" => self.atoms = parse_num(flag, take_value(flag, it)?)?,
            "--steps" => self.steps = parse_num(flag, take_value(flag, it)?)?,
            "--density" => self.density = parse_num(flag, take_value(flag, it)?)?,
            "--temperature" => self.temperature = parse_num(flag, take_value(flag, it)?)?,
            "--dt" => self.dt = parse_num(flag, take_value(flag, it)?)?,
            "--seed" => self.seed = parse_num(flag, take_value(flag, it)?)?,
            "--scenario" => {
                let v = take_value(flag, it)?;
                self.scenario = v
                    .parse()
                    .map_err(|e| format!("invalid value '{v}' for {flag}: {e}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parse a full command line (without the program name).
pub fn parse_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, String> {
    let mut it = args.into_iter();
    let sub = match it.next() {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(s) => s,
    };
    match sub {
        "run" => {
            let mut w = WorkloadFlags::default();
            let mut host_threads = 1usize;
            let mut xyz_path = None;
            let mut xyz_every = 10usize;
            let mut checkpoint_path = None;
            while let Some(flag) = it.next() {
                if w.try_consume(flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--host-threads" => {
                        host_threads = parse_num(flag, take_value(flag, &mut it)?)?;
                    }
                    "--xyz" => xyz_path = Some(take_value(flag, &mut it)?.to_string()),
                    "--every" => xyz_every = parse_num(flag, take_value(flag, &mut it)?)?,
                    "--checkpoint" => {
                        checkpoint_path = Some(take_value(flag, &mut it)?.to_string());
                    }
                    other => return Err(format!("unknown flag for run: {other}")),
                }
            }
            if xyz_every == 0 {
                return Err("--every must be at least 1".into());
            }
            Ok(Command::Run(RunArgs {
                config: w.config()?,
                steps: w.steps,
                host_threads,
                xyz_path,
                xyz_every,
                checkpoint_path,
            }))
        }
        "devices" => {
            let mut w = WorkloadFlags {
                atoms: 1024,
                steps: 10,
                ..WorkloadFlags::default()
            };
            let mut host_threads = 1usize;
            while let Some(flag) = it.next() {
                if w.try_consume(flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--host-threads" => {
                        host_threads = parse_num(flag, take_value(flag, &mut it)?)?;
                    }
                    other => return Err(format!("unknown flag for devices: {other}")),
                }
            }
            Ok(Command::Devices(DevicesArgs {
                config: w.config()?,
                steps: w.steps,
                host_threads,
            }))
        }
        "trace" => {
            let mut w = WorkloadFlags {
                atoms: 512,
                steps: 5,
                ..WorkloadFlags::default()
            };
            let mut out_path = None;
            while let Some(flag) = it.next() {
                if w.try_consume(flag, &mut it)? {
                    continue;
                }
                match flag {
                    "--out" => out_path = Some(take_value(flag, &mut it)?.to_string()),
                    other => return Err(format!("unknown flag for trace: {other}")),
                }
            }
            Ok(Command::Trace(TraceArgs {
                config: w.config()?,
                steps: w.steps,
                out_path: out_path.ok_or("trace requires --out FILE")?,
            }))
        }
        other => Err(format!("unknown subcommand: {other}\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_help() {
        assert_eq!(parse_args([]).unwrap(), Command::Help);
        assert_eq!(parse_args(["help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(r) = parse_args(["run"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.config.n_atoms, 864);
        assert_eq!(r.steps, 100);
        assert_eq!(r.host_threads, 1, "serial by default");
        assert_eq!(r.xyz_path, None);
    }

    #[test]
    fn run_full_flags() {
        let Command::Run(r) = parse_args([
            "run",
            "--atoms",
            "500",
            "--steps",
            "20",
            "--density",
            "0.7",
            "--temperature",
            "1.1",
            "--dt",
            "0.002",
            "--seed",
            "42",
            "--host-threads",
            "4",
            "--xyz",
            "t.xyz",
            "--every",
            "5",
            "--checkpoint",
            "state.ckpt",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(r.config.n_atoms, 500);
        assert_eq!(r.config.density, 0.7);
        assert_eq!(r.config.temperature, 1.1);
        assert_eq!(r.config.dt, 0.002);
        assert_eq!(r.config.seed, 42);
        assert_eq!(r.steps, 20);
        assert_eq!(r.host_threads, 4);
        assert_eq!(r.xyz_path.as_deref(), Some("t.xyz"));
        assert_eq!(r.xyz_every, 5);
        assert_eq!(r.checkpoint_path.as_deref(), Some("state.ckpt"));
    }

    #[test]
    fn run_rejects_bad_input() {
        assert!(parse_args(["run", "--atoms"]).is_err(), "missing value");
        assert!(
            parse_args(["run", "--atoms", "many"]).is_err(),
            "non-numeric"
        );
        assert!(
            parse_args(["run", "--host-threads", "-1"]).is_err(),
            "negative thread count"
        );
        assert!(
            parse_args(["run", "--every", "0"]).is_err(),
            "zero interval"
        );
        assert!(parse_args(["run", "--bogus"]).is_err(), "unknown flag");
    }

    #[test]
    fn devices_and_trace() {
        let Command::Devices(d) = parse_args(["devices", "--atoms", "256"]).unwrap() else {
            panic!();
        };
        assert_eq!(d.config.n_atoms, 256);
        assert_eq!(d.steps, 10);
        assert_eq!(d.host_threads, 1, "serial lanes by default");

        let Command::Devices(d) = parse_args(["devices", "--host-threads", "4"]).unwrap() else {
            panic!();
        };
        assert_eq!(d.host_threads, 4);

        let Command::Trace(t) =
            parse_args(["trace", "--steps", "3", "--out", "cell.json"]).unwrap()
        else {
            panic!();
        };
        assert_eq!(t.steps, 3);
        assert_eq!(t.out_path, "cell.json");
        assert!(parse_args(["trace"]).is_err(), "--out required");
    }

    #[test]
    fn scenario_flag_selects_the_workload_scenario() {
        let Command::Run(r) =
            parse_args(["run", "--scenario", "morse:d1,a2,r1.2/nvt:t0.85,k0.1/f64"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(
            r.config.scenario_token(),
            "morse:d1,a2,r1.2/nvt:t0.85,k0.1/f64"
        );
        let Command::Devices(d) = parse_args(["devices", "--scenario", "coul:q1"]).unwrap() else {
            panic!("expected devices");
        };
        assert_eq!(d.config.scenario_token(), "coul:q1/nve/native");
        assert!(
            parse_args(["run", "--scenario", "magic"]).is_err(),
            "unknown scenario"
        );
        assert!(
            parse_args(["run", "--scenario", "lj:e1,s1/nve/mixed"]).is_err(),
            "unknown precision policy"
        );
        assert!(
            parse_args(["run", "--scenario", "nvt:t-3,k0.5"]).is_err(),
            "invalid parameters fail config validation"
        );
    }

    #[test]
    fn unknown_subcommand_mentions_usage() {
        let err = parse_args(["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown subcommand"));
        assert!(err.contains("USAGE"));
    }

    /// Non-finite or negative workload values are usage errors on every
    /// subcommand, never a panic or a garbage run.
    #[test]
    fn non_finite_workload_flags_are_rejected() {
        let bad = [
            ("--dt", "nan"),
            ("--dt", "inf"),
            ("--dt", "-0.005"),
            ("--density", "nan"),
            ("--density", "inf"),
            ("--temperature", "nan"),
            ("--temperature", "inf"),
            ("--temperature", "-1"),
        ];
        let subcommands: [(&str, &[&str]); 3] = [
            ("run", &[]),
            ("devices", &[]),
            ("trace", &["--out", "t.json"]),
        ];
        for (sub, required) in subcommands {
            let parse = |flag, value| {
                parse_args(
                    [sub, flag, value]
                        .into_iter()
                        .chain(required.iter().copied()),
                )
            };
            for (flag, value) in bad {
                assert!(parse(flag, value).is_err(), "{sub} {flag} {value}");
            }
            assert!(
                parse("--temperature", "0").is_ok(),
                "{sub}: T* = 0 is valid"
            );
        }
    }
}
