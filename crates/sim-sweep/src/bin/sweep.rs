//! `sweep` — the one CLI over the paper's evaluation grid: list the spec
//! registry, run specs through the cache-backed parallel engine, clean the
//! cache. Running a paper figure's spec (`sweep run fig9`) also prints the
//! figure and writes its CSV under `results/`.
//!
//! A cold `sweep run --all` executes every device simulation once; a warm
//! second run serves everything from `results/cache/` and performs zero
//! device executions (`--expect-cached` turns that property into an exit
//! code, which CI checks).

use md_core::scenario::ScenarioSpec;
use sim_sweep::{figures, registry, run_sweep, EngineConfig, ResultCache, SweepSpec};
use std::process::ExitCode;

const USAGE: &str = "\
usage: sweep <command> [options]

commands:
  list                     show every sweep spec and its point count
  run [SPEC...] [--all]    execute specs (by name) through the result cache;
                           a paper figure's spec also prints the figure and
                           writes its CSV under results/
  clean                    delete every cached point

run options:
  --all            run every spec in the registry
  --no-cache       skip cache lookup and store; always execute
  --jobs N         host threads, shared by the points and their simulated
                   lanes (0 = one per core, 1 = serial; default 0).
                   Results are identical at any count.
  --cache-dir DIR  cache directory (default results/cache)
  --expect-cached  fail if any point executed a device simulation
                   (verifies the cache is warm)
  --scenario SPEC  run the named specs under a different scenario
                   (<potential>/<ensemble>/<precision>, e.g.
                   morse:d1,a2,r1.2/nvt:t0.85,k0.1/native). Cache keys move
                   with the scenario, so warm LJ results are never served.
                   Figures are not rendered: they are the paper's LJ ones.

clean options:
  --cache-dir DIR  cache directory (default results/cache)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("clean") => cmd_clean(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn list() {
    println!("available sweep specs:");
    for spec in registry() {
        println!(
            "  {:<12} {:>3} points  {}",
            spec.name,
            spec.len(),
            spec.description
        );
    }
}

/// The parsed options of `sweep run`.
struct RunArgs {
    cfg: EngineConfig,
    specs: Vec<SweepSpec>,
    expect_cached: bool,
    scenario: Option<ScenarioSpec>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut cfg = EngineConfig::default();
    let mut names: Vec<String> = Vec::new();
    let mut all = false;
    let mut expect_cached = false;
    let mut scenario: Option<ScenarioSpec> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--no-cache" => cfg.use_cache = false,
            "--expect-cached" => expect_cached = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a thread count")?;
                cfg.jobs = v.parse().map_err(|_| format!("bad --jobs value '{v}'"))?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                cfg.cache_dir = v.into();
            }
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a spec")?;
                let parsed: ScenarioSpec = v.parse().map_err(|e| format!("bad --scenario: {e}"))?;
                parsed
                    .try_validate()
                    .map_err(|e| format!("bad --scenario: {e}"))?;
                scenario = Some(parsed);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => names.push(name.to_string()),
        }
    }
    let specs: Vec<SweepSpec> = if all {
        registry()
    } else if names.is_empty() {
        return Err(format!("nothing to run: name specs or pass --all\n{USAGE}"));
    } else {
        let available = registry();
        names
            .iter()
            .map(|name| {
                available
                    .iter()
                    .find(|s| s.name == *name)
                    .cloned()
                    .ok_or_else(|| format!("unknown spec '{name}' (see `sweep list`)"))
            })
            .collect::<Result<_, _>>()?
    };
    let specs = match scenario {
        Some(scn) => specs.into_iter().map(|s| s.with_scenario(scn)).collect(),
        None => specs,
    };
    Ok(RunArgs {
        cfg,
        specs,
        expect_cached,
        scenario,
    })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let run = parse_run(args)?;
    let mut total_hits = 0;
    let mut total_executed = 0;
    for spec in &run.specs {
        let report = run_sweep(spec, &run.cfg).map_err(|e| e.to_string())?;
        if run.scenario.is_none() {
            if let Some(render) = figures::renderer(spec.name) {
                render(&report).map_err(|e| e.to_string())?;
            }
        }
        println!(
            "{:<12} {:>3} points  {:>3} cached  {:>3} executed",
            report.spec_name,
            report.results.len(),
            report.hits(),
            report.executed()
        );
        total_hits += report.hits();
        total_executed += report.executed();
    }
    println!("total: {total_hits} cached, {total_executed} executed");
    if run.expect_cached && total_executed > 0 {
        return Err(format!(
            "--expect-cached: {total_executed} point(s) executed a device simulation; the cache was cold"
        ));
    }
    Ok(())
}

fn cmd_clean(args: &[String]) -> Result<(), String> {
    let mut dir = std::path::PathBuf::from(sim_sweep::engine::DEFAULT_CACHE_DIR);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                dir = v.into();
            }
            flag => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let removed = ResultCache::new(dir).clean().map_err(|e| e.to_string())?;
    println!("removed {removed} cached point(s)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_run(&args)
    }

    #[test]
    fn defaults_run_a_parallel_sweep() {
        let run = parse(&["fig9"]).expect("valid");
        assert_eq!(run.cfg.jobs, 0);
        assert!(run.cfg.use_cache && !run.expect_cached && run.scenario.is_none());
        assert_eq!(run.specs.len(), 1);
        assert_eq!(run.specs[0].name, "fig9");
        let run = parse(&["--all", "--no-cache", "--jobs", "4"]).expect("valid");
        assert_eq!(run.cfg.jobs, 4);
        assert!(!run.cfg.use_cache);
        assert_eq!(run.specs.len(), registry().len());
    }

    /// `--jobs` is the only thread knob: the lanes share its budget.
    #[test]
    fn host_threads_is_an_unknown_flag() {
        let err = parse(&["fig9", "--host-threads", "8"])
            .err()
            .expect("--host-threads is gone");
        assert_eq!(err, "unknown flag '--host-threads'");
    }

    #[test]
    fn bad_input_is_rejected() {
        for args in [
            &[][..],
            &["nope"],
            &["fig9", "--jobs"],
            &["fig9", "--jobs", "x"],
            &["fig9", "--jobs", "-1"],
            &["fig9", "--frobnicate"],
            &["fig9", "--scenario", "lj/bogus/native"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
