//! `obs` — inspect, compare, export, and gate run ledgers.
//!
//! ```text
//! obs timeline <ledger.jsonl>                      render a run as text
//! obs diff <a.jsonl> <b.jsonl>                     compare two ledgers
//! obs export <ledger.jsonl> --chrome <out.json>    Chrome trace export
//! obs export <ledger.jsonl> --prom <out.prom>      Prometheus textfile
//! obs check <ledger.jsonl> --bench <BENCH_host.json> [--device <label>] [--tol <rel>]
//! obs validate <ledger.jsonl>                      schema check only
//! ```
//!
//! Exit codes: 0 ok, 1 usage/parse error, 2 regression detected by `check`.

use sim_obs::{
    check_ledger, ledger_diff, ledger_timeline, ledger_to_chrome, ledger_to_prometheus,
    parse_host_baseline, RunLedger,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("obs: {msg}");
            1
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<i32, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "timeline" => timeline(rest),
        "diff" => diff(rest),
        "export" => export(rest),
        "check" => check(rest),
        "validate" => validate(rest),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: obs <timeline|diff|export|check|validate> ... \
     (see crate docs for per-command flags)"
        .to_string()
}

fn load_ledger(path: &str) -> Result<RunLedger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    RunLedger::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn timeline(args: &[String]) -> Result<i32, String> {
    let [path] = args else {
        return Err("usage: obs timeline <ledger.jsonl>".to_string());
    };
    print!("{}", ledger_timeline(&load_ledger(path)?));
    Ok(0)
}

fn diff(args: &[String]) -> Result<i32, String> {
    let [path_a, path_b] = args else {
        return Err("usage: obs diff <a.jsonl> <b.jsonl>".to_string());
    };
    print!(
        "{}",
        ledger_diff(&load_ledger(path_a)?, &load_ledger(path_b)?)
    );
    Ok(0)
}

fn export(args: &[String]) -> Result<i32, String> {
    let usage = "usage: obs export <ledger.jsonl> (--chrome <out.json> | --prom <out.prom>)";
    let Some(path) = args.first() else {
        return Err(usage.to_string());
    };
    let ledger = load_ledger(path)?;
    let mut wrote = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome" => {
                let out = args.get(i + 1).ok_or("--chrome needs a path")?;
                std::fs::write(out, ledger_to_chrome(&ledger)?)
                    .map_err(|e| format!("write {out}: {e}"))?;
                println!("wrote Chrome trace to {out}");
                wrote = true;
                i += 2;
            }
            "--prom" => {
                let out = args.get(i + 1).ok_or("--prom needs a path")?;
                std::fs::write(out, ledger_to_prometheus(&ledger))
                    .map_err(|e| format!("write {out}: {e}"))?;
                println!("wrote Prometheus textfile to {out}");
                wrote = true;
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}\n{usage}")),
        }
    }
    if !wrote {
        return Err(usage.to_string());
    }
    Ok(0)
}

fn check(args: &[String]) -> Result<i32, String> {
    let usage =
        "usage: obs check <ledger.jsonl> --bench <BENCH_host.json> [--device <label>] [--tol <rel>]";
    let Some(path) = args.first() else {
        return Err(usage.to_string());
    };
    let mut bench_path: Option<&str> = None;
    let mut device: Option<&str> = None;
    let mut tolerance = 0.5;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                bench_path = Some(args.get(i + 1).ok_or("--bench needs a path")?);
                i += 2;
            }
            "--device" => {
                device = Some(args.get(i + 1).ok_or("--device needs a label")?);
                i += 2;
            }
            "--tol" => {
                tolerance = args
                    .get(i + 1)
                    .ok_or("--tol needs a value")?
                    .parse()
                    .map_err(|_| "bad --tol value")?;
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}\n{usage}")),
        }
    }
    let bench_path = bench_path.ok_or(usage)?;
    let ledger = load_ledger(path)?;
    let bench =
        std::fs::read_to_string(bench_path).map_err(|e| format!("read {bench_path}: {e}"))?;
    let baseline = parse_host_baseline(&bench, device)?;
    let results = check_ledger(&ledger, baseline, tolerance)?;
    println!(
        "checking {} against {} (tolerance {tolerance})",
        ledger.label, bench_path
    );
    let mut regressed = false;
    for r in &results {
        println!("  {}", r.render());
        regressed |= r.regressed;
    }
    if regressed {
        eprintln!("obs check: performance regression detected");
        Ok(2)
    } else {
        println!("obs check: within tolerance");
        Ok(0)
    }
}

fn validate(args: &[String]) -> Result<i32, String> {
    let [path] = args else {
        return Err("usage: obs validate <ledger.jsonl>".to_string());
    };
    let ledger = load_ledger(path)?;
    println!(
        "{path}: valid run-ledger (schema {}, {} events, label {:?})",
        sim_obs::LEDGER_SCHEMA_VERSION,
        ledger.events().len(),
        ledger.label
    );
    Ok(0)
}
