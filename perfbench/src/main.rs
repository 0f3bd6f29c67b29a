//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the committed references are read from
//! there, and scratch output goes to `perfbench/out/`. `--trace 0` prints
//! the end-to-end metrics, measured in host wall-clock time with no spans
//! recorded; the gated timings are in reference seconds (see `calib`). `--trace 1` records spans around every call the benchmark makes
//! into a layer, writes them as one Chrome trace, prints each layer's self
//! time, and reports the per-layer metrics. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `perfbench/METRICS.md` defines every metric.

mod calib;
mod probes;
mod refs;
mod stats;
mod sweep;
mod trace;
mod workloads;

use probes::{lattice_key, Ctx, Kernel, KernelTimes};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::self_total;
use workloads::{Op, Workload};

const OUT_DIR: &str = "perfbench/out";
/// Fresh processes that only set up, besides the measured one: `setup_s` is
/// the median over all of them.
const SETUP_PROBES: usize = 4;
/// The tail percentile leaves at least this many samples above it.
const TAIL_BEYOND: usize = 10;
/// Share of `--seconds` the traced run spends on untraced ops, which are
/// then repeated with tracing on.
const TRACE_BASELINE_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|s| *s >= 0.0)
            .ok_or_else(|| missing("--seconds (>= 0)"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", workloads::NAMES.join("|"));
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Tally of operations and failed correctness checks.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("check failed: {f}");
            }
        }
    }
}

/// Returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let root = Path::new(".");
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut tally = Tally::default();

    let mut setup_samples = Vec::new();
    if !args.trace && !args.setup_probe {
        for _ in 0..SETUP_PROBES {
            let (s, attempted, failed) = setup_probe(args)?;
            setup_samples.push(s);
            tally.attempted += attempted;
            tally.failed += failed;
        }
    }

    let mut cx = Ctx::new(false);
    let t0 = Instant::now();
    let (mut w, warm_up) = workloads::setup(&args.workload, args.seed, root, out_dir, &mut cx)?;
    setup_samples.push(t0.elapsed().as_secs_f64());
    tally.add(&warm_up.failures);

    if args.setup_probe {
        println!(
            "{{\"setup_s\": {}, \"attempted\": {}, \"failed\": {}}}",
            setup_samples[0], tally.attempted, tally.failed
        );
        return Ok(tally.failed == 0);
    }

    let metrics = if args.trace {
        traced(args, w.as_mut(), &mut cx, &mut tally, out_dir)?
    } else {
        untraced(args, w.as_mut(), &mut cx, &mut tally, &setup_samples)?
    };

    println!(
        "host: nproc {}, AVX2 kernels {}, 1 thread per device run, nproc sweep jobs",
        sweep::nproc(),
        md_core::shared_eval::wide_kernels_native(),
    );
    println!(
        "{} seed {}: {} ops attempted, {} failed",
        args.workload, args.seed, tally.attempted, tally.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            println!("{} = {} {}{}", m.name, m.value, m.unit, m.note);
            (!m.print_only).then(|| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(tally.failed == 0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Printed, but not in the result object that later runs are judged by.
    print_only: bool,
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        print_only: false,
        note: String::new(),
    }
}

/// A raw-sample statistic: too sensitive to the host's speed drift to gate
/// on, so it is printed only.
fn printed(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        print_only: true,
        note,
        ..metric(name, value, unit)
    }
}

/// Set up in a fresh process (lazy process-wide set-up included) and return
/// `(setup_s, attempted, failed)`.
fn setup_probe(args: &Args) -> Result<(f64, usize, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", "0", "--trace", "0", "--setup-probe"])
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout
        .lines()
        .last()
        .and_then(|l| sim_perf::parse_json(l).ok())
        .ok_or_else(|| {
            format!(
                "setup probe printed no result: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(sim_perf::JsonValue::as_number)
            .ok_or_else(|| format!("setup probe result lacks {k}"))
    };
    Ok((
        num("setup_s")?,
        num("attempted")? as usize,
        num("failed")? as usize,
    ))
}

/// Run ops until `seconds` have passed and at least `min_rounds` rounds
/// have completed, stopping on a round boundary.
fn op_loop(
    w: &mut dyn Workload,
    cx: &mut Ctx,
    seconds: f64,
    min_rounds: usize,
    tally: &mut Tally,
) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        let op = w.op(ops.len(), cx);
        tally.add(&op.failures);
        ops.push(op);
        let rounds = ops.len() / w.round_len();
        if ops.len() % w.round_len() == 0
            && rounds >= min_rounds
            && start.elapsed().as_secs_f64() >= seconds
        {
            return ops;
        }
    }
}

fn untraced(
    args: &Args,
    w: &mut dyn Workload,
    cx: &mut Ctx,
    tally: &mut Tally,
    setup_samples: &[f64],
) -> Result<Vec<Metric>, String> {
    // Past TAIL_BEYOND rounds every input has that many ops, and, as op
    // times cluster by input, the tail sample falls among the costliest
    // input's ops rather than on the edge between two inputs.
    let min_rounds = if w.round_len() > 1 {
        TAIL_BEYOND + 1
    } else {
        1
    };
    let ops = op_loop(w, cx, args.seconds, min_rounds, tally);
    // The host's speed drifts by 20-60% over seconds to minutes, so raw op
    // times move with it from run to run. The gated timings are in
    // reference seconds (see `calib`): each part of each op over the
    // calibration kernel timed right after it, the median over an input's
    // ops, summed over the op's parts.
    let mut by_input: BTreeMap<usize, (Vec<Vec<calib::Part>>, f64)> = BTreeMap::new();
    for o in &ops {
        let e = by_input
            .entry(o.input)
            .or_insert((Vec::new(), o.atom_steps));
        e.0.push(o.parts.clone());
    }
    let column = |parts: &[Vec<calib::Part>], f: fn(calib::Part) -> f64| -> Vec<Vec<f64>> {
        parts
            .iter()
            .map(|r| r.iter().map(|&p| f(p)).collect())
            .collect()
    };
    let ref_s: Vec<f64> = by_input
        .values()
        .map(|(p, _)| stats::sum_over_columns(&column(p, calib::Part::ref_seconds), stats::median))
        .collect();
    let best_s: Vec<f64> = by_input
        .values()
        .map(|(p, _)| stats::sum_over_columns(&column(p, |p| p.seconds), stats::min))
        .collect();
    let round_atom_steps: f64 = by_input.values().map(|p| p.1).sum();
    let kernel_ms: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.parts.iter().map(|p| p.kernel_s * 1e3))
        .collect();

    let op_ms: Vec<f64> = ops.iter().map(|o| o.seconds() * 1e3).collect();
    let (tail_ms, pct, n) = stats::tail(&op_ms, TAIL_BEYOND);
    let beyond = op_ms.iter().filter(|&&x| x > tail_ms).count();
    let (cold, warm): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        ops.iter().filter_map(|o| o.sweep.clone()).unzip();
    let best_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    let mut metrics = vec![
        metric(
            "atom_steps_per_s",
            round_atom_steps / ref_s.iter().sum::<f64>(),
            "atom-steps/ref-s",
        ),
        metric("op_ref_ms_p50", stats::median(&ref_s) * 1e3, "ref-ms"),
        metric("setup_s", stats::median(setup_samples), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        printed(
            "op_best_ms_p50",
            stats::median(&best_ms),
            "ms",
            String::new(),
        ),
        printed("op_ms_p50", stats::median(&op_ms), "ms", String::new()),
        printed(
            "op_ms_tail",
            tail_ms,
            "ms",
            format!(" (p{pct:.1} of {n} ops, {beyond} beyond)"),
        ),
        printed(
            "calib_kernel_ms_p50",
            stats::median(&kernel_ms),
            "ms",
            String::new(),
        ),
        printed(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            String::new(),
        ),
    ];
    if !cold.is_empty() {
        let cold_s = stats::sum_over_columns(&cold, stats::min);
        let warm_ms = stats::sum_over_columns(&warm, stats::min) * 1e3;
        metrics.push(printed("sweep_cold_s", cold_s, "s", String::new()));
        metrics.push(printed("sweep_warm_ms", warm_ms, "ms", String::new()));
    }
    Ok(metrics)
}

/// Peak resident set of this process (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn traced(
    args: &Args,
    w: &mut dyn Workload,
    cx: &mut Ctx,
    tally: &mut Tally,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    // The same ops untraced, then traced: the difference is the tracing
    // overhead.
    let baseline = op_loop(w, cx, args.seconds * TRACE_BASELINE_SHARE, 1, tally);
    cx.t.set_enabled(true);
    let mut traced_ops = Vec::new();
    for i in 0..baseline.len() {
        let op = w.op(i, cx);
        tally.add(&op.failures);
        traced_ops.push(op);
    }
    let untraced_s: f64 = baseline.iter().map(Op::seconds).sum();
    let traced_s: f64 = traced_ops.iter().map(Op::seconds).sum();

    if let Some(cold) = cx.last_cold.take() {
        let dir = out_dir.join(format!("cache-{}", std::process::id()));
        let mut failures = workloads::rerun_points(&cold, cx);
        failures.extend(workloads::probe_cache(&cold, &dir, cx));
        tally.add(&failures);
    }
    let failures = w.probe_layers(cx);
    tally.add(&failures);
    let mut lattices = w.lattices();
    lattices.extend(cx.runs.iter().map(|r| r.sim));
    let kernels = probes::probe_kernels(&lattices, cx);

    let trace_path = out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&trace_path, cx.t.chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    print_self_times(cx);
    println!("chrome trace: {}", trace_path.display());
    let mut metrics = layer_metrics(cx, &kernels);
    metrics.push(metric(
        "trace.overhead_ratio",
        ratio(traced_s, untraced_s),
        "ratio",
    ));
    Ok(metrics)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn print_self_times(cx: &Ctx) {
    let rows = trace::self_time_table(cx.t.spans());
    let total: f64 = rows.iter().map(|r| r.4).sum();
    println!(
        "{:<20} {:<28} {:>7} {:>12} {:>12} {:>7}",
        "layer", "call", "calls", "total ms", "self ms", "self %"
    );
    for (layer, name, calls, total_s, self_s) in rows {
        println!(
            "{layer:<20} {name:<28} {calls:>7} {:>12.3} {:>12.3} {:>6.1}%",
            total_s * 1e3,
            self_s * 1e3,
            100.0 * ratio(self_s, total)
        );
    }
}

/// Every per-layer metric; a layer the workload never calls reports 0.
fn layer_metrics(cx: &Ctx, kernels: &KernelTimes) -> Vec<Metric> {
    let spans = cx.t.spans();
    let per_call = |layer: &str, name: &str, scale: f64| {
        let (calls, self_s) = self_total(spans, layer, name);
        ratio(self_s, calls as f64) * scale
    };
    let c = |name: &str| cx.counted(name);
    let mut m = Vec::new();

    for k in Kernel::ALL {
        let (_, self_s) = self_total(spans, "md-core.shared_eval", k.name());
        let pairs = c(&format!("shared_eval.{}.pairs", k.name()));
        m.push(metric(
            format!("shared_eval.{}_ns_per_pair", k.name()),
            ratio(self_s, pairs) * 1e9,
            "ns",
        ));
    }
    m.push(metric(
        "shared_eval.useful_pair_ratio",
        ratio(
            c("shared_eval.interactions"),
            c("shared_eval.host_row.pairs"),
        ),
        "ratio",
    ));

    for layer in ["cell-be", "gpu", "mta", "opteron"] {
        let runs = cx.runs.iter().filter(|r| r.layer == layer);
        let (mut run_s, mut kernel_s, mut accesses) = (0.0, 0.0, 0.0);
        for r in runs {
            run_s += r.run_s;
            kernel_s += kernels
                .get(&(r.kernel, lattice_key(&r.sim)))
                .copied()
                .unwrap_or(0.0)
                * (r.steps + 1) as f64;
            accesses += r.mem_accesses;
        }
        m.push(metric(
            format!("{layer}.run_ms"),
            per_call(layer, "MdDevice::run", 1e3),
            "ms",
        ));
        let share = if run_s > 0.0 {
            1.0 - kernel_s / run_s
        } else {
            0.0
        };
        m.push(metric(format!("{layer}.replay_share"), share, "ratio"));
        if layer == "opteron" {
            m.push(metric(
                "opteron.memsim_ns_per_access",
                ratio(run_s - kernel_s, accesses) * 1e9,
                "ns",
            ));
        }
    }

    m.push(metric(
        "harness.build_us",
        per_call("harness", "DeviceKind::build", 1e6),
        "us",
    ));
    m.push(metric(
        "harness.collect_us",
        per_call("md-core", "device::collect_metrics", 1e6),
        "us",
    ));
    m.push(metric(
        "md-core.init_us",
        per_call("md-core", "init::initialize", 1e6),
        "us",
    ));

    m.push(metric(
        "sim-obs.to_jsonl_us",
        per_call("sim-obs", "RunLedger::to_jsonl", 1e6),
        "us",
    ));
    m.push(metric(
        "sim-obs.parse_us",
        per_call("sim-obs", "RunLedger::parse_jsonl", 1e6),
        "us",
    ));
    m.push(metric(
        "sim-obs.ledger_events",
        ratio(c("sim-obs.ledger_events"), c("sim-obs.ledgers")),
        "count",
    ));
    m.push(metric(
        "sim-obs.ledger_bytes",
        ratio(c("sim-obs.ledger_bytes"), c("sim-obs.ledgers")),
        "bytes",
    ));

    let passes = c("sim-sweep.passes");
    for spec in sim_sweep::registry() {
        let s = c(&format!("sim-sweep.spec_s.{}", spec.name));
        m.push(metric(
            format!("sim-sweep.spec_s.{}", spec.name),
            ratio(s, passes),
            "s",
        ));
    }
    m.push(metric(
        "sim-sweep.points_executed",
        ratio(c("sim-sweep.points_executed"), passes),
        "count",
    ));
    m.push(metric(
        "sim-sweep.points_hit",
        ratio(c("sim-sweep.points_hit"), passes),
        "count",
    ));
    let pool_s = ratio(c("sim-sweep.pool_s"), passes);
    m.push(metric(
        "sim-sweep.pool_efficiency",
        ratio(c("sim-sweep.rerun_s"), pool_s),
        "ratio",
    ));
    m.push(metric(
        "sim-sweep.cache.store_us",
        per_call("sim-sweep", "ResultCache::store", 1e6),
        "us",
    ));
    m.push(metric(
        "sim-sweep.cache.load_us",
        per_call("sim-sweep", "ResultCache::load", 1e6),
        "us",
    ));
    m.push(metric(
        "sim-sweep.cache.entry_bytes",
        ratio(
            c("sim-sweep.cache.entry_bytes"),
            c("sim-sweep.cache.entries"),
        ),
        "bytes",
    ));

    let cluster_ms = per_call("sim-cluster", "ClusterMd::run", 1e3);
    let runs = c("supervisor.runs");
    m.push(metric("sim-cluster.run_ms", cluster_ms, "ms"));
    m.push(metric(
        "sim-cluster.overhead_ratio",
        ratio(cluster_ms, per_call("opteron", "MdDevice::run", 1e3)),
        "ratio",
    ));
    let clean_ms = ratio(c("supervisor.clean_s"), c("supervisor.clean_runs")) * 1e3;
    m.push(metric(
        "supervisor.overhead_ratio",
        ratio(clean_ms, cluster_ms),
        "ratio",
    ));
    m.push(metric(
        "supervisor.attempts",
        ratio(c("supervisor.attempts"), runs),
        "count",
    ));
    m.push(metric(
        "supervisor.restores",
        ratio(c("supervisor.restores"), runs),
        "count",
    ));
    m.push(metric(
        "supervisor.retry_ratio",
        ratio(c("supervisor.restores"), c("supervisor.attempts")),
        "ratio",
    ));
    m.push(metric(
        "sim-cluster.migrations",
        ratio(c("sim-cluster.migrations"), runs),
        "count",
    ));
    m.push(metric(
        "checkpoint.encode_us",
        per_call("md-core", "SystemCheckpoint::encode", 1e6),
        "us",
    ));
    m.push(metric(
        "checkpoint.decode_us",
        per_call("md-core", "SystemCheckpoint::decode", 1e6),
        "us",
    ));
    m.push(metric(
        "checkpoint.bytes",
        ratio(c("checkpoint.bytes"), c("checkpoint.encodes")),
        "bytes",
    ));
    m
}
