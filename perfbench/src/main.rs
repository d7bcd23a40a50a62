//! Wall-clock benchmark of the Fig. 1 duplicate-detection loop.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the workload end to end through the
//! public API of `dedup` and prints the end-to-end metrics. With
//! `--trace 1` it runs the workload once untraced and once through the
//! traced copy of the loop, checks that both give the same digests, and
//! prints the per-layer metrics. Every output check must pass, or the run
//! exits with code 1. The last line of standard output is the result as
//! one JSON object.

mod mirror;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, RunArgs};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "detect_exhaustive",
    "detect_spill",
    "ingest_quarterly",
    "serve_open_loop",
];

struct Cli {
    workload: String,
    trace: bool,
    run: RunArgs,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut trace_dir = PathBuf::from("perfbench-traces");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Cli {
        workload,
        trace,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace_dir,
        },
    })
}

fn run(cli: &Cli) -> Result<Outcome, String> {
    let a = &cli.run;
    match (cli.workload.as_str(), cli.trace) {
        ("detect_exhaustive", false) => workloads::detect(a, false),
        ("detect_exhaustive", true) => workloads::detect_traced(a, false, "detect_exhaustive"),
        ("detect_spill", false) => workloads::detect(a, true),
        ("detect_spill", true) => workloads::detect_traced(a, true, "detect_spill"),
        ("ingest_quarterly", false) => workloads::ingest(a),
        ("ingest_quarterly", true) => workloads::ingest_traced(a),
        ("serve_open_loop", false) => workloads::serve(a),
        ("serve_open_loop", true) => workloads::serve_traced(a),
        _ => unreachable!("workload names are validated by parse"),
    }
}

/// A JSON number with every digit `{}` gives; non-finite values are not
/// JSON and become `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"executors\":{}}}",
        cli.workload,
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workloads::EXECUTORS,
    );
    let out = match run(&cli) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload);
            return ExitCode::from(1);
        }
    };
    for note in &out.notes {
        println!("note {note}");
    }
    for m in &out.metrics {
        if m.meaning.is_empty() {
            println!("metric {} = {} {}", m.name, json_num(m.value), m.unit);
        } else {
            println!(
                "metric {} = {} {}  [{}]",
                m.name,
                json_num(m.value),
                m.unit,
                m.meaning
            );
        }
    }
    let mut correct = true;
    for (name, ok) in &out.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
