//! `nxbench` — the repo's benchmark: end-to-end and per-layer numbers for
//! `nxsim` on both clocks (host wall-clock and modeled cycles).
//!
//! ```text
//! nxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! nxbench run (--all | --workload <name>) [--seed n] [--seconds s] [--trace]
//! nxbench repeat <k> [--seed n] [--seconds s] [--trace]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs; its last line
//! on standard output is the result object. `run` and `repeat` start one
//! child process of that form per workload.

mod e2e;
mod harness;
mod host;
mod json;
mod layers;
mod metrics;
mod reference;
mod stats;
mod trace;
mod workload;

use harness::Run;
use json::{quote, Value};
use metrics::{manifest, MetricDef};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Kind, DEFAULT_SEED};

/// Where results and traces go: inside the benchmark's own directory,
/// which `benchmark/.gitignore` keeps out of the repository.
const OUT_DIR: &str = "benchmark/out";

fn write_out(file: &str, contents: &str) {
    let dir = Path::new(OUT_DIR);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(e) = written {
        eprintln!("nxbench: could not write {}: {e}", dir.join(file).display());
    }
}

/// Parsed command-line options shared by every form.
#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: nxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         nxbench run (--all | --workload <name>) [--seed n] [--seconds s] [--trace]\n       \
         nxbench repeat <k> [--seed n] [--seconds s] [--trace]\n\
         workloads: {}",
        manifest().workloads.join(" ")
    )
}

/// Parses `--workload/--all/--seed/--seconds/--trace`. `--trace` takes
/// `0|1` in the single-workload form and is a bare flag otherwise.
fn parse_options(args: &[String], trace_takes_value: bool) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: manifest().run_seconds as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--all" => o.workloads = Kind::ALL.to_vec(),
            "--workload" => {
                let name = value("--workload")?;
                let kind =
                    Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                o.workloads.push(kind);
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" if trace_takes_value => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace" => o.trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        return Err("name a workload with --workload (or --all)".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..], false).and_then(|o| run_set(&o).map(|r| r.ok)),
        Some("repeat") => repeat(&args[1..]),
        Some(_) => parse_options(&args, true).and_then(|o| match o.workloads.as_slice() {
            [kind] => Ok(run_one(*kind, &o)),
            _ => Err("the single-workload form takes exactly one --workload".into()),
        }),
        None => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("nxbench: {msg}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

/// The metrics a run of this mode reports: every per-layer metric when
/// traced, every end-to-end metric otherwise.
fn defs_of(trace: bool) -> &'static [MetricDef] {
    if trace {
        &manifest().per_layer
    } else {
        &manifest().end_to_end
    }
}

fn mode(trace: bool) -> &'static str {
    if trace {
        "trace"
    } else {
        "run"
    }
}

/// Runs one workload, prints every metric by name with its unit and then
/// the result object as the last line. Returns whether every check held.
fn run_one(kind: Kind, o: &Options) -> bool {
    let started = Instant::now();
    let mut run = Run::new(o.seconds, o.seed);
    let defs = defs_of(o.trace);
    let fingerprint = |run: &Run, host_speed: f64, wall: f64| {
        let samples: Vec<String> = run
            .samples
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        host::fingerprint_json(&[
            ("workload", quote(kind.name())),
            ("mode", quote(mode(o.trace))),
            ("seed", o.seed.to_string()),
            (
                "inputs_digest",
                quote(&format!("{:016x}", run.inputs_digest)),
            ),
            ("seconds", o.seconds.to_string()),
            ("min_setup_reps", e2e::SETUP_REPS.to_string()),
            ("min_passes", harness::MIN_PASSES.to_string()),
            ("trace_passes", layers::TRACE_PASSES.to_string()),
            ("samples", format!("{{{}}}", samples.join(", "))),
            ("host_speed", format!("{host_speed:.4}")),
            ("wall_s", format!("{wall:.3}")),
        ])
    };
    // Median speed of the host over the run, as a share of the reference
    // host's: every time reported is wall time multiplied by the speed
    // measured around it.
    let host_speed = if o.trace {
        let tracer = layers::run(kind, &mut run);
        let header = fingerprint(&run, tracer.host_speed(), started.elapsed().as_secs_f64());
        write_out(
            &format!("trace-{}.json", kind.name()),
            &trace::to_json(&header, tracer.spans()),
        );
        tracer.host_speed()
    } else {
        e2e::run(kind, &mut run);
        run.host.median_seen()
    };

    let mut missing = Vec::new();
    let mut fields = Vec::with_capacity(defs.len());
    println!("{} ({}, seed {})", kind.name(), mode(o.trace), o.seed);
    for d in defs {
        match run.metrics.get(d.name.as_str()) {
            Some(v) if v.is_finite() => {
                println!("  {:<40} {:>16.6} {}", d.name, v, d.unit);
                fields.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(&d.name),
                    quote(&d.unit)
                ));
            }
            _ => missing.push(d.name.as_str()),
        }
    }
    for name in &missing {
        eprintln!("nxbench: FAILED: no finite value for {name}");
    }
    let failed = run.tally.failed + missing.len() as u64;
    let attempted = run.tally.attempted.max(1);
    let correct = failed == 0;
    println!("  {:<40} {failed:>16} of {attempted} attempted", "failed");
    println!(
        "  {:<40} {host_speed:>16.4} of the reference host's",
        "host speed (median)"
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    write_out(
        &format!("result-{}-{}.json", kind.name(), mode(o.trace)),
        &format!(
            "{{\"host\": {}, \"result\": {result}}}\n",
            fingerprint(&run, host_speed, started.elapsed().as_secs_f64())
        ),
    );
    println!("{result}");
    correct
}

// ---------------------------------------------------------------------
// `run`: each workload in its own child process
// ---------------------------------------------------------------------

/// One child's parsed result line.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// What `run` produced for a set of workloads.
struct SetResult {
    ok: bool,
    by_workload: Vec<(Kind, ChildResult)>,
}

fn parse_result_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    let v = json::parse(line)?;
    let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("no {k}"));
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("no correct")?,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

fn run_child(kind: Kind, o: &Options) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start the {} child: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut r =
        parse_result_line(&stdout).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
    r.correct &= out.status.success();
    Ok(r)
}

fn run_set(o: &Options) -> Result<SetResult, String> {
    let started = Instant::now();
    let defs = defs_of(o.trace);
    let mut by_workload = Vec::new();
    for &kind in &o.workloads {
        eprintln!("nxbench: {} ({}) ...", kind.name(), mode(o.trace));
        by_workload.push((kind, run_child(kind, o)?));
    }
    print!("{:<40} {:<9}", "metric", "unit");
    for (kind, _) in &by_workload {
        print!(" {:>15}", kind.name());
    }
    println!();
    for d in defs {
        print!("{:<40} {:<9}", d.name, d.unit);
        for (_, r) in &by_workload {
            match r.metrics.get(&d.name) {
                Some(v) => print!(" {v:>15.4}"),
                None => print!(" {:>15}", "MISSING"),
            }
        }
        println!();
    }
    print!("{:<40} {:<9}", "failed / attempted", "count");
    for (_, r) in &by_workload {
        print!(" {:>15}", format!("{}/{}", r.failed, r.attempted));
    }
    println!();
    if o.trace {
        for (kind, r) in &by_workload {
            if let Some(res) = r.metrics.get("ledger.residual_share") {
                if res.abs() > 0.10 {
                    println!(
                        "FLAG {}: ledger residual {:.1} % is outside +-10 %",
                        kind.name(),
                        res * 100.0
                    );
                }
            }
        }
    }
    let ok = by_workload
        .iter()
        .all(|(_, r)| r.correct && defs.iter().all(|d| r.metrics.contains_key(&d.name)));
    let body: Vec<String> = by_workload
        .iter()
        .map(|(kind, r)| {
            let ms: Vec<String> = r
                .metrics
                .iter()
                .map(|(k, v)| format!("{}: {v}", quote(k)))
                .collect();
            format!(
                "{}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                quote(kind.name()),
                r.correct,
                r.attempted,
                r.failed,
                ms.join(", ")
            )
        })
        .collect();
    let host = host::fingerprint_json(&[
        ("mode", quote(mode(o.trace))),
        ("seed", o.seed.to_string()),
        ("seconds", o.seconds.to_string()),
        ("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())),
    ]);
    write_out(
        &format!("results-{}-seed{}.json", mode(o.trace), o.seed),
        &format!(
            "{{\"host\": {host}, \"workloads\": {{{}}}}}\n",
            body.join(", ")
        ),
    );
    println!("{}", if ok { "OK" } else { "FAILED" });
    Ok(SetResult { ok, by_workload })
}

// ---------------------------------------------------------------------
// `repeat`: the whole set k times, against the benchmark's own bounds
// ---------------------------------------------------------------------

fn repeat(args: &[String]) -> Result<bool, String> {
    let k: usize = args
        .first()
        .and_then(|a| a.parse().ok())
        .filter(|k| *k >= 2)
        .ok_or("repeat takes the number of runs (at least 2)")?;
    let mut rest = vec!["--all".to_string()];
    rest.extend_from_slice(&args[1..]);
    let o = parse_options(&rest, false)?;
    let defs = defs_of(o.trace);
    let mut sets = Vec::with_capacity(k);
    let mut ok = true;
    for i in 0..k {
        eprintln!("nxbench: repeat {}/{k}", i + 1);
        let set = run_set(&o)?;
        ok &= set.ok;
        sets.push(set);
    }
    // gap = (max - min) / median; iqr = quartile distance / median, the
    // spread the benchmark's acceptance rule is written in.
    println!(
        "\n{:<15} {:<40} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "min", "median", "max", "gap", "iqr", "bound"
    );
    for (w, &kind) in o.workloads.iter().enumerate() {
        for d in defs {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.by_workload[w].1.metrics.get(&d.name).copied())
                .collect();
            if values.len() != k {
                println!("{:<15} {:<40} MISSING", kind.name(), d.name);
                ok = false;
                continue;
            }
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let med = stats::median(&values);
            let gap = if med == 0.0 {
                0.0
            } else {
                (max - min) / med.abs()
            };
            // Exact counts must repeat to the digit; an end-to-end host
            // clock metric must stay inside its own bound; a per-layer
            // host-clock metric has no bound and is only reported.
            let verdict = if d.exact {
                if min == max {
                    "identical"
                } else {
                    ok = false;
                    "NOT IDENTICAL"
                }
            } else if o.trace {
                "reported"
            } else if gap <= d.bound {
                "within"
            } else {
                ok = false;
                "OUTSIDE BOUND"
            };
            let bound = if o.trace || d.exact {
                "-".to_string()
            } else {
                format!("{:.1}%", d.bound * 100.0)
            };
            // Quartiles of fewer than four runs are extrapolations.
            let iqr = if k >= 4 {
                format!("{:.2}%", stats::spread(&values) * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{:<15} {:<40} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>8} {:>8}  {verdict}",
                kind.name(),
                d.name,
                min,
                med,
                max,
                gap * 100.0,
                iqr,
                bound
            );
        }
    }
    println!("{}", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_parses() {
        let o = parse_options(
            &args("--workload small_rpc --seed 7 --seconds 3 --trace 1"),
            true,
        )
        .unwrap();
        assert_eq!(o.workloads, [Kind::SmallRpc]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_options(&args("--workload nope"), true).is_err());
        assert!(parse_options(&args("--seed 1"), true).is_err());
        assert!(parse_options(&args("--workload small_rpc --trace 2"), true).is_err());
        assert!(parse_options(&args("--workload small_rpc --seconds 0"), true).is_err());
    }

    #[test]
    fn run_form_defaults_to_the_documented_seed_and_length() {
        let o = parse_options(&args("--all --trace"), false).unwrap();
        assert_eq!(o.workloads.len(), 4);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert_eq!(o.seconds, manifest().run_seconds as f64);
        assert!(o.trace);
    }

    #[test]
    fn result_line_is_the_last_non_empty_line() {
        let out = "noise\n{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
                   \"metrics\": {\"ratio\": {\"value\": 2.5, \"unit\": \"in/out\"}}}\n\n";
        let r = parse_result_line(out).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (5, 0));
        assert_eq!(r.metrics["ratio"], 2.5);
        assert!(parse_result_line("not json").is_err());
    }
}
