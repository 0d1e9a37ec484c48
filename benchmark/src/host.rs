//! The host a result was measured on: stamped on every results file so a
//! number is never read without the machine that produced it.

use crate::json::quote;
use std::process::Command;

/// Threads in flight for the multi-threaded sections: `min(nproc, 2)`,
/// never more, so a result does not change shape with the core count.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The fingerprint as a JSON object: host, toolchain, commit and the run
/// parameters `extra` (already `"key": value` pairs).
pub fn fingerprint_json(extra: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("nproc", nproc().to_string()),
        ("threads_in_flight", threads().to_string()),
        ("cpu_model", quote(&cpu_model())),
        ("rustc", quote(&command_line("rustc", &["--version"]))),
        (
            "git_commit",
            quote(&command_line("git", &["rev-parse", "HEAD"])),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
