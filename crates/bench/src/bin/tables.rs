//! Regenerates the paper's evaluation tables/figures.
//!
//! ```text
//! cargo run --release -p nx-bench --bin tables -- all
//! cargo run --release -p nx-bench --bin tables -- e1 e5 e10
//! cargo run --release -p nx-bench --bin tables -- list
//! ```
//!
//! E17–E26 also rewrite their `BENCH_*.json` file in the working
//! directory (deterministic cells only).

use nx_bench::exp;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = exp::all();

    if args.is_empty() || args[0] == "list" {
        println!("available experiments:");
        for e in &registry {
            println!("  {:>4}  {}", e.id, e.title);
        }
        println!("\nusage: tables all | <id> [<id> ...]");
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&exp::Experiment> = if args.iter().any(|a| a == "all") {
        registry.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match registry.iter().find(|e| e.id == a.to_lowercase()) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment '{a}' (try: tables list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };

    for e in &selected {
        let t0 = std::time::Instant::now();
        let report = (e.run)();
        println!("{report}");
        eprintln!(
            "[{} finished in {:.1}s]\n",
            e.id,
            t0.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
