//! E18 — Fault-injection sweep: recovery work vs fault rate.
//!
//! Exercises the `nx_core::fault` subsystem end to end. Part A drives the
//! functional `Nx` handle through `Nx::with_faults` across injected fault
//! rates, comparing the plain retry-from-offset recovery policy against
//! the touch-ahead mitigation (touch the faulting page plus a window so
//! the resubmission runs fault-free through it). Every response is
//! checked byte-identical against the clean reference — recovery must
//! never change the answer, only the work done — and the cell records that
//! work: page faults, retries, resubmissions, software fallbacks, all
//! replayable from the plan seed. Part B replays the same comparison in
//! the `nx_sys` discrete-event simulator, where CSB error injection
//! composes with the stochastic ERAT page-fault model and the
//! retry/touch-ahead/touch-first policies of the paper's Section V; its
//! GB/s and p99 are modeled time.
//!
//! `run()` writes `BENCH_FAULTS.json` with the full sweep (one object per
//! cell). What a quiet plan costs on the host is `nxbench`'s business
//! (`telemetry.always_overhead_share` prices the instrumented path).

use crate::{write_rows, Row, Table, SEED};
use nx_accel::AccelConfig;
use nx_core::fault::{FaultPlan, FaultRates, RecoveryPolicy};
use nx_core::{Format, Nx};
use nx_corpus::CorpusKind;
use nx_deflate::CompressionLevel;
use nx_sys::crb::Function;
use nx_sys::erat::FaultPolicy;
use nx_sys::{CompletionMode, RequestStream, SystemSim, Topology};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Fault-injection sweep: recovery work, retry vs touch-ahead";

/// Where the machine-readable sweep lands (relative to the invocation
/// directory, i.e. the workspace root under `cargo run`).
pub const JSON_PATH: &str = "BENCH_FAULTS.json";

/// Functional sweep: requests per cell and bytes per request. 512 KiB
/// spans several 64 KiB fault pages, so touch-ahead has a window to win.
const REQUESTS: usize = 40;
const REQ_BYTES: usize = 512 << 10;

/// Injected fault rates swept in Part A (the page-fault probability;
/// the other fault classes scale down from it — see `FaultRates::sweep`).
const RATES: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5];

/// Part B: per-page fault probability of the ERAT model and the injected
/// CSB-error rates layered on top.
const SIM_PAGE_FAULT_P: f64 = 0.05;
const SIM_INJECTED: [f64; 3] = [0.0, 0.1, 0.3];
const SIM_TOUCH_WINDOW: u64 = 32;

/// One functional sweep cell (Part A).
struct FnCell {
    policy: &'static str,
    rate: f64,
    page_faults: u64,
    retries: u64,
    resubmissions: u64,
    fallbacks: u64,
}

/// One simulator sweep cell (Part B).
struct SysCell {
    policy: &'static str,
    injected: f64,
    gbps: f64,
    p99_us: f64,
    faults: u64,
    csb_errors: u64,
    retries: u64,
}

/// The shared request set: raw payloads and their gzip framings.
struct Inputs {
    chunks: Vec<Vec<u8>>,
    gz: Vec<Vec<u8>>,
}

impl Inputs {
    fn build(requests: usize, req_bytes: usize) -> Self {
        let data = nx_corpus::mixed(SEED, requests * req_bytes);
        let level = CompressionLevel::default();
        let chunks: Vec<Vec<u8>> = data.chunks(req_bytes).map(<[u8]>::to_vec).collect();
        let gz = chunks
            .iter()
            .map(|c| nx_core::software::compress(c, level, Format::Gzip))
            .collect();
        Inputs { chunks, gz }
    }
}

/// Runs one Part A cell: the full request set through a faulted handle,
/// verifying every answer against the clean reference.
fn run_cell(ins: &Inputs, policy_name: &'static str, rate: f64, policy: RecoveryPolicy) -> FnCell {
    let plan = FaultPlan::seeded(SEED ^ (rate * 1000.0) as u64, FaultRates::sweep(rate));
    let nx = Nx::with_faults(AccelConfig::power9(), plan, policy);

    for (gz, chunk) in ins.gz.iter().zip(&ins.chunks) {
        let out = nx.decompress(gz, Format::Gzip).expect("recovery exhausted");
        assert_eq!(
            out.bytes, *chunk,
            "recovered decompression must be byte-identical"
        );
    }
    for chunk in ins.chunks.iter().step_by(5) {
        let out = nx
            .compress(chunk, Format::Gzip)
            .expect("recovery exhausted");
        let back = nx_core::software::decompress(&out.bytes, Format::Gzip).expect("framing intact");
        assert_eq!(back, *chunk, "recovered compression must round-trip");
    }

    let stats = nx.fault_stats().expect("faulted handle exposes stats");
    FnCell {
        policy: policy_name,
        rate,
        page_faults: stats.page_fault_count(),
        retries: stats.retry_count(),
        resubmissions: stats.resubmission_count(),
        fallbacks: stats.software_fallback_count(),
    }
}

/// Runs one Part B cell: the simulator under `policy` with `injected`
/// CSB-error pressure layered on the ERAT page-fault model.
fn run_sim_cell(policy_name: &'static str, policy: FaultPolicy, injected: f64) -> SysCell {
    let topo = Topology::power9_chip();
    let stream = RequestStream::saturating(
        SEED,
        96,
        4 << 20,
        &[CorpusKind::Json, CorpusKind::Logs, CorpusKind::Binary],
        Function::Compress,
    );
    let mut sim = SystemSim::new(&topo, CompletionMode::Interrupt, policy, SEED);
    if injected > 0.0 {
        let rates = FaultRates {
            csb_error: injected,
            timeout: injected * 0.25,
            ..FaultRates::none()
        };
        sim = sim.with_injected_faults(FaultPlan::seeded(SEED, rates));
    }
    let mut res = sim.run(&stream);
    SysCell {
        policy: policy_name,
        injected,
        gbps: res.throughput_gbps(),
        p99_us: res.p99_latency_us(),
        faults: res.faults,
        csb_errors: res.csb_errors,
        retries: res.retries,
    }
}

struct Measured {
    cells: Vec<FnCell>,
    sys: Vec<SysCell>,
}

/// Runs both sweeps.
fn measure() -> Measured {
    let ins = Inputs::build(REQUESTS, REQ_BYTES);
    let mut cells = Vec::new();
    for &rate in &RATES {
        cells.push(run_cell(&ins, "retry", rate, RecoveryPolicy::default()));
        cells.push(run_cell(&ins, "ahead", rate, RecoveryPolicy::touch_ahead(16)));
    }

    let p = SIM_PAGE_FAULT_P;
    let sys = SIM_INJECTED
        .iter()
        .flat_map(|&injected| {
            [
                run_sim_cell(
                    "retry",
                    FaultPolicy::RetryOnFault {
                        fault_probability: p,
                    },
                    injected,
                ),
                run_sim_cell(
                    "ahead",
                    FaultPolicy::TouchAhead {
                        fault_probability: p,
                        window_pages: SIM_TOUCH_WINDOW,
                    },
                    injected,
                ),
                run_sim_cell(
                    "touchfirst",
                    FaultPolicy::TouchFirst {
                        fault_probability: p,
                    },
                    injected,
                ),
            ]
        })
        .collect();
    Measured { cells, sys }
}

/// The full sweep, one row per cell ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let functional = m.cells.iter().map(|c| {
        Row::new("functional")
            .str("policy", c.policy)
            .val("rate", c.rate)
            .val("page_faults", c.page_faults)
            .val("retries", c.retries)
            .val("resubmissions", c.resubmissions)
            .val("software_fallbacks", c.fallbacks)
            .val("verified", true)
    });
    let system = m.sys.iter().map(|s| {
        Row::new("system")
            .str("policy", s.policy)
            .val("injected", s.injected)
            .fixed("gb_per_s", s.gbps, 3)
            .fixed("p99_us", s.p99_us, 3)
            .val("page_faults", s.faults)
            .val("csb_errors", s.csb_errors)
            .val("retries", s.retries)
    });
    functional.chain(system).collect()
}

/// Runs the experiment, writes `BENCH_FAULTS.json`, renders the report.
pub fn run() -> String {
    let m = measure();

    let mut fn_table = Table::new(vec![
        "policy",
        "rate",
        "faults",
        "retries",
        "resubmits",
        "fallbacks",
    ]);
    for c in &m.cells {
        fn_table.row(vec![
            c.policy.to_string(),
            format!("{:.2}", c.rate),
            c.page_faults.to_string(),
            c.retries.to_string(),
            c.resubmissions.to_string(),
            c.fallbacks.to_string(),
        ]);
    }

    let mut sys_table = Table::new(vec![
        "policy",
        "injected",
        "GB/s",
        "p99 µs",
        "page faults",
        "CSB errors",
        "retries",
    ]);
    for s in &m.sys {
        sys_table.row(vec![
            s.policy.to_string(),
            format!("{:.2}", s.injected),
            format!("{:.2}", s.gbps),
            format!("{:.0}", s.p99_us),
            s.faults.to_string(),
            s.csb_errors.to_string(),
            s.retries.to_string(),
        ]);
    }
    let note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E18 — {TITLE}\n\nPart A: {REQUESTS} × {} KiB gzip requests per cell through \
         `Nx::with_faults`; every response verified byte-identical to the clean \
         reference. `retry` resubmits from the faulting offset with only that page \
         made resident; `ahead` touches 16 pages past the fault.\n\n{}\nPart B: simulator, \
         POWER9 chip, 96 × 4 MiB saturating compress requests; ERAT page-fault \
         probability {:.2} per page, with injected CSB-error pressure on top \
         (retried with capped exponential backoff).\n\n{}\n{note}\n",
        REQ_BYTES >> 10,
        fn_table.render(),
        SIM_PAGE_FAULT_P,
        sys_table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_cell_recovers_byte_identical_answers() {
        // One small cell at a heavy fault rate: run_cell asserts
        // byte-identity internally; this checks injection actually
        // fired and recovery did real work.
        let ins = Inputs::build(4, 256 << 10);
        let cell = run_cell(&ins, "retry", 0.4, RecoveryPolicy::default());
        assert!(cell.page_faults > 0, "no page faults injected at rate 0.4");
        assert!(cell.resubmissions > 0, "faults must force resubmissions");
    }

    #[test]
    fn sweep_json_is_well_formed() {
        let m = Measured {
            cells: vec![FnCell {
                policy: "retry",
                rate: 0.1,
                page_faults: 12,
                retries: 3,
                resubmissions: 12,
                fallbacks: 0,
            }],
            sys: vec![SysCell {
                policy: "ahead",
                injected: 0.3,
                gbps: 10.0,
                p99_us: 900.0,
                faults: 40,
                csb_errors: 20,
                retries: 25,
            }],
        };
        let json = crate::render_rows(&rows(&m));
        assert_eq!(
            json,
            "[\n  {\"section\": \"functional\", \"policy\": \"retry\", \"rate\": 0.1, \
             \"page_faults\": 12, \"retries\": 3, \"resubmissions\": 12, \
             \"software_fallbacks\": 0, \"verified\": true},\n  {\"section\": \"system\", \
             \"policy\": \"ahead\", \"injected\": 0.3, \"gb_per_s\": 10.000, \
             \"p99_us\": 900.000, \"page_faults\": 40, \"csb_errors\": 20, \"retries\": 25}\n]\n"
        );
    }
}
