//! A storage node compressing its write path on the NX unit: many client
//! threads submit buffers of mixed data; the simulation reports latency
//! percentiles, throughput and CPU offload, under both completion modes.
//! The read path then serves ranged GETs straight from a compressed
//! object with a gzip seek index — no full-object inflate per request.
//!
//! Run with: `cargo run --release --example storage_server`

use nx_core::{Format, Nx, ParallelInflateOptions};
use nx_corpus::CorpusKind;
use nx_sys::crb::Function;
use nx_sys::erat::FaultPolicy;
use nx_sys::workload::SizeDistribution;
use nx_sys::{CompletionMode, RequestStream, SystemSim, Topology};

fn main() {
    let topo = Topology::power9_chip();
    let mix = [
        CorpusKind::Json,
        CorpusKind::Logs,
        CorpusKind::Columnar,
        CorpusKind::Binary,
    ];
    println!(
        "storage node on {}: {} accelerator unit(s)\n",
        topo.name,
        topo.total_units()
    );
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "mode", "users", "offered", "achieved", "mean lat", "p99 lat", "faults"
    );

    for &completion in &[CompletionMode::Poll, CompletionMode::Interrupt] {
        for users in [1u32, 4, 16, 64] {
            // Each user writes ~64 KB–1 MB buffers at 2000 req/s.
            let stream = RequestStream::open_loop(
                99,
                users,
                2_000.0,
                4_000,
                SizeDistribution::BoundedPareto {
                    lo: 64 << 10,
                    hi: 1 << 20,
                    alpha: 1.3,
                },
                &mix,
                Function::Compress,
            );
            let offered_gbps = stream.total_bytes() as f64
                / stream.requests().last().unwrap().arrival.as_secs_f64()
                / 1e9;
            let mut sim = SystemSim::new(
                &topo,
                completion,
                FaultPolicy::RetryOnFault {
                    fault_probability: 0.002,
                },
                99,
            );
            let mut res = sim.run(&stream);
            println!(
                "{:<10} {:>6} {:>9.2} GB/s {:>9.2} GB/s {:>9.1} us {:>9.1} us {:>10}",
                format!("{completion:?}"),
                users,
                offered_gbps,
                res.throughput_gbps(),
                res.mean_latency_us(),
                res.p99_latency_us(),
                res.faults,
            );
        }
    }

    println!("\nCPU offload comparison (64 KB buffers, 1 GB total):");
    let stream = RequestStream::saturating(7, 16_384, 64 << 10, &mix, Function::Compress);
    let mut sim = SystemSim::new(
        &Topology::power9_chip(),
        CompletionMode::Interrupt,
        FaultPolicy::RetryOnFault {
            fault_probability: 0.0,
        },
        7,
    );
    let res = sim.run(&stream);
    println!(
        "  accelerated path: {:.2} CPU cycles/byte (submission + completion only)",
        res.cpu_cycles_per_byte()
    );
    println!("  software zlib-6 : ~50 CPU cycles/byte (entire compression on the core)");

    // ---- Read path: ranged GETs from a compressed object. ----
    // A 16 MiB object stored as one gzip member. Building the seek index
    // costs one decode; after that every ranged read restarts at the
    // nearest checkpoint (bit offset + the window bytes later data
    // references) instead of inflating the whole prefix.
    println!("\nread path: ranged GETs from one 16 MiB compressed object");
    let nx = Nx::power9();
    let object = nx_corpus::mixed(99, 16 << 20);
    let stored = nx.compress(&object, Format::Gzip).expect("put").bytes;
    let t0 = std::time::Instant::now();
    let index = nx.build_index(&stored, Format::Gzip).expect("index");
    println!(
        "  index: {} checkpoints, {} KiB serialized, built in {:.1} ms (one-time)",
        index.checkpoints().len(),
        index.to_bytes().len() >> 10,
        t0.elapsed().as_secs_f64() * 1e3
    );
    for (offset, len) in [(0u64, 4 << 10), (8 << 20, 64 << 10), (15 << 20, 256 << 10)] {
        let t0 = std::time::Instant::now();
        let body = nx
            .decompress_at(&stored, &index, offset, len)
            .expect("ranged get");
        assert_eq!(body, &object[offset as usize..offset as usize + len]);
        println!(
            "  GET bytes={offset}..{} -> {} KiB in {:>7.2} ms (vs full {} MiB inflate)",
            offset + len as u64,
            len >> 10,
            t0.elapsed().as_secs_f64() * 1e3,
            object.len() >> 20
        );
    }
    // Full-object reads still take the parallel inflate path.
    let t0 = std::time::Instant::now();
    let full = nx
        .decompress_parallel_with(
            &stored,
            Format::Gzip,
            ParallelInflateOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .expect("full get");
    assert_eq!(full, object);
    println!(
        "  GET (full object) -> {} MiB in {:.1} ms via parallel inflate",
        full.len() >> 20,
        t0.elapsed().as_secs_f64() * 1e3
    );
}
