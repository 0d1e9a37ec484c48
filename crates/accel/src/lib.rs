#![warn(missing_docs)]

//! `nx-accel` — a cycle-approximate model of the on-chip DEFLATE
//! compression/decompression accelerator of the IBM POWER9 ("NX gzip") and
//! IBM z15 ("Integrated Accelerator for zEDC") processors, after
//! Abali et al., *Data compression accelerator on IBM POWER9 and z15
//! processors*, ISCA 2020.
//!
//! The model is **functionally bit-exact** — [`Accelerator::compress`]
//! emits a valid RFC 1951 stream that any inflate implementation decodes —
//! while every algorithmic step honours the hardware's structure rather
//! than zlib's:
//!
//! * a **multi-lane match engine** ([`matcher`]) ingests N bytes per cycle
//!   (N = 8 on POWER9, 16 on z15), hashes each lane's 3-byte prefix into a
//!   **banked, set-associative hash table** (the crate's `hashbank`) of
//!   prior positions, compares candidates against the **history buffer**
//!   (the last `history_bytes` of input), and a **speculative resolver**
//!   picks a non-overlapping token cover of the lane window — hardware
//!   cannot afford zlib's sequential lazy heuristic;
//! * a **two-pass Huffman unit** ([`huffenc`]) counts symbol frequencies
//!   during ingest, builds a canonical length-limited code at block close
//!   (the "DHT generation" the paper highlights), and encodes the buffered
//!   symbols while the next block streams in — a two-stage pipeline whose
//!   makespan the cycle model reproduces;
//! * the **decompressor** ([`decomp`]) resolves one Huffman symbol per
//!   cycle but copies matches through a wide datapath, so its byte rate
//!   rises with the compression ratio of the input.
//!
//! Cycle accounting ([`metrics`]) deliberately stays at the
//! throughput-fidelity level the paper's evaluation needs (bytes/cycle,
//! per-request overheads, pipeline bubbles); it is not an RTL simulator.
//!
//! ```
//! use nx_accel::{Accelerator, AccelConfig};
//!
//! let mut accel = Accelerator::new(AccelConfig::power9());
//! let data = b"compress me compress me compress me".repeat(100);
//! let (stream, report) = accel.compress(&data);
//! assert_eq!(nx_deflate::inflate(&stream).unwrap(), data);
//! assert!(report.bytes_per_cycle() > 1.0);
//! ```

pub mod canned;
pub mod config;
pub mod decomp;
pub mod energy;
pub(crate) mod hashbank;
pub mod huffenc;
pub mod matcher;
pub mod metrics;
pub mod pipeline;

pub use config::{AccelConfig, HuffmanMode, Resolution};
pub use decomp::Decompressor;
pub use metrics::{CompressReport, DecompressReport};
pub use pipeline::Accelerator;

/// Convenience: one-shot compression on a fresh POWER9-configured engine.
pub fn compress_power9(data: &[u8]) -> (Vec<u8>, CompressReport) {
    Accelerator::new(AccelConfig::power9()).compress(data)
}

/// Convenience: one-shot compression on a fresh z15-configured engine.
pub fn compress_z15(data: &[u8]) -> (Vec<u8>, CompressReport) {
    Accelerator::new(AccelConfig::z15()).compress(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_wrappers_roundtrip() {
        let data = b"quick smoke test of both generations ".repeat(50);
        let (s9, r9) = compress_power9(&data);
        let (s15, r15) = compress_z15(&data);
        assert_eq!(nx_deflate::inflate(&s9).unwrap(), data);
        assert_eq!(nx_deflate::inflate(&s15).unwrap(), data);
        assert!(r15.bytes_per_cycle() > r9.bytes_per_cycle());
    }
}
