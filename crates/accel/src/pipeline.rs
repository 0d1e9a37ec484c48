//! The assembled compressor pipeline: match engine → symbol buffer →
//! table builder → encode pass, with the two-stage flow-shop makespan the
//! double-buffered hardware exhibits.

use crate::config::AccelConfig;
use crate::decomp::Decompressor;
use crate::huffenc::{BlockCost, BlockEncoder};
use crate::matcher::{MatchEngine, MatchOutcome};
use crate::metrics::{CompressReport, DecompressReport};
use nx_deflate::workers::Workers;

/// One modeled accelerator instance (compression and decompression
/// engines sharing a configuration, like one NX coprocessor).
#[derive(Debug)]
pub struct Accelerator {
    cfg: AccelConfig,
    matcher: MatchEngine,
    encoder: BlockEncoder,
    decomp: Decompressor,
}

impl Accelerator {
    /// Creates an accelerator for `cfg`, on a worker budget of its own.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`AccelConfig::validate`]).
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate();
        Self {
            matcher: MatchEngine::new(cfg.clone()),
            encoder: BlockEncoder::new(cfg.clone()),
            decomp: Decompressor::new(cfg.clone()),
            cfg,
        }
    }

    /// As [`new`](Self::new), claiming the helpers that run a large
    /// request's later segments ahead from `workers`.
    pub fn with_workers(cfg: AccelConfig, workers: Workers) -> Self {
        let mut accel = Self::new(cfg);
        accel.matcher.workers = workers;
        accel
    }

    /// The configuration in force.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Compresses `data` into a complete raw DEFLATE stream, returning the
    /// stream and the cycle report.
    ///
    /// The returned stream is bit-exact RFC 1951 — decode it with any
    /// inflate, including [`nx_deflate::inflate`].
    pub fn compress(&mut self, data: &[u8]) -> (Vec<u8>, CompressReport) {
        let m = self.matcher.tokenize(data);
        let e = self.encoder.encode(data, &m.tokens);
        let report = request_report(&self.cfg, &m, &e.blocks, e.stored_blocks, data, &e.stream);
        (e.stream, report)
    }

    /// Decompresses a raw DEFLATE stream.
    ///
    /// # Errors
    ///
    /// Propagates any [`nx_deflate::Error`] for malformed input — the
    /// hardware likewise terminates the job with an error CSB.
    pub fn decompress(&mut self, stream: &[u8]) -> nx_deflate::Result<(Vec<u8>, DecompressReport)> {
        self.decomp.decompress(stream)
    }

    /// The decompression engine, for callers with their own scratch and output.
    pub fn decompressor(&self) -> &Decompressor {
        &self.decomp
    }
}

/// Prices one request (one CRB): after any history reload, a two-stage flow
/// shop over `blocks` -- stage 1 is ingest (shared with frequency counting),
/// stage 2 table build + encode pass from the double-buffered symbol store.
fn request_report(
    cfg: &AccelConfig,
    m: &MatchOutcome,
    blocks: &[BlockCost],
    stored_blocks: u64,
    input: &[u8],
    output: &[u8],
) -> CompressReport {
    let ingest_cycles = m.history_cycles + m.ingest_cycles;
    let (mut finish1, mut finish2) = (m.history_cycles, m.history_cycles);
    for b in blocks {
        finish1 += b.ingest_cycles;
        finish2 = finish1.max(finish2) + b.build_encode_cycles;
    }
    let makespan = finish2.max(ingest_cycles);
    CompressReport {
        config_name: cfg.name,
        freq_ghz: cfg.freq_ghz,
        input_bytes: input.len() as u64,
        output_bytes: output.len() as u64,
        cycles: makespan + m.bank_stall_cycles + cfg.request_overhead_cycles,
        ingest_cycles,
        bank_stall_cycles: m.bank_stall_cycles,
        huffman_tail_cycles: makespan - ingest_cycles,
        overhead_cycles: cfg.request_overhead_cycles,
        blocks: blocks.len() as u64,
        stored_blocks,
        tokens: m.tokens.len() as u64,
        discarded_matches: m.discarded_matches,
    }
}

/// A chunked compression session: one stream compressed through a
/// *sequence of CRBs*, each carrying the previous 32 KB as history (the
/// POWER9 mechanism for streams larger than one request, and for
/// pipelined producers). Every chunk pays the request overhead and the
/// history-reload cycles — exactly the per-CRB costs that make tiny
/// chunks expensive on the real hardware.
#[derive(Debug)]
pub struct AccelStream {
    cfg: AccelConfig,
    matcher: MatchEngine,
    encoder: BlockEncoder,
    tail: Vec<u8>,
    w: nx_deflate::bitio::BitWriter,
    finished: bool,
    total_cycles: u64,
}

impl AccelStream {
    /// Opens a session on an engine configured by `cfg`.
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate();
        Self {
            matcher: MatchEngine::new(cfg.clone()),
            encoder: BlockEncoder::new(cfg.clone()),
            cfg,
            tail: Vec::new(),
            w: nx_deflate::bitio::BitWriter::new(),
            finished: false,
            total_cycles: 0,
        }
    }

    /// Compresses one chunk (one CRB). Returns the bytes this CRB
    /// produced and its cycle report. Set `last` on the final chunk to
    /// terminate the DEFLATE stream.
    ///
    /// # Panics
    ///
    /// Panics if called after the last chunk.
    pub fn write(&mut self, chunk: &[u8], last: bool) -> (Vec<u8>, CompressReport) {
        assert!(!self.finished, "write after the final chunk");

        let start = self.tail.len();
        let mut buf = Vec::with_capacity(start + chunk.len());
        buf.extend_from_slice(&self.tail);
        buf.extend_from_slice(chunk);
        let m = self.matcher.tokenize_from(&buf, start);
        let (blocks, stored) = self
            .encoder
            .encode_into(&mut self.w, chunk, &m.tokens, last);

        if last {
            self.w.align_to_byte();
            self.finished = true;
        }
        let bytes = self.w.take_bytes();

        // Carry the window.
        if chunk.len() >= nx_deflate::WINDOW_SIZE {
            self.tail.clear();
            self.tail
                .extend_from_slice(&chunk[chunk.len() - nx_deflate::WINDOW_SIZE..]);
        } else {
            self.tail.extend_from_slice(chunk);
            let excess = self.tail.len().saturating_sub(nx_deflate::WINDOW_SIZE);
            if excess > 0 {
                self.tail.drain(..excess);
            }
        }

        let report = request_report(&self.cfg, &m, &blocks, stored, chunk, &bytes);
        self.total_cycles += report.cycles;
        (bytes, report)
    }

    /// Total engine cycles across all CRBs so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Whether the stream has been terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::inflate;

    #[test]
    fn compress_reports_are_internally_consistent() {
        let data: Vec<u8> = b"pipeline makespan accounting exercise ".repeat(500);
        let mut a = Accelerator::new(AccelConfig::power9());
        let (stream, r) = a.compress(&data);
        assert_eq!(inflate(&stream).unwrap(), data);
        assert_eq!(r.input_bytes, data.len() as u64);
        assert_eq!(r.output_bytes, stream.len() as u64);
        assert!(r.cycles >= r.ingest_cycles + r.overhead_cycles);
        assert_eq!(
            r.cycles,
            r.ingest_cycles + r.huffman_tail_cycles + r.bank_stall_cycles + r.overhead_cycles
        );
        assert!(r.ratio() > 3.0, "ratio {}", r.ratio());
    }

    #[test]
    fn steady_state_throughput_approaches_lane_width() {
        // Large compressible input: per-request overheads amortize and the
        // engine should run near `lanes` bytes/cycle.
        let data = nx_like_text(4 << 20);
        let mut a = Accelerator::new(AccelConfig::power9());
        let (_, r) = a.compress(&data);
        let bpc = r.bytes_per_cycle();
        assert!(bpc > 5.5, "POWER9 model runs at {bpc:.2} B/cycle");
        assert!(bpc <= 8.0 + 1e-9, "exceeds lane width: {bpc:.2}");
    }

    #[test]
    fn small_requests_are_overhead_dominated() {
        let data = nx_like_text(4096);
        let mut a = Accelerator::new(AccelConfig::power9());
        let (_, r) = a.compress(&data);
        // 4 KB at 8 B/cycle is 512 cycles of ingest; overhead + table
        // build add over 1000 more.
        assert!(
            r.bytes_per_cycle() < 4.0,
            "{:.2} B/cycle",
            r.bytes_per_cycle()
        );
    }

    #[test]
    fn roundtrip_through_own_decompressor() {
        let data = nx_like_text(100_000);
        let mut a = Accelerator::new(AccelConfig::z15());
        let (stream, _) = a.compress(&data);
        let (out, dr) = a.decompress(&stream).unwrap();
        assert_eq!(out, data);
        assert!(dr.cycles > 0);
    }

    #[test]
    fn chunked_session_roundtrips_with_history_reuse() {
        // Unique-prefix data: every 3-gram hashes to its own set, so the
        // history candidates survive the set-associative FIFO and the
        // second chunk matches straight back into the first. (On hot-
        // prefix text the sets thrash and long-range repeats are lost —
        // the capacity trade-off the set-associative design makes.)
        let mut x = 0x9E3779B97F4A7C15u64;
        let motif: Vec<u8> = (0..8000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        let mut s = AccelStream::new(AccelConfig::power9());
        let (b1, r1) = s.write(&motif, false);
        let (b2, r2) = s.write(&motif, true);
        assert!(s.is_finished());
        let mut all = b1.clone();
        all.extend_from_slice(&b2);
        assert_eq!(inflate(&all).unwrap(), [motif.clone(), motif].concat());
        // Cross-chunk history makes the second CRB's output far smaller
        // (the first chunk is incompressible, the second pure matches).
        assert!(b2.len() * 3 < b1.len(), "{} vs {}", b2.len(), b1.len());
        // And the second CRB pays history-reload cycles.
        assert!(r2.ingest_cycles > r1.ingest_cycles);
    }

    #[test]
    fn small_chunks_cost_more_cycles_than_one_shot() {
        let data = nx_like_text(256 * 1024);
        let mut one = Accelerator::new(AccelConfig::power9());
        let (_, whole) = one.compress(&data);
        let mut s = AccelStream::new(AccelConfig::power9());
        let mut out = Vec::new();
        for (i, chunk) in data.chunks(8 * 1024).enumerate() {
            let last = (i + 1) * 8 * 1024 >= data.len();
            out.extend(s.write(chunk, last).0);
        }
        assert_eq!(inflate(&out).unwrap(), data);
        // Per-CRB overhead + history reload dominate at 8 KB chunks.
        assert!(
            s.total_cycles() > 2 * whole.cycles,
            "chunked {} vs whole {}",
            s.total_cycles(),
            whole.cycles
        );
    }

    #[test]
    fn many_chunk_sizes_roundtrip() {
        let data = nx_like_text(100_000);
        for chunk_size in [1usize, 37, 4096, 60_000, 200_000] {
            let mut s = AccelStream::new(AccelConfig::z15());
            let mut out = Vec::new();
            let chunks: Vec<&[u8]> = data.chunks(chunk_size).collect();
            for (i, c) in chunks.iter().enumerate() {
                out.extend(s.write(c, i + 1 == chunks.len()).0);
            }
            assert_eq!(inflate(&out).unwrap(), data, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn empty_input_produces_valid_stream() {
        let mut a = Accelerator::new(AccelConfig::power9());
        let (stream, r) = a.compress(b"");
        assert_eq!(inflate(&stream).unwrap(), b"");
        assert_eq!(r.input_bytes, 0);
        assert!(r.cycles >= r.overhead_cycles);
    }

    /// Stamps left before the wrap at the start of a stamp-invariant run:
    /// the rows clear a few requests in.
    const ROOM: u32 = 3 << 19;

    /// A seeded run of requests from 0 B to 700 KiB over every corpus
    /// kind; every fourth takes the segment route on a host with 2+ CPUs.
    /// Every sixth request and the next are runs of one byte: a way the
    /// first leaves behind that read as current would give the second a
    /// match inside its first lane window, which no fresh engine finds.
    fn stamp_run() -> Vec<Vec<u8>> {
        let mut x = 0x57A3_9E37_79B9_7F4Au64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as usize % n
        };
        let kinds = nx_corpus::CorpusKind::all();
        (0..24)
            .map(|i| {
                let len = match i % 4 {
                    0 => next(64),
                    1 => next(16 << 10),
                    2 => next(200 << 10),
                    _ => (512 << 10) + next(188 << 10),
                };
                match i % 6 {
                    2 | 3 => vec![b'a' + (i / 6) as u8; len.max(16)],
                    _ => kinds[i % kinds.len()].generate(i as u64, len),
                }
            })
            .collect()
    }

    #[test]
    fn a_reused_engine_equals_a_fresh_one_across_the_stamp_wrap() {
        for cfg in [AccelConfig::power9(), AccelConfig::z15()] {
            let mut a = Accelerator::new(cfg.clone());
            a.matcher.near_wrap(ROOM);
            for (i, data) in stamp_run().iter().enumerate() {
                let (stream, r) = a.compress(data);
                let (want, wr) = Accelerator::new(cfg.clone()).compress(data);
                assert!(stream == want, "{} request {i}: stream", cfg.name);
                assert_eq!(format!("{r:?}"), format!("{wr:?}"), "request {i}");
            }
            assert!(a.matcher.wrapped(ROOM), "no clear in the run");
        }
    }

    #[test]
    fn a_stream_equals_one_on_fresh_engines_across_the_stamp_wrap() {
        // Three chunks a stream, so each pair of runs straddles two, each
        // stream opened on the engine the last one closed, as one unit
        // serves consecutive jobs.
        let cfg = AccelConfig::power9();
        let (mut s, mut fresh) = (AccelStream::new(cfg.clone()), AccelStream::new(cfg.clone()));
        s.matcher.near_wrap(ROOM);
        for (i, chunk) in stamp_run().iter().enumerate() {
            if s.is_finished() {
                let engine = std::mem::replace(&mut s.matcher, MatchEngine::new(cfg.clone()));
                (s, fresh) = (AccelStream::new(cfg.clone()), AccelStream::new(cfg.clone()));
                s.matcher = engine;
            }
            let last = i % 3 == 2;
            fresh.matcher = MatchEngine::new(cfg.clone());
            let (bytes, r) = s.write(chunk, last);
            let (want, wr) = fresh.write(chunk, last);
            assert!(bytes == want, "chunk {i}: bytes");
            assert_eq!(format!("{r:?}"), format!("{wr:?}"), "chunk {i}");
        }
        assert!(s.matcher.wrapped(ROOM), "no clear in the run");
    }

    /// Deterministic text-like filler without pulling nx-corpus into unit
    /// tests.
    fn nx_like_text(len: usize) -> Vec<u8> {
        let words = [
            "compression",
            "accelerator",
            "throughput",
            "power9",
            "z15",
            "deflate",
            "huffman",
            "pipeline",
            "the",
            "of",
            "and",
            "with",
        ];
        let mut out = Vec::with_capacity(len + 16);
        let mut x = 0x243F6A8885A308D3u64;
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(words[(x % words.len() as u64) as usize].as_bytes());
            out.push(b' ');
        }
        out.truncate(len);
        out
    }
}
