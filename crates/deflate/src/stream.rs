//! Streaming (chunked) compression with history carry-over.
//!
//! Large streams cannot be compressed in one buffer: zlib processes them
//! through repeated `deflate()` calls, and the NX accelerator through a
//! sequence of CRBs whose source DDEs prepend the previous 32 KB of data
//! as *history*. [`StreamEncoder`] reproduces that model: each
//! [`write`](StreamEncoder::write) emits complete non-final blocks whose
//! matches may reach back into earlier chunks, and [`Flush`] controls the
//! chunk boundary semantics (`Sync` emits the classic zlib empty stored
//! block so the output so far is byte-aligned and decodable).
//!
//! ```
//! use nx_deflate::stream::{Flush, StreamEncoder};
//! use nx_deflate::{inflate, CompressionLevel};
//!
//! # fn main() -> Result<(), nx_deflate::Error> {
//! let mut enc = StreamEncoder::new(CompressionLevel::new(6)?);
//! let mut out = enc.write(b"first chunk first chunk ", Flush::None);
//! out.extend(enc.write(b"first chunk again", Flush::Finish));
//! assert_eq!(inflate(&out)?, b"first chunk first chunk first chunk again");
//! # Ok(())
//! # }
//! ```

use crate::bitio::BitWriter;
use crate::decoder::{InflateScratch, Inflater, Open};
use crate::encoder::{encode_fixed_block, CompressionLevel, Encoder};
use crate::lz77::{Engine, Tokenizer};
use crate::workers::Workers;
use crate::WINDOW_SIZE;
use std::mem::take;

/// Chunk-boundary behaviour for [`StreamEncoder::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Emit complete blocks for this chunk and keep the stream open.
    None,
    /// As `None`, then append an empty stored block (`00 00 FF FF`
    /// payload) so everything emitted so far decodes and ends
    /// byte-aligned — zlib's `Z_SYNC_FLUSH`.
    Sync,
    /// Close the stream: the last block is flagged final (an empty final
    /// block is appended if this chunk is empty).
    Finish,
}

/// A chunked DEFLATE encoder carrying the 32 KB window across calls.
#[derive(Debug)]
pub struct StreamEncoder {
    /// Level and match engine: the encode body every chunk runs.
    enc: Encoder,
    /// Up to [`WINDOW_SIZE`] bytes of the most recent input.
    tail: Vec<u8>,
    /// The persistent bit writer: the DEFLATE bit stream is continuous
    /// across chunks, so partial bytes stay buffered here between calls.
    w: BitWriter,
    /// Reusable match-finder state (hash chains, token buffer and the
    /// buffer `tail ++ chunk` is staged in): survives across chunks *and*
    /// across [`reset_with_dict`](Self::reset_with_dict) so long-lived
    /// sessions stop re-allocating 256 KB per chunk.
    tok: Tokenizer,
    finished: bool,
    total_in: u64,
}

impl StreamEncoder {
    /// Creates an encoder at `level`.
    pub fn new(level: CompressionLevel) -> Self {
        Self::with_engine(level, Engine::Auto)
    }

    /// Creates an encoder at `level` with an explicit match [`Engine`].
    pub fn with_engine(level: CompressionLevel, engine: Engine) -> Self {
        Self {
            enc: Encoder::with_engine(level, engine),
            tail: Vec::new(),
            w: BitWriter::new(),
            tok: Tokenizer::default(),
            finished: false,
            total_in: 0,
        }
    }

    /// This encoder on a worker budget: a chunk of at least two
    /// [`SEGMENT_MIN`](crate::workers::SEGMENT_MIN)s runs its later segments
    /// ahead or emits its blocks behind its parse on the helpers the budget
    /// grants ([`Encoder::with_workers`]).
    pub fn with_workers(mut self, workers: Workers) -> Self {
        self.enc.workers = Some(workers);
        self
    }

    /// Creates an encoder whose first chunk may match back into `dict`
    /// (its last 32 KB) — the streaming analogue of
    /// [`crate::deflate_with_dict`]. The parallel engine uses this to
    /// prime each shard's worker with the previous shard's tail.
    pub fn with_dict(level: CompressionLevel, dict: &[u8]) -> Self {
        Self::with_dict_engine(level, dict, Engine::Auto)
    }

    /// As [`with_dict`](Self::with_dict) with an explicit [`Engine`] —
    /// what the parallel engine's shard workers use when a session
    /// forces the speculative matcher.
    pub fn with_dict_engine(level: CompressionLevel, dict: &[u8], engine: Engine) -> Self {
        let mut enc = Self::with_engine(level, engine);
        enc.prime_dict(dict);
        enc
    }

    /// Rearms a finished (or fresh) encoder for a new, independent stream
    /// primed with `dict`, keeping the tokenizer and buffer allocations —
    /// the cheap path for a worker compressing many shards in sequence.
    pub fn reset_with_dict(&mut self, dict: &[u8]) {
        self.tail.clear();
        self.w.clear();
        self.finished = false;
        self.total_in = 0;
        self.prime_dict(dict);
    }

    fn prime_dict(&mut self, dict: &[u8]) {
        if self.enc.level().get() > 0 {
            self.tail
                .extend_from_slice(&dict[dict.len().saturating_sub(WINDOW_SIZE)..]);
        }
    }

    /// The configured compression level.
    pub fn level(&self) -> CompressionLevel {
        self.enc.level()
    }

    /// The configured match engine.
    pub fn engine(&self) -> Engine {
        self.enc.engine()
    }

    /// Total input bytes consumed so far.
    pub fn total_in(&self) -> u64 {
        self.total_in
    }

    /// Whether [`Flush::Finish`] has been processed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Compresses `chunk`, returning the bytes produced by this call.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Flush::Finish`].
    pub fn write(&mut self, chunk: &[u8], flush: Flush) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(chunk, flush, &mut out);
        out
    }

    /// Compresses `chunk`, appending the produced bytes to `out` instead
    /// of allocating a fresh vector — the zero-allocation path for
    /// long-lived sessions that recycle their output buffer.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Flush::Finish`].
    pub fn write_into(&mut self, chunk: &[u8], flush: Flush, out: &mut Vec<u8>) {
        assert!(!self.finished, "write after Flush::Finish");
        self.total_in += chunk.len() as u64;

        if !chunk.is_empty() {
            // The one-shot encoder's body behind the carried window, on
            // this session's tokenizer.
            let (tok, finish) = (self.tok.parts(), flush == Flush::Finish);
            (self.enc).encode_chunk(&mut self.w, &self.tail, chunk, tok, None, finish);
            // Carry the window forward.
            if chunk.len() >= WINDOW_SIZE {
                self.tail.clear();
                self.tail
                    .extend_from_slice(&chunk[chunk.len() - WINDOW_SIZE..]);
            } else {
                self.tail.extend_from_slice(chunk);
                let excess = self.tail.len().saturating_sub(WINDOW_SIZE);
                if excess > 0 {
                    self.tail.drain(..excess);
                }
            }
        }

        match flush {
            Flush::None => {}
            Flush::Sync => {
                // Empty non-final stored block: aligns to a byte boundary.
                crate::encoder::encode_stored_block(&mut self.w, &[], false);
            }
            Flush::Finish => {
                if chunk.is_empty() {
                    encode_fixed_block(&mut self.w, &[], true);
                }
                self.w.align_to_byte();
                self.finished = true;
            }
        }
        self.w.take_bytes_into(out);
    }

    /// Closes the stream, returning any final bytes. Equivalent to
    /// `write(&[], Flush::Finish)`; idempotent no-op when already
    /// finished.
    pub fn finish(&mut self) -> Vec<u8> {
        if self.finished {
            return Vec::new();
        }
        self.write(&[], Flush::Finish)
    }
}

/// A push-based streaming decompressor: feed compressed bytes as they
/// arrive, collect output as their tokens complete.
///
/// Every [`push`](InflateStream::push) returns each byte whose token is
/// complete in the input so far, not only whole blocks (image-png's
/// `ZlibStream` progress guarantee): the engine stops where the input cuts
/// a token off and the next push continues the same block there, on the
/// tables it already has — no block is decoded twice. Consumed input is
/// dropped up to that token (or up to the header it could not yet read),
/// and the 32 KB window is carried internally, so the caller keeps neither.
///
/// ```
/// use nx_deflate::stream::InflateStream;
/// use nx_deflate::{deflate, CompressionLevel};
///
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let data = b"streamed payload streamed payload".repeat(50);
/// let comp = deflate(&data, CompressionLevel::new(6)?);
/// let mut dec = InflateStream::new();
/// let mut out = Vec::new();
/// for chunk in comp.chunks(7) {
///     out.extend(dec.push(chunk)?);
/// }
/// assert!(dec.is_finished());
/// assert_eq!(out, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct InflateStream {
    /// Unconsumed compressed input (compacted to whole bytes).
    buf: Vec<u8>,
    /// Where the engine stood in `buf` when the input ran out: a bit and
    /// the block open there, if any (its tables are in `scratch`).
    at: (u64, Option<Open>),
    /// The carried output window (last ≤ 32 KB of produced output).
    window: Vec<u8>,
    /// Reusable decode tables + length scratch, carried across pushes so
    /// steady-state decoding stops allocating.
    scratch: InflateScratch,
    /// Reusable output buffer (swapped into each push's engine).
    block_out: Vec<u8>,
    finished: bool,
    total_out: u64,
}

impl InflateStream {
    /// An empty stream decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the final block has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total bytes produced so far.
    pub fn total_out(&self) -> u64 {
        self.total_out
    }

    /// Feeds more compressed bytes; returns the output of every token this
    /// push completed.
    ///
    /// # Errors
    ///
    /// Any [`crate::Error`] for malformed input. Input past the final
    /// block is ignored (callers handle trailers themselves).
    pub fn push(&mut self, bytes: &[u8]) -> crate::Result<Vec<u8>> {
        if self.finished {
            return Ok(Vec::new());
        }
        self.buf.extend_from_slice(bytes);
        // One engine per push, primed with the carried window and stood
        // where the last one stopped, recycling tables and output buffer.
        let (scratch, out) = (take(&mut self.scratch), take(&mut self.block_out));
        let mut inf = Inflater::with_reuse(&self.buf, scratch, out);
        inf.prime_window(&self.window);
        let (bit, open) = self.at;
        let status = inf.resume_at(bit, bit).and_then(|()| {
            inf.open = open;
            inf.run(usize::MAX)
        });
        (self.at, self.finished) = ((inf.bit_position(), inf.open), inf.is_finished());
        (self.block_out, self.scratch) = inf.into_parts();
        let out = &self.block_out;
        self.total_out += out.len() as u64;
        self.window
            .extend_from_slice(&out[out.len().saturating_sub(WINDOW_SIZE)..]);
        let excess = self.window.len().saturating_sub(WINDOW_SIZE);
        self.window.drain(..excess);
        // Compact consumed whole bytes.
        self.buf.drain(..(self.at.0 / 8) as usize);
        self.at.0 %= 8;
        // The stream stands at the token that failed, if one did, so pushing
        // again reports the same error.
        match status {
            Ok(()) | Err(crate::Error::UnexpectedEof) => Ok(out.clone()),
            Err(e) => Err(e),
        }
    }

    /// Declares end of input.
    ///
    /// # Errors
    ///
    /// [`crate::Error::UnexpectedEof`] if the stream was incomplete.
    pub fn finish(&self) -> crate::Result<()> {
        if self.finished {
            Ok(())
        } else {
            Err(crate::Error::UnexpectedEof)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate;

    fn lvl(l: u32) -> CompressionLevel {
        CompressionLevel::new(l).unwrap()
    }

    fn chunked_roundtrip(data: &[u8], chunk_size: usize, level: u32) -> Vec<u8> {
        let mut enc = StreamEncoder::new(lvl(level));
        let mut out = Vec::new();
        let chunks: Vec<&[u8]> = data.chunks(chunk_size.max(1)).collect();
        for (i, c) in chunks.iter().enumerate() {
            let flush = if i + 1 == chunks.len() {
                Flush::Finish
            } else {
                Flush::None
            };
            out.extend(enc.write(c, flush));
        }
        if !enc.is_finished() {
            out.extend(enc.finish());
        }
        assert_eq!(inflate(&out).unwrap(), data);
        out
    }

    #[test]
    fn chunked_equals_whole_for_decoding() {
        let data: Vec<u8> = b"streaming chunked compression with history carry ".repeat(400);
        for chunk in [100usize, 1024, 7919, data.len()] {
            for level in [1u32, 6, 9] {
                chunked_roundtrip(&data, chunk, level);
            }
        }
    }

    #[test]
    fn cross_chunk_matches_found() {
        // Second chunk repeats the first exactly: with history carry the
        // second chunk compresses to almost nothing.
        let motif: Vec<u8> = (0..8000u32).map(|i| (i % 251) as u8).collect();
        let mut enc = StreamEncoder::new(lvl(6));
        let first = enc.write(&motif, Flush::None);
        let second = enc.write(&motif, Flush::Finish);
        let mut all = first.clone();
        all.extend_from_slice(&second);
        assert_eq!(
            inflate(&all).unwrap(),
            [motif.clone(), motif.clone()].concat()
        );
        assert!(
            second.len() < first.len() / 5,
            "no history reuse: {} vs {}",
            second.len(),
            first.len()
        );
    }

    #[test]
    fn sync_flush_is_decodable_midstream() {
        let mut enc = StreamEncoder::new(lvl(6));
        let part1 = enc.write(b"first part of the stream ", Flush::Sync);
        // A sync-flushed prefix decodes once a final block follows; emulate
        // a reader that appends an empty final block.
        let mut probe = part1.clone();
        let mut w = BitWriter::new();
        encode_fixed_block(&mut w, &[], true);
        probe.extend(w.finish());
        assert_eq!(inflate(&probe).unwrap(), b"first part of the stream ");
        // And the real stream continues correctly.
        let part2 = enc.write(b"and the rest", Flush::Finish);
        let mut all = part1;
        all.extend(part2);
        assert_eq!(
            inflate(&all).unwrap(),
            b"first part of the stream and the rest"
        );
    }

    #[test]
    fn sync_flush_emits_the_classic_marker() {
        let mut enc = StreamEncoder::new(lvl(6));
        let out = enc.write(b"x", Flush::Sync);
        // The empty stored block ends with LEN=0000, NLEN=FFFF.
        assert!(
            out.windows(4).any(|w| w == [0x00, 0x00, 0xFF, 0xFF]),
            "missing 00 00 FF FF marker: {out:02x?}"
        );
    }

    #[test]
    fn empty_stream() {
        let mut enc = StreamEncoder::new(lvl(6));
        let out = enc.finish();
        assert_eq!(inflate(&out).unwrap(), b"");
        assert!(enc.is_finished());
        assert!(enc.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "after Flush::Finish")]
    fn write_after_finish_panics() {
        let mut enc = StreamEncoder::new(lvl(6));
        let _ = enc.finish();
        let _ = enc.write(b"more", Flush::None);
    }

    #[test]
    fn window_capped_at_32k() {
        let mut enc = StreamEncoder::new(lvl(1));
        let big = vec![3u8; 100_000];
        let _ = enc.write(&big, Flush::None);
        assert!(enc.tail.len() <= WINDOW_SIZE);
        assert_eq!(enc.total_in(), 100_000);
    }

    #[test]
    fn with_dict_matches_oneshot_dictionary_encoder() {
        let dict: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let data: Vec<u8> = dict.iter().copied().cycle().take(9000).collect();
        let mut enc = StreamEncoder::with_dict(lvl(6), &dict);
        let mut out = enc.write(&data, Flush::Finish);
        out.extend(enc.finish());
        assert_eq!(crate::inflate_with_dict(&out, &dict).unwrap(), data);
        assert_eq!(out, crate::deflate_with_dict(&data, lvl(6), &dict));
        // Dictionary must actually be used: data that repeats the dict
        // compresses far better than the dict-less stream.
        let plain = crate::deflate(&data, lvl(6));
        assert!(
            out.len() < plain.len(),
            "dict unused: {} vs {}",
            out.len(),
            plain.len()
        );
    }

    #[test]
    fn reset_with_dict_reuses_encoder_across_streams() {
        let parts: [&[u8]; 3] = [b"first shard first shard", b"second!", b"third third third"];
        let mut enc = StreamEncoder::new(lvl(6));
        let mut dict: Vec<u8> = Vec::new();
        for part in parts {
            enc.reset_with_dict(&dict);
            let mut out = enc.write(part, Flush::Finish);
            out.extend(enc.finish());
            assert_eq!(crate::inflate_with_dict(&out, &dict).unwrap(), part);
            dict = part.to_vec();
        }
    }

    #[test]
    fn write_into_appends_and_matches_write() {
        let data: Vec<u8> = b"write_into should append, not replace. ".repeat(200);
        let mut enc = StreamEncoder::new(lvl(6));
        let mut out = b"prefix".to_vec();
        enc.write_into(&data, Flush::Finish, &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(inflate(&out[6..]).unwrap(), data);
    }

    #[test]
    fn write_into_reuses_output_capacity() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let mut enc = StreamEncoder::new(lvl(6));
        let mut out = Vec::new();
        enc.reset_with_dict(&[]);
        enc.write_into(&data, Flush::Finish, &mut out);
        let cap = out.capacity();
        for _ in 0..3 {
            out.clear();
            enc.reset_with_dict(&[]);
            enc.write_into(&data, Flush::Finish, &mut out);
            assert_eq!(inflate(&out).unwrap(), data);
        }
        assert_eq!(out.capacity(), cap, "output buffer was reallocated");
    }

    #[test]
    fn inflate_stream_recycles_block_buffers() {
        // Two same-shape streams through one decoder-per-stream pattern:
        // the second push cycle must not grow the internal buffers.
        let data: Vec<u8> = b"recycled push-based inflate buffers ".repeat(500);
        let comp = crate::deflate(&data, lvl(6));
        let mut dec = InflateStream::new();
        let mut out = Vec::new();
        for c in comp.chunks(1024) {
            out.extend(dec.push(c).unwrap());
        }
        assert_eq!(out, data);
        let cap = dec.block_out.capacity();
        assert!(cap > 0, "block buffer never retained");
    }

    #[test]
    fn level0_streams_stored_blocks() {
        let data = vec![9u8; 70_000];
        chunked_roundtrip(&data, 30_000, 0);
    }

    #[test]
    fn inflate_stream_handles_any_chunking() {
        let data: Vec<u8> = b"push-based streaming inflate, block by block. ".repeat(300);
        let comp = crate::deflate(&data, lvl(6));
        for chunk in [1usize, 3, 17, 256, comp.len()] {
            let mut dec = InflateStream::new();
            let mut out = Vec::new();
            for c in comp.chunks(chunk) {
                out.extend(dec.push(c).unwrap());
            }
            assert!(dec.is_finished(), "chunk {chunk}");
            dec.finish().unwrap();
            assert_eq!(out, data, "chunk {chunk}");
            assert_eq!(dec.total_out(), data.len() as u64);
        }
    }

    #[test]
    fn inflate_stream_crosses_32k_window_boundaries() {
        // Multi-block stream much larger than the window: the carried
        // window must keep far matches decodable.
        let data: Vec<u8> = (0..300_000u32)
            .map(|i| (i % 7 + (i / 9731) % 31) as u8)
            .collect();
        let comp = crate::deflate(&data, lvl(6));
        let mut dec = InflateStream::new();
        let mut out = Vec::new();
        for c in comp.chunks(4096) {
            out.extend(dec.push(c).unwrap());
        }
        assert_eq!(out, data);
    }

    #[test]
    fn inflate_stream_reports_incomplete_input() {
        let comp = crate::deflate(b"never finished", lvl(6));
        let mut dec = InflateStream::new();
        let _ = dec.push(&comp[..comp.len() - 1]).unwrap();
        assert!(!dec.is_finished());
        assert_eq!(dec.finish(), Err(crate::Error::UnexpectedEof));
    }

    #[test]
    fn inflate_stream_rejects_corruption() {
        let mut comp = crate::deflate(&vec![b'q'; 50_000], lvl(6));
        comp[10] ^= 0xFF;
        let mut dec = InflateStream::new();
        let mut failed = false;
        for c in comp.chunks(64) {
            if dec.push(c).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed || !dec.is_finished(), "corruption escaped detection");
    }

    #[test]
    fn a_session_on_a_budget_splits_large_chunks_byte_for_byte() {
        // Chunks of two segments behind the carried window take a helper;
        // the stream is the one a session without a budget writes.
        let data = nx_corpus::mixed(21, 5 * crate::workers::SEGMENT_MIN);
        let budget = crate::workers::Workers::new(1);
        let (mut plain, mut split) = (
            StreamEncoder::with_engine(lvl(6), Engine::Sequential),
            StreamEncoder::with_engine(lvl(6), Engine::Sequential).with_workers(budget.clone()),
        );
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for (i, chunk) in data.chunks(600 << 10).enumerate() {
            let flush = if i == 2 { Flush::Finish } else { Flush::None };
            plain.write_into(chunk, flush, &mut want);
            split.write_into(chunk, flush, &mut got);
        }
        assert!(got == want);
        assert_eq!(budget.peak(), 1, "no chunk took the helper");
        assert_eq!(inflate(&got).unwrap(), data);
    }

    #[test]
    fn a_session_emits_a_large_batch_chunk_behind_from_mid_byte() {
        // A short chunk leaves the writer mid-byte; the large level-1 chunk
        // behind it emits into the same writer on the helper, and the
        // stream is the one a session without a budget writes.
        let data = nx_corpus::mixed(23, 3 * crate::workers::SEGMENT_MIN);
        let budget = crate::workers::Workers::new(1);
        let (mut plain, mut behind) = (
            StreamEncoder::new(lvl(1)),
            StreamEncoder::new(lvl(1)).with_workers(budget.clone()),
        );
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (head, rest) = data.split_at(1_001);
        plain.write_into(head, Flush::None, &mut want);
        behind.write_into(head, Flush::None, &mut got);
        assert_ne!(behind.w.bit_len() % 8, 0, "the writer stands on a byte");
        assert_eq!(budget.peak(), 0);
        plain.write_into(rest, Flush::Finish, &mut want);
        behind.write_into(rest, Flush::Finish, &mut got);
        assert!(got == want);
        assert_eq!(budget.peak(), 1, "the chunk did not emit behind");
        assert_eq!(inflate(&got).unwrap(), data);
    }

    #[test]
    fn inflate_stream_decodes_sync_flushed_producer_incrementally() {
        // A producer that sync-flushes lets the consumer see each chunk's
        // bytes as soon as they arrive.
        let mut enc = StreamEncoder::new(lvl(6));
        let mut dec = InflateStream::new();
        let a = enc.write(b"first message|", Flush::Sync);
        let got_a = dec.push(&a).unwrap();
        assert_eq!(got_a, b"first message|");
        let b = enc.write(b"second message", Flush::Finish);
        let got_b = dec.push(&b).unwrap();
        assert_eq!(got_b, b"second message");
        assert!(dec.is_finished());
    }

    #[test]
    fn inflate_stream_ignores_pushes_after_final_block() {
        let comp = crate::deflate(b"done", lvl(1));
        let mut dec = InflateStream::new();
        let out = dec.push(&comp).unwrap();
        assert_eq!(out, b"done");
        assert!(dec.push(b"trailing garbage").unwrap().is_empty());
    }

    #[test]
    fn inflate_stream_recalls_a_repeated_block_header() {
        // A canned stream writes its profile's header verbatim before every
        // block: the stream's scratch builds it once and recalls it after,
        // to the same bytes as the one-shot decoder, however it is fed.
        let kind = nx_corpus::CorpusKind::Json;
        let samples: Vec<Vec<u8>> = (0..16).map(|i| kind.generate(40 + i, 4096)).collect();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        let profile = crate::Profile::derive("json", &refs, lvl(3), 0).unwrap();
        let data = kind.generate(7, 3 << 20);
        let comp = crate::deflate_canned(&data, crate::Engine::Auto, &profile, false);
        let (scratch, out) = (&mut Default::default(), &mut Vec::new());
        let trace = crate::inflate_traced_into(&comp, 0, scratch, out).unwrap();
        let blocks = trace.blocks.len() as u64;
        assert!(blocks > 2, "{blocks} blocks");
        for chunk in [comp.len(), 60_001, 4_093] {
            let mut dec = InflateStream::new();
            let out: Vec<u8> = comp
                .chunks(chunk)
                .flat_map(|c| dec.push(c).unwrap())
                .collect();
            assert!(dec.is_finished());
            assert!(out == data, "chunk {chunk}");
            let (hits, builds) = dec.scratch.table_stats();
            assert!(
                builds < blocks && hits + builds >= blocks,
                "{hits} hits, {builds} builds"
            );
        }
        // A damaged block fails as it does in the one-shot decoder.
        let mut bad = comp.clone();
        bad[comp.len() / 2] ^= 0x55;
        let mut dec = InflateStream::new();
        assert_eq!(dec.push(&bad).err(), crate::inflate(&bad).err());
    }
}
