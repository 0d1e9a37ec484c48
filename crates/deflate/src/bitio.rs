//! LSB-first bit-level I/O in the bit order DEFLATE mandates.
//!
//! RFC 1951 packs Huffman codes most-significant-bit first *within a code*
//! but fills bytes starting from the least-significant bit. The writer and
//! reader here operate on raw little-endian bit runs; Huffman code reversal
//! is handled by the Huffman layer ([`crate::huffman`]), keeping this module
//! a plain bit pipe.

use crate::{Error, Result};

/// Accumulating LSB-first bit writer over an owned byte buffer.
///
/// **Store discipline.** At most 7 bits wait in the accumulator between
/// calls. [`write_bits`](Self::write_bits) ORs the new run in above them
/// (7 + 57 = 64 bits at most), stores all eight accumulator bytes at the end
/// of the buffer unconditionally, then sets the buffer's length to cover the
/// complete bytes only: one fixed-width store and a length set, no
/// variable-length copy behind a branch on a bit count no predictor can
/// learn. Bytes past the length are scratch the next call overwrites, so the
/// length is exact after every call: `byte_len`, `bit_len`,
/// `take_bytes_into` and `align_to_byte` never settle anything first and
/// may be interleaved with writes freely.
///
/// ```
/// use nx_deflate::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0b1, 1);
/// let bytes = w.finish();
/// assert_eq!(bytes, vec![0b0000_1101]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bit accumulator; valid bits occupy the low `nbits` positions.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes of pre-allocated output space.
    pub fn with_capacity(cap: usize) -> Self {
        Self::from_vec(Vec::with_capacity(cap))
    }

    /// Adopts `out` and appends to it: the bit stream starts byte-aligned
    /// behind whatever `out` already holds (a container's header), which
    /// [`byte_len`](Self::byte_len) and [`bit_len`](Self::bit_len) count
    /// too, and [`finish`](Self::finish) hands the same vector back.
    pub fn from_vec(out: Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n` bits of `value`, least-significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 57` (the accumulator guarantee) — DEFLATE never needs
    /// more than 48 bits in one call.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "bit run too long: {n}");
        debug_assert!(value < (1u64 << n), "value wider than bit count");
        self.acc |= value << self.nbits;
        self.nbits += n;
        // `nbits` never exceeds 7 + 57 = 64, so `bytes <= 8`.
        let bytes = self.nbits >> 3;
        let len = self.out.len();
        self.out.extend_from_slice(&self.acc.to_le_bytes());
        self.out.truncate(len + bytes as usize);
        // Two half shifts: `bytes` may be 8, and a shift by 64 overflows.
        self.acc = self.acc >> (bytes * 4) >> (bytes * 4);
        self.nbits &= 7;
    }

    /// Pads with zero bits to the next byte boundary (no-op if aligned).
    pub fn align_to_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends whole bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not byte-aligned (call
    /// [`align_to_byte`](Self::align_to_byte) first).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Number of complete bytes emitted so far (excludes buffered bits).
    pub fn byte_len(&self) -> usize {
        self.out.len()
    }

    /// Total number of bits written so far, including buffered bits.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + u64::from(self.nbits)
    }

    /// Cuts the stream back to its first `bits` bits (at most
    /// [`bit_len`](Self::bit_len)), mid-byte too: undoes whatever was
    /// written since the writer stood there.
    pub(crate) fn truncate(&mut self, bits: u64) {
        assert!(bits <= self.bit_len(), "truncate past the end");
        let (byte, rem) = ((bits / 8) as usize, (bits % 8) as u32);
        let partial = self.out.get(byte).map_or(self.acc as u8, |&b| b);
        self.out.truncate(byte);
        self.acc = u64::from(partial) & ((1 << rem) - 1);
        self.nbits = rem;
    }

    /// Sets the bit `at` bits into the stream, one already written: a
    /// block's BFINAL, once the block turns out to be the last.
    pub(crate) fn set_bit(&mut self, at: u64) {
        debug_assert!(at < self.bit_len(), "bit {at} not written yet");
        let bit = 1 << (at % 8);
        match self.out.get_mut((at / 8) as usize) {
            Some(byte) => *byte |= bit,
            None => self.acc |= u64::from(bit),
        }
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }

    /// Drains the complete bytes produced so far, leaving any partial
    /// byte buffered — the streaming-encoder primitive: the bit stream
    /// stays continuous across drains.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Appends the complete bytes produced so far to `dst` and clears the
    /// internal buffer (its capacity is kept). Allocation-free sibling of
    /// [`take_bytes`](Self::take_bytes): any partial byte stays buffered.
    pub fn take_bytes_into(&mut self, dst: &mut Vec<u8>) {
        dst.extend_from_slice(&self.out);
        self.out.clear();
    }

    /// Resets the writer to empty while keeping the output buffer's
    /// capacity for reuse.
    pub fn clear(&mut self) {
        self.out.clear();
        self.acc = 0;
        self.nbits = 0;
    }
}

/// LSB-first bit reader over a borrowed byte slice.
///
/// The reader distinguishes "ran out of input" ([`Error::UnexpectedEof`])
/// from malformed content so the inflate state machine can report precise
/// failures.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to load into the accumulator.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Refills the accumulator to at least `n` bits if input allows.
    ///
    /// Fast path: while at least 8 input bytes remain, a whole 64-bit
    /// little-endian word is ORed in at once and `pos` advances by the
    /// number of *fully* absorbed bytes. The first partially absorbed
    /// byte leaves its low bits in the accumulator above `nbits`; the
    /// next refill ORs the same bits onto the same positions (OR is
    /// idempotent), so the overlap needs no masking. The accumulator
    /// above `nbits` therefore holds either zeros or correct look-ahead
    /// stream bits — consumers must only rely on the low `nbits`.
    #[inline]
    fn refill(&mut self, n: u32) {
        if self.nbits >= n {
            return;
        }
        if self.pos + 8 <= self.data.len() {
            let mut word = [0u8; 8];
            word.copy_from_slice(&self.data[self.pos..self.pos + 8]);
            let w = u64::from_le_bytes(word);
            self.acc |= w << self.nbits;
            let absorbed = (63 - self.nbits) >> 3;
            self.pos += absorbed as usize;
            self.nbits += absorbed * 8;
            return;
        }
        while self.nbits < n && self.pos < self.data.len() {
            self.acc |= u64::from(self.data[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads exactly `n` bits (`n <= 32`), LSB-first.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than `n` bits remain.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 32);
        self.refill(n);
        if self.nbits < n {
            return Err(Error::UnexpectedEof);
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        let v = if n == 0 { 0 } else { v };
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Shows up to `n` bits without consuming them, zero-padded at EOF.
    ///
    /// Zero-padding at end-of-input is deliberate: Huffman decoding peeks a
    /// fixed-width window and may succeed with fewer real bits; the consume
    /// step then performs the precise EOF check.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        self.refill(n);
        (self.acc & ((1u64 << n) - 1)) as u32
    }

    /// Consumes `n` bits previously observed with [`peek_bits`](Self::peek_bits).
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than `n` real bits remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if self.nbits < n {
            return Err(Error::UnexpectedEof);
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Discards buffered bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Reads `buf.len()` whole bytes; the reader must be byte-aligned
    /// (buffered whole bytes are drained first).
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if the input is exhausted early.
    ///
    /// # Panics
    ///
    /// Panics if the reader is not byte-aligned.
    pub fn read_bytes(&mut self, buf: &mut [u8]) -> Result<()> {
        assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        let mut i = 0;
        while i < buf.len() && self.nbits >= 8 {
            buf[i] = (self.acc & 0xFF) as u8;
            self.acc >>= 8;
            self.nbits -= 8;
            i += 1;
        }
        if i < buf.len() {
            // Any bits still in the accumulator are look-ahead copies of
            // bytes at `pos` (see `refill`); drop them before switching
            // to direct slice reads so they are not double-counted.
            self.acc = 0;
            let n = buf.len() - i;
            if self.data.len() - self.pos < n {
                return Err(Error::UnexpectedEof);
            }
            buf[i..].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
        }
        Ok(())
    }

    /// Moves to bit `bit` of the input in O(1), dropping what is buffered: a
    /// block's middle, or the start of a token an engine could not finish.
    pub(crate) fn seek(&mut self, bit: u64) -> Result<()> {
        let pos = usize::try_from(bit / 8)
            .ok()
            .filter(|&p| p <= self.data.len());
        (self.pos, self.acc, self.nbits) = (pos.ok_or(Error::UnexpectedEof)?, 0, 0);
        self.read_bits((bit % 8) as u32).map(drop)
    }

    /// Total bits consumed from the underlying slice so far.
    pub fn bits_consumed(&self) -> u64 {
        self.pos as u64 * 8 - u64::from(self.nbits)
    }

    /// True if every bit of the input has been consumed (ignoring up to 7
    /// zero padding bits in the final byte).
    pub fn is_empty_ignoring_padding(&mut self) -> bool {
        self.refill(8);
        self.nbits < 8 && self.pos >= self.data.len() && self.acc == 0
    }

    /// Number of whole bytes not yet loaded plus buffered bits, in bits.
    pub fn bits_remaining(&self) -> u64 {
        (self.data.len() - self.pos) as u64 * 8 + u64::from(self.nbits)
    }

    /// The full input slice this reader walks — superloop access.
    #[inline]
    pub(crate) fn input(&self) -> &'a [u8] {
        self.data
    }

    /// Snapshot of `(acc, nbits, pos)` for a fast loop that keeps the bit
    /// accumulator in locals. The accumulator may hold look-ahead stream
    /// bits above `nbits` (see [`refill`](Self::refill)); a consumer that
    /// refills with the same idempotent-OR scheme preserves the invariant.
    #[inline]
    pub(crate) fn fast_state(&self) -> (u64, u32, usize) {
        (self.acc, self.nbits, self.pos)
    }

    /// Writes back a state previously obtained from
    /// [`fast_state`](Self::fast_state) and advanced by the fast loop.
    #[inline]
    pub(crate) fn set_fast_state(&mut self, acc: u64, nbits: u32, pos: usize) {
        debug_assert!(pos <= self.data.len());
        self.acc = acc;
        self.nbits = nbits;
        self.pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bit_runs() {
        let mut w = BitWriter::new();
        let runs: &[(u64, u32)] = &[(0b1, 1), (0b1010, 4), (0x3FFF, 14), (0, 3), (0xABCD, 16)];
        for &(v, n) in runs {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in runs {
            assert_eq!(u64::from(r.read_bits(n).unwrap()), v);
        }
    }

    #[test]
    fn writer_aligns_and_writes_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_to_byte();
        w.write_bytes(&[0xDE, 0xAD]);
        assert_eq!(w.finish(), vec![0b11, 0xDE, 0xAD]);
    }

    #[test]
    fn bit_len_counts_partial_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.byte_len(), 1);
    }

    #[test]
    fn truncate_stands_the_writer_where_it_stood() {
        // From every entry length 0..=20 bits, undo 0..=70 bits of writes:
        // the writer continues as if they never happened.
        let write = |w: &mut BitWriter, from: u64, bits: u64| {
            (from..from + bits).for_each(|i| w.write_bits(i.count_ones() as u64 & 1, 1));
        };
        for entry in 0..=20u64 {
            for undone in 0..=70 {
                let mut want = BitWriter::new();
                write(&mut want, 0, entry);
                let mut got = want.clone();
                got.write_bits(0x1FF_FFFF, 25);
                write(&mut got, 0, undone);
                got.truncate(entry);
                assert_eq!(got.bit_len(), entry);
                write(&mut got, 7, 13);
                write(&mut want, 7, 13);
                assert_eq!(
                    got.finish(),
                    want.finish(),
                    "entry {entry}, undone {undone}"
                );
            }
        }
    }

    /// What the writer must do, one bit at a time: the bits not yet
    /// drained, least-significant first.
    #[derive(Default)]
    struct BitAtATime(Vec<bool>);

    impl BitAtATime {
        fn write_bits(&mut self, value: u64, n: u32) {
            self.0.extend((0..n).map(|i| value >> i & 1 == 1));
        }

        fn align_to_byte(&mut self) {
            self.0.resize(self.0.len().next_multiple_of(8), false);
        }

        /// Drains the complete bytes, as `take_bytes` does.
        fn take_bytes(&mut self) -> Vec<u8> {
            let whole = self.0.len() / 8 * 8;
            let bytes = self.0[..whole].chunks(8).map(|byte| {
                let bits = byte.iter().enumerate();
                bits.fold(0u8, |acc, (i, &bit)| acc | u8::from(bit) << i)
            });
            let bytes = bytes.collect();
            self.0.drain(..whole);
            bytes
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Write(u64, u32),
        Take,
        TakeInto,
        Align,
        Clear,
    }

    /// Three writes in four; the widths are the accumulator's corners.
    fn op((kind, value, width): (u8, u64, usize)) -> Op {
        let n = [0u32, 1, 7, 8, 9, 48, 57][width];
        match kind {
            0..=11 => Op::Write(value & ((1 << n) - 1), n),
            12 => Op::Take,
            13 => Op::TakeInto,
            14 => Op::Align,
            _ => Op::Clear,
        }
    }

    proptest::proptest! {
        /// Every call leaves `byte_len` / `bit_len` exact and every drain
        /// hands over exactly the complete bytes, from a writer that starts
        /// with no capacity, one with plenty, and one that adopted a vector.
        #[test]
        fn writer_matches_a_bit_at_a_time_reference(
            ops in proptest::collection::vec((0u8..16, proptest::prelude::any::<u64>(), 0usize..7), 1..200),
            adopted in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..20),
        ) {
            let writers = [
                (BitWriter::new(), Vec::new()),
                (BitWriter::with_capacity(4096), Vec::new()),
                (BitWriter::from_vec(adopted.clone()), adopted),
            ];
            for (mut w, prefix) in writers {
                let mut model = BitAtATime::default();
                model.0.extend(prefix.iter().flat_map(|&b| (0..8).map(move |i| b >> i & 1 == 1)));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for op in ops.iter().copied().map(op) {
                    match op {
                        Op::Write(value, n) => {
                            w.write_bits(value, n);
                            model.write_bits(value, n);
                        }
                        Op::Take => {
                            got.extend(w.take_bytes());
                            want.extend(model.take_bytes());
                        }
                        Op::TakeInto => {
                            w.take_bytes_into(&mut got);
                            want.extend(model.take_bytes());
                        }
                        Op::Align => {
                            w.align_to_byte();
                            model.align_to_byte();
                        }
                        Op::Clear => {
                            w.clear();
                            model.0.clear();
                        }
                    }
                    proptest::prop_assert_eq!(w.bit_len(), model.0.len() as u64, "{:?}", op);
                    proptest::prop_assert_eq!(w.byte_len(), model.0.len() / 8, "{:?}", op);
                    proptest::prop_assert_eq!(&got, &want, "{:?}", op);
                }
                got.extend(w.finish());
                model.align_to_byte();
                want.extend(model.take_bytes());
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn reader_eof_detection() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn peek_zero_pads_at_eof_but_consume_fails() {
        let mut r = BitReader::new(&[0b1]);
        assert_eq!(r.peek_bits(16), 0b1);
        assert!(r.consume(16).is_err());
        assert!(r.consume(8).is_ok());
    }

    #[test]
    fn align_then_read_bytes() {
        // 3 bits then aligned bytes.
        let data = [0b0000_0101, 0x11, 0x22];
        let mut r = BitReader::new(&data);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        r.align_to_byte();
        let mut buf = [0u8; 2];
        r.read_bytes(&mut buf).unwrap();
        assert_eq!(buf, [0x11, 0x22]);
    }

    #[test]
    fn read_bytes_drains_accumulator_first() {
        let data = [0x11, 0x22, 0x33];
        let mut r = BitReader::new(&data);
        // Force a refill of 2 bytes into the accumulator via peek.
        let _ = r.peek_bits(16);
        let mut buf = [0u8; 3];
        r.read_bytes(&mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn bits_consumed_tracks_position() {
        let data = [0xAA, 0xBB, 0xCC];
        let mut r = BitReader::new(&data);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_consumed(), 5);
        r.read_bits(7).unwrap();
        assert_eq!(r.bits_consumed(), 12);
    }

    #[test]
    fn empty_ignoring_padding() {
        let mut r = BitReader::new(&[0b0000_0011]);
        r.read_bits(2).unwrap();
        assert!(r.is_empty_ignoring_padding());
        let mut r2 = BitReader::new(&[0b0000_0111]);
        r2.read_bits(2).unwrap();
        assert!(!r2.is_empty_ignoring_padding());
    }

    #[test]
    fn zero_width_reads_are_noops() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.bits_consumed(), 0);
    }
}
