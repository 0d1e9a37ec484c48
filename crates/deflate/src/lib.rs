#![warn(missing_docs)]

//! `nx-deflate` — a complete, from-scratch implementation of the DEFLATE
//! compressed data format (RFC 1951) together with the gzip (RFC 1952) and
//! zlib (RFC 1950) containers.
//!
//! Within the `nxsim` reproduction of the ISCA 2020 paper *"Data compression
//! accelerator on IBM POWER9 and z15 processors"* this crate plays two roles:
//!
//! 1. It is the **software baseline** — the stand-in for the zlib library the
//!    paper compares the accelerator against. [`CompressionLevel`] mirrors
//!    zlib's level 0–9 heuristics (greedy vs. lazy matching, `good_length` /
//!    `nice_length` / `max_chain` cut-offs), so ratio and relative-speed
//!    shapes track the paper's baseline.
//! 2. It is the **correctness oracle** for the hardware model in `nx-accel`:
//!    everything the simulated accelerator emits must inflate back to the
//!    original bytes with [`inflate`].
//!
//! # Quick start
//!
//! ```
//! use nx_deflate::{deflate, inflate, CompressionLevel};
//!
//! # fn main() -> Result<(), nx_deflate::Error> {
//! let data = b"hello hello hello hello";
//! let compressed = deflate(data, CompressionLevel::new(6)?);
//! let restored = inflate(&compressed)?;
//! assert_eq!(restored, data);
//! # Ok(())
//! # }
//! ```
//!
//! # Layout
//!
//! * [`bitio`] — LSB-first bit readers/writers in DEFLATE bit order.
//! * [`crc32`] / [`adler32`] — the two checksums used by the containers.
//! * [`huffman`] — canonical, length-limited prefix codes (package-merge)
//!   and two-level decoding tables.
//! * [`lz77`] — tokens, the hash4 match finder with its fastest / greedy /
//!   lazy tokenizers, and the batched speculative matcher.
//! * [`encoder`] / [`decoder`] — the block-level DEFLATE encoder and the
//!   full inflate state machine.
//! * [`marker`] — marker-mode decode with an unknown 32 KB window (the
//!   seek index's referenced-window pass) and block-boundary probing.
//! * [`gzip`] / [`zlib`] — the framing formats.

pub mod adler32;
pub mod bitio;
pub mod crc32;
pub mod decoder;
pub mod encoder;
pub mod gzip;
pub mod huffman;
pub mod lz77;
pub mod marker;
pub mod profile;
pub mod stream;
pub mod zlib;

pub use decoder::{
    decode_path_counters, inflate, inflate_into, inflate_traced_into, inflate_with_dict,
    inflate_with_dict_into, inflate_with_limit, BlockTrace, InflateScratch, Inflater, StreamTrace,
};
pub use encoder::{
    deflate, deflate_tokens, deflate_tokens_with, deflate_with_dict, encode_counters,
    CompressionLevel, EncodeCounters, Encoder, Level, Strategy,
};
pub use lz77::{Engine, Token};
pub use marker::{resolve_markers_into, BlockProbe, MarkerInflater, MARKER_BASE};
pub use profile::{
    deflate_canned, deflate_canned_into, profile_counters, Profile, ProfileCounters, ProfileId,
    ProfileRegistry,
};
pub use stream::{Flush, InflateStream, StreamEncoder};

use std::fmt;

/// Errors produced while decoding DEFLATE, gzip or zlib streams, or while
/// validating encoder parameters.
///
/// All variants carry enough context to identify the failing construct.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The input ended before the stream was structurally complete.
    UnexpectedEof,
    /// A block header used the reserved block type `0b11`.
    ReservedBlockType,
    /// A stored (type 0) block's `LEN` and `NLEN` fields disagree.
    StoredLengthMismatch,
    /// A Huffman-coded symbol was not assigned any code in the table.
    InvalidSymbol,
    /// A code-length alphabet declared an over- or under-subscribed code.
    InvalidCodeLengths,
    /// A repeat instruction in the code-length stream had nothing to repeat.
    RepeatWithoutPrevious,
    /// The code-length stream overflowed the declared symbol counts.
    TooManyCodeLengths,
    /// A match referred back before the start of the output.
    DistanceTooFar,
    /// A length or distance symbol outside the valid DEFLATE range.
    InvalidLengthOrDistance,
    /// The output would exceed the caller-provided size limit.
    OutputLimitExceeded,
    /// A gzip container had a bad magic number or unsupported method.
    BadGzipHeader,
    /// A gzip trailer CRC-32 or length did not match the decoded payload.
    GzipChecksumMismatch,
    /// A zlib container had a bad header or dictionary requirement.
    BadZlibHeader,
    /// A zlib trailer Adler-32 did not match the decoded payload.
    ZlibChecksumMismatch,
    /// An invalid compression level was requested (valid: 0..=9).
    InvalidLevel(u32),
    /// Trailing garbage followed an otherwise complete stream.
    TrailingData,
    /// A zlib stream set FDICT but the caller supplied no dictionary:
    /// decode again through the dictionary-aware entry point.
    DictionaryRequired,
    /// The supplied preset dictionary does not match the stream (DICTID
    /// disagreement), or the stream does not request one at all.
    DictionaryMismatch,
    /// A canned profile's code lengths or dictionary failed validation.
    InvalidProfile,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of input"),
            Error::ReservedBlockType => write!(f, "reserved block type 0b11"),
            Error::StoredLengthMismatch => write!(f, "stored block LEN/NLEN mismatch"),
            Error::InvalidSymbol => write!(f, "symbol without an assigned huffman code"),
            Error::InvalidCodeLengths => write!(f, "over- or under-subscribed huffman code"),
            Error::RepeatWithoutPrevious => write!(f, "code-length repeat with no previous length"),
            Error::TooManyCodeLengths => write!(f, "code-length stream overflows symbol count"),
            Error::DistanceTooFar => write!(f, "match distance exceeds produced output"),
            Error::InvalidLengthOrDistance => write!(f, "invalid length or distance symbol"),
            Error::OutputLimitExceeded => write!(f, "output exceeds configured limit"),
            Error::BadGzipHeader => write!(f, "bad gzip header"),
            Error::GzipChecksumMismatch => write!(f, "gzip trailer checksum mismatch"),
            Error::BadZlibHeader => write!(f, "bad zlib header"),
            Error::ZlibChecksumMismatch => write!(f, "zlib adler-32 mismatch"),
            Error::InvalidLevel(l) => write!(f, "invalid compression level {l} (valid: 0..=9)"),
            Error::TrailingData => write!(f, "trailing data after stream end"),
            Error::DictionaryRequired => {
                write!(f, "zlib stream requires a preset dictionary (FDICT set)")
            }
            Error::DictionaryMismatch => {
                write!(f, "preset dictionary does not match the stream's DICTID")
            }
            Error::InvalidProfile => write!(f, "canned profile failed validation"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Size of the DEFLATE sliding window: matches may reach back at most this
/// many bytes (RFC 1951 §2).
pub const WINDOW_SIZE: usize = 32 * 1024;

/// Minimum match length expressible by DEFLATE.
pub const MIN_MATCH: usize = 3;

/// Maximum match length expressible by DEFLATE.
pub const MAX_MATCH: usize = 258;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            Error::UnexpectedEof,
            Error::ReservedBlockType,
            Error::StoredLengthMismatch,
            Error::InvalidSymbol,
            Error::InvalidCodeLengths,
            Error::RepeatWithoutPrevious,
            Error::TooManyCodeLengths,
            Error::DistanceTooFar,
            Error::InvalidLengthOrDistance,
            Error::OutputLimitExceeded,
            Error::BadGzipHeader,
            Error::GzipChecksumMismatch,
            Error::BadZlibHeader,
            Error::ZlibChecksumMismatch,
            Error::InvalidLevel(42),
            Error::TrailingData,
            Error::DictionaryRequired,
            Error::DictionaryMismatch,
            Error::InvalidProfile,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
