//! Output framing: raw DEFLATE, gzip (RFC 1952) or zlib (RFC 1950).
//!
//! The accelerator computes CRC-32/Adler-32 inline with the data movement;
//! the facade reproduces that by checksumming the payload once while
//! wrapping.

use crate::Result;
use nx_deflate::{adler32::adler32, crc32::crc32, gzip, zlib, Error as DeflateError};

/// Container format for accelerator output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Bare RFC 1951 stream, no checksum.
    RawDeflate,
    /// gzip member with CRC-32 + length trailer.
    Gzip,
    /// zlib stream with Adler-32 trailer.
    Zlib,
}

/// Frames a raw DEFLATE stream in place -- the one place a compress path
/// spells a container: `out` (cleared first) gets the header, what `body`
/// appends, and the trailer over `data`. `dictid` marks a zlib stream FDICT.
/// FLEVEL is advisory: every zlib header carries the default.
pub(crate) fn frame(
    out: &mut Vec<u8>,
    data: &[u8],
    format: Format,
    dictid: Option<u32>,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let flevel = nx_deflate::CompressionLevel::default();
    out.clear();
    out.reserve(data.len() / 2 + 64);
    match (format, dictid) {
        (Format::RawDeflate, _) => {}
        (Format::Gzip, _) => gzip::write_header_into(out),
        (Format::Zlib, Some(dictid)) => zlib::write_header_with_dictid(out, flevel, dictid),
        (Format::Zlib, None) => zlib::write_header_into(out, flevel),
    }
    body(out);
    match format {
        Format::RawDeflate => {}
        Format::Gzip => gzip::write_trailer_into(out, crc32(data), data.len() as u64),
        Format::Zlib => zlib::write_trailer_into(out, adler32(data)),
    }
}

/// A parsed container: the raw stream plus the container it closes with.
#[derive(Debug)]
pub(crate) struct Unwrapped<'a> {
    /// The raw DEFLATE payload (through the last byte a trailer leaves).
    pub stream: &'a [u8],
    /// The decoded size the container claims (gzip ISIZE); 0 = unknown.
    pub hint: usize,
    /// The payload and the trailer behind it.
    tail: &'a [u8],
    format: Format,
}

impl Unwrapped<'_> {
    /// Verifies `decoded` against the trailer that must sit where the stream
    /// *ended*, `consumed` bytes into the payload, and end the container: what
    /// `gzip::decompress` / `zlib::decompress` check, variant for variant.
    pub fn verify(&self, consumed: usize, decoded: &[u8]) -> Result<()> {
        let end = match self.format {
            Format::RawDeflate => self.tail.len(),
            Format::Gzip => gzip::verify_trailer(self.tail, consumed, decoded)?,
            Format::Zlib => zlib::verify_trailer(self.tail, consumed, decoded)?,
        };
        if end != self.tail.len() {
            return Err(DeflateError::TrailingData.into());
        }
        Ok(())
    }
}

/// Parses a container down to its raw DEFLATE payload without inflating.
pub(crate) fn unwrap(data: &[u8], format: Format) -> Result<Unwrapped<'_>> {
    let n = data.len();
    let (payload_at, trailer, hint) = match format {
        Format::RawDeflate => (0, 0, 0),
        Format::Gzip => {
            // The one RFC 1952 header walk (optional fields, FHCRC), shared
            // with every other gzip door.
            let start = gzip::parse_header(data)?.1;
            if start + 8 > n {
                return Err(DeflateError::UnexpectedEof.into());
            }
            (start, 8, gzip::isize_hint(data))
        }
        Format::Zlib => {
            if n < 6 {
                return Err(DeflateError::UnexpectedEof.into());
            }
            // CM = 8 (DEFLATE), FDICT clear, FCHECK right.
            let header = u16::from_be_bytes([data[0], data[1]]);
            if header & 0x0F20 != 0x0800 || !header.is_multiple_of(31) {
                return Err(DeflateError::BadZlibHeader.into());
            }
            (2, 4, 0)
        }
    };
    Ok(Unwrapped {
        stream: &data[payload_at..n - trailer],
        hint,
        tail: &data[payload_at..],
        format,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use nx_deflate::{deflate, CompressionLevel};

    fn wrap(raw: Vec<u8>, original: &[u8], format: Format) -> Vec<u8> {
        let mut out = vec![0xEE; 3]; // stale bytes: `frame` replaces them
        frame(&mut out, original, format, None, |out| {
            out.extend_from_slice(&raw)
        });
        out
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let data = b"framing roundtrip payload";
        let raw = deflate(data, CompressionLevel::default());
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            let framed = wrap(raw.clone(), data, format);
            let un = unwrap(&framed, format).unwrap();
            assert_eq!(nx_deflate::inflate(un.stream).unwrap(), data, "{format:?}");
            un.verify(un.stream.len(), data).unwrap();
        }
    }

    #[test]
    fn verify_catches_wrong_payload() {
        let data = b"the true payload";
        let raw = deflate(data, CompressionLevel::default());
        let framed = wrap(raw, data, Format::Gzip);
        let un = unwrap(&framed, Format::Gzip).unwrap();
        assert!(matches!(
            un.verify(un.stream.len(), b"another payload"),
            Err(Error::Deflate(_))
        ));
    }

    #[test]
    fn bad_headers_rejected() {
        assert!(unwrap(&[0u8; 20], Format::Gzip).is_err());
        assert!(unwrap(&[0u8; 8], Format::Zlib).is_err());
        assert!(unwrap(&[], Format::Gzip).is_err());
    }

    #[test]
    fn gzip_optional_header_fields_are_skipped() {
        // gzip(1) sets FNAME by default; the payload slice must start
        // after the optional fields, not at byte 10.
        let data = b"payload behind an FNAME header";
        let raw = deflate(data, CompressionLevel::default());
        let mut framed = vec![0x1F, 0x8B, 8, 0x08, 0, 0, 0, 0, 0, 3];
        framed.extend_from_slice(b"some_file.txt\0");
        framed.extend_from_slice(&raw);
        framed.extend_from_slice(&nx_deflate::crc32::crc32(data).to_le_bytes());
        framed.extend_from_slice(&(data.len() as u32).to_le_bytes());
        let un = unwrap(&framed, Format::Gzip).unwrap();
        let out = nx_deflate::inflate(un.stream).unwrap();
        assert_eq!(out, data);
        un.verify(un.stream.len(), &out).unwrap();
        // Truncated mid-FNAME (no terminator) is an EOF, not garbage.
        assert!(unwrap(&framed[..16], Format::Gzip).is_err());
    }

    #[test]
    fn every_truncation_returns_a_typed_error_not_a_panic() {
        // Regression for the `expect("4")` trailer reads: any prefix of a
        // valid container must parse or fail with a typed error — never
        // panic on the slice conversion.
        let data = b"truncation torture payload".repeat(8);
        let raw = deflate(&data, CompressionLevel::default());
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            let framed = wrap(raw.clone(), &data, format);
            for cut in 0..framed.len() {
                let _ = unwrap(&framed[..cut], format);
            }
            assert!(unwrap(&framed, format).is_ok());
        }
    }

    #[test]
    fn short_trailer_reads_are_typed_errors() {
        // The trailer is read where the decoder stopped; a stream that ends
        // too close to the end of the buffer must be an EOF, not a panic on
        // the slice conversion.
        let data = b"short trailer payload";
        let raw = deflate(data, CompressionLevel::default());
        for format in [Format::Gzip, Format::Zlib] {
            let framed = wrap(raw.clone(), data, format);
            let un = unwrap(&framed, format).unwrap();
            for past in 1..=9 {
                let got = un.verify(un.stream.len() + past, data);
                assert_eq!(got, Err(DeflateError::UnexpectedEof.into()), "{format:?}");
            }
        }
    }
}
