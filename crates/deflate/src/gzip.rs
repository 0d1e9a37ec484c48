//! The gzip container (RFC 1952) around raw DEFLATE.
//!
//! This is the framing the POWER9 NX "gzip" coprocessor type produces and
//! consumes; the accelerator computes the trailer CRC-32 inline with the
//! data movement.

use crate::crc32::crc32;
use crate::encoder::CompressionLevel;
use crate::zlib::read4;
use crate::{decoder, Error, Result};

/// gzip magic bytes.
const MAGIC: [u8; 2] = [0x1F, 0x8B];
/// Compression method 8 = DEFLATE, the only defined method.
const METHOD_DEFLATE: u8 = 8;

/// FLG bits.
const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// Parsed gzip member header fields the decoder exposes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GzipHeader {
    /// Original file name, if the FNAME field was present.
    pub file_name: Option<Vec<u8>>,
    /// Comment, if the FCOMMENT field was present.
    pub comment: Option<Vec<u8>>,
    /// Modification time (Unix seconds) from MTIME, zero if unset.
    pub mtime: u32,
    /// Operating system identifier byte.
    pub os: u8,
}

/// Compresses `data` into a single-member gzip stream.
///
/// ```
/// use nx_deflate::gzip;
/// use nx_deflate::CompressionLevel;
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let gz = gzip::compress(b"payload", CompressionLevel::new(6)?);
/// assert_eq!(gzip::decompress(&gz)?, b"payload");
/// # Ok(())
/// # }
/// ```
pub fn compress(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    write_header_into(&mut out);
    // XFL: 2 = max compression, 4 = fastest (gzip convention).
    out[8] = match level.get() {
        9 => 2,
        1 => 4,
        _ => 0,
    };
    crate::Encoder::new(level).compress_to(data, &mut out);
    write_trailer_into(&mut out, crc32(data), data.len() as u64);
    out
}

/// Wraps an already-produced raw DEFLATE stream (e.g. from the accelerator
/// model) in a gzip member. `crc` and `input_len` describe the
/// *uncompressed* payload.
pub fn wrap_deflate(deflate_stream: &[u8], crc: u32, input_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(deflate_stream.len() + 18);
    write_header_into(&mut out);
    out.extend_from_slice(deflate_stream);
    write_trailer_into(&mut out, crc, input_len);
    out
}

/// Appends the minimal 10-byte gzip member header (no optional fields,
/// OS = unknown) to `out` — the streaming half of [`wrap_deflate`] for
/// callers that assemble a member into a reused buffer.
pub fn write_header_into(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(METHOD_DEFLATE);
    out.push(0);
    out.extend_from_slice(&0u32.to_le_bytes());
    out.push(0);
    out.push(255);
}

/// Appends the CRC-32 + ISIZE member trailer to `out`. `crc` and
/// `input_len` describe the *uncompressed* payload.
pub fn write_trailer_into(out: &mut Vec<u8>, crc: u32, input_len: u64) {
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&((input_len & 0xFFFF_FFFF) as u32).to_le_bytes());
}

/// Decompresses a single-member gzip stream, verifying the trailer.
///
/// # Errors
///
/// * [`Error::BadGzipHeader`] for bad magic/method/reserved flags;
/// * [`Error::GzipChecksumMismatch`] if CRC-32 or ISIZE disagree;
/// * any DEFLATE error from the payload;
/// * [`Error::TrailingData`] if bytes follow the member trailer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let (out, _, used) = decompress_with_header(data)?;
    if used != data.len() {
        return Err(Error::TrailingData);
    }
    Ok(out)
}

/// Decompresses one gzip member, returning `(payload, header, bytes_used)`.
/// Trailing data after the member is permitted (multi-member streams can be
/// handled by calling this in a loop).
///
/// # Errors
///
/// See [`decompress`].
pub fn decompress_with_header(data: &[u8]) -> Result<(Vec<u8>, GzipHeader, usize)> {
    let body = |scratch: &mut _, out: &mut _| member_into(data, scratch, out);
    let (out, (header, used)) = decoder::one_shot(data.len(), &[], body)?;
    Ok((out, header, used))
}

/// Decompresses a single-member gzip stream into a caller-provided buffer,
/// reusing `scratch` across calls — the steady-state path the scratch
/// session layer in `nx-core` drives. `out` is cleared first.
///
/// # Errors
///
/// As [`decompress`].
pub fn decompress_into(
    data: &[u8],
    scratch: &mut decoder::InflateScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let (_header, used) = member_into(data, scratch, out)?;
    if used != data.len() {
        return Err(Error::TrailingData);
    }
    Ok(())
}

/// The one member decode body: header, payload into `out` (cleared first,
/// sized from ISIZE), trailer. Returns the header and the member's length.
fn member_into(
    data: &[u8],
    scratch: &mut decoder::InflateScratch,
    out: &mut Vec<u8>,
) -> Result<(GzipHeader, usize)> {
    let (header, pos) = parse_header(data)?;
    let mut inf =
        decoder::Inflater::with_reuse(&data[pos..], std::mem::take(scratch), std::mem::take(out));
    inf.reserve_output(isize_hint(data));
    let res = inf.run(usize::MAX);
    let used_payload = inf.byte_position();
    (*out, *scratch) = inf.into_parts();
    res?;
    Ok((header, verify_trailer(data, pos + used_payload, out)?))
}

/// Output-size hint from the member's ISIZE trailer field. Exact for the
/// common single-member case (modulo 2³²); for multi-member streams it is
/// merely the last member's size, which is still a harmless capacity hint
/// — [`decoder::Inflater::reserve_output`] caps hostile values.
pub fn isize_hint(data: &[u8]) -> usize {
    match read4(data, data.len().saturating_sub(4)) {
        Ok(b) => u32::from_le_bytes(b) as usize,
        Err(_) => 0,
    }
}

/// Validates the 8-byte CRC-32 + ISIZE trailer at `trailer_at` against the
/// decoded payload `out` of the member it closes, returning the offset just
/// past it. ISIZE is compared first: a lying length costs no CRC pass.
///
/// # Errors
///
/// [`Error::UnexpectedEof`], else [`Error::GzipChecksumMismatch`].
pub fn verify_trailer(data: &[u8], trailer_at: usize, out: &[u8]) -> Result<usize> {
    let stored_crc = u32::from_le_bytes(read4(data, trailer_at)?);
    let stored_len = u32::from_le_bytes(read4(data, trailer_at + 4)?);
    if stored_len != (out.len() & 0xFFFF_FFFF) as u32 || stored_crc != crc32(out) {
        return Err(Error::GzipChecksumMismatch);
    }
    Ok(trailer_at + 8)
}

/// Parses a member header, returning the parsed fields and the offset at
/// which the DEFLATE payload begins.
///
/// Public so that indexed / random-access decoders can locate the start of
/// the DEFLATE bit stream without decoding the payload.
pub fn parse_header(data: &[u8]) -> Result<(GzipHeader, usize)> {
    if data.len() < 18 {
        return Err(Error::UnexpectedEof);
    }
    if data[0..2] != MAGIC || data[2] != METHOD_DEFLATE {
        return Err(Error::BadGzipHeader);
    }
    let flg = data[3];
    if flg & 0b1110_0000 != 0 {
        return Err(Error::BadGzipHeader); // reserved bits set
    }
    let mut header = GzipHeader {
        mtime: u32::from_le_bytes([data[4], data[5], data[6], data[7]]),
        os: data[9],
        ..GzipHeader::default()
    };
    let mut pos = 10usize;
    if flg & FEXTRA != 0 {
        if pos + 2 > data.len() {
            return Err(Error::UnexpectedEof);
        }
        let xlen = usize::from(u16::from_le_bytes([data[pos], data[pos + 1]]));
        pos += 2 + xlen;
        if pos > data.len() {
            return Err(Error::UnexpectedEof);
        }
    }
    if flg & FNAME != 0 {
        let end = data[pos..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(Error::UnexpectedEof)?;
        header.file_name = Some(data[pos..pos + end].to_vec());
        pos += end + 1;
    }
    if flg & FCOMMENT != 0 {
        let end = data[pos..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(Error::UnexpectedEof)?;
        header.comment = Some(data[pos..pos + end].to_vec());
        pos += end + 1;
    }
    if flg & FHCRC != 0 {
        if pos + 2 > data.len() {
            return Err(Error::UnexpectedEof);
        }
        let stored = u16::from_le_bytes([data[pos], data[pos + 1]]);
        let computed = (crc32(&data[..pos]) & 0xFFFF) as u16;
        if stored != computed {
            return Err(Error::GzipChecksumMismatch);
        }
        pos += 2;
    }
    let _ = flg & FTEXT; // advisory only
    Ok((header, pos))
}

/// Iterator over the members of a (possibly multi-member) gzip stream —
/// `gzip` tools concatenate members freely, and the accelerator library
/// must accept such files.
///
/// Each item is `Ok((payload, header))` or the first error encountered
/// (after which iteration ends).
#[derive(Debug)]
pub struct Members<'a> {
    rest: &'a [u8],
    failed: bool,
}

/// Iterates the members of `data`.
///
/// ```
/// use nx_deflate::{gzip, CompressionLevel};
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let mut stream = gzip::compress(b"one", CompressionLevel::new(6)?);
/// stream.extend(gzip::compress(b"two", CompressionLevel::new(1)?));
/// let payloads: Result<Vec<_>, _> =
///     gzip::members(&stream).map(|m| m.map(|(p, _)| p)).collect();
/// assert_eq!(payloads?, vec![b"one".to_vec(), b"two".to_vec()]);
/// # Ok(())
/// # }
/// ```
pub fn members(data: &[u8]) -> Members<'_> {
    Members {
        rest: data,
        failed: false,
    }
}

impl Iterator for Members<'_> {
    type Item = Result<(Vec<u8>, GzipHeader)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        match decompress_with_header(self.rest) {
            Ok((payload, header, used)) => {
                self.rest = &self.rest[used..];
                Some(Ok((payload, header)))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lvl(l: u32) -> CompressionLevel {
        CompressionLevel::new(l).unwrap()
    }

    #[test]
    fn members_iterator_walks_concatenated_stream() {
        let mut stream = Vec::new();
        for i in 0..5 {
            stream.extend(compress(format!("member {i}").as_bytes(), lvl(6)));
        }
        let got: Vec<Vec<u8>> = members(&stream).map(|m| m.unwrap().0).collect();
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], b"member 4");
    }

    #[test]
    fn members_iterator_stops_at_first_error() {
        let mut stream = compress(b"good", lvl(6));
        stream.extend_from_slice(b"\x1f\x8b\x08garbage-follows....");
        let mut it = members(&stream);
        assert_eq!(it.next().unwrap().unwrap().0, b"good");
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "iteration must end after an error");
    }

    #[test]
    fn members_of_empty_input_is_empty() {
        assert!(members(&[]).next().is_none());
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = b"gzip container roundtrip payload, repeated payload, payload";
        for l in 0..=9 {
            let gz = compress(data, lvl(l));
            assert_eq!(decompress(&gz).unwrap(), data, "level {l}");
        }
    }

    #[test]
    fn empty_payload() {
        let gz = compress(b"", lvl(6));
        assert_eq!(decompress(&gz).unwrap(), b"");
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut gz = compress(b"x", lvl(6));
        gz[0] = 0x1E;
        assert_eq!(decompress(&gz), Err(Error::BadGzipHeader));
    }

    #[test]
    fn corrupt_crc_rejected() {
        let mut gz = compress(b"checksum matters", lvl(6));
        let n = gz.len();
        gz[n - 5] ^= 0xFF; // flip a CRC byte
        assert_eq!(decompress(&gz), Err(Error::GzipChecksumMismatch));
    }

    #[test]
    fn corrupt_isize_rejected() {
        let mut gz = compress(b"length matters", lvl(6));
        let n = gz.len();
        gz[n - 1] ^= 0x01;
        assert_eq!(decompress(&gz), Err(Error::GzipChecksumMismatch));
    }

    #[test]
    fn verify_trailer_is_the_one_check_every_door_calls() {
        let out = b"the decoded member";
        let mut data = b"..member bytes..".to_vec();
        let at = data.len();
        write_trailer_into(&mut data, crc32(out), out.len() as u64);
        assert_eq!(verify_trailer(&data, at, out), Ok(at + 8));
        for cut in at..at + 8 {
            assert_eq!(
                verify_trailer(&data[..cut], at, out),
                Err(Error::UnexpectedEof)
            );
        }
        // A lying ISIZE and a lying CRC-32 are the same error class.
        assert_eq!(
            verify_trailer(&data, at, &out[1..]),
            Err(Error::GzipChecksumMismatch)
        );
        data[at] ^= 1;
        assert_eq!(
            verify_trailer(&data, at, out),
            Err(Error::GzipChecksumMismatch)
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut gz = compress(b"data", lvl(6));
        gz.push(0xEE);
        assert_eq!(decompress(&gz), Err(Error::TrailingData));
    }

    #[test]
    fn header_with_name_parsed() {
        // Build a header with FNAME manually around our deflate payload.
        let payload = b"named file";
        let raw = crate::deflate(payload, lvl(6));
        let mut gz = vec![0x1F, 0x8B, 8, FNAME, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(b"hello.txt\0");
        gz.extend_from_slice(&raw);
        gz.extend_from_slice(&crate::crc32::crc32(payload).to_le_bytes());
        gz.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let (out, header, used) = decompress_with_header(&gz).unwrap();
        assert_eq!(out, payload);
        assert_eq!(header.file_name.as_deref(), Some(&b"hello.txt"[..]));
        assert_eq!(used, gz.len());
    }

    #[test]
    fn multi_member_streams_iterate() {
        let mut stream = compress(b"first", lvl(6));
        stream.extend_from_slice(&compress(b"second", lvl(1)));
        let (a, _, used) = decompress_with_header(&stream).unwrap();
        let (b, _, used2) = decompress_with_header(&stream[used..]).unwrap();
        assert_eq!(a, b"first");
        assert_eq!(b, b"second");
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn decompress_into_reuses_and_verifies() {
        let data: Vec<u8> = b"scratch-session gzip payload ".repeat(300);
        let gz = compress(&data, lvl(6));
        let mut scratch = crate::decoder::InflateScratch::new();
        let mut out = Vec::new();
        decompress_into(&gz, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        let cap = out.capacity();
        decompress_into(&gz, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), cap);
        // Corruption is still caught on the reuse path.
        let mut bad = gz.clone();
        let n = bad.len();
        bad[n - 5] ^= 0xFF;
        assert_eq!(
            decompress_into(&bad, &mut scratch, &mut out),
            Err(Error::GzipChecksumMismatch)
        );
        let mut trailing = gz;
        trailing.push(0xEE);
        assert_eq!(
            decompress_into(&trailing, &mut scratch, &mut out),
            Err(Error::TrailingData)
        );
    }

    #[test]
    fn wrap_deflate_matches_compress() {
        let data = b"wrap an externally produced deflate stream";
        let raw = crate::deflate(data, lvl(6));
        let wrapped = wrap_deflate(&raw, crate::crc32::crc32(data), data.len() as u64);
        assert_eq!(decompress(&wrapped).unwrap(), data);
    }

    #[test]
    fn truncated_stream_rejected() {
        let gz = compress(b"will be truncated", lvl(6));
        for cut in [1usize, 4, 8, gz.len() - 11] {
            assert!(decompress(&gz[..gz.len() - cut]).is_err(), "cut {cut}");
        }
    }
}
