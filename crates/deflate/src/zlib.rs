//! The zlib container (RFC 1950) around raw DEFLATE.
//!
//! zlib framing is what the Java/Spark `Deflater` APIs and the z15
//! `DFLTCC` zlib-compatible mode produce: a 2-byte header and an Adler-32
//! trailer.

use crate::adler32::adler32;
use crate::encoder::CompressionLevel;
use crate::{decoder, Error, Result};

/// CM=8 (DEFLATE), CINFO=7 (32 KB window).
const CMF: u8 = 0x78;

/// Compresses `data` into a zlib stream.
///
/// ```
/// use nx_deflate::zlib;
/// use nx_deflate::CompressionLevel;
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let z = zlib::compress(b"payload", CompressionLevel::new(6)?);
/// assert_eq!(zlib::decompress(&z)?, b"payload");
/// # Ok(())
/// # }
/// ```
pub fn compress(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    compress_with_dict(data, level, &[])
}

/// Wraps an already-produced raw DEFLATE stream in zlib framing. `adler`
/// is the Adler-32 of the *uncompressed* payload.
pub fn wrap_deflate(deflate_stream: &[u8], adler: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(deflate_stream.len() + 6);
    header(&mut out, CompressionLevel::default(), None);
    out.extend_from_slice(deflate_stream);
    out.extend_from_slice(&adler.to_be_bytes());
    out
}

/// Appends the 2-byte zlib header (CM=8, 32 KB window, FDICT clear,
/// FLEVEL advisory from `level`) to `out` — the streaming half of
/// [`wrap_deflate`] for callers assembling a stream into a reused buffer.
pub fn write_header_into(out: &mut Vec<u8>, level: CompressionLevel) {
    header(out, level, None);
}

/// Appends the big-endian Adler-32 trailer to `out`. `adler` is the
/// checksum of the *uncompressed* payload.
pub fn write_trailer_into(out: &mut Vec<u8>, adler: u32) {
    out.extend_from_slice(&adler.to_be_bytes());
}

/// CMF, then FLG = FLEVEL (advisory, per zlib convention) | FDICT | the
/// FCHECK that makes `CMF*256 + FLG` a multiple of 31, then any DICTID.
fn header(out: &mut Vec<u8>, level: CompressionLevel, dictid: Option<u32>) {
    let flevel: u8 = match level.get() {
        0..=1 => 0,
        2..=5 => 1,
        6 => 2,
        _ => 3,
    };
    let flg = (flevel << 6) | if dictid.is_some() { 0x20 } else { 0 };
    let rem = (u16::from(CMF) * 256 + u16::from(flg)) % 31;
    out.extend_from_slice(&[CMF, flg + ((31 - rem) % 31) as u8]);
    if let Some(dictid) = dictid {
        out.extend_from_slice(&dictid.to_be_bytes());
    }
}

/// Compresses `data` against a preset dictionary into a zlib stream with
/// the FDICT flag and DICTID field (RFC 1950 §2.2), the wire format of
/// zlib's `deflateSetDictionary`; a plain stream when `dict` is empty. The
/// DEFLATE stream is encoded behind the header, where it stays.
pub fn compress_with_dict(data: &[u8], level: CompressionLevel, dict: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    header(&mut out, level, (!dict.is_empty()).then(|| adler32(dict)));
    crate::encoder::deflate_with_dict_to(data, level, dict, &mut out);
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Appends the 2-byte zlib header with FDICT set plus the 4-byte DICTID
/// to `out` — the streaming half of [`compress_with_dict`] for callers
/// assembling a dictionary-primed stream into a reused buffer.
pub fn write_header_with_dictid(out: &mut Vec<u8>, level: CompressionLevel, dictid: u32) {
    header(out, level, Some(dictid));
}

/// Wraps an already-produced raw DEFLATE stream (encoded against a preset
/// dictionary) in FDICT zlib framing. `adler` is the Adler-32 of the
/// *uncompressed* payload; `dictid` is the Adler-32 of the dictionary.
pub fn wrap_deflate_with_dict(deflate_stream: &[u8], adler: u32, dictid: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(deflate_stream.len() + 10);
    write_header_with_dictid(&mut out, CompressionLevel::default(), dictid);
    out.extend_from_slice(deflate_stream);
    out.extend_from_slice(&adler.to_be_bytes());
    out
}

/// Decompresses a zlib stream that requires the given preset dictionary,
/// verifying both the DICTID and the payload Adler-32.
///
/// # Errors
///
/// * [`Error::DictionaryMismatch`] if the stream does not request a
///   dictionary or requests a different one (DICTID mismatch);
/// * otherwise as [`decompress`].
pub fn decompress_with_dict(data: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
    let body = |scratch: &mut _, out: &mut _| decode(data, Some(dict), scratch, out);
    decoder::one_shot(data.len(), dict, body).map(|(out, ())| out)
}

/// Reads the 4-byte field at `at`, surfacing truncation as a typed error
/// instead of panicking on the slice conversion.
pub(crate) fn read4(data: &[u8], at: usize) -> Result<[u8; 4]> {
    data.get(at..at + 4)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or(Error::UnexpectedEof)
}

/// Decompresses a zlib stream, verifying the Adler-32 trailer.
///
/// # Errors
///
/// * [`Error::BadZlibHeader`] for bad CM/CINFO/FCHECK;
/// * [`Error::DictionaryRequired`] if the stream sets FDICT (decode it
///   through [`decompress_with_dict`] instead);
/// * [`Error::ZlibChecksumMismatch`] on trailer mismatch;
/// * any DEFLATE error from the payload;
/// * [`Error::TrailingData`] if bytes follow the trailer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let body = |scratch: &mut _, out: &mut _| decode(data, None, scratch, out);
    decoder::one_shot(data.len(), &[], body).map(|(out, ())| out)
}

/// Decompresses a zlib stream into a caller-provided buffer, reusing
/// `scratch` across calls — the steady-state path the scratch session
/// layer in `nx-core` drives. `out` is cleared first.
///
/// # Errors
///
/// As [`decompress`].
pub fn decompress_into(
    data: &[u8],
    scratch: &mut decoder::InflateScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    decode(data, None, scratch, out)
}

/// Decompresses an FDICT zlib stream into a caller-provided buffer,
/// reusing `scratch` — the dictionary-aware twin of [`decompress_into`]
/// that the scratch-session layer drives when a tenant profile carries a
/// preset dictionary. `out` is cleared first.
///
/// # Errors
///
/// * [`Error::DictionaryMismatch`] if the stream does not set FDICT or
///   its DICTID disagrees with `dict`;
/// * otherwise as [`decompress_into`].
pub fn decompress_with_dict_into(
    data: &[u8],
    dict: &[u8],
    scratch: &mut decoder::InflateScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    decode(data, Some(dict), scratch, out)
}

/// The one zlib decode body: header, FDICT/DICTID against `dict` (`None` =
/// the caller has no dictionary), payload into `out`, trailer.
fn decode(
    data: &[u8],
    dict: Option<&[u8]>,
    scratch: &mut decoder::InflateScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let payload_at = if dict.is_some() { 6 } else { 2 };
    if data.len() < payload_at + 4 {
        return Err(Error::UnexpectedEof);
    }
    let (cmf, flg) = (data[0], data[1]);
    // Method must be DEFLATE, window <= 32 KB, FCHECK valid.
    if cmf & 0x0F != 8 || cmf >> 4 > 7 || (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
        return Err(Error::BadZlibHeader);
    }
    match (flg & 0x20 != 0, dict) {
        (false, None) => {}
        (true, None) => return Err(Error::DictionaryRequired),
        (false, Some(_)) => return Err(Error::DictionaryMismatch), // none requested
        (true, Some(dict)) => {
            if u32::from_be_bytes(read4(data, 2)?) != adler32(dict) {
                return Err(Error::DictionaryMismatch);
            }
        }
    }
    let dict = dict.unwrap_or_default();
    let used = decoder::decode_into(&data[payload_at..], dict, usize::MAX, scratch, out)?;
    verify_trailer(data, payload_at + used, out).map(drop)
}

/// Validates the Adler-32 trailer at `trailer_at`, which must end `data`,
/// against the decoded payload `out`, returning the offset just past it:
/// [`Error::UnexpectedEof`], [`Error::TrailingData`], else
/// [`Error::ZlibChecksumMismatch`].
pub fn verify_trailer(data: &[u8], trailer_at: usize, out: &[u8]) -> Result<usize> {
    if trailer_at + 4 > data.len() {
        return Err(Error::UnexpectedEof);
    }
    if trailer_at + 4 != data.len() {
        return Err(Error::TrailingData);
    }
    if u32::from_be_bytes(read4(data, trailer_at)?) != adler32(out) {
        return Err(Error::ZlibChecksumMismatch);
    }
    Ok(data.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lvl(l: u32) -> CompressionLevel {
        CompressionLevel::new(l).unwrap()
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = b"zlib container roundtrip payload payload payload";
        for l in 0..=9 {
            let z = compress(data, lvl(l));
            assert_eq!(decompress(&z).unwrap(), data, "level {l}");
        }
    }

    #[test]
    fn header_fcheck_is_valid() {
        for l in 0..=9 {
            let z = compress(b"x", lvl(l));
            assert_eq!(
                (u16::from(z[0]) * 256 + u16::from(z[1])) % 31,
                0,
                "level {l}"
            );
        }
    }

    #[test]
    fn bad_method_rejected() {
        let mut z = compress(b"x", lvl(6));
        z[0] = (z[0] & 0xF0) | 7;
        assert_eq!(decompress(&z), Err(Error::BadZlibHeader));
    }

    #[test]
    fn bad_fcheck_rejected() {
        let mut z = compress(b"x", lvl(6));
        z[1] ^= 0x01;
        assert_eq!(decompress(&z), Err(Error::BadZlibHeader));
    }

    #[test]
    fn fdict_rejected() {
        let mut z = compress(b"x", lvl(6));
        z[1] |= 0x20;
        // Fix FCHECK so the header error is specifically FDICT.
        let rem = (u16::from(z[0]) * 256 + u16::from(z[1] & !0x1F)) % 31;
        z[1] = (z[1] & !0x1F) | ((31 - rem) % 31) as u8;
        assert_eq!(decompress(&z), Err(Error::DictionaryRequired));
    }

    #[test]
    fn adler_mismatch_rejected() {
        let mut z = compress(b"checksum check", lvl(6));
        let n = z.len();
        z[n - 1] ^= 0xFF;
        assert_eq!(decompress(&z), Err(Error::ZlibChecksumMismatch));
    }

    #[test]
    fn trailing_data_rejected() {
        let mut z = compress(b"x", lvl(6));
        z.push(0);
        assert_eq!(decompress(&z), Err(Error::TrailingData));
    }

    #[test]
    fn decompress_into_reuses_and_verifies() {
        let data: Vec<u8> = b"scratch-session zlib payload ".repeat(300);
        let z = compress(&data, lvl(6));
        let mut scratch = crate::decoder::InflateScratch::new();
        let mut out = Vec::new();
        decompress_into(&z, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        let cap = out.capacity();
        decompress_into(&z, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), cap);
        let mut bad = z;
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert_eq!(
            decompress_into(&bad, &mut scratch, &mut out),
            Err(Error::ZlibChecksumMismatch)
        );
    }

    #[test]
    fn wrap_deflate_matches_compress() {
        let data = b"external deflate stream";
        let raw = crate::deflate(data, lvl(4));
        let z = wrap_deflate(&raw, adler32(data));
        assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn empty_payload() {
        let z = compress(b"", lvl(9));
        assert_eq!(decompress(&z).unwrap(), b"");
    }

    #[test]
    fn decodes_reference_zlib_stream() {
        // Byte-exact output of the reference zlib C library
        // (`compress2(level=6)`) for the ASCII string "hello" — a
        // fixed-Huffman block. Decoding it proves interoperability with
        // streams produced outside this workspace.
        let reference: [u8; 13] = [
            0x78, 0x9C, 0xCB, 0x48, 0xCD, 0xC9, 0xC9, 0x07, 0x00, 0x06, 0x2C, 0x02, 0x15,
        ];
        assert_eq!(decompress(&reference).unwrap(), b"hello");
        // And the raw DEFLATE payload on its own.
        assert_eq!(crate::inflate(&reference[2..11]).unwrap(), b"hello");
    }

    #[test]
    fn dictionary_roundtrip_and_gain() {
        // Records share structure with the dictionary: with the dict the
        // first record compresses far better.
        let dict = b"{\"user\": \"\", \"region\": \"\", \"status\": \"active\", \"score\": }";
        let record =
            b"{\"user\": \"alice\", \"region\": \"eu\", \"status\": \"active\", \"score\": 97}";
        let with = compress_with_dict(record, lvl(9), dict);
        let without = compress(record, lvl(9));
        assert_eq!(decompress_with_dict(&with, dict).unwrap(), record);
        assert!(
            with.len() + 4 < without.len(),
            "{} vs {}",
            with.len(),
            without.len()
        );
    }

    #[test]
    fn wrong_dictionary_rejected() {
        let z = compress_with_dict(b"payload", lvl(6), b"right dictionary");
        assert_eq!(
            decompress_with_dict(&z, b"wrong dictionary"),
            Err(Error::DictionaryMismatch)
        );
    }

    #[test]
    fn plain_decompress_rejects_fdict_stream() {
        let z = compress_with_dict(b"payload", lvl(6), b"dict");
        assert_eq!(decompress(&z), Err(Error::DictionaryRequired));
        let mut scratch = crate::decoder::InflateScratch::new();
        let mut out = Vec::new();
        assert_eq!(
            decompress_into(&z, &mut scratch, &mut out),
            Err(Error::DictionaryRequired)
        );
    }

    #[test]
    fn dict_stream_without_fdict_rejected_by_dict_decoder() {
        let z = compress(b"payload", lvl(6));
        assert_eq!(
            decompress_with_dict(&z, b"dict"),
            Err(Error::DictionaryMismatch)
        );
    }

    #[test]
    fn decompress_with_dict_into_reuses_and_verifies() {
        let dict = b"the quick brown fox jumps over the lazy dog";
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog again and again "
            .repeat(40)
            .to_vec();
        let z = compress_with_dict(&data, lvl(6), dict);
        let mut scratch = crate::decoder::InflateScratch::new();
        let mut out = Vec::new();
        decompress_with_dict_into(&z, dict, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        // Reuse across calls keeps the output buffer's allocation.
        let cap = out.capacity();
        decompress_with_dict_into(&z, dict, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), cap);
        assert_eq!(
            decompress_with_dict_into(&z, b"other dict", &mut scratch, &mut out),
            Err(Error::DictionaryMismatch)
        );
    }

    #[test]
    fn wrap_deflate_with_dict_matches_compress_with_dict() {
        let dict = b"prefix dictionary content";
        let data = b"prefix dictionary content plus a fresh suffix";
        let raw = crate::encoder::deflate_with_dict(data, lvl(6), dict);
        let z = wrap_deflate_with_dict(&raw, adler32(data), adler32(dict));
        assert_eq!(decompress_with_dict(&z, dict).unwrap(), data);
        // FCHECK must still be valid with FDICT set.
        assert_eq!((u16::from(z[0]) * 256 + u16::from(z[1])) % 31, 0);
        assert_ne!(z[1] & 0x20, 0);
    }

    #[test]
    fn dictionary_encodes_may_store() {
        // A stored block carries its own bytes whatever the window holds:
        // random data behind a dictionary costs its stored framing only.
        use nx_corpus::CorpusKind::Random;
        let (data, dict) = (Random.generate(3, 64 << 10), Random.generate(4, 32 << 10));
        let raw = crate::encoder::deflate_with_dict(&data, lvl(6), &dict);
        assert!(raw.len() <= data.len() + 16, "{} bytes", raw.len());
        assert_eq!(
            crate::decoder::inflate_with_dict(&raw, &dict).unwrap(),
            data
        );
        let z = compress_with_dict(&data, lvl(6), &dict);
        assert_eq!(decompress_with_dict(&z, &dict).unwrap(), data);
    }

    #[test]
    fn raw_dict_helpers_roundtrip() {
        let dict: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let data: Vec<u8> = dict
            .iter()
            .rev()
            .copied()
            .chain(dict.iter().copied())
            .collect();
        for level in [1u32, 6, 9] {
            let raw = crate::encoder::deflate_with_dict(&data, lvl(level), &dict);
            assert_eq!(
                crate::decoder::inflate_with_dict(&raw, &dict).unwrap(),
                data,
                "level {level}"
            );
        }
    }
}
