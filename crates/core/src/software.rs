//! The software path: plain zlib-style compression on the CPU, used as
//! the baseline in every experiment and as a fallback where no
//! accelerator exists.

use crate::framing::{self, Format};
use crate::Result;
use nx_deflate::{gzip, zlib, CompressionLevel, Encoder, Engine, Profile};

/// Compresses `data` in software at `level`, framed as `format`.
///
/// ```
/// use nx_core::{software, Format};
/// use nx_deflate::CompressionLevel;
///
/// # fn main() -> Result<(), nx_core::Error> {
/// let out = software::compress(b"abcabcabc", CompressionLevel::new(6)?, Format::Zlib);
/// assert_eq!(software::decompress(&out, Format::Zlib)?, b"abcabcabc");
/// # Ok(())
/// # }
/// ```
pub fn compress(data: &[u8], level: CompressionLevel, format: Format) -> Vec<u8> {
    compress_with_engine(data, level, Engine::Auto, format)
}

/// Compresses `data` in software at `level` with an explicit LZ77
/// [`Engine`] selection (sequential ladder vs. the batched speculative
/// matcher), framed as `format`.
pub fn compress_with_engine(
    data: &[u8],
    level: CompressionLevel,
    engine: Engine,
    format: Format,
) -> Vec<u8> {
    let mut out = Vec::new();
    framing::frame(&mut out, data, format, None, |out| {
        Encoder::with_engine(level, engine).compress_to(data, out)
    });
    out
}

/// Compresses `data` through the **one-pass canned path** of `profile`
/// (see [`nx_deflate::deflate_canned`]), framed as `format`.
///
/// Framing decides the preset-dictionary use, mirroring what each
/// container can express:
///
/// * **Zlib** — dictionary-primed when the profile carries a dictionary,
///   framed with the RFC 1950 FDICT flag and the dictionary's DICTID.
///   Decode with [`decompress_with_dict`] (or zlib `inflateSetDictionary`
///   semantics elsewhere).
/// * **Raw DEFLATE** — dictionary-primed; the caller owns the out-of-band
///   dictionary agreement, as with `deflateSetDictionary` on raw streams.
/// * **Gzip** — canned tables only, *no* dictionary: gzip has no FDICT,
///   so the output stays decodable by any stock `gzip -dc`.
pub fn compress_with_profile(
    data: &[u8],
    engine: Engine,
    profile: &Profile,
    format: Format,
) -> Vec<u8> {
    let mut out = Vec::new();
    compress_with_profile_into(data, engine, profile, format, &mut out);
    out
}

/// [`compress_with_profile`] into a caller-owned buffer (replaced): the
/// one place the canned framing policy is spelled.
pub(crate) fn compress_with_profile_into(
    data: &[u8],
    engine: Engine,
    profile: &Profile,
    format: Format,
    out: &mut Vec<u8>,
) {
    // What each container can express; only zlib says so in its header.
    let primed = !profile.dict().is_empty();
    let (use_dict, dictid) = match format {
        Format::RawDeflate => (true, None),
        Format::Gzip => (false, None),
        Format::Zlib => (primed, primed.then(|| profile.dict_id())),
    };
    framing::frame(out, data, format, dictid, |out| {
        nx_deflate::deflate_canned_into(data, engine, profile, use_dict, out)
    });
}

/// Decompresses `format`-framed `data` in software.
///
/// # Errors
///
/// [`crate::Error::Deflate`] for malformed containers or streams.
pub fn decompress(data: &[u8], format: Format) -> Result<Vec<u8>> {
    Ok(match format {
        Format::RawDeflate => nx_deflate::inflate(data)?,
        Format::Gzip => gzip::decompress(data)?,
        Format::Zlib => zlib::decompress(data)?,
    })
}

/// Decompresses `format`-framed `data` with a preset dictionary — the
/// decode side of [`compress_with_profile`]'s dictionary modes.
///
/// Zlib streams are verified against the dictionary's DICTID; raw streams
/// prime the window directly; gzip streams never carry a dictionary, so
/// `dict` is ignored and the stream decodes normally.
///
/// # Errors
///
/// [`crate::Error::Deflate`] for malformed input,
/// [`nx_deflate::Error::DictionaryMismatch`] when a zlib stream's DICTID
/// disagrees with `dict` (or the stream never requested one).
pub fn decompress_with_dict(data: &[u8], format: Format, dict: &[u8]) -> Result<Vec<u8>> {
    match format {
        Format::RawDeflate => Ok(nx_deflate::inflate_with_dict(data, dict)?),
        Format::Zlib => Ok(nx_deflate::zlib::decompress_with_dict(data, dict)?),
        Format::Gzip => decompress(data, format),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_and_accelerator_streams_interoperate() {
        // Software output decodes on the accelerator and vice versa — the
        // paper's interoperability requirement.
        let nx = crate::Nx::power9();
        let data = nx_corpus::CorpusKind::Text.generate(3, 32 * 1024);
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            let sw = compress(&data, CompressionLevel::new(9).unwrap(), format);
            assert_eq!(nx.decompress(&sw, format).unwrap().bytes, data);
            let hw = nx.compress(&data, format).unwrap();
            assert_eq!(decompress(&hw.bytes, format).unwrap(), data);
        }
    }

    #[test]
    fn all_levels_roundtrip_gzip() {
        let data = b"levels levels levels levels".repeat(10);
        for l in 0..=9 {
            let level = CompressionLevel::new(l).unwrap();
            let out = compress(&data, level, Format::Gzip);
            assert_eq!(decompress(&out, Format::Gzip).unwrap(), data);
        }
    }
}
