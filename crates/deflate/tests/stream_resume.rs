//! `InflateStream` resumes the block it stopped in: fed in pieces, a stream
//! runs each token through the decode loops once, so the process-wide path
//! counters move by its output, however small the pushes. (At the commit
//! before issue 25 a push re-decoded every open block from its header: a
//! 4 MiB level-6 stream moved them by 13.6x / 4.1x / 1.09x its output in
//! 1 KiB / 4 KiB / 64 KiB pushes.)
//!
//! A binary of its own, with one `#[test]`, because the counters are shared
//! by every decode in the process.

use nx_deflate::{decode_path_counters, deflate, CompressionLevel, InflateStream};

#[test]
fn pushes_of_any_size_decode_each_token_once() {
    let data = nx_corpus::mixed(0x5EE4, 4 << 20);
    let comp = deflate(&data, CompressionLevel::new(6).expect("valid level"));
    for push in [1 << 10, 4 << 10, 64 << 10, comp.len()] {
        let (fast, careful) = decode_path_counters();
        let mut dec = InflateStream::new();
        let mut out = Vec::with_capacity(data.len());
        for piece in comp.chunks(push) {
            out.extend(dec.push(piece).expect("valid stream"));
        }
        let (fast_now, careful_now) = decode_path_counters();
        let moved = (fast_now - fast) + (careful_now - careful);
        assert!(dec.is_finished(), "{push}-byte pushes");
        assert!(out == data, "{push}-byte pushes: not the one-push bytes");
        assert!(
            moved as f64 <= 1.02 * data.len() as f64,
            "{push}-byte pushes moved the path counters by {moved} for {} bytes",
            data.len()
        );
    }
}
