//! Which loop a *traced* decode runs on.
//!
//! Tracing used to switch the fast loop off and send every token down the
//! careful path. The tally is taken inside the fast loop now, so a traced
//! megabyte must be produced there, as an untraced one is.
//!
//! One `#[test]` only, in a binary of its own: `decode_path_counters` are
//! process-wide and the harness runs sibling tests on concurrent threads.

use nx_deflate::{decode_path_counters, deflate, inflate_traced_into, CompressionLevel};

#[test]
fn a_traced_decode_runs_on_the_fast_loop() {
    let data = nx_corpus::mixed(0x7A11, 1 << 20);
    let stream = deflate(&data, CompressionLevel::new(6).expect("6 is a valid level"));
    let (fast_before, careful_before) = decode_path_counters();
    let (scratch, out) = (&mut Default::default(), &mut Vec::new());
    let trace = inflate_traced_into(&stream, data.len(), scratch, out).expect("our own stream");
    let (fast, careful) = decode_path_counters();
    assert_eq!(*out, data);
    assert_eq!(trace.consumed, stream.len());

    let huffman: u64 = trace
        .blocks
        .iter()
        .filter(|b| b.btype != 0)
        .map(|b| b.output_bytes)
        .sum();
    assert!(huffman >= data.len() as u64 / 2, "the corpus went stored");
    let (on_fast, on_careful) = (fast - fast_before, careful - careful_before);
    assert_eq!(
        on_fast + on_careful,
        huffman,
        "every Huffman byte is on one loop"
    );
    assert!(
        on_fast * 100 >= huffman * 99,
        "{on_fast} of {huffman} traced bytes on the fast loop"
    );
}
