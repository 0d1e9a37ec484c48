//! Allocation audit for one-shot inflate, using a counting global
//! allocator.
//!
//! The claim under test: once the calling thread's scratch keeps the tables
//! of a stream's dynamic header, `zlib::decompress_with_dict` performs exactly
//! **one** heap allocation — its result, reserved once for the dictionary
//! window plus the output. Decode tables, the code-length staging and the
//! remembered header live in the thread's `InflateScratch`.
//!
//! One `#[test]` only: the counter is process-wide and the harness runs
//! sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nx_corpus::CorpusKind;
use nx_deflate::adler32::adler32;
use nx_deflate::lz77::Engine;
use nx_deflate::profile::{deflate_canned, Profile, DEFAULT_DICT_CAP};
use nx_deflate::{zlib, CompressionLevel};

/// System allocator wrapper that counts every allocation event
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter is a
// relaxed atomic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn a_warm_dictionary_decode_allocates_only_its_result() {
    let kind = CorpusKind::Json;
    let samples: Vec<Vec<u8>> = (0..32).map(|i| kind.generate(7_700 + i, 4096)).collect();
    let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
    let level = CompressionLevel::new(3).expect("3 is a valid level");
    let profile = Profile::derive("json", &refs, level, DEFAULT_DICT_CAP).expect("samples given");
    let dict = profile.dict();
    assert!(!dict.is_empty());
    let payloads: Vec<Vec<u8>> = (0..10).map(|i| kind.generate(i, 2048)).collect();
    // FDICT zlib streams, every one behind the profile's canned header.
    let streams: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| {
            let raw = deflate_canned(p, Engine::Auto, &profile, true);
            zlib::wrap_deflate_with_dict(&raw, adler32(p), adler32(dict))
        })
        .collect();

    // Twice: the header is remembered at its first sighting and its tables
    // are kept from the second.
    let cold = allocs();
    for _ in 0..2 {
        let out = zlib::decompress_with_dict(&streams[0], dict);
        assert_eq!(out.as_ref(), Ok(&payloads[0]));
    }
    assert!(
        allocs() - cold > 1,
        "counter sanity: a cold thread's scratch must allocate"
    );

    for (stream, payload) in streams.iter().zip(&payloads).cycle().take(50) {
        let before = allocs();
        let out = zlib::decompress_with_dict(stream, dict);
        let delta = allocs() - before;
        assert_eq!(out.as_ref(), Ok(payload));
        assert_eq!(delta, 1, "a warm one-shot decode allocated {delta} times");
    }
}
