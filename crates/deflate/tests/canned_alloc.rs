//! Allocation audit for the canned one-pass encoder, using a counting
//! global allocator.
//!
//! The claim under test: once a thread's scratch is warm,
//! `deflate_canned_into` into an `out` with room performs **zero** heap
//! allocation — matcher, token buffer, dict+data staging, bit writer and
//! block histogram are all per-thread scratch, and priming the dictionary
//! loads a prebuilt image.
//!
//! One `#[test]` only: the counter is process-wide and the harness runs
//! sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nx_corpus::CorpusKind;
use nx_deflate::lz77::Engine;
use nx_deflate::profile::{deflate_canned_into, profile_counters, Profile, DEFAULT_DICT_CAP};
use nx_deflate::CompressionLevel;

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
fn warm_canned_requests_allocate_nothing() {
    let kind = CorpusKind::Json;
    let samples: Vec<Vec<u8>> = (0..32).map(|i| kind.generate(7_700 + i, 4096)).collect();
    let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
    let level = CompressionLevel::new(3).expect("3 is a valid level");
    let profile = Profile::derive("json", &refs, level, DEFAULT_DICT_CAP).expect("samples given");
    assert!(!profile.dict().is_empty());
    let payloads: Vec<Vec<u8>> = (0..10).map(|i| kind.generate(i, 2048)).collect();
    let mut out = Vec::with_capacity(4096);

    let request = |i: usize, out: &mut Vec<u8>| {
        out.clear();
        deflate_canned_into(&payloads[i % 10], Engine::Auto, &profile, true, out);
        std::hint::black_box(out.len());
    };

    // Two warm-up passes: scratch buffers reach the sizes this traffic needs.
    let cold = allocs();
    (0..20).for_each(|i| request(i, &mut out));
    assert!(
        allocs() > cold,
        "counter sanity: a cold thread's scratch must allocate"
    );

    let fallbacks = profile_counters().fallback_blocks;
    let before = allocs();
    (0..100).for_each(|i| request(i, &mut out));
    let delta = allocs() - before;
    assert_eq!(delta, 0, "100 warm canned requests allocated {delta} times");
    assert_eq!(
        profile_counters().fallback_blocks,
        fallbacks,
        "class traffic must stay on the canned tables"
    );
}
