//! Steady-state allocation audit for the PR 4 scratch layer, using a
//! counting global allocator.
//!
//! The claim under test: once a `ScratchSession` is warm, repeated
//! `decompress_into` calls perform **zero** heap allocation in any
//! container format — decode tables rebuild in place, the output buffer
//! keeps its capacity, and the container parsers are allocation-free.
//!
//! The compress path is *exempt from strict zero* by design: dynamic-
//! Huffman block planning builds a fresh histogram and code plan per
//! block (see DESIGN.md), so the bar there is a constant, bounded
//! allocation count per iteration — no growth, no leaks.
//!
//! Everything lives in one `#[test]` because the counter is process-wide
//! and the harness runs sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nx_core::{Format, Nx, ParallelInflateOptions, ParallelInflater};

/// System allocator wrapper that counts every allocation event
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`), and separately
/// those of at least [`LARGE`] bytes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
const LARGE: usize = 64 * 1024;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

const FORMATS: [Format; 3] = [Format::RawDeflate, Format::Gzip, Format::Zlib];
const WARMUP: usize = 3;
const ITERS: u64 = 8;

#[test]
fn scratch_session_steady_state_allocation_profile() {
    let nx = Nx::power9();
    let mut sess = nx.scratch_session(6).expect("level 6 is valid");
    let data = nx_corpus::CorpusKind::Text.generate(0xA110C, 256 << 10);

    let mut comp = Vec::new();
    let mut out = Vec::new();

    // --- Decompress: strict zero after warmup, every format. ---
    for (i, format) in FORMATS.into_iter().enumerate() {
        sess.compress_into(&data, format, &mut comp)
            .expect("compress is infallible");
        let before_warm = allocs();
        for _ in 0..WARMUP {
            sess.decompress_into(&comp, format, &mut out)
                .expect("valid container");
            assert_eq!(out, data);
        }
        // Counter sanity on the very first decode only: a cold session
        // must allocate (tables, output capacity). Later formats reuse
        // everything and may legitimately stay at zero from call one.
        if i == 0 {
            assert!(
                allocs() > before_warm,
                "counter sanity: first warmup must allocate (fresh tables/capacity)"
            );
        }

        let before = allocs();
        for _ in 0..ITERS {
            sess.decompress_into(&comp, format, &mut out)
                .expect("valid container");
            std::hint::black_box(out.len());
        }
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "steady-state decompress_into allocated {delta} times in {ITERS} iters ({format:?})"
        );
    }

    // --- Compress: constant bounded allocations per iteration. ---
    for _ in 0..WARMUP {
        sess.compress_into(&data, Format::Gzip, &mut comp)
            .expect("compress is infallible");
    }
    let t0 = allocs();
    for _ in 0..ITERS {
        sess.compress_into(&data, Format::Gzip, &mut comp)
            .expect("compress is infallible");
    }
    let first = allocs() - t0;
    let t1 = allocs();
    for _ in 0..2 * ITERS {
        sess.compress_into(&data, Format::Gzip, &mut comp)
            .expect("compress is infallible");
    }
    let second = allocs() - t1;
    assert_eq!(
        second,
        2 * first,
        "compress_into allocation count must be constant per iteration, not growing"
    );
    let per_iter = first / ITERS;
    assert!(
        per_iter <= 256,
        "compress_into allocates {per_iter}/iter — dynamic-Huffman planning \
         should stay within a couple hundred allocations"
    );

    // --- Pool recycling is also allocation-free once a buffer exists. ---
    let buf = sess.acquire_buffer();
    sess.release_buffer(buf);
    let before = allocs();
    for _ in 0..ITERS {
        let b = sess.acquire_buffer();
        sess.release_buffer(b);
    }
    assert_eq!(
        allocs() - before,
        0,
        "pool acquire/release cycle must not allocate"
    );

    // --- Member-parallel inflate: buffers per worker, not per member. ---
    // One output for the whole stream (plus the planner's reservation
    // probe of the same size) and one staging buffer per worker; every
    // member decodes to 64 KiB, so a per-member `Vec` would show up as
    // 32 more.
    const MEMBERS: usize = 32;
    const WORKERS: usize = 2;
    let data = nx_corpus::CorpusKind::Text.generate(0xA110C, MEMBERS * LARGE);
    let mut stream = Vec::new();
    for part in data.chunks(LARGE) {
        sess.compress_into(part, Format::Gzip, &mut comp)
            .expect("compress is infallible");
        stream.extend_from_slice(&comp);
    }
    let inflater = ParallelInflater::new(ParallelInflateOptions {
        workers: WORKERS,
        ..Default::default()
    });
    let large_before = LARGE_ALLOCATIONS.load(Ordering::SeqCst);
    let decoded = inflater.decompress(&stream, Format::Gzip).expect("valid");
    let large = LARGE_ALLOCATIONS.load(Ordering::SeqCst) - large_before;
    assert_eq!(decoded, data);
    assert!(
        large <= 2 + WORKERS as u64,
        "{large} allocations of >= 64 KiB for {MEMBERS} members on {WORKERS} workers"
    );
    assert_eq!(inflater.stats().members_parallel(), MEMBERS as u64);
    assert_eq!(inflater.stats().serial_fallbacks(), 0);
}
