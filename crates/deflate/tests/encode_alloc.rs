//! Allocation audit for the ladder's one-shot encode, using a counting
//! global allocator.
//!
//! The claim under test: the entropy back end allocates nothing. Histogram,
//! code lengths, header plan and fused tables are values on the stack; a
//! request of up to 64 KiB borrows the thread's matcher *and* token buffer;
//! and the stream is written behind the container's header in the vector
//! the caller gets back. So a warm small request allocates its output (and
//! at most grows it once), and a large one allocates a constant handful of
//! buffers however many blocks it cuts. Blocks are cut and emitted as the
//! parse makes their tokens, so a serial encode holds one block of tokens
//! at a time, not the whole input's: its peak live heap is the matcher, the
//! output and one block of tokens.
//!
//! One `#[test]` only: the counter is process-wide and the harness runs
//! sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nx_corpus::CorpusKind;
use nx_deflate::{encode_counters, zlib, CompressionLevel, Encoder, Level, Token};

/// System allocator wrapper that counts every allocation event
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`), and the bytes live
/// and their high-water mark.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `bytes` more live (or fewer, by wrapping).
fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed).wrapping_add(bytes);
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter is a
// relaxed atomic and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow((new_size as u64).wrapping_sub(layout.size() as u64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events and dynamic blocks emitted while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (allocs, blocks) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        encode_counters().blocks_dynamic,
    );
    let r = f();
    (
        ALLOCATIONS.load(Ordering::SeqCst) - allocs,
        encode_counters().blocks_dynamic - blocks,
        r,
    )
}

#[test]
fn warm_ladder_encodes_allocate_their_output_and_nothing_per_block() {
    let fastest = Level::Fastest.compression_level();
    let kinds = [CorpusKind::Json, CorpusKind::Logs, CorpusKind::Text];
    let payloads: Vec<Vec<u8>> = (0..30)
        .map(|i| kinds[i % 3].generate(4_200 + i as u64, 2048))
        .collect();

    // --- A 2 KiB request: its output, at most one growth of it. ---
    let cold = counted(|| zlib::compress(&payloads[0], fastest)).0;
    assert!(
        cold > 2,
        "counter sanity: a cold thread's scratch allocates"
    );
    payloads
        .iter()
        .for_each(|p| drop(zlib::compress(p, fastest)));
    for (i, p) in payloads.iter().enumerate() {
        let (allocs, dynamic, out) = counted(|| zlib::compress(p, fastest));
        assert_eq!(zlib::decompress(&out).expect("own stream"), *p);
        assert_eq!(dynamic, 1, "payload {i}: one dynamic block is the route");
        assert!(allocs <= 2, "payload {i}: {allocs} allocations");
    }
    // Every rung, and the matcher-free strategies' literal-only blocks.
    for level in [1, 3, 6, 9] {
        let level = CompressionLevel::new(level).expect("valid");
        drop(zlib::compress(&payloads[1], level));
        let (allocs, _, _) = counted(|| zlib::compress(&payloads[1], level));
        assert!(allocs <= 2, "level {level}: {allocs} allocations");
    }

    // --- A 1 MiB request: O(1) buffers, not O(blocks). ---
    // Above 64 KiB the encode owns a fresh matcher (two tables) and its
    // token vector; the output is sized to half the input and grows at
    // most a couple of times on data this compressible.
    let big = nx_corpus::mixed(0xA110C, 1 << 20);
    drop(zlib::compress(&big, fastest));
    let (allocs, dynamic, out) = counted(|| zlib::compress(&big, fastest));
    assert_eq!(zlib::decompress(&out).expect("own stream"), big);
    assert!(dynamic >= 6, "{dynamic} dynamic blocks in a megabyte");
    assert!(allocs <= 8, "{allocs} allocations for {dynamic} blocks");
    // Twice the blocks, the same buffers.
    let bigger = nx_corpus::mixed(0xA110C, 2 << 20);
    drop(zlib::compress(&bigger, fastest));
    let (more, twice, _) = counted(|| zlib::compress(&bigger, fastest));
    assert!(twice >= 2 * dynamic - 2);
    assert!(
        more <= allocs + 2,
        "{more} allocations at 2 MiB, {allocs} at 1"
    );

    // --- A serial 4 MiB level-6 encode holds one block of tokens. ---
    // No budget, so the caller parses alone, on a fresh matcher (three
    // tables: 448 KiB) into the output (reserved at half the input), and
    // the sink holds at most one block of tokens. 256 KiB of slack covers
    // the rest; the whole input's tokens would be ~5 MB more.
    let data = nx_corpus::mixed(0xB10C, 4 << 20);
    let encoder = Encoder::new(CompressionLevel::new(6).expect("valid"));
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = encoder.compress(&data);
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(nx_deflate::inflate(&out).expect("own stream"), data);
    let matcher = (1 << 16) * 4 + (1 << 15) * 2 + (1 << 15) * 4;
    let block = nx_deflate::encoder::MAX_BLOCK_TOKENS * std::mem::size_of::<Token>();
    let bound = (matcher + data.len() / 2 + 64 + block + (256 << 10)) as u64;
    assert!(peak < bound, "peak {peak} B live, bound {bound} B");
}
