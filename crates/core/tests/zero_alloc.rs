//! Steady-state allocation audit for the PR 4 scratch layer, using a
//! counting global allocator.
//!
//! The claim under test: once a `ScratchSession` is warm, repeated
//! `decompress_into` calls perform **zero** heap allocation in any
//! container format — decode tables rebuild in place, the output buffer
//! keeps its capacity, and the container parsers are allocation-free.
//!
//! The compress path is held to the same bar since the entropy back end
//! stopped building `Vec`s (histogram, code lengths, header plan and fused
//! tables are values on the stack — see DESIGN.md): a warm session's
//! `compress_into` allocates nothing, a one-shot ladder request through the
//! handle allocates its output, and a request through the accelerator model
//! the four buffers the model owns.
//!
//! The same counters bound what the parallel decoder allocates: large
//! buffers per worker rather than per member, a warm ranged read's result
//! and nothing else, and no more than its range for a read through a
//! forged or damaged seek index. A sharded compress borrows its input:
//! nothing it allocates is as large as the input.
//!
//! Everything lives in one `#[test]` because the counter is process-wide
//! and the harness runs sibling tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nx_core::{
    Format, Nx, ParallelEngine, ParallelInflateOptions, ParallelInflater, ParallelOptions,
    SeekIndex,
};
use nx_deflate::workers::Workers;
use nx_telemetry::TelemetrySink;

/// System allocator wrapper that counts every allocation event
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`) and the bytes they
/// asked for, separately the events of at least [`LARGE`] bytes, and the
/// largest single request.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BIGGEST: AtomicU64 = AtomicU64::new(0);
const LARGE: usize = 64 * 1024;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    BIGGEST.fetch_max(size as u64, Ordering::Relaxed);
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

/// Bytes of one checkpoint's record in a serialized (v3) seek index, which
/// opens with an 18-byte header: bit offset, output offset, block bit,
/// window length, run count, runs, window.
fn record_len(cp: &nx_core::SeekCheckpoint) -> usize {
    8 + 8 + 8 + 4 + 2 + 4 * cp.runs.len() + cp.window.len()
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

    // --- Compress: strict zero after warmup too. ---
    // 256 KiB is two blocks a call; at the commit before issue 24 each
    // block's plan cost about 55 allocations.
    for _ in 0..WARMUP {
        sess.compress_into(&data, Format::Gzip, &mut comp)
            .expect("compress is infallible");
    }
    let before = allocs();
    for _ in 0..ITERS {
        sess.compress_into(&data, Format::Gzip, &mut comp)
            .expect("compress is infallible");
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "steady-state compress_into allocated {delta} x");

    // --- One-shot encodes through the handle: nothing per block. ---
    // The ladder plans each block on the stack, borrows the thread's
    // matcher and token buffer and frames in place, so a warm 2 KiB
    // `Fastest` request allocates its output and nothing else (46 at the
    // commit before issue 24). The accelerator model still owns its token
    // vector, its block-cost vector and its raw stream, and the facade
    // frames that stream into the output: four, where 1 KiB took 43.
    let small = nx_corpus::CorpusKind::Json.generate(0xA110C, 2048);
    let fastest = nx_core::CompressOptions::from_level(nx_deflate::Level::Fastest);
    let ladder = || nx.compress_with(&small, Format::Zlib, fastest);
    let model = || nx.compress(&small[..1024], Format::Zlib);
    for _ in 0..WARMUP {
        let (ladder, model) = (ladder().expect("infallible"), model().expect("infallible"));
        assert_eq!(ladder.report.config_name, "software-ladder");
        assert!(model.report.cycles > 0, "the model's clock ran");
        sess.decompress_into(&ladder.bytes, Format::Zlib, &mut out)
            .expect("valid container");
        assert_eq!(out, small);
        sess.decompress_into(&model.bytes, Format::Zlib, &mut out)
            .expect("valid container");
        assert_eq!(out, small[..1024]);
    }
    let before = allocs();
    std::hint::black_box(ladder().expect("infallible"));
    let ladder_allocs = allocs() - before;
    std::hint::black_box(model().expect("infallible"));
    let model_allocs = allocs() - before - ladder_allocs;
    assert_eq!((ladder_allocs, model_allocs), (1, 4), "(ladder, model)");

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
    // A budget of its own, so the helper runs whatever the host's CPUs.
    let opts = ParallelInflateOptions {
        workers: WORKERS,
        ..Default::default()
    };
    let inflater = ParallelInflater::with_workers(opts, Workers::new(WORKERS - 1));
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

    // --- Ranged reads: a warm read allocates its result, nothing else. ---
    let index = nx.build_index(&stream, Format::Gzip).expect("valid");
    let read = |offset: usize| {
        let got = nx.decompress_at(&stream, &index, offset as u64, LARGE);
        assert_eq!(got.expect("in range"), data[offset..offset + LARGE]);
    };
    for warm in [3, 5, 14, 20, 27] {
        read(warm * LARGE + 777);
    }
    let (before, large_before) = (allocs(), LARGE_ALLOCATIONS.load(Ordering::SeqCst));
    read(9 * LARGE + 4_321);
    let large = LARGE_ALLOCATIONS.load(Ordering::SeqCst) - large_before;
    assert_eq!((allocs() - before, large), (1, 1), "a warm 64 KiB read");

    // --- A read that fails hands its state back: the next one is warm. ---
    // Every `?` in the read loop used to drop the pooled state (up to the
    // commit before issue 25), so the read after a failure rebuilt its
    // tables and output buffer. A stored member's checkpoints sit inside
    // stored payloads; one moved off its byte is refused, typed, on entry.
    let noise = nx_corpus::CorpusKind::Random.generate(0xA110C, 4 * LARGE);
    let stored = nx_deflate::gzip::compress(&noise, nx_deflate::CompressionLevel::new(0).unwrap());
    let honest = nx.build_index(&stored, Format::Gzip).expect("valid");
    let cp = &honest.checkpoints()[1];
    assert!(cp.block_bit < cp.bit_offset, "inside a stored block");
    let mut wire = honest.to_bytes();
    let at = 18 + record_len(&honest.checkpoints()[0]);
    wire[at..at + 8].copy_from_slice(&(cp.bit_offset + 1).to_le_bytes());
    let forged = SeekIndex::from_bytes(&wire).expect("offsets still ascend");
    let offset = cp.out_offset as usize + 10;
    let read = |index: &SeekIndex| nx.decompress_at(&stored, index, offset as u64, 4096);
    for _ in 0..WARMUP {
        assert_eq!(
            read(&honest).expect("in range"),
            noise[offset..offset + 4096]
        );
    }
    assert_eq!(read(&forged), Err(nx_core::Error::InvalidSeekIndex));
    let before = allocs();
    assert_eq!(
        read(&honest).expect("in range"),
        noise[offset..offset + 4096]
    );
    assert_eq!(allocs() - before, 1, "a warm read after a failed one");

    // --- An untrusted index cannot make a read cost more than its range. ---
    // 64 MiB of zeros is one run of distance-1 matches: any entry point
    // into it decodes on for megabytes if nothing stops it.
    let zeros = vec![0u8; 64 << 20];
    sess.compress_into(&zeros, Format::Gzip, &mut comp)
        .expect("compress is infallible");
    let honest = nx.build_index(&comp, Format::Gzip).expect("valid");
    let wire = honest.to_bytes();
    // Every checkpoint after the first claims to sit 4 KiB from the end
    // (the record is bit offset, then output offset), and one entry point
    // is moved off its token boundary.
    let mut forged = wire.clone();
    let mut at = 18;
    for (i, cp) in honest.checkpoints().iter().enumerate() {
        if i > 0 {
            let claim = zeros.len() as u64 - 4096 - (honest.checkpoints().len() - i) as u64;
            forged[at + 8..at + 16].copy_from_slice(&claim.to_le_bytes());
        }
        if i == 3 {
            forged[at] ^= 5;
        }
        at += record_len(cp);
    }
    assert_eq!(at, wire.len());
    let forged = SeekIndex::from_bytes(&forged).expect("offsets still ascend");
    let reader = ParallelInflater::new(ParallelInflateOptions::default());
    // One read from each forged entry point, the off-boundary one included.
    for back in 4096..4096 + honest.checkpoints().len() as u64 - 1 {
        let before = ALLOCATED_BYTES.load(Ordering::SeqCst);
        let got = reader.decompress_at(&comp, &forged, zeros.len() as u64 - back, 4096);
        let cost = ALLOCATED_BYTES.load(Ordering::SeqCst) - before;
        // A typed error or 4 KiB of something; never the megabytes behind
        // the entry point.
        assert!(got.is_err() || got.is_ok_and(|bytes| bytes.len() == 4096));
        assert!(cost < 1 << 20, "a forged index cost {cost} bytes");
    }

    // --- Nor can any single damaged byte of it. ---
    let data = nx_corpus::mixed(0xA110C, 8 * LARGE);
    sess.compress_into(&data, Format::Gzip, &mut comp)
        .expect("compress is infallible");
    let stream = comp.as_slice();
    let index = nx.build_index(stream, Format::Gzip).expect("valid");
    assert!(index.checkpoints().len() > 2, "interior checkpoints");
    let wire = index.to_bytes();
    let mut damaged = wire.clone();
    let (mut misread, mut refused) = (0, 0);
    // Each byte is tried by a read that starts just behind its checkpoint.
    let mut behind = vec![100; 18];
    for cp in index.checkpoints() {
        behind.extend(std::iter::repeat_n(cp.out_offset + 100, record_len(cp)));
    }
    assert_eq!(behind.len(), wire.len());
    for at in 0..wire.len() {
        damaged[at] ^= 0x10 << (at % 4);
        let offset = behind[at];
        if let Ok(loaded) = SeekIndex::from_bytes(&damaged) {
            let before = ALLOCATED_BYTES.load(Ordering::SeqCst);
            let got = reader.decompress_at(stream, &loaded, offset, 2_000);
            let cost = ALLOCATED_BYTES.load(Ordering::SeqCst) - before;
            let from = loaded.checkpoints().iter().rev();
            let from = from.map(|c| c.out_offset).find(|&o| o <= offset);
            let bound = offset - from.unwrap_or(0) + 2_000 + 65_535;
            assert!(cost <= 4 * bound + 4096, "byte {at}: {cost} > {bound}");
            let want = data.get(offset as usize..offset as usize + 2_000);
            misread += u64::from(got.is_ok() && got.ok().as_deref() != want);
        } else {
            refused += 1;
        }
        damaged[at] = wire[at];
    }
    // Structural damage is refused at load; window bytes carry no check,
    // so damage there reads back wrong: the index is a trusted sidecar.
    assert!(refused > 0 && misread > 0 && refused + misread < wire.len() as u64);

    // --- The modeled decompressor: its output and O(blocks) of records. ---
    // The default `Nx::decompress` door prices a stream from counts the
    // decode loops take as they run. It used to replay one `Vec<Token>` per
    // block (6 B a token, grown by doubling: megabytes per MiB of output).
    let data = nx_corpus::mixed(0xA110C, 1 << 20);
    let stream = nx.compress(&data, Format::Gzip).expect("infallible").bytes;
    for _ in 0..WARMUP {
        let back = nx.decompress(&stream, Format::Gzip).expect("valid");
        assert_eq!(back.bytes, data);
    }
    let (before, bytes_before) = (allocs(), ALLOCATED_BYTES.load(Ordering::SeqCst));
    let back = nx.decompress(&stream, Format::Gzip).expect("valid");
    let events = allocs() - before;
    let bytes = ALLOCATED_BYTES.load(Ordering::SeqCst) - bytes_before;
    assert_eq!(back.bytes.len(), data.len());
    let blocks = back.report.blocks;
    assert!(blocks >= 4, "a megabyte is several blocks");
    // The output (reserved once: ISIZE plus the fast loop's 64 KiB slack),
    // the trace (a 2 KiB histogram, 48-byte block records grown by
    // doubling) and the request's spans.
    let budget = data.len() as u64 + 65_536 + 4096 + 128 * blocks;
    assert!(bytes <= budget, "a warm model decode asked for {bytes} B");
    assert!(
        events <= 8 + blocks,
        "a warm model decode allocated {events} x"
    );

    // --- Sharded compress: shards borrow the input, never a copy of it. ---
    // Until the shards ran on the caller's scoped fan-out, every request
    // copied its whole input into a buffer shared with a persistent pool.
    let opts = ParallelOptions {
        workers: 2,
        chunk_size: 128 << 10,
    };
    let (sink, pool) = (TelemetrySink::disabled(), Default::default());
    let engine = ParallelEngine::with_telemetry(opts, None, sink, pool, Workers::new(1));
    let sharded = || engine.compress(&data, 6, Format::Gzip).expect("level 6");
    for _ in 0..WARMUP {
        sharded();
    }
    BIGGEST.store(0, Ordering::SeqCst);
    let gz = sharded();
    let biggest = BIGGEST.load(Ordering::SeqCst);
    assert!(
        biggest < data.len() as u64,
        "a warm 1 MiB sharded compress allocated {biggest} B at once"
    );
    assert_eq!(engine.stats().serial_fallbacks(), 0);
    sess.decompress_into(&gz, Format::Gzip, &mut out)
        .expect("valid container");
    assert_eq!(out, data);
}
