//! Buffer pooling and zero-allocation scratch sessions.
//!
//! The accelerator's driver pins its CRB/DDE buffers once and reuses them
//! for every request — steady-state operation performs no allocation.
//! This module reproduces that discipline in the facade:
//!
//! * [`BufferPool`] is a shared shelf of byte buffers with hit/miss
//!   accounting, used by sharded compress (shard output) and the service
//!   engine (input recycling, which async sessions read back through
//!   [`AsyncSession::buffer`](crate::AsyncSession::buffer)).
//! * [`ScratchSession`] bundles a software-only request executor (a
//!   persistent [`nx_deflate::StreamEncoder`] plus an
//!   [`nx_deflate::InflateScratch`] for decode tables + output sizing) and
//!   a pool handle so repeated same-shape compress/decompress calls
//!   through the `*_into` APIs stop touching the allocator after warmup.
//! * [`InflatePathMetrics`] exports the decoder's fast-path/careful-path
//!   byte counters (the inflate superloop hit rate) as pull metrics.
//!
//! ```
//! use nx_core::{Format, Nx};
//!
//! # fn main() -> Result<(), nx_core::Error> {
//! let nx = Nx::power9();
//! let mut sess = nx.scratch_session(6)?;
//! let data = b"scratch reuse scratch reuse".repeat(100);
//! let mut comp = sess.acquire_buffer();
//! let mut back = sess.acquire_buffer();
//! sess.compress_into(&data, Format::Gzip, &mut comp)?;
//! sess.decompress_into(&comp, Format::Gzip, &mut back)?;
//! assert_eq!(back, data);
//! sess.release_buffer(comp);
//! sess.release_buffer(back);
//! # Ok(())
//! # }
//! ```

use crate::exec::Executor;
use crate::framing::Format;
use crate::{CompressOptions, Result};
use nx_deflate::{CompressionLevel, Engine, Profile};
use nx_telemetry::{MetricSource, MetricValue};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Idle buffers retained per pool before further releases are dropped.
const DEFAULT_MAX_IDLE: usize = 32;

/// A shared shelf of reusable byte buffers.
///
/// `acquire` pops a previously released buffer (a *hit*) or allocates an
/// empty one (a *miss*); `release` clears a buffer and shelves it for the
/// next acquirer, dropping it instead once the shelf is full so the pool
/// cannot grow without bound. All counters are monotonic and lock-free;
/// the shelf itself is a mutex — acquisition is O(1) pop/push.
#[derive(Debug)]
pub struct BufferPool {
    shelf: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::with_max_idle(DEFAULT_MAX_IDLE)
    }
}

impl BufferPool {
    /// A pool retaining at most `max_idle` idle buffers.
    pub fn with_max_idle(max_idle: usize) -> Self {
        Self {
            shelf: Mutex::new(Vec::new()),
            max_idle,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Takes a buffer from the shelf, or a fresh empty one on a miss.
    /// Returned buffers are always empty (`len == 0`) but keep whatever
    /// capacity their previous use grew.
    pub fn acquire(&self) -> Vec<u8> {
        match self.shelf.lock().pop() {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Clears `buf` and shelves it for reuse; drops it (counted) when the
    /// shelf already holds the idle maximum.
    pub fn release(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut shelf = self.shelf.lock();
        if shelf.len() < self.max_idle {
            shelf.push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Buffers currently shelved.
    pub fn idle(&self) -> usize {
        self.shelf.lock().len()
    }

    /// Acquisitions served from the shelf.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Buffers returned to the shelf.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Buffers dropped at release because the shelf was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl MetricSource for BufferPool {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        out.push((
            "nx_pool_hits_total".into(),
            MetricValue::Counter(self.hits()),
        ));
        out.push((
            "nx_pool_misses_total".into(),
            MetricValue::Counter(self.misses()),
        ));
        out.push((
            "nx_pool_recycled_total".into(),
            MetricValue::Counter(self.recycled()),
        ));
        out.push((
            "nx_pool_dropped_total".into(),
            MetricValue::Counter(self.dropped()),
        ));
        out.push((
            "nx_pool_idle_buffers".into(),
            MetricValue::Gauge(self.idle() as i64),
        ));
    }
}

/// Pull-source for the inflate superloop's path counters: how many output
/// bytes the fast loop produced versus the careful per-symbol loop. The
/// counters are process-wide (they aggregate every decoder in the
/// process), matching the hardware's per-unit performance counters.
#[derive(Debug, Default)]
pub struct InflatePathMetrics;

impl MetricSource for InflatePathMetrics {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let (fast, careful) = nx_deflate::decode_path_counters();
        out.push((
            "nx_inflate_fast_path_bytes_total".into(),
            MetricValue::Counter(fast),
        ));
        out.push((
            "nx_inflate_careful_path_bytes_total".into(),
            MetricValue::Counter(careful),
        ));
        // Hit rate in basis points (0..=10000) as a gauge, so dashboards
        // get the ratio without post-processing two counters.
        let total = fast + careful;
        let bp = if total == 0 {
            0
        } else {
            ((fast as u128 * 10_000) / total as u128) as i64
        };
        out.push(("nx_inflate_fast_path_bp".into(), MetricValue::Gauge(bp)));
    }
}

/// Pull-source for the deflate encoder's path counters: emitted blocks by
/// type (stored / fixed / dynamic), blocks per level-ladder rung, lazy
/// deferrals, and the chain-walk length histogram from the hash4 match
/// finder. Process-wide, like [`InflatePathMetrics`].
#[derive(Debug, Default)]
pub struct EncodePathMetrics;

impl MetricSource for EncodePathMetrics {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let c = nx_deflate::encode_counters();
        out.push((
            "nx_encode_blocks_stored_total".into(),
            MetricValue::Counter(c.blocks_stored),
        ));
        out.push((
            "nx_encode_blocks_fixed_total".into(),
            MetricValue::Counter(c.blocks_fixed),
        ));
        out.push((
            "nx_encode_blocks_dynamic_total".into(),
            MetricValue::Counter(c.blocks_dynamic),
        ));
        out.push((
            "nx_encode_lazy_deferrals_total".into(),
            MetricValue::Counter(c.lazy_deferrals),
        ));
        for (rung, &blocks) in nx_deflate::Level::all().iter().zip(&c.blocks_by_level) {
            out.push((
                format!("nx_encode_blocks_level_{rung}_total"),
                MetricValue::Counter(blocks),
            ));
        }
        // Chain-walk histogram buckets: walks of exactly 0 and 1 steps,
        // then powers of two up to 63, then everything longer.
        const BUCKETS: [&str; 8] = ["0", "1", "le_3", "le_7", "le_15", "le_31", "le_63", "gt_63"];
        for (name, &count) in BUCKETS.iter().zip(&c.chain_hist) {
            out.push((
                format!("nx_encode_chain_walk_{name}_total"),
                MetricValue::Counter(count),
            ));
        }
        // Speculative batch-matcher cover statistics: 8-position windows
        // resolved, candidates probed, positions covered by matches,
        // candidates the cover resolver discarded, and the distribution
        // of picks per window (0..=8).
        out.push((
            "nx_encode_spec_windows_total".into(),
            MetricValue::Counter(c.spec_windows),
        ));
        out.push((
            "nx_encode_spec_candidates_total".into(),
            MetricValue::Counter(c.spec_candidates),
        ));
        out.push((
            "nx_encode_spec_covered_total".into(),
            MetricValue::Counter(c.spec_covered),
        ));
        out.push((
            "nx_encode_spec_discarded_total".into(),
            MetricValue::Counter(c.spec_discarded),
        ));
        for (picks, &count) in c.spec_cover_hist.iter().enumerate() {
            out.push((
                format!("nx_encode_spec_cover_{picks}_total"),
                MetricValue::Counter(count),
            ));
        }
    }
}

/// Pull-source for the canned-profile path counters
/// ([`nx_deflate::profile_counters`]): requests routed through the
/// one-pass canned encoder, blocks emitted against canned tables versus
/// misfit fallbacks, dictionary-primed encodes, and registry misses.
/// Process-wide, like [`InflatePathMetrics`]; registered as the
/// `nx-profiles` source by [`crate::Nx::with_telemetry`].
#[derive(Debug, Default)]
pub struct ProfileMetrics;

impl MetricSource for ProfileMetrics {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let c = nx_deflate::profile_counters();
        out.push((
            "nx_profile_canned_requests_total".into(),
            MetricValue::Counter(c.canned_requests),
        ));
        out.push((
            "nx_profile_canned_blocks_total".into(),
            MetricValue::Counter(c.canned_blocks),
        ));
        out.push((
            "nx_profile_fallback_blocks_total".into(),
            MetricValue::Counter(c.fallback_blocks),
        ));
        out.push((
            "nx_profile_dict_encodes_total".into(),
            MetricValue::Counter(c.dict_encodes),
        ));
        out.push((
            "nx_profile_misses_total".into(),
            MetricValue::Counter(c.profile_misses),
        ));
        // One-pass hit rate in basis points, mirroring the inflate
        // fast-path gauge: of all blocks seen by the canned encoder, how
        // many were emitted against the canned tables.
        let total = c.canned_blocks + c.fallback_blocks;
        let bp = if total == 0 {
            0
        } else {
            ((c.canned_blocks as u128 * 10_000) / total as u128) as i64
        };
        out.push(("nx_profile_canned_bp".into(), MetricValue::Gauge(bp)));
    }
}

/// A reusable compression/decompression session bound to an [`crate::Nx`]
/// handle: the software path with every piece of per-request state —
/// encoder hash chains, decode tables, output buffers — carried across
/// calls. After one warmup call per payload shape, `compress_into` and
/// `decompress_into` stop allocating entirely (`tests/zero_alloc.rs`
/// counts 0 for both).
///
/// The session *is* a request executor in its software-only form plus the
/// caller's buffers: requests run the same routing, span grammar and
/// stats record as every other entry point, recorded in the owning
/// handle's [`crate::NxStats`] and telemetry sink.
#[derive(Debug)]
pub struct ScratchSession {
    exec: Executor,
    /// Fixed when the session opens: the ladder rung and engine of the
    /// persistent encoder, and the canned profile (whose dictionary
    /// `decompress_into` also supplies to zlib FDICT streams).
    opts: CompressOptions,
    pool: Arc<BufferPool>,
}

impl ScratchSession {
    pub(crate) fn new(exec: Executor, opts: CompressOptions, pool: Arc<BufferPool>) -> Self {
        Self { exec, opts, pool }
    }

    /// The canned profile bound to this session, if its options name one
    /// the handle's registry holds.
    pub fn profile(&self) -> Option<&Profile> {
        let id = self.opts.profile()?;
        self.exec.env().registry().get(id)
    }

    /// The configured compression level.
    pub fn level(&self) -> CompressionLevel {
        self.opts.level()
    }

    /// The configured LZ77 engine selection.
    pub fn engine(&self) -> Engine {
        self.opts.engine()
    }

    /// The buffer pool this session shares with its [`crate::Nx`] handle.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Takes a reusable buffer from the shared pool.
    pub fn acquire_buffer(&self) -> Vec<u8> {
        self.pool.acquire()
    }

    /// Returns a buffer to the shared pool.
    pub fn release_buffer(&self, buf: Vec<u8>) {
        self.pool.release(buf);
    }

    /// Compresses `data` into `format` framing, writing the complete
    /// container into `out` (cleared first). The persistent encoder's
    /// window, tokenizer and bit-writer buffers are reused across calls;
    /// with a profile the one-pass canned path runs instead.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` mirrors [`crate::Nx::compress`].
    pub fn compress_into(&mut self, data: &[u8], format: Format, out: &mut Vec<u8>) -> Result<()> {
        self.exec
            .compress_into(data, format, self.opts, None, out)
            .map(drop)
    }

    /// Decompresses `format`-framed `data` into `out` (cleared first),
    /// verifying container checksums. Decode tables rebuild in place and
    /// the output is sized from the container hint — after warmup this
    /// path performs no heap allocation.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Deflate`] for malformed containers or streams.
    pub fn decompress_into(
        &mut self,
        data: &[u8],
        format: Format,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.exec
            .decompress_into(data, format, self.opts, None, out)
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nx;

    #[test]
    fn pool_hit_miss_accounting() {
        let pool = BufferPool::with_max_idle(2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.misses(), 2);
        assert_eq!(pool.hits(), 0);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.recycled(), 2);
        assert_eq!(pool.idle(), 2);
        let c = pool.acquire();
        assert_eq!(pool.hits(), 1);
        // Shelf full: a third release is dropped, not shelved.
        pool.release(Vec::new());
        pool.release(Vec::new());
        assert_eq!(pool.dropped(), 1);
        pool.release(c);
        assert_eq!(pool.dropped(), 2);
    }

    #[test]
    fn pool_buffers_keep_capacity() {
        let pool = BufferPool::default();
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[7u8; 4096]);
        pool.release(buf);
        let again = pool.acquire();
        assert!(again.is_empty());
        assert!(again.capacity() >= 4096);
    }

    #[test]
    fn session_roundtrips_all_formats() {
        let nx = Nx::power9();
        let mut sess = nx.scratch_session(6).unwrap();
        let data = nx_corpus::CorpusKind::Json.generate(11, 48 * 1024);
        let mut comp = Vec::new();
        let mut back = Vec::new();
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            sess.compress_into(&data, format, &mut comp).unwrap();
            sess.decompress_into(&comp, format, &mut back).unwrap();
            assert_eq!(back, data, "{format:?}");
            // Interop: the ordinary facade decodes the session's output.
            assert_eq!(nx.decompress(&comp, format).unwrap().bytes, data);
        }
        assert_eq!(nx.stats().compress_requests(), 3);
        assert_eq!(nx.stats().decompress_requests(), 6);
    }

    #[test]
    fn session_buffers_stabilize() {
        let nx = Nx::z15();
        let mut sess = nx.scratch_session(6).unwrap();
        let data = nx_corpus::CorpusKind::Text.generate(5, 64 * 1024);
        let mut comp = Vec::new();
        let mut back = Vec::new();
        sess.compress_into(&data, Format::Gzip, &mut comp).unwrap();
        sess.decompress_into(&comp, Format::Gzip, &mut back)
            .unwrap();
        let (ccap, bcap) = (comp.capacity(), back.capacity());
        for _ in 0..5 {
            sess.compress_into(&data, Format::Gzip, &mut comp).unwrap();
            sess.decompress_into(&comp, Format::Gzip, &mut back)
                .unwrap();
            assert_eq!(back, data);
        }
        assert_eq!(comp.capacity(), ccap, "compress buffer reallocated");
        assert_eq!(back.capacity(), bcap, "decompress buffer reallocated");
    }

    #[test]
    fn session_detects_corruption() {
        let nx = Nx::power9();
        let mut sess = nx.scratch_session(6).unwrap();
        let data = b"integrity matters".repeat(50);
        let mut comp = Vec::new();
        sess.compress_into(&data, Format::Gzip, &mut comp).unwrap();
        let n = comp.len();
        comp[n - 5] ^= 0xFF; // CRC byte
        let mut back = Vec::new();
        assert!(sess
            .decompress_into(&comp, Format::Gzip, &mut back)
            .is_err());
        // The session stays usable after an error.
        sess.compress_into(&data, Format::Zlib, &mut comp).unwrap();
        sess.decompress_into(&comp, Format::Zlib, &mut back)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn level_zero_session_stores() {
        let nx = Nx::power9();
        let mut sess = nx.scratch_session(0).unwrap();
        let data = vec![0xABu8; 70_000];
        let mut comp = Vec::new();
        let mut back = Vec::new();
        sess.compress_into(&data, Format::Zlib, &mut comp).unwrap();
        sess.decompress_into(&comp, Format::Zlib, &mut back)
            .unwrap();
        assert_eq!(back, data);
        assert!(nx.scratch_session(10).is_err());
    }

    #[test]
    fn inflate_path_metrics_export() {
        let mut out = Vec::new();
        InflatePathMetrics.collect(&mut out);
        let names: Vec<&str> = out.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"nx_inflate_fast_path_bytes_total"));
        assert!(names.contains(&"nx_inflate_careful_path_bytes_total"));
        assert!(names.contains(&"nx_inflate_fast_path_bp"));
    }

    #[test]
    fn encode_path_metrics_export() {
        // Drive the encoder at a lazy level so the per-level, block-type
        // and chain-walk counters all move, and at a speculative level so
        // the batch-matcher cover counters move too.
        let data = b"encode metrics encode metrics encode metrics".repeat(200);
        let _ = nx_deflate::deflate(&data, CompressionLevel::new(6).unwrap());
        let _ = nx_deflate::deflate(&data, CompressionLevel::new(1).unwrap());
        let mut out = Vec::new();
        EncodePathMetrics.collect(&mut out);
        let names: Vec<&str> = out.iter().map(|(n, _)| n.as_str()).collect();
        for want in [
            "nx_encode_blocks_stored_total",
            "nx_encode_blocks_fixed_total",
            "nx_encode_blocks_dynamic_total",
            "nx_encode_lazy_deferrals_total",
            "nx_encode_blocks_level_default_total",
            "nx_encode_chain_walk_0_total",
            "nx_encode_chain_walk_gt_63_total",
            "nx_encode_spec_windows_total",
            "nx_encode_spec_candidates_total",
            "nx_encode_spec_covered_total",
            "nx_encode_spec_discarded_total",
            "nx_encode_spec_cover_0_total",
            "nx_encode_spec_cover_8_total",
        ] {
            assert!(names.contains(&want), "missing metric {want}");
        }
        let spec_windows: u64 = out
            .iter()
            .find(|(n, _)| n == "nx_encode_spec_windows_total")
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .unwrap_or(0);
        assert!(spec_windows > 0, "speculative windows not counted");
        let total_blocks: u64 = out
            .iter()
            .filter(|(n, _)| n.starts_with("nx_encode_blocks_level_"))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                MetricValue::Gauge(g) => *g as u64,
                _ => 0,
            })
            .sum();
        assert!(total_blocks > 0, "no blocks recorded on the level ladder");
    }
}
