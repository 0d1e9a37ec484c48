//! Aggregate accelerator statistics, shared across handles and sessions.
//!
//! Counters are split **per codec** (DEFLATE vs 842) and per direction:
//! the two engines have very different throughput/ratio profiles, and a
//! mixed workload folding both into one set of counters produced wrong
//! derived ratios (and 842 traffic recorded zero cycles). The flat
//! accessors remain as cross-codec aggregates; [`NxStats::deflate`] and
//! [`NxStats::p842`] expose the split, and [`NxStats::retries`] /
//! [`NxStats::software_fallbacks`] surface the recovery paths that PR 2
//! only counted on the fault injector.

use std::sync::atomic::{AtomicU64, Ordering};

use nx_telemetry::{MetricSource, MetricValue};

/// Which engine served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// The DEFLATE/gzip/zlib engine.
    Deflate,
    /// The 842 memory-compression engine.
    P842,
}

impl Codec {
    /// Stable lowercase name (metric labels key on it).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Deflate => "deflate",
            Codec::P842 => "842",
        }
    }
}

/// Monotone counters for one codec + direction.
#[derive(Debug, Default)]
pub struct DirStats {
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    engine_cycles: AtomicU64,
}

impl DirStats {
    fn record(&self, bytes_in: u64, bytes_out: u64, cycles: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.engine_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Requests served.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Source bytes received.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Bytes produced.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Modeled engine cycles consumed.
    pub fn engine_cycles(&self) -> u64 {
        self.engine_cycles.load(Ordering::Relaxed)
    }
}

/// Both directions of one codec's traffic.
#[derive(Debug, Default)]
pub struct CodecStats {
    compress: DirStats,
    decompress: DirStats,
}

impl CodecStats {
    /// Compression-side counters.
    pub fn compress(&self) -> &DirStats {
        &self.compress
    }

    /// Decompression-side counters.
    pub fn decompress(&self) -> &DirStats {
        &self.decompress
    }
}

/// Monotone counters for one accelerator handle (thread-safe).
#[derive(Debug, Default)]
pub struct NxStats {
    deflate: CodecStats,
    p842: CodecStats,
    retries: AtomicU64,
    software_fallbacks: AtomicU64,
    rejects_credit: AtomicU64,
    rejects_depth: AtomicU64,
    rejects_fault: AtomicU64,
}

impl NxStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn codec(&self, codec: Codec) -> &CodecStats {
        match codec {
            Codec::Deflate => &self.deflate,
            Codec::P842 => &self.p842,
        }
    }

    pub(crate) fn record_compress(&self, codec: Codec, bytes_in: u64, bytes_out: u64, cycles: u64) {
        self.codec(codec)
            .compress
            .record(bytes_in, bytes_out, cycles);
    }

    pub(crate) fn record_decompress(
        &self,
        codec: Codec,
        bytes_in: u64,
        bytes_out: u64,
        cycles: u64,
    ) {
        self.codec(codec)
            .decompress
            .record(bytes_in, bytes_out, cycles);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_software_fallback(&self) {
        self.software_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_credit_reject(&self) {
        self.rejects_credit.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_depth_reject(&self) {
        self.rejects_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fault_reject(&self) {
        self.rejects_fault.fetch_add(1, Ordering::Relaxed);
    }

    /// DEFLATE-engine traffic (gzip/zlib/raw framings).
    pub fn deflate(&self) -> &CodecStats {
        &self.deflate
    }

    /// 842-engine traffic.
    pub fn p842(&self) -> &CodecStats {
        &self.p842
    }

    /// Whole-attempt retries the recovery protocol performed on this
    /// handle (CSB errors, timeouts, queue overflows, corrupted output).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Requests on this handle that degraded to the software path.
    pub fn software_fallbacks(&self) -> u64 {
        self.software_fallbacks.load(Ordering::Relaxed)
    }

    /// Submissions rejected because a tenant's receive window was out of
    /// credits (per-tenant admission limit, service path).
    pub fn credit_rejects(&self) -> u64 {
        self.rejects_credit.load(Ordering::Relaxed)
    }

    /// Submissions rejected because the bounded engine queue was at depth
    /// (the service's depth limit, an async session's `try_submit`
    /// included).
    pub fn depth_rejects(&self) -> u64 {
        self.rejects_depth.load(Ordering::Relaxed)
    }

    /// Submission attempts bounced by an injected/observed accelerator
    /// fault (paste returned busy / CSB queue overflow) before recovery.
    pub fn fault_rejects(&self) -> u64 {
        self.rejects_fault.load(Ordering::Relaxed)
    }

    /// Compression requests served (all codecs).
    pub fn compress_requests(&self) -> u64 {
        self.deflate.compress.requests() + self.p842.compress.requests()
    }

    /// Decompression requests served (all codecs).
    pub fn decompress_requests(&self) -> u64 {
        self.deflate.decompress.requests() + self.p842.decompress.requests()
    }

    /// Total source bytes received (all codecs, both directions).
    pub fn bytes_in(&self) -> u64 {
        self.deflate.compress.bytes_in()
            + self.deflate.decompress.bytes_in()
            + self.p842.compress.bytes_in()
            + self.p842.decompress.bytes_in()
    }

    /// Total bytes produced (all codecs, both directions).
    pub fn bytes_out(&self) -> u64 {
        self.deflate.compress.bytes_out()
            + self.deflate.decompress.bytes_out()
            + self.p842.compress.bytes_out()
            + self.p842.decompress.bytes_out()
    }

    /// Total modeled engine cycles consumed (all codecs).
    pub fn engine_cycles(&self) -> u64 {
        self.deflate.compress.engine_cycles()
            + self.deflate.decompress.engine_cycles()
            + self.p842.compress.engine_cycles()
            + self.p842.decompress.engine_cycles()
    }

    /// Notes the recovery-counter movement since `mark` into a flight
    /// recorder at `at_cycles`, then advances the watermark. Flight
    /// notes are deltas, not levels, so callers (servers, the examples'
    /// observability loops) call this periodically and the black box
    /// shows *when* retries and fallbacks clustered — the fault-storm
    /// shape, not just its total.
    pub fn note_recovery(
        &self,
        flight: &nx_telemetry::FlightRecorder,
        at_cycles: u64,
        mark: &mut RecoveryWatermark,
    ) {
        let now = RecoveryWatermark {
            retries: self.retries(),
            fallbacks: self.software_fallbacks(),
            fault_rejects: self.fault_rejects(),
        };
        for (name, cur, prev) in [
            ("nx_retries_total", now.retries, mark.retries),
            ("nx_software_fallbacks_total", now.fallbacks, mark.fallbacks),
            (
                "nx_fault_rejects_total",
                now.fault_rejects,
                mark.fault_rejects,
            ),
        ] {
            let delta = cur.saturating_sub(prev);
            if delta > 0 {
                let id = flight.counter_id(name);
                flight.note(at_cycles, id, delta);
            }
        }
        *mark = now;
    }
}

/// A watermark of [`NxStats`]' recovery counters: the last levels
/// [`NxStats::note_recovery`] flushed to a flight recorder. Held by the
/// caller so the stats object itself stays write-only on the hot path.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryWatermark {
    retries: u64,
    fallbacks: u64,
    fault_rejects: u64,
}

impl MetricSource for NxStats {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        for (codec, stats) in [("deflate", &self.deflate), ("842", &self.p842)] {
            for (dir, d) in [
                ("compress", &stats.compress),
                ("decompress", &stats.decompress),
            ] {
                let label = format!("{{format=\"{codec}\",dir=\"{dir}\"}}");
                out.push((
                    format!("nx_requests_total{label}"),
                    MetricValue::Counter(d.requests()),
                ));
                out.push((
                    format!("nx_bytes_in_total{label}"),
                    MetricValue::Counter(d.bytes_in()),
                ));
                out.push((
                    format!("nx_bytes_out_total{label}"),
                    MetricValue::Counter(d.bytes_out()),
                ));
                out.push((
                    format!("nx_engine_cycles_total{label}"),
                    MetricValue::Counter(d.engine_cycles()),
                ));
            }
        }
        out.push((
            "nx_retries_total".to_string(),
            MetricValue::Counter(self.retries()),
        ));
        out.push((
            "nx_software_fallbacks_total".to_string(),
            MetricValue::Counter(self.software_fallbacks()),
        ));
        for (cause, v) in [
            ("credit", self.credit_rejects()),
            ("depth", self.depth_rejects()),
            ("fault", self.fault_rejects()),
        ] {
            out.push((
                format!("nx_rejects_total{{cause=\"{cause}\"}}"),
                MetricValue::Counter(v),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_independently() {
        let s = NxStats::new();
        s.record_compress(Codec::Deflate, 100, 40, 25);
        s.record_compress(Codec::Deflate, 100, 30, 25);
        s.record_decompress(Codec::Deflate, 70, 200, 10);
        assert_eq!(s.compress_requests(), 2);
        assert_eq!(s.decompress_requests(), 1);
        assert_eq!(s.bytes_in(), 270);
        assert_eq!(s.bytes_out(), 270);
        assert_eq!(s.engine_cycles(), 60);
    }

    #[test]
    fn codecs_are_split() {
        let s = NxStats::new();
        s.record_compress(Codec::Deflate, 1000, 400, 50);
        s.record_compress(Codec::P842, 500, 300, 70);
        s.record_decompress(Codec::P842, 300, 500, 40);
        // Per-codec views see only their own traffic...
        assert_eq!(s.deflate().compress().requests(), 1);
        assert_eq!(s.deflate().compress().bytes_in(), 1000);
        assert_eq!(s.deflate().decompress().requests(), 0);
        assert_eq!(s.p842().compress().requests(), 1);
        assert_eq!(s.p842().compress().engine_cycles(), 70);
        assert_eq!(s.p842().decompress().bytes_out(), 500);
        // ...while the flat accessors aggregate across codecs.
        assert_eq!(s.compress_requests(), 2);
        assert_eq!(s.engine_cycles(), 160);
    }

    #[test]
    fn recovery_counters_record() {
        let s = NxStats::new();
        s.record_retry();
        s.record_retry();
        s.record_software_fallback();
        assert_eq!(s.retries(), 2);
        assert_eq!(s.software_fallbacks(), 1);
    }

    #[test]
    fn metric_source_emits_split_counters() {
        let s = NxStats::new();
        s.record_compress(Codec::P842, 64, 32, 9);
        s.record_retry();
        let mut out = Vec::new();
        s.collect(&mut out);
        assert!(out.contains(&(
            "nx_requests_total{format=\"842\",dir=\"compress\"}".to_string(),
            MetricValue::Counter(1)
        )));
        assert!(out.contains(&(
            "nx_engine_cycles_total{format=\"842\",dir=\"compress\"}".to_string(),
            MetricValue::Counter(9)
        )));
        assert!(out.contains(&("nx_retries_total".to_string(), MetricValue::Counter(1))));
        // 4 counters × 2 codecs × 2 directions + retries + fallbacks
        // + 3 reject causes.
        assert_eq!(out.len(), 21);
    }

    #[test]
    fn reject_counters_are_attributed_by_cause() {
        let s = NxStats::new();
        s.record_credit_reject();
        s.record_credit_reject();
        s.record_depth_reject();
        s.record_fault_reject();
        assert_eq!(s.credit_rejects(), 2);
        assert_eq!(s.depth_rejects(), 1);
        assert_eq!(s.fault_rejects(), 1);
        let mut out = Vec::new();
        s.collect(&mut out);
        assert!(out.contains(&(
            "nx_rejects_total{cause=\"credit\"}".to_string(),
            MetricValue::Counter(2)
        )));
        assert!(out.contains(&(
            "nx_rejects_total{cause=\"depth\"}".to_string(),
            MetricValue::Counter(1)
        )));
        assert!(out.contains(&(
            "nx_rejects_total{cause=\"fault\"}".to_string(),
            MetricValue::Counter(1)
        )));
    }

    #[test]
    fn stats_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<NxStats>();
    }

    #[test]
    fn note_recovery_flushes_deltas_and_advances_the_watermark() {
        let s = NxStats::new();
        let flight = nx_telemetry::FlightRecorder::new();
        let mut mark = RecoveryWatermark::default();

        // Nothing moved yet: no notes, quiet dump.
        s.note_recovery(&flight, 100, &mut mark);
        assert!(flight.dump("t", 100).contains("\"counters\":[]"));

        s.record_retry();
        s.record_retry();
        s.record_software_fallback();
        s.note_recovery(&flight, 500, &mut mark);
        let dump = flight.dump("t", 500);
        assert!(dump.contains("\"name\":\"nx_retries_total\",\"delta\":2"));
        assert!(dump.contains("\"name\":\"nx_software_fallbacks_total\",\"delta\":1"));
        assert!(!dump.contains("nx_fault_rejects_total"));

        // The watermark advanced: only movement since the last call is
        // noted, so a second retry shows as a delta of 1, not 3.
        s.record_retry();
        s.note_recovery(&flight, 900, &mut mark);
        assert!(flight
            .dump("t", 900)
            .contains("{\"at\":900,\"name\":\"nx_retries_total\",\"delta\":1}"));
    }
}
