//! Asynchronous job sessions.
//!
//! POWER9 software pastes CRBs into a credited VAS window and continues
//! working, collecting CSBs later. [`AsyncSession`] is that usage model
//! over the one request queue there is: a private [`NxService`] holding a
//! single window, `"async"`, with coalescing off, so jobs are served one
//! per engine submission in FIFO order. Each submission returns a
//! [`JobHandle`] whose [`wait`](JobHandle::wait) delivers the result.

use crate::framing::Format;
use crate::scratch::BufferPool;
use crate::service::{
    NxService, QosClass, ServiceConfig, ServiceError, TenantHandle, TenantSpec, Ticket,
};
use crate::{CompressOptions, Compressed, Error, Nx, Result};
use std::sync::Arc;
use std::time::Duration;

/// A queued-submission session: one window on a service of its own.
///
/// With a telemetry registry on the handle, the window's counters export
/// as the `nx-service` source, which the registry keeps one of: the
/// service or session opened last is the one exported. Dropping the
/// session shuts its engine down after draining queued jobs.
#[derive(Debug)]
pub struct AsyncSession {
    window: TenantHandle,
    service: NxService,
    pool: Arc<BufferPool>,
}

/// A pending job's completion handle.
#[derive(Debug)]
pub struct JobHandle {
    ticket: Ticket,
}

/// The facade error for a service outcome. The window's credits never
/// run out, so a rejection is the depth bound.
fn session_error(e: ServiceError) -> Error {
    match e {
        ServiceError::Engine(e) => e,
        ServiceError::NoCredit | ServiceError::QueueFull => Error::QueueOverflow,
        ServiceError::Closed => Error::EngineClosed,
    }
}

impl JobHandle {
    /// Blocks until the engine finishes this job.
    ///
    /// # Errors
    ///
    /// [`Error::EngineClosed`] if the engine stopped before completing it.
    pub fn wait(self) -> Result<Compressed> {
        self.ticket
            .wait()
            .map(|served| served.compressed)
            .map_err(session_error)
    }

    /// Non-blocking check; returns the handle back if still pending.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait), once complete.
    pub fn try_wait(self) -> std::result::Result<Result<Compressed>, JobHandle> {
        self.wait_timeout(Duration::ZERO)
    }

    /// Blocks at most `timeout` for the engine; returns the handle back
    /// if the job is still pending — the caller decides whether a missed
    /// deadline means retry, fallback, or giving up.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait), once complete.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> std::result::Result<Result<Compressed>, JobHandle> {
        match self.ticket.wait_timeout(timeout) {
            Ok(r) => Ok(r.map(|served| served.compressed).map_err(session_error)),
            Err(ticket) => Err(JobHandle { ticket }),
        }
    }
}

impl AsyncSession {
    /// Opens the session's service and its one window, whose credits
    /// never bind: only `engine_depth` (undispatched jobs) rejects.
    pub(crate) fn open(nx: &Nx, engine_depth: usize) -> Self {
        let service = nx.service(ServiceConfig {
            engine_depth,
            coalesce_limit: 0,
            ..ServiceConfig::default()
        });
        let spec = TenantSpec::new("async", QosClass::Throughput, u32::MAX);
        Self {
            window: service.open_window(spec),
            service,
            pool: Arc::clone(nx.buffer_pool()),
        }
    }

    /// The session's receive window: its
    /// [`TenantStats`](crate::service::TenantStats) and credits.
    pub fn window(&self) -> &TenantHandle {
        &self.window
    }

    /// Takes a recycled input buffer from the handle's pool: the engine
    /// releases each job's input buffer back to the pool once compressed,
    /// so a fill-submit-refill loop stops allocating input storage after
    /// the queue depth's worth of warmup submissions.
    pub fn buffer(&self) -> Vec<u8> {
        self.pool.acquire()
    }

    /// Queues a compression job; returns once it is queued, waiting for
    /// room when a bounded queue is full.
    ///
    /// # Errors
    ///
    /// [`Error::EngineClosed`] if the session's engine has shut down.
    pub fn submit(&self, data: Vec<u8>, format: Format) -> Result<JobHandle> {
        self.submit_with(data, format, CompressOptions::default())
    }

    /// Queues a compression job with explicit [`CompressOptions`]: jobs at
    /// default options run on the modeled accelerator, any other ladder
    /// rung runs the software encoder at that level on the engine thread.
    ///
    /// # Errors
    ///
    /// [`Error::EngineClosed`] if the session's engine has shut down.
    pub fn submit_with(
        &self,
        data: Vec<u8>,
        format: Format,
        opts: CompressOptions,
    ) -> Result<JobHandle> {
        let ticket = self.window.enqueue(data, format, opts, true);
        ticket
            .map(|ticket| JobHandle { ticket })
            .map_err(session_error)
    }

    /// Queues a compression job without blocking: a session built with a
    /// bounded queue rejects the submission when the queue is full, like
    /// a paste into a full VAS window. The rejection is counted as a
    /// depth reject in [`NxStats`](crate::NxStats).
    ///
    /// # Errors
    ///
    /// [`Error::QueueOverflow`] when the queue is at capacity;
    /// [`Error::EngineClosed`] if the session's engine has shut down.
    pub fn try_submit(&self, data: Vec<u8>, format: Format) -> Result<JobHandle> {
        let ticket = self.window.submit(data, format);
        ticket
            .map(|ticket| JobHandle { ticket })
            .map_err(session_error)
    }

    /// Shuts the engine down after draining queued jobs, waiting for the
    /// thread to exit. Preferred over `drop` when callers want to observe
    /// completion.
    pub fn close(self) {
        self.service.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nx;

    #[test]
    fn async_jobs_complete_in_order() {
        let nx = Nx::power9();
        let session = nx.async_session();
        let inputs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 20_000]).collect();
        let handles: Vec<JobHandle> = inputs
            .iter()
            .map(|d| session.submit(d.clone(), Format::Gzip).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let c = h.wait().unwrap();
            let d = nx.decompress(&c.bytes, Format::Gzip).unwrap();
            assert_eq!(d.bytes, inputs[i]);
        }
        session.close();
        assert_eq!(nx.stats().compress_requests(), 8);
    }

    #[test]
    fn try_wait_eventually_succeeds() {
        let nx = Nx::z15();
        let session = nx.async_session();
        let mut handle = session.submit(vec![7u8; 100_000], Format::Zlib).unwrap();
        let result = loop {
            match handle.try_wait() {
                Ok(r) => break r,
                Err(h) => {
                    handle = h;
                    std::thread::yield_now();
                }
            }
        };
        assert!(result.unwrap().bytes.len() < 100_000);
    }

    #[test]
    fn submit_after_close_fails() {
        let nx = Nx::power9();
        let mut session = nx.async_session();
        let admitted = session.submit(vec![4u8; 50_000], Format::Gzip).unwrap();
        // Closing drains the queue and joins the engine thread, so every
        // later submission finds the service closed.
        session.service.close_inner();
        let r = session.submit(vec![1, 2, 3], Format::RawDeflate);
        assert!(matches!(r, Err(Error::EngineClosed)));
        let r = session.try_submit(vec![1, 2, 3], Format::RawDeflate);
        assert!(matches!(r, Err(Error::EngineClosed)));
        // A job admitted before the close still completes.
        let c = admitted.wait().unwrap();
        assert_eq!(
            nx.decompress(&c.bytes, Format::Gzip).unwrap().bytes,
            [4u8; 50_000]
        );
    }

    #[test]
    fn bounded_queue_overflows_with_typed_error() {
        let nx = Nx::power9();
        let session = nx.async_session_bounded(2);
        // Big jobs keep the engine busy long enough for the queue to
        // fill; keep trying until try_submit sees a full queue.
        let mut handles = Vec::new();
        let mut overflowed = false;
        for _ in 0..64 {
            match session.try_submit(vec![0xA5u8; 512 * 1024], Format::Gzip) {
                Ok(h) => handles.push(h),
                Err(Error::QueueOverflow) => {
                    overflowed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(overflowed, "queue of depth 2 never filled");
        // Regression (issue 7 satellite): the rejection must be
        // attributable as a depth-reject in NxStats, not just a telemetry
        // counter.
        assert!(nx.stats().depth_rejects() >= 1);
        assert_eq!(nx.stats().credit_rejects(), 0);
        // Saturation is not loss: everything accepted still completes.
        for h in handles {
            assert!(h.wait().is_ok());
        }
        // Once drained there is room again.
        assert!(session.try_submit(vec![1u8; 100], Format::Gzip).is_ok());
        session.close();
    }

    #[test]
    fn wait_timeout_returns_handle_then_result() {
        let nx = Nx::power9();
        let session = nx.async_session();
        let handle = session
            .submit(vec![3u8; 2 * 1024 * 1024], Format::Zlib)
            .unwrap();
        // A zero timeout on a freshly submitted large job usually misses;
        // either way the protocol must hold: timeout hands the handle
        // back, completion delivers the job exactly once.
        let mut pending = match handle.wait_timeout(Duration::from_micros(1)) {
            Err(h) => h,
            Ok(r) => {
                assert!(r.is_ok());
                return;
            }
        };
        let done = loop {
            match pending.wait_timeout(Duration::from_millis(100)) {
                Ok(r) => break r,
                Err(h) => pending = h,
            }
        };
        assert!(done.unwrap().bytes.len() < 2 * 1024 * 1024);
    }

    #[test]
    fn blocking_submit_applies_backpressure_not_loss() {
        let nx = Nx::z15();
        let session = nx.async_session_bounded(1);
        let inputs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 64 * 1024]).collect();
        let handles: Vec<JobHandle> = inputs
            .iter()
            .map(|d| session.submit(d.clone(), Format::Gzip).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let c = h.wait().unwrap();
            assert_eq!(
                nx.decompress(&c.bytes, Format::Gzip).unwrap().bytes,
                inputs[i]
            );
        }
        // Backpressure waits for room: no submission was rejected and
        // each was admitted on its first and only attempt.
        assert_eq!(nx.stats().depth_rejects(), 0);
        let tenant = session.window.stats();
        assert_eq!(tenant.submitted(), 6);
        assert_eq!(tenant.admitted(), 6);
    }

    #[test]
    fn input_buffers_recycle_through_the_pool() {
        let nx = Nx::power9();
        let session = nx.async_session();
        for i in 0..4u8 {
            let mut buf = session.buffer();
            buf.resize(50_000, i);
            session.submit(buf, Format::Gzip).unwrap().wait().unwrap();
        }
        session.close();
        // The engine releases each job's input before replying, so every
        // acquisition after the first hits the shelf.
        assert!(nx.buffer_pool().hits() >= 3);
        assert!(nx.buffer_pool().recycled() >= 3);
    }

    #[test]
    fn submit_with_runs_the_level_ladder() {
        let nx = Nx::power9();
        let session = nx.async_session();
        let data = b"ladder ladder ladder ladder ladder".repeat(500);
        let mut sizes = Vec::new();
        for rung in nx_deflate::Level::all() {
            let opts = crate::CompressOptions::from_level(rung);
            let c = session
                .submit_with(data.clone(), Format::Gzip, opts)
                .unwrap()
                .wait()
                .unwrap();
            let back = nx.decompress(&c.bytes, Format::Gzip).unwrap();
            assert_eq!(back.bytes, data, "level {rung} did not roundtrip");
            // Non-default rungs run in software: zero engine cycles.
            if !opts.is_default() {
                assert_eq!(c.report.cycles, 0, "level {rung} hit the engine");
                assert_eq!(c.report.config_name, "software-ladder");
            }
            sizes.push(c.bytes.len());
        }
        // Highly redundant input: every rung must still compress well.
        assert!(sizes.iter().all(|&s| s < data.len() / 4));
        session.close();
    }

    #[test]
    fn drop_drains_cleanly() {
        let nx = Nx::power9();
        {
            let session = nx.async_session();
            let _h = session.submit(vec![9u8; 50_000], Format::Gzip).unwrap();
            // Dropped with a job still possibly in flight.
        }
        // No panic, no deadlock.
    }
}
