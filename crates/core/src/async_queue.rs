//! Asynchronous job sessions.
//!
//! POWER9 software submits CRBs and continues working, collecting CSBs
//! later. [`AsyncSession`] reproduces that usage model in API form: jobs
//! go over a channel to a dedicated engine thread (one engine = one NX
//! unit, jobs served FIFO) and each submission returns a [`JobHandle`]
//! whose [`wait`](JobHandle::wait) delivers the result.

use crate::exec::Executor;
use crate::framing::Format;
use crate::scratch::BufferPool;
use crate::stats::NxStats;
use crate::{CompressOptions, Compressed, Error, Result, Trace, SUBMIT_CYCLES};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use nx_telemetry::{Counter, Gauge, Stage, TelemetrySink};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Queue-side telemetry: an instantaneous depth gauge, a depth
/// histogram sampled at each submission, and an overflow counter —
/// the VAS window-credit accounting the paper describes, in metric
/// form. All no-ops when the sink is disabled.
#[derive(Debug, Clone)]
struct QueueTelemetry {
    sink: TelemetrySink,
    depth: Option<Gauge>,
    overflows: Option<Counter>,
}

impl QueueTelemetry {
    fn new(sink: TelemetrySink) -> Self {
        let depth = sink.registry().map(|r| r.gauge("nx_async_queue_depth"));
        let overflows = sink
            .registry()
            .map(|r| r.counter("nx_async_queue_overflows_total"));
        Self {
            sink,
            depth,
            overflows,
        }
    }

    fn on_enqueue(&self) {
        if let Some(g) = &self.depth {
            let now = g.add(1);
            self.sink.record_queue_depth(now.max(0) as u64);
        }
    }

    fn on_dequeue(&self) -> i64 {
        match &self.depth {
            Some(g) => g.add(-1).max(0),
            None => 0,
        }
    }

    fn on_overflow(&self) {
        if let Some(c) = &self.overflows {
            c.inc();
        }
    }
}

enum Cmd {
    Compress {
        data: Vec<u8>,
        format: Format,
        opts: CompressOptions,
        reply: Sender<Result<Compressed>>,
    },
    Shutdown,
}

/// A queued-submission session backed by one engine thread.
///
/// Dropping the session shuts the engine down after draining queued jobs.
#[derive(Debug)]
pub struct AsyncSession {
    tx: Sender<Cmd>,
    worker: Option<JoinHandle<()>>,
    telemetry: QueueTelemetry,
    pool: Arc<BufferPool>,
    stats: Arc<NxStats>,
}

/// A pending job's completion handle.
#[derive(Debug)]
pub struct JobHandle {
    rx: Receiver<Result<Compressed>>,
}

impl JobHandle {
    /// Blocks until the engine finishes this job.
    ///
    /// # Errors
    ///
    /// [`Error::EngineClosed`] if the engine stopped before completing it.
    pub fn wait(self) -> Result<Compressed> {
        self.rx.recv().map_err(|_| Error::EngineClosed)?
    }

    /// Non-blocking check; returns the handle back if still pending.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait), once complete.
    pub fn try_wait(self) -> std::result::Result<Result<Compressed>, JobHandle> {
        match self.rx.try_recv() {
            Ok(r) => Ok(r),
            Err(crossbeam::channel::TryRecvError::Empty) => Err(self),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Ok(Err(Error::EngineClosed)),
        }
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
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(self),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Ok(Err(Error::EngineClosed)),
        }
    }
}

impl AsyncSession {
    /// Spawns the engine thread, which owns `exec` for its lifetime: a
    /// queued job runs the same executor — routing, fault recovery, span
    /// grammar, stats record — as a synchronous request. With
    /// `depth = Some(n)` the queue holds at most `n` outstanding commands
    /// (the VAS window credit limit in API form):
    /// [`try_submit`](Self::try_submit) surfaces a full queue as
    /// [`Error::QueueOverflow`], blocking [`submit`](Self::submit) waits
    /// for a slot instead.
    pub(crate) fn spawn(mut exec: Executor, pool: Arc<BufferPool>, depth: Option<usize>) -> Self {
        let (tx, rx) = match depth {
            Some(depth) => bounded::<Cmd>(depth.max(1)),
            None => unbounded::<Cmd>(),
        };
        let telemetry = QueueTelemetry::new(exec.env().telemetry.clone());
        let stats = Arc::clone(&exec.env().stats);
        let worker_tel = telemetry.clone();
        let worker_pool = Arc::clone(&pool);
        let worker = std::thread::Builder::new()
            .name("nx-engine".into())
            .spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        Cmd::Compress {
                            data,
                            format,
                            opts,
                            reply,
                        } => {
                            // The job's timeline opens with its queue
                            // wait, modeled from the depth ahead of it
                            // (each queued job costs one service slot);
                            // the executor's spans continue from there.
                            let depth = worker_tel.on_dequeue() as u64;
                            let mut trace = Trace::begin(&worker_tel.sink);
                            trace.span(Stage::QueueWait, depth * SUBMIT_CYCLES, 0, depth);
                            let mut bytes = Vec::new();
                            let result = exec
                                .compress_into(
                                    &data,
                                    format,
                                    opts,
                                    Some(&trace.context()),
                                    &mut bytes,
                                )
                                .map(|report| Compressed { bytes, report });
                            // Recycle the job's input buffer: the next
                            // submitter acquiring via `buffer()` reuses
                            // its capacity instead of allocating.
                            worker_pool.release(data);
                            // Receiver may have been dropped; that's fine.
                            let _ = reply.send(result);
                        }
                        Cmd::Shutdown => break,
                    }
                }
            })
            .expect("spawn engine thread");
        Self {
            tx,
            worker: Some(worker),
            telemetry,
            pool,
            stats,
        }
    }

    /// Takes a recycled input buffer from the session's pool: jobs release
    /// their input buffers back to the pool once compressed, so a
    /// fill-submit-refill loop stops allocating input storage after the
    /// queue depth's worth of warmup submissions.
    pub fn buffer(&self) -> Vec<u8> {
        self.pool.acquire()
    }

    /// Queues a compression job; returns immediately.
    ///
    /// # Errors
    ///
    /// [`Error::EngineClosed`] if the engine thread has exited.
    pub fn submit(&self, data: Vec<u8>, format: Format) -> Result<JobHandle> {
        self.submit_with(data, format, CompressOptions::default())
    }

    /// Queues a compression job with explicit [`CompressOptions`]: jobs at
    /// default options run on the modeled accelerator, any other ladder
    /// rung runs the software encoder at that level on the engine thread.
    ///
    /// # Errors
    ///
    /// [`Error::EngineClosed`] if the engine thread has exited.
    pub fn submit_with(
        &self,
        data: Vec<u8>,
        format: Format,
        opts: CompressOptions,
    ) -> Result<JobHandle> {
        let (reply, rx) = bounded(1);
        self.tx
            .send(Cmd::Compress {
                data,
                format,
                opts,
                reply,
            })
            .map_err(|_| Error::EngineClosed)?;
        self.telemetry.on_enqueue();
        Ok(JobHandle { rx })
    }

    /// Queues a compression job without blocking: a session built with a
    /// bounded queue rejects the submission when no credit is free, like
    /// a paste into a full VAS window.
    ///
    /// # Errors
    ///
    /// [`Error::QueueOverflow`] when the queue is at capacity;
    /// [`Error::EngineClosed`] if the engine thread has exited.
    pub fn try_submit(&self, data: Vec<u8>, format: Format) -> Result<JobHandle> {
        let (reply, rx) = bounded(1);
        match self.tx.try_send(Cmd::Compress {
            data,
            format,
            opts: CompressOptions::default(),
            reply,
        }) {
            Ok(()) => {
                self.telemetry.on_enqueue();
                Ok(JobHandle { rx })
            }
            Err(TrySendError::Full(_)) => {
                self.telemetry.on_overflow();
                // Attribute the rejection: a full bounded queue is a
                // depth-reject, distinguishable in NxStats from credit
                // rejects (service admission) and injected fault rejects.
                self.stats.record_depth_reject();
                Err(Error::QueueOverflow)
            }
            Err(TrySendError::Disconnected(_)) => Err(Error::EngineClosed),
        }
    }

    /// Shuts the engine down after draining queued jobs, waiting for the
    /// thread to exit. Preferred over `drop` when callers want to observe
    /// completion.
    pub fn close(mut self) {
        self.close_inner();
    }

    fn close_inner(&mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AsyncSession {
    fn drop(&mut self) {
        self.close_inner();
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
        let session = nx.async_session();
        let _ = session.tx.send(Cmd::Shutdown);
        // Wait for the worker to exit, then submissions fail.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let r = session.submit(vec![1, 2, 3], Format::RawDeflate);
        if let Ok(h) = r {
            // Raced the shutdown: the reply channel must then disconnect.
            assert!(matches!(h.wait(), Err(Error::EngineClosed) | Ok(_)));
        }
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
