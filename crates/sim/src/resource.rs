//! Queueing resources: multi-server FIFO stations and serialized links.
//!
//! These are *analytic-FIFO* resources: given an arrival time and a service
//! demand, they return the start/finish times directly, maintaining
//! internal server-availability state. This is exact for FIFO disciplines
//! and keeps models free of callback plumbing.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A `k`-server FIFO queueing station (e.g. the engines of one NX unit, or
/// the cores running software compression).
#[derive(Debug, Clone)]
pub struct FifoStation {
    /// Next-free time of each server (min-heap).
    free_at: BinaryHeap<Reverse<SimTime>>,
    busy: SimTime,
    completed: u64,
}

impl FifoStation {
    /// Creates a station with `servers` identical servers, all free at
    /// time zero.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(SimTime::ZERO));
        }
        Self {
            free_at,
            busy: SimTime::ZERO,
            completed: 0,
        }
    }

    /// Submits a job arriving at `arrival` with service demand `service`;
    /// returns `(start, finish)` under FIFO.
    pub fn submit(&mut self, arrival: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let Reverse(free) = self.free_at.pop().expect("station has servers");
        let start = free.max(arrival);
        let finish = start + service;
        self.free_at.push(Reverse(finish));
        self.busy += service;
        self.completed += 1;
        (start, finish)
    }

    /// Total service time dispensed (for utilization accounting).
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Jobs completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Utilization over the horizon `[0, end)`.
    pub fn utilization(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (end.as_secs_f64() * self.servers() as f64)
    }
}

/// A serialized transfer link of fixed bandwidth (e.g. a DMA read channel
/// or a memory-controller port): transfers queue FIFO and occupy the link
/// for `bytes / bandwidth`.
#[derive(Debug, Clone)]
pub struct SerialLink {
    bytes_per_sec: f64,
    busy_until: SimTime,
    transferred: u64,
}

impl SerialLink {
    /// A link moving `bytes_per_sec` bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive and finite.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0 && bytes_per_sec.is_finite());
        Self {
            bytes_per_sec,
            busy_until: SimTime::ZERO,
            transferred: 0,
        }
    }

    /// Queues a transfer of `bytes` arriving at `arrival`; returns
    /// `(start, finish)`.
    pub fn transfer(&mut self, arrival: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let start = self.busy_until.max(arrival);
        let dur = SimTime::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let finish = start + dur;
        self.busy_until = finish;
        self.transferred += bytes;
        (start, finish)
    }

    /// Total bytes moved.
    pub fn transferred(&self) -> u64 {
        self.transferred
    }

    /// The time the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Configured bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn single_server_fifo_queues() {
        let mut s = FifoStation::new(1);
        assert_eq!(s.submit(ns(0), ns(10)), (ns(0), ns(10)));
        // Arrives while busy: waits.
        assert_eq!(s.submit(ns(5), ns(10)), (ns(10), ns(20)));
        // Arrives after idle gap: starts immediately.
        assert_eq!(s.submit(ns(100), ns(1)), (ns(100), ns(101)));
        assert_eq!(s.completed(), 3);
        assert_eq!(s.busy_time(), ns(21));
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let mut s = FifoStation::new(2);
        assert_eq!(s.submit(ns(0), ns(10)), (ns(0), ns(10)));
        assert_eq!(s.submit(ns(0), ns(10)), (ns(0), ns(10)));
        // Third job waits for the earliest finisher.
        assert_eq!(s.submit(ns(0), ns(5)), (ns(10), ns(15)));
        assert_eq!(s.servers(), 2);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = FifoStation::new(2);
        s.submit(ns(0), ns(10));
        s.submit(ns(0), ns(10));
        // 20 ns busy across 2 servers over 20 ns → 50%.
        let u = s.utilization(ns(20));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn link_serializes_transfers() {
        let mut l = SerialLink::new(1e9); // 1 GB/s → 1 byte/ns
        assert_eq!(l.transfer(ns(0), 100), (ns(0), ns(100)));
        assert_eq!(l.transfer(ns(50), 100), (ns(100), ns(200)));
        assert_eq!(l.transferred(), 200);
    }

    #[test]
    fn link_duration_matches_bandwidth() {
        let mut l = SerialLink::new(16e9); // 16 GB/s
        let (s, f) = l.transfer(SimTime::ZERO, 16_000_000_000);
        assert_eq!(s, SimTime::ZERO);
        assert!((f.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = FifoStation::new(0);
    }
}
