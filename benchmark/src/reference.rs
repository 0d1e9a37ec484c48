//! How fast the host is right now, told by a fixed piece of work.
//!
//! The hosts this benchmark runs on share their cores: the same code runs
//! 25-50 % slower for stretches of a fraction of a second to minutes,
//! whenever a neighbour is busy. A median over a 20 s run does not average
//! that away, so the reference kernel — a hash-table match finder over a
//! fixed 128 KiB buffer, code and data that live in the benchmark and
//! change with no commit of the program — runs beside everything that is
//! timed (at most [`FRESH`] before it, and again after anything longer),
//! and a time is reported at the speed of a host on which the kernel takes
//! [`REFERENCE_NS`]: `time * REFERENCE_NS / kernel time`. Both sides of a
//! comparison are scaled by the same unchanging work, so a change to the
//! program moves a scaled time by the share it moves the raw one.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds the reference kernel takes on the nominal host (the
/// builder's 2.1 GHz Xeon guest when its neighbours are quiet).
pub const REFERENCE_NS: f64 = 500_000.0;

/// How old a speed measurement may be when a timed call starts, and how
/// long a call may run before the speed is measured again after it.
pub const FRESH: Duration = Duration::from_millis(20);

const BUF_BYTES: usize = 128 << 10;
const TABLE_BITS: u32 = 12;
const MAX_MATCH: usize = 32;

/// The reference kernel with its buffer and table, and the speeds it
/// measured.
#[derive(Debug)]
pub struct HostSpeed {
    buf: Vec<u8>,
    table: Vec<u32>,
    /// Every speed measured, for the run's fingerprint; never empty.
    seen: Vec<f64>,
    /// When the last one was measured.
    measured: Instant,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// Builds the fixed buffer: words of 2-9 letters from a 16-letter
    /// alphabet, drawn by a xorshift generator with a constant seed.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut buf = Vec::with_capacity(BUF_BYTES + 16);
        while buf.len() < BUF_BYTES {
            let word = next();
            for k in 0..2 + (word >> 60) as usize / 2 {
                buf.push(b'a' + ((word >> (4 * k)) & 15) as u8);
            }
            buf.push(b' ');
        }
        buf.truncate(BUF_BYTES);
        let mut host = Self {
            buf,
            table: vec![0; 1 << TABLE_BITS],
            seen: Vec::new(),
            measured: Instant::now(),
        };
        // From its second pass on the kernel starts from the table its
        // last pass left, so every measured pass is the same work.
        host.kernel();
        host.measure();
        host
    }

    /// One pass of the kernel over the buffer; returns a digest of the
    /// matches found so the work cannot be optimised away.
    fn kernel(&mut self) -> u64 {
        let buf = &self.buf;
        let end = buf.len() - MAX_MATCH;
        let (mut acc, mut i) = (0u64, 0usize);
        while i < end {
            let word = u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
            let slot = (word.wrapping_mul(0x9E37_79B1) >> (32 - TABLE_BITS)) as usize;
            let candidate = self.table[slot] as usize;
            self.table[slot] = i as u32;
            let mut len = 0;
            if candidate < i {
                while len < MAX_MATCH && buf[candidate + len] == buf[i + len] {
                    len += 1;
                }
            }
            acc = acc.wrapping_mul(31).wrapping_add((len ^ slot) as u64);
            i += if len >= 4 { len } else { 1 };
        }
        acc
    }

    /// Runs the kernel once and returns the host's speed as a share of
    /// the nominal host's: below 1 while the host is slow.
    fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel());
        let speed = REFERENCE_NS / (t.elapsed().as_nanos() as f64).max(1.0);
        self.seen.push(speed);
        self.measured = Instant::now();
        speed
    }

    /// The host's speed measured at most [`FRESH`] ago: call it just
    /// before the first timestamp of a timed call.
    pub fn fresh(&mut self) -> f64 {
        if self.measured.elapsed() > FRESH {
            self.measure()
        } else {
            self.seen[self.seen.len() - 1]
        }
    }

    /// The speed to scale a call by that started at speed `before` and
    /// took `raw`: `before`, averaged with a new measurement if the call
    /// outlasted [`FRESH`]. Call it just after the last timestamp.
    pub fn around(&mut self, before: f64, raw: Duration) -> f64 {
        if raw > FRESH {
            (before + self.measure()) / 2.0
        } else {
            before
        }
    }

    /// Median of every speed measured so far.
    pub fn median_seen(&self) -> f64 {
        crate::stats::median(&self.seen)
    }
}

/// Times calls and files their seconds at the reference host's speed.
#[derive(Debug)]
pub struct Meter<'h> {
    host: &'h mut HostSpeed,
    /// Seconds each timed call took, in call order.
    pub times: Vec<f64>,
}

impl<'h> Meter<'h> {
    /// A meter with no times.
    pub fn new(host: &'h mut HostSpeed) -> Self {
        Self {
            host,
            times: Vec::new(),
        }
    }

    /// Runs `f` between two timestamps and files the seconds it took,
    /// scaled by the host's speed around it. The kernel never runs
    /// between the timestamps.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.host.fresh();
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed();
        let speed = self.host.around(before, raw);
        self.times.push(raw.as_secs_f64() * speed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work_on_a_fixed_buffer() {
        let (mut a, mut b) = (HostSpeed::new(), HostSpeed::new());
        assert_eq!(a.buf, b.buf);
        assert_eq!(a.buf.len(), BUF_BYTES);
        // Same buffer, same table state, same matches — pass after pass.
        let first = a.kernel();
        assert_eq!(first, b.kernel());
        assert_eq!(a.kernel(), first);
        assert_ne!(first, 0);
        assert!(a.measure() > 0.0);
        assert_eq!(b.median_seen(), b.seen[0]);
    }

    #[test]
    fn meter_scales_by_speeds_measured_outside_the_call() {
        let mut host = HostSpeed::new();
        let mut m = Meter::new(&mut host);
        assert_eq!(m.time(|| 7), 7);
        assert!(m.times[0] > 0.0 && m.times[0] < FRESH.as_secs_f64());
        // A call that outlasts FRESH is followed by a new measurement, and
        // is scaled by speeds that were measured, not by 1.
        let before = m.host.seen.len();
        m.time(|| std::thread::sleep(FRESH + FRESH / 2));
        assert!(m.host.seen.len() > before);
        let slowest = m.host.seen.iter().copied().fold(f64::INFINITY, f64::min);
        let fastest = m.host.seen.iter().copied().fold(0.0, f64::max);
        let raw_at_least = 1.5 * FRESH.as_secs_f64();
        assert!(m.times[1] >= raw_at_least * slowest);
        assert!(m.times[1] < 1.0 * fastest);
    }
}
