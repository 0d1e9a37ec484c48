//! Shared measuring machinery: interleaved timed passes scaled to the
//! reference host's speed, the attempted/failed tally and the output
//! checks that run outside the timed regions.

use crate::reference::{HostSpeed, Meter};
use crate::stats::{median, percentile};
use nx_core::{software, Format};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Timed passes (or rounds) every section runs at least, after its
/// discarded warm-up pass.
pub const MIN_PASSES: usize = 9;

/// Operations attempted and failed, across timed regions and checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations issued plus outputs checked.
    pub attempted: u64,
    /// Errors, rejections and mismatches among them.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` attempted operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Counts one check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("nxbench: FAILED check: {what}");
        }
    }
}

/// What one run of one workload accumulates.
#[derive(Debug)]
pub struct Run {
    /// Seconds to measure for (`--seconds`).
    pub seconds: f64,
    /// Threads in flight in the multi-threaded sections.
    pub threads: usize,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Digest of the generated inputs (same seed, same digest).
    pub inputs_digest: u64,
    /// Attempted/failed counts.
    pub tally: Tally,
    /// Metric values, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timed passes behind each section.
    pub samples: BTreeMap<&'static str, usize>,
    /// The reference kernel every host-clock time is scaled by.
    pub host: HostSpeed,
}

impl Run {
    /// A fresh run.
    pub fn new(seconds: f64, seed: u64) -> Self {
        Self {
            seconds,
            threads: crate::host::threads(),
            seed,
            inputs_digest: 0,
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            host: HostSpeed::new(),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Decimal megabytes per second.
pub fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// What one pass of a section did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Operations issued.
    pub ops: u64,
    /// Operations that failed or produced an unexpected output.
    pub bad: u64,
}

/// One pass over a section's requests: times each request on the meter,
/// in request order (the same number of requests every pass).
pub type Pass<'a> = Box<dyn FnMut(&mut Meter) -> Outcome + 'a>;

/// One timed section of a workload.
pub struct Section<'a> {
    /// Name the results are filed under.
    pub name: &'static str,
    /// Share of the run's time the section gets.
    pub weight: f64,
    /// One pass over the section's requests.
    pub pass: Pass<'a>,
}

impl<'a> Section<'a> {
    /// A section.
    pub fn new(
        name: &'static str,
        weight: f64,
        pass: impl FnMut(&mut Meter) -> Outcome + 'a,
    ) -> Self {
        Self {
            name,
            weight,
            pass: Box::new(pass),
        }
    }
}

/// What the timed passes of one section leave: one observation per pass,
/// in seconds at the reference host's speed.
///
/// A reported value is the **median pass** — the pass total, or the
/// percentile taken over the requests of one pass, at the middle of the
/// passes run. Nothing is stitched together from different passes, so a
/// change that stalls one request in a hundred shows in `p99` exactly as
/// often as it happens.
#[derive(Debug, Default)]
pub struct Timed {
    /// Requests timed in every pass.
    pub requests: usize,
    /// Seconds each timed pass spent inside its requests.
    pub pass_secs: Vec<f64>,
    /// Median request time of each pass, seconds.
    pub pass_p50: Vec<f64>,
    /// 99th-percentile request time of each pass, seconds.
    pub pass_p99: Vec<f64>,
}

impl Timed {
    /// Timed passes run.
    pub fn passes(&self) -> usize {
        self.pass_secs.len()
    }

    fn record(&mut self, times: &[f64]) {
        self.requests = times.len();
        self.pass_secs.push(times.iter().sum());
        self.pass_p50.push(percentile(times, 50.0));
        self.pass_p99.push(percentile(times, 99.0));
    }

    /// Seconds the median pass spent inside its requests.
    pub fn median_pass_secs(&self) -> f64 {
        median(&self.pass_secs)
    }

    /// The median across passes of each pass's percentiles, and the
    /// closed-loop rate of the median pass with one request in flight.
    pub fn latency(&self) -> RoundStats {
        RoundStats {
            p50_us: median(&self.pass_p50) * 1e6,
            p99_us: median(&self.pass_p99) * 1e6,
            req_per_s: self.requests as f64 / self.median_pass_secs(),
        }
    }
}

/// Runs every section once untimed (the discarded warm-up pass), then
/// interleaves timed passes — always the section furthest behind its
/// share of the time — until `seconds` are spent and every section has
/// at least [`MIN_PASSES`] passes.
///
/// Interleaving spreads every section's passes over the whole run, so a
/// stretch during which a neighbour slows the host costs every section a
/// few passes (which the median drops) instead of costing one section
/// all of its passes. Every request is timed on one [`Meter`], at the
/// reference host's speed.
pub fn run_interleaved(
    seconds: f64,
    sections: &mut [Section<'_>],
    tally: &mut Tally,
    host: &mut HostSpeed,
) -> BTreeMap<&'static str, Timed> {
    let mut timed: Vec<Timed> = sections.iter().map(|_| Timed::default()).collect();
    let mut spent = vec![0.0f64; sections.len()];
    let mut meter = Meter::new(host);
    for s in sections.iter_mut() {
        let o = (s.pass)(&mut meter);
        tally.add(o.ops, o.bad);
    }
    let start = Instant::now();
    loop {
        let open = start.elapsed().as_secs_f64() < seconds;
        let next = (0..sections.len())
            .filter(|&i| open || timed[i].passes() < MIN_PASSES)
            .min_by(|&a, &b| {
                let behind = |i: usize| spent[i] / sections[i].weight;
                behind(a).total_cmp(&behind(b))
            });
        let Some(i) = next else { break };
        meter.times.clear();
        let t = Instant::now();
        let o = (sections[i].pass)(&mut meter);
        spent[i] += t.elapsed().as_secs_f64();
        tally.add(o.ops, o.bad);
        timed[i].record(&meter.times);
    }
    sections.iter().map(|s| s.name).zip(timed).collect()
}

/// Latency of a section's median pass, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Median latency.
    pub p50_us: f64,
    /// 99th percentile latency.
    pub p99_us: f64,
    /// Requests per second (closed loop, one in flight).
    pub req_per_s: f64,
}

/// Decodes every compressed `output` in software and compares it with its
/// input, byte for byte. `dict_of(i)` supplies the preset dictionary of
/// stream `i` (empty for none).
pub fn check_roundtrips<'a>(
    tally: &mut Tally,
    what: &str,
    outputs: &[Vec<u8>],
    inputs: &[&[u8]],
    format: Format,
    dict_of: impl Fn(usize) -> &'a [u8],
) {
    tally.check(outputs.len() == inputs.len(), what);
    for (i, (out, input)) in outputs.iter().zip(inputs).enumerate() {
        let dict = dict_of(i);
        let back = if dict.is_empty() {
            software::decompress(out, format)
        } else {
            software::decompress_with_dict(out, format, dict)
        };
        tally.check(
            back.as_deref().is_ok_and(|b| b == *input),
            &format!("{what}: output {i} does not decode to its input"),
        );
    }
}

/// Pipes one gzip stream through `gzip -dc` and compares the result with
/// `original` — the external oracle. Skipped where `/usr/bin/gzip` does
/// not exist.
pub fn check_with_system_gzip(tally: &mut Tally, what: &str, gz: &[u8], original: &[u8]) {
    const GZIP: &str = "/usr/bin/gzip";
    if !std::path::Path::new(GZIP).exists() {
        return;
    }
    let decoded = (|| -> std::io::Result<Vec<u8>> {
        let mut child = Command::new(GZIP)
            .arg("-dc")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut out = Vec::with_capacity(original.len());
        // Feed from a second thread: gzip starts writing before it has
        // read everything, and both pipes are bounded.
        let fed = std::thread::scope(|s| {
            let feeder = s.spawn(move || {
                let r = stdin.write_all(gz);
                drop(stdin);
                r
            });
            let read = stdout.read_to_end(&mut out);
            let fed = feeder.join().expect("feeder thread does not panic");
            read.and(fed)
        });
        let status = child.wait()?;
        fed?;
        if !status.success() {
            return Err(std::io::Error::other("gzip -dc exited non-zero"));
        }
        Ok(out)
    })();
    tally.check(
        decoded.is_ok_and(|d| d == original),
        &format!("{what}: gzip -dc disagrees"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn interleaving_discards_warmup_honours_the_floor_and_follows_weights() {
        let (mut a, mut b) = (0u64, 0u64);
        let mut tally = Tally::default();
        let mut sections = [
            Section::new("a", 3.0, |m| {
                a += 1;
                std::thread::sleep(Duration::from_millis(1));
                // The warm-up pass reports an impossibly good time: it
                // must not survive into the result.
                m.times.push(if a == 1 { 0.0 } else { 2.0 });
                Outcome { ops: 1, bad: 0 }
            }),
            Section::new("b", 1.0, |m| {
                b += 1;
                std::thread::sleep(Duration::from_millis(1));
                m.times.extend([3.0, 7.0]);
                Outcome { ops: 2, bad: 1 }
            }),
        ];
        let mut host = HostSpeed::new();
        let out = run_interleaved(0.1, &mut sections, &mut tally, &mut host);
        drop(sections);
        assert_eq!(out["a"].passes() as u64, a - 1);
        assert_eq!(out["b"].passes() as u64, b - 1);
        assert!(out["b"].passes() >= MIN_PASSES);
        assert!(out["a"].passes() > 2 * out["b"].passes());
        assert!(out["a"].pass_secs.iter().all(|&s| s == 2.0));
        assert_eq!(out["b"].requests, 2);
        assert_eq!(out["b"].median_pass_secs(), 10.0);
        assert_eq!(tally.attempted, a + 2 * b);
        assert_eq!(tally.failed, b);
        // A zero budget still gives every section its floor.
        let mut one = [Section::new("n", 1.0, |m| {
            m.times.push(1.0);
            Outcome::default()
        })];
        let out = run_interleaved(0.0, &mut one, &mut tally, &mut host);
        assert_eq!(out["n"].passes(), MIN_PASSES);
    }

    #[test]
    fn latency_is_the_median_pass_not_the_best_of_each_request() {
        // Three passes of 1000 requests; in every pass a different 2 % of
        // the requests stall. Each request's best time would hide the
        // stalls; the per-pass p99 must not.
        let mut t = Timed::default();
        for pass in 0..3 {
            let times: Vec<f64> = (0..1000)
                .map(|i| if i % 50 == pass { 1e-3 } else { 1e-6 })
                .collect();
            t.record(&times);
        }
        let r = t.latency();
        assert_eq!(r.p50_us.round(), 1.0);
        assert_eq!(r.p99_us.round(), 1000.0);
        let pass_secs = 20.0 * 1e-3 + 980.0 * 1e-6;
        assert!((r.req_per_s - 1000.0 / pass_secs).abs() < 1e-6);
        // One slow pass among three does not move the median pass.
        let mut t = Timed::default();
        for secs in [1.0, 5.0, 1.1] {
            t.record(&[secs]);
        }
        assert_eq!(t.median_pass_secs(), 1.1);
    }

    #[test]
    fn roundtrip_check_counts_a_corrupted_stream_as_failed() {
        let data = b"hello hello hello hello hello".to_vec();
        let good = software::compress(
            &data,
            nx_deflate::CompressionLevel::default_level(),
            Format::Gzip,
        );
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let mut t = Tally::default();
        check_roundtrips(
            &mut t,
            "t",
            std::slice::from_ref(&good),
            &[&data],
            Format::Gzip,
            |_| &[],
        );
        assert_eq!(t.failed, 0);
        check_roundtrips(&mut t, "t", &[bad], &[&data], Format::Gzip, |_| &[]);
        assert_eq!(t.failed, 1);
        check_with_system_gzip(&mut t, "t", &good, &data);
        assert_eq!(t.failed, 1);
    }
}
