//! The worker budget: how many helper threads a request may run.
//!
//! A request's caller is always worker 0: it already holds a CPU, and it
//! runs whatever no helper took. A [`Workers`] budget holds one helper slot
//! per further CPU. A fan-out claims slots without blocking and gets those
//! free; each returns when the helper holding it exits. Clones share one
//! budget, so requests running side by side on it never start more helpers
//! than it holds, as a VAS window's credits meter one engine's senders.
//! This module reads the CPU count (once per process), starts every thread
//! that runs request work, and alone decides how a large request's parse
//! runs in segments and which helper checkpoint it adopts ([`run_ahead`]).

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// The smallest segment a request runs ahead on a helper: a segment's parse
/// takes milliseconds, a spawn and a rebuilt window a fraction of one.
pub const SEGMENT_MIN: usize = 256 << 10;

/// Positions between two of a run-ahead helper's checkpoints.
pub(crate) const MARK: usize = 4 << 10;

/// The host's CPUs, read once per process; 1 if they cannot be read.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A budget of helper slots, shared by its clones.
#[derive(Debug, Clone)]
pub struct Workers(Arc<Slots>);

/// Slots, slots busy and the most ever busy. The counts publish no other
/// data, hence `Relaxed`; a claim takes its slots in one atomic step.
#[derive(Debug)]
struct Slots {
    size: usize,
    busy: AtomicUsize,
    peak: AtomicUsize,
}

impl Workers {
    /// A budget of `size` slots.
    pub fn new(size: usize) -> Self {
        let (busy, peak) = Default::default();
        Self(Arc::new(Slots { size, busy, peak }))
    }

    /// A budget of one slot per CPU beyond the caller's.
    pub fn host() -> Self {
        Self::new(cpus() - 1)
    }

    /// The most slots ever busy at once: what a route assertion reads.
    pub fn peak(&self) -> usize {
        self.0.peak.load(Relaxed)
    }

    /// Claims the free slots, up to `workers - 1`: the caller is worker 0,
    /// so 0 and 1 claim none.
    pub fn claim(&self, workers: usize) -> Claim {
        let Slots { size, busy, peak } = &*self.0;
        let free = |b: usize| workers.saturating_sub(1).min(size - b);
        let before = busy.fetch_update(Relaxed, Relaxed, |b| Some(b + free(b)));
        let (before, budget) = (before.expect("the update always grants"), self.clone());
        let left = free(before);
        peak.fetch_max(before + left, Relaxed);
        Claim { budget, left }
    }

    /// Helpers for a request of `len` new bytes run in segments, at most one
    /// per further [`SEGMENT_MIN`] (or `pin` segments). Size decides first,
    /// so a request under two segments never touches the budget.
    fn claim_segments(&self, len: usize, pin: Option<usize>) -> Option<Claim> {
        let segments = pin.unwrap_or(len / SEGMENT_MIN);
        (segments > 1).then(|| self.claim(segments))
    }

    /// Runs `job` over `0..n` on up to `workers` threads (the caller and the
    /// helpers it can claim), pulling indices from one counter, each with
    /// its own `init(worker)` state, so uneven items balance. A `None` from
    /// `job` stops the hand-out; results are in index order, `None` where
    /// none was produced (a helper that died leaves its items so).
    pub fn fan_out<S, T: Send>(
        &self,
        n: usize,
        workers: usize,
        init: impl Fn(usize) -> S + Sync,
        job: impl Fn(&mut S, usize) -> Option<T> + Sync,
    ) -> Vec<Option<T>> {
        let next = AtomicUsize::new(0);
        let worker = |id: usize| {
            let (mut state, mut done) = (init(id), Vec::new());
            loop {
                let i = next.fetch_add(1, Relaxed);
                if i >= n {
                    return done;
                }
                match job(&mut state, i) {
                    Some(r) => done.push((i, r)),
                    None => next.store(n, Relaxed),
                }
            }
        };
        let (mine, theirs) = self.claim(workers.min(n)).run(1.., worker, || worker(0));
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, r) in theirs.into_iter().flatten().flatten().chain(mine) {
            results[i] = Some(r);
        }
        results
    }
}

/// Slots a fan-out holds; those it hands no helper return on drop.
#[derive(Debug)]
pub struct Claim {
    budget: Workers,
    left: usize,
}

impl Claim {
    /// The helpers this claim may start.
    pub(crate) fn granted(&self) -> usize {
        self.left
    }

    /// Runs `mine` on the caller while each of the first
    /// [`granted`](Self::granted) `items` runs `helper(item)` on a scoped
    /// thread holding one slot. Returns `mine`'s result and the helpers' in
    /// item order, `None` where one panicked.
    pub(crate) fn run<I: Send, T: Send, R>(
        mut self,
        items: impl IntoIterator<Item = I>,
        helper: impl Fn(I) -> T + Sync,
        mine: impl FnOnce() -> R,
    ) -> (R, Vec<Option<T>>) {
        let helper = &helper;
        std::thread::scope(|s| {
            let running: Vec<_> = (items.into_iter().take(self.left))
                .map(|item| {
                    self.left -= 1;
                    let slot = Claim {
                        budget: self.budget.clone(),
                        left: 1,
                    };
                    // Dropped as the helper exits, by return or unwind.
                    s.spawn(move || (helper(item), drop(slot)).0)
                })
                .collect();
            let mine = mine();
            (mine, running.into_iter().map(|h| h.join().ok()).collect())
        })
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.budget.0.busy.fetch_sub(self.left, Relaxed);
    }
}

/// A parse [`run_ahead`] steps from loop top to loop top.
pub trait Parse {
    /// A checkpoint: the state at a loop top, with its output and counters.
    type Mark: Copy;
    /// Parses on to its first loop top at or past `stop`: where, and its mark.
    fn step(&mut self, stop: usize) -> (usize, Self::Mark);
}

/// The caller's parse on a segment route: its compare and adopt step.
pub trait Adopt<H: Parse>: Parse {
    /// If `helper`'s parse from `mark` on is this one's from here, takes its
    /// output and counters from `mark` and its end state; returns whether.
    fn adopt(&mut self, helper: &mut H, mark: &H::Mark) -> bool;
}

/// The run-ahead driver. Parses `start..n` in one segment more than the
/// helpers `workers` grants by size (or in `pin` segments), bounded on whole
/// `unit`s: `caller(end of the first segment)` parses the first while a
/// helper per later segment, `ahead(pool item, from, to)` (the pool grown by
/// `fresh`), parses its own and checkpoints at every `MARK` from `from` and
/// at `to`. The caller then steps through each helper's checkpoints in order,
/// adopts at the first that agrees, and parses on. Returns its parse, at
/// `n`, and the checkpoints adopted.
pub fn run_ahead<'p, C, H, T: Send + 'p>(
    workers: &Workers,
    pin: Option<usize>,
    (start, n, unit): (usize, usize, usize),
    (pool, fresh): (&'p mut Vec<T>, impl FnMut() -> T),
    ahead: impl Fn(&'p mut T, usize, usize) -> H + Sync,
    caller: impl FnOnce(usize) -> C,
) -> (C, Vec<(usize, H::Mark)>)
where
    C: Adopt<H>,
    H: Parse<Mark: Send> + Send,
{
    let claim = workers.claim_segments(n - start, pin);
    let units = (n - start).div_ceil(unit);
    let segments = (1 + claim.as_ref().map_or(0, Claim::granted)).min(units.max(1));
    let bound = |i: usize| (start + units * i / segments * unit).min(n);
    let mut me = caller(bound(1));
    let run = |(item, i)| {
        let (from, to, every) = (bound(i), bound(i + 1), MARK.next_multiple_of(unit));
        let mut helper = ahead(item, from, to);
        let stops = (from..to).step_by(every).chain([to]);
        let marks: Vec<_> = stops.map(|stop| helper.step(stop)).collect();
        (helper, marks)
    };
    pool.resize_with(pool.len().max(segments - 1), fresh);
    let helpers = pool.iter_mut().take(segments - 1).zip(1..);
    let landed = claim.map(|claim| claim.run(helpers, run, || me.step(bound(1))).1);
    let mut adopted = Vec::new();
    for (mut helper, marks) in landed.into_iter().flatten().flatten() {
        let mut agrees = |&(at, m): &(usize, _)| me.step(at).0 == at && me.adopt(&mut helper, &m);
        adopted.extend(marks.into_iter().find(|mark| agrees(mark)));
    }
    me.step(n);
    (me, adopted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn claims_grant_what_is_free_and_never_more() {
        let w = Workers::new(3);
        for workers in [0, 1] {
            assert_eq!(w.claim(workers).granted(), 0, "the caller alone");
        }
        let a = w.claim(3);
        let b = w.claim(8);
        let c = w.claim(8);
        assert_eq!((a.granted(), b.granted(), c.granted()), (2, 1, 0));
        drop(a);
        assert_eq!(w.claim(2).granted(), 1, "a dropped claim returns its slots");
        assert_eq!(w.peak(), 3);
        assert_eq!(Workers::new(0).claim(usize::MAX).granted(), 0);
    }

    #[test]
    fn a_slot_returns_when_its_helper_exits() {
        let w = Workers::new(2);
        let (gate, done) = (Barrier::new(3), Barrier::new(3));
        let ((), got) = w.claim(3).run(
            [0u8, 1],
            |i| {
                gate.wait();
                done.wait();
                assert_eq!(i, 0, "helper killed");
                i
            },
            || {
                gate.wait();
                assert_eq!(w.claim(8).granted(), 0, "both slots held");
                done.wait();
                // Back as each helper exits, before the fan-out returns.
                let t = std::time::Instant::now();
                while w.claim(2).granted() == 0 {
                    assert!(t.elapsed().as_secs() < 10, "no slot came back");
                    std::thread::yield_now();
                }
            },
        );
        assert_eq!(got, [Some(0), None], "a helper that panicked lands as None");
        assert_eq!(
            w.claim(8).granted(),
            2,
            "every slot back, the dead one's too"
        );
        assert_eq!(w.peak(), 2);
    }

    #[test]
    fn fan_out_hands_every_item_out_once_and_survives_dead_helpers() {
        let w = Workers::new(3);
        let got = w.fan_out(100, 4, |id| id, |_, i| Some(i * 2));
        assert_eq!(got, (0..100).map(|i| Some(i * 2)).collect::<Vec<_>>());
        // Helpers die on the first item they pull; the caller's all land.
        let got = w.fan_out(
            100,
            4,
            |id| id,
            |id, i| {
                assert_eq!(*id, 0, "helper killed");
                Some(i)
            },
        );
        assert!(got.iter().filter(|r| r.is_none()).count() <= 3);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, r)| r.is_none_or(|v| v == i)));
        assert_eq!(w.claim(4).granted(), 3, "dead helpers' slots are back");
        // A `None` from the job stops the hand-out.
        let got = Workers::new(0).fan_out(6, 1, |_| (), |_, i| (i < 4).then_some(i));
        assert_eq!(got, [Some(0), Some(1), Some(2), Some(3), None, None]);
    }

    #[test]
    fn the_size_rule_claims_one_helper_per_further_segment() {
        let helpers = |len, slots| {
            Workers::new(slots)
                .claim_segments(len, None)
                .map(|c| c.granted())
        };
        // A request under two segments never touches the budget.
        let budget = Workers::new(8);
        assert!(budget.claim_segments(1 << 10, None).is_none());
        assert!(budget.claim_segments(2 * SEGMENT_MIN - 1, None).is_none());
        assert_eq!(budget.peak(), 0);
        // An empty budget keeps any request serial.
        assert_eq!(helpers(64 << 20, 0), Some(0));
        assert_eq!(helpers(2 * SEGMENT_MIN, 1), Some(1));
        // At most one helper per further `SEGMENT_MIN`.
        assert_eq!(helpers(1 << 20, 63), Some(3));
        // A helper busy elsewhere is not granted twice.
        let held = budget.claim(7);
        assert_eq!(
            budget.claim_segments(1 << 20, None).map(|c| c.granted()),
            Some(2)
        );
        drop(held);
        assert_eq!(budget.peak(), 8);
    }

    /// A toy route: a byte is a token (three bytes from 200 up), whose
    /// output is the state, the run of tokens since a zero byte capped at 7.
    /// A helper starts as if a long run carried in; a liar's checkpoints
    /// hold states no parse reaches.
    struct Toy<'a> {
        data: &'a [u8],
        at: usize,
        run: u8,
        out: Vec<u8>,
        sum: u64,
        liar: bool,
    }

    impl Toy<'_> {
        fn new(data: &[u8], at: usize, run: u8, liar: bool) -> Toy<'_> {
            let (out, sum) = Default::default();
            Toy {
                data,
                at,
                run,
                out,
                sum,
                liar,
            }
        }
    }

    impl Parse for Toy<'_> {
        type Mark = (u8, usize, u64);
        fn step(&mut self, stop: usize) -> (usize, Self::Mark) {
            while self.at < stop {
                let b = self.data[self.at];
                self.run = if b == 0 { 0 } else { 7.min(self.run + 1) };
                self.out.push(self.run);
                self.sum += u64::from(self.run);
                self.at = self.data.len().min(self.at + if b >= 200 { 3 } else { 1 });
            }
            let run = self.run + 8 * u8::from(self.liar);
            (self.at, (run, self.out.len(), self.sum))
        }
    }

    impl<'h> Adopt<Toy<'h>> for Toy<'_> {
        fn adopt(&mut self, helper: &mut Toy<'h>, &(run, out, sum): &Self::Mark) -> bool {
            if self.run != run {
                return false;
            }
            self.out.extend_from_slice(&helper.out[out..]);
            self.sum += helper.sum - sum;
            (self.at, self.run) = (helper.at, helper.run);
            true
        }
    }

    #[test]
    fn the_driver_adopts_where_states_agree_whatever_its_helpers_do() {
        let mut x = 0x5EED_D41Eu64;
        let mut data: Vec<u8> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        // At each later segment's start the caller stands one past,
        // inside a three-byte token, in the state a helper starts in: a
        // checkpoint behind it that must not be taken.
        for seam in [25_000, 50_000, 75_000] {
            data[seam - 9..seam - 2].fill(1);
            data[seam - 2] = 255;
        }
        let n = data.len();
        let mut serial = Toy::new(&data, 0, 0, false);
        serial.step(n);
        // Helpers' fates, by segment `[from, to)`, and the checkpoints
        // adopted: all live, the last dies, the inner ones die, all die, all lie.
        type Dies = fn(usize, usize) -> bool;
        let fates: [(Dies, bool, usize); 5] = [
            (|_, _| false, false, 3),
            (|_, to| to == 100_000, false, 2),
            (|_, to| to < 100_000, false, 1),
            (|_, _| true, false, 0),
            (|_, _| false, true, 0),
        ];
        for (dies, liar, want) in fates {
            let budget = Workers::new(3);
            let ahead = |_: &mut (), from, to| {
                assert!(!dies(from, to), "helper killed");
                Toy::new(&data, from, 7, liar)
            };
            let (pool, caller) = ((&mut Vec::new(), || ()), |_| Toy::new(&data, 0, 0, false));
            let (got, adopted) = run_ahead(&budget, Some(4), (0, n, 1), pool, ahead, caller);
            assert_eq!((got.at, got.sum), (n, serial.sum), "{want} adopted");
            assert!(got.out == serial.out, "{want} adopted");
            assert_eq!(adopted.len(), want);
            assert!(adopted.iter().all(|a| a.0 % 25_000 != 0), "{adopted:?}");
            assert_eq!(budget.claim(4).granted(), 3, "every slot back");
            assert!(budget.peak() <= 3);
        }
    }

    #[test]
    fn items_past_the_grant_start_no_helper() {
        let w = Workers::new(4);
        let claim = w.claim(2);
        let (mine, got) = claim.run(0..5, |i| i * 10, || 7);
        assert_eq!((mine, got), (7, vec![Some(0)]));
        let claim = w.claim(5);
        let (_, got) = claim.run(0..2, |i| i, || ());
        assert_eq!(got.len(), 2);
        assert_eq!(
            w.claim(5).granted(),
            4,
            "unused slots return with the claim"
        );
    }
}
