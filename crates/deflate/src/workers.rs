//! The worker budget: how many helper threads a request may run.
//!
//! A request's caller is always worker 0: it already holds a CPU, and it
//! runs whatever no helper took. A [`Workers`] budget holds one helper slot
//! per further CPU. A fan-out claims slots without blocking and gets those
//! free; each returns when the helper holding it exits. Clones share one
//! budget, so requests running side by side on it never start more helpers
//! than it holds, as a VAS window's credits meter one engine's senders.
//! This module reads the CPU count (once per process), decides how many
//! segments a large request splits into, and starts every thread that runs
//! request work.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// The smallest segment a request runs ahead on a helper: a segment's parse
/// takes milliseconds, a spawn and a rebuilt window a fraction of one.
pub const SEGMENT_MIN: usize = 256 << 10;

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
    /// per further [`SEGMENT_MIN`]. Size decides first, so a request under
    /// two segments never touches the budget. The model's match engine and
    /// the ladder's sequential matcher both split by this rule.
    pub fn claim_segments(&self, len: usize) -> Option<Claim> {
        let segments = len / SEGMENT_MIN;
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
    pub fn granted(&self) -> usize {
        self.left
    }

    /// Runs `mine` on the caller while each of the first
    /// [`granted`](Self::granted) `items` runs `helper(item)` on a scoped
    /// thread holding one slot. Returns `mine`'s result and the helpers' in
    /// item order, `None` where one panicked.
    pub fn run<I: Send, T: Send, R>(
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
