//! The multi-lane LZ77 match engine with speculative cover resolution.
//!
//! Every cycle the engine ingests `lanes` bytes. Each lane hashes its
//! 3-byte prefix, probes the banked hash table for up to `ways` candidate
//! positions, and wide comparators score the best candidate per lane.
//! A selection network then chooses a non-overlapping token cover of the
//! lane window minimizing estimated encoded bits — the hardware's
//! *speculative* answer to zlib's inherently sequential lazy matching
//! (the paper's key throughput-vs-ratio trade-off, measured in E12).
//!
//! The comparators read the history buffer, which holds exactly the last
//! `history_bytes` of input, so the model compares bytes of `data` under
//! that distance bound. Inserts are unconditional, so what a lane finds
//! depends on the input alone: a large request runs later segments ahead
//! on the helper threads its budget grants (`tokenize_on`, on
//! `nx_deflate::workers::run_ahead`).

use crate::config::{AccelConfig, Resolution, MAX_LANES};
use crate::hashbank::HashBank;
use nx_deflate::lz77::hash::match_length;
use nx_deflate::lz77::{dist_code, length_code_index, Token, DIST_EXTRA, LENGTH_EXTRA};
use nx_deflate::workers::{run_ahead, Adopt, Parse, Workers};
use nx_deflate::{MAX_MATCH, MIN_MATCH};
use std::mem::take;

/// Result of tokenizing one request.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The LZ77 token stream (lossless cover of the input).
    pub tokens: Vec<Token>,
    /// Cycles spent ingesting new data (`ceil(n / lanes)`).
    pub ingest_cycles: u64,
    /// Cycles spent re-streaming carried history through the hash
    /// pipeline (chunked requests only; zero for whole-buffer requests).
    pub history_cycles: u64,
    /// Extra cycles lost to hash-bank port conflicts.
    pub bank_stall_cycles: u64,
    /// Matches found then discarded by the resolver (speculation waste).
    pub discarded_matches: u64,
}

/// The match engine. Holds the hash table so repeated requests model a
/// real engine (the table is reset per request, as the hardware does
/// between jobs), and the per-cycle scratch of the lane window so a
/// modeled cycle allocates nothing on the host.
#[derive(Debug)]
pub struct MatchEngine {
    cfg: AccelConfig,
    bank: HashBank,
    /// The set each lane of the current window hashed to.
    lane_sets: [usize; MAX_LANES],
    /// The best candidate each lane's comparators found this cycle.
    lane_matches: [Option<LaneMatch>; MAX_LANES],
    /// The resolver's cost and choice columns.
    dp: [f64; MAX_LANES + 1],
    choice: [Option<LaneMatch>; MAX_LANES],
    /// Engines kept across requests to run segments ahead on helpers.
    ahead: Vec<MatchEngine>,
    /// The budget helpers are claimed from.
    pub(crate) workers: Workers,
}

/// Estimated encoded size of a literal token, in bits (a mid-corpus
/// literal code length).
const LIT_BITS: u64 = 9;

/// Estimated encoded size of a match token, in bits.
fn match_bits(len: u16, dist: u16) -> u64 {
    let li = length_code_index(len);
    let di = dist_code(dist);
    7 + u64::from(LENGTH_EXTRA[li]) + 5 + u64::from(DIST_EXTRA[di])
}

/// A candidate match anchored at a lane position.
#[derive(Debug, Clone, Copy)]
struct LaneMatch {
    len: u16,
    dist: u16,
}

/// The resolver's state between lane windows (the first position its
/// tokens leave uncovered, the run of matches they end in) and what its
/// cover counted up to the window boundary `at`: discards, stall cycles and,
/// at a checkpoint, tokens.
#[derive(Debug, Default, Clone, Copy)]
struct Mark {
    at: usize,
    emit_until: usize,
    trailing_matches: u64,
    discarded: u64,
    stalls: u64,
    tokens: usize,
}

/// A cover from window to window: the caller's on the engine's own bank, or
/// a helper's on a pooled engine's.
struct Cover<'a> {
    engine: &'a mut MatchEngine,
    data: &'a [u8],
    tokens: Vec<Token>,
    s: Mark,
}

impl<'a> Cover<'a> {
    /// An empty cover from `at`, on a bank rebuilt from the `keep` bytes
    /// before it, with room for `room` tokens.
    fn new(
        engine: &'a mut MatchEngine,
        data: &'a [u8],
        (at, keep, room): (usize, usize, usize),
    ) -> Self {
        engine.rebuild(data, at, keep);
        let (mut s, tokens) = (Mark::default(), Vec::with_capacity(room));
        (s.at, s.emit_until) = (at, at);
        Self {
            engine,
            data,
            tokens,
            s,
        }
    }
}

impl Parse for Cover<'_> {
    type Mark = Mark;
    fn step(&mut self, stop: usize) -> (usize, Mark) {
        self.engine
            .fused(self.data, stop, &mut self.tokens, &mut self.s);
        let tokens = self.tokens.len();
        (self.s.at, Mark { tokens, ..self.s })
    }
}

/// Exact, so every token and outcome field is the serial loop's. A bank
/// rebuilt from the `history_bytes` positions before a boundary lists every
/// candidate the serial bank lists within reach, newest first (the serial
/// bank's older ones fail the distance test), and so does a helper's bank
/// from there on. A window's stalls depend on its lane hashes alone, and two
/// resolvers in one state at one boundary go on alike.
impl<'h> Adopt<Cover<'h>> for Cover<'_> {
    fn adopt(&mut self, helper: &mut Cover<'h>, m: &Mark) -> bool {
        let (s, t) = (&mut self.s, helper.s);
        if (s.emit_until, s.trailing_matches) != (m.emit_until, m.trailing_matches) {
            return false;
        }
        self.tokens.extend_from_slice(&helper.tokens[m.tokens..]);
        s.discarded += t.discarded - m.discarded;
        s.stalls += t.stalls - m.stalls;
        (s.at, s.emit_until, s.trailing_matches) = (t.at, t.emit_until, t.trailing_matches);
        std::mem::swap(&mut self.engine.bank, &mut helper.engine.bank);
        true
    }
}

impl MatchEngine {
    /// Creates an engine for `cfg`, on a worker budget of its own.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AccelConfig::validate`].
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate();
        let bank = HashBank::new(cfg.hash_bits, cfg.hash_ways, cfg.hash_banks);
        Self {
            cfg,
            bank,
            lane_sets: [0; MAX_LANES],
            lane_matches: [None; MAX_LANES],
            dp: [0.0; MAX_LANES + 1],
            choice: [None; MAX_LANES],
            ahead: Vec::new(),
            workers: Workers::host(),
        }
    }

    /// Tokenizes `data` with the hardware algorithm.
    pub fn tokenize(&mut self, data: &[u8]) -> MatchOutcome {
        self.tokenize_from(data, 0)
    }

    /// Tokenizes `data[start..]`, treating `data[..start]` as carried
    /// history: the engine re-streams it through the hash pipeline (DMA'd
    /// in via the request's history DDE, costing `history_cycles`), after
    /// which the new bytes may match back into it. From 512 KiB of new
    /// bytes on, later segments run ahead on the helpers the engine's
    /// budget grants; the outcome is the serial loop's to the last field.
    ///
    /// # Panics
    ///
    /// Panics if `start > data.len()`.
    pub fn tokenize_from(&mut self, data: &[u8], start: usize) -> MatchOutcome {
        self.tokenize_on(data, start, None).0
    }

    /// [`Self::tokenize_from`] on the run-ahead driver (`pin` as there), in
    /// lane windows, each helper's segment on a pooled engine. Also returns
    /// the checkpoints adopted.
    fn tokenize_on(
        &mut self,
        data: &[u8],
        start: usize,
        pin: Option<usize>,
    ) -> (MatchOutcome, Vec<(usize, Mark)>) {
        assert!(start <= data.len(), "history beyond input");
        let (n, lanes, history) = (data.len(), self.cfg.lanes, self.cfg.history_bytes);
        let (mut engines, cfg) = (take(&mut self.ahead), self.cfg.clone());
        let (workers, me) = (self.workers.clone(), &mut *self);
        let (done, adopted) = run_ahead(
            &workers,
            pin,
            (start, n, lanes),
            (&mut engines, || MatchEngine::new(cfg.clone())),
            |engine, from, to| Cover::new(engine, data, (from, history, (to - from) / 4 + 8)),
            // History re-streams into the dictionary at lane rate.
            move |_| Cover::new(me, data, (start, start, (n - start) / 4 + 8)),
        );
        let (tokens, s) = (done.tokens, done.s);
        self.ahead = engines;
        debug_assert_eq!(
            tokens.iter().map(Token::input_len).sum::<usize>(),
            n - start,
            "token cover must be exact"
        );
        let outcome = MatchOutcome {
            tokens,
            ingest_cycles: (n - start).div_ceil(lanes) as u64,
            history_cycles: (start as u64).div_ceil(lanes as u64),
            bank_stall_cycles: s.stalls,
            discarded_matches: s.discarded,
        };
        (outcome, adopted)
    }

    /// Resets the bank to the positions of the `keep` bytes before `from`,
    /// inserted in order.
    fn rebuild(&mut self, data: &[u8], from: usize, keep: usize) {
        let hash_end = data.len().saturating_sub(MIN_MATCH - 1);
        self.bank.reset(hash_end);
        for p in from.saturating_sub(keep)..from.min(hash_end) {
            let set = self.bank.hash(data, p);
            self.bank.insert(set, p);
        }
    }

    /// The lane-window loop from `s.at` to `to` on a bank holding what the
    /// serial loop's holds at `s.at`.
    fn fused(&mut self, data: &[u8], to: usize, tokens: &mut Vec<Token>, s: &mut Mark) {
        // Positions from here on have no 3-byte prefix left to hash.
        let hash_end = data.len().saturating_sub(MIN_MATCH - 1);
        while s.at < to {
            let cur = s.at;
            let window_end = (cur + self.cfg.lanes).min(to);
            let hashed = window_end.min(hash_end).saturating_sub(cur);
            // A window wholly inside a carried match resolves nothing, so
            // nothing would read its comparators: the hash pipeline still
            // runs (it is what the cycle model prices), the probe does not.
            let resolves = s.emit_until < window_end;

            // Phase 1: all lanes hash and probe in parallel.
            for lane in 0..hashed {
                let set = self.bank.hash(data, cur + lane);
                self.lane_sets[lane] = set;
                if resolves {
                    self.lane_matches[lane] = self.probe(data, set, cur + lane);
                }
            }

            // Port conflicts among this cycle's lookups.
            s.stalls += self
                .bank
                .conflict_stalls(&self.lane_sets[..hashed], self.cfg.bank_read_ports);

            // Phase 2: insert every ingested position (the dictionary is
            // maintained regardless of cover decisions).
            for lane in 0..hashed {
                self.bank.insert(self.lane_sets[lane], cur + lane);
            }

            // Phase 3: resolve a token cover for [max(cur, emit_until),
            // window_end).
            if resolves {
                let (w0, width) = (s.emit_until.max(cur), window_end - cur);
                self.lane_matches[hashed..width].fill(None);
                let found = self.lane_matches[..width].iter().flatten().count() as u64;
                let before = tokens.len();
                s.emit_until = match self.cfg.resolution {
                    Resolution::Speculative => {
                        self.resolve_speculative(data, cur, w0, window_end, tokens)
                    }
                    Resolution::Greedy => self.resolve_greedy(data, cur, w0, window_end, tokens),
                };
                let emitted = &tokens[before..];
                let run = emitted
                    .iter()
                    .rev()
                    .take_while(|t| matches!(t, Token::Match { .. }))
                    .count();
                if run < emitted.len() {
                    s.trailing_matches = 0;
                }
                s.trailing_matches += run as u64;
                // Approximation only used for the waste metric.
                s.discarded += found.saturating_sub(s.trailing_matches);
            }
            s.at = window_end;
        }
    }

    /// One lane's comparators: the longest valid candidate in `set` for
    /// position `q`, the newest winning ties.
    #[inline]
    fn probe(&self, data: &[u8], set: usize, q: usize) -> Option<LaneMatch> {
        let max_len = MAX_MATCH.min(data.len() - q);
        let mut best = None;
        let mut best_len = MIN_MATCH - 1;
        let (at, reach) = (self.bank.stamp(q), self.cfg.history_bytes.min(q) as u32);
        for &stamp in self.bank.row(set) {
            // Distance 1..=reach: a current way inside the window. The
            // first way that is not ends the row.
            let dist = at.wrapping_sub(stamp);
            if dist.wrapping_sub(1) >= reach {
                break;
            }
            let cand = q - dist as usize;
            // Only a longer candidate displaces the best so far, and it
            // must agree at offset `best_len` (in range: `best_len <
            // max_len` or the loop has already broken).
            if data[cand + best_len] != data[q + best_len] {
                continue;
            }
            let len = match_length(data, cand, q);
            if len <= best_len {
                continue;
            }
            // Far 3-byte matches cost more bits than literals.
            if len == MIN_MATCH && dist > 4096 {
                continue;
            }
            best_len = len;
            best = Some(LaneMatch {
                len: len as u16,
                dist: dist as u16,
            });
            if len >= max_len {
                break; // comparator saturated
            }
        }
        best
    }

    /// Minimum-estimated-bits cover of `[w0, window_end)` via dynamic
    /// programming over the lane window. Returns the first uncovered
    /// position (≥ `window_end` when a match overshoots the window).
    fn resolve_speculative(
        &mut self,
        data: &[u8],
        cur: usize,
        w0: usize,
        window_end: usize,
        tokens: &mut Vec<Token>,
    ) -> usize {
        let m = window_end - w0;
        // dp[i]: min estimated bits to cover positions w0+i .. window_end.
        // A match crossing the window boundary covers future bytes too;
        // its cost is amortized over the in-window fraction so that long
        // boundary-crossing matches are not penalized (they are the whole
        // point of the design).
        let (dp, choice) = (&mut self.dp, &mut self.choice);
        dp[m] = 0.0;
        for i in (0..m).rev() {
            let mut best = LIT_BITS as f64 + dp[i + 1];
            let mut pick = None;
            if let Some(lm) = self.lane_matches[w0 + i - cur] {
                let len = usize::from(lm.len);
                let inside = (m - i).min(len);
                let cost = match_bits(lm.len, lm.dist) as f64 * inside as f64 / len as f64;
                let land = (i + len).min(m);
                let total = cost + dp[land];
                // Prefer the match on ties: fewer tokens downstream.
                if total <= best {
                    best = total;
                    pick = Some(lm);
                }
            }
            dp[i] = best;
            choice[i] = pick;
        }
        // Walk the chosen cover.
        let mut i = 0usize;
        while i < m {
            match choice[i] {
                Some(lm) => {
                    tokens.push(Token::Match {
                        len: lm.len,
                        dist: lm.dist,
                    });
                    i += usize::from(lm.len);
                }
                None => {
                    tokens.push(Token::Literal(data[w0 + i]));
                    i += 1;
                }
            }
        }
        w0 + i
    }

    /// First-match-wins cover (the ablation baseline).
    fn resolve_greedy(
        &self,
        data: &[u8],
        cur: usize,
        w0: usize,
        window_end: usize,
        tokens: &mut Vec<Token>,
    ) -> usize {
        let mut i = w0;
        while i < window_end {
            match self.lane_matches[i - cur] {
                Some(lm) => {
                    tokens.push(Token::Match {
                        len: lm.len,
                        dist: lm.dist,
                    });
                    i += usize::from(lm.len);
                }
                None => {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                }
            }
        }
        i
    }
}

#[cfg(test)]
#[allow(dead_code, clippy::too_many_arguments)]
/// The lane-window loop and hash table exactly as they stood before the
/// host-cost rewrite (issue 13), kept as the oracle the proptests below
/// compare the production loop against. Verbatim apart from the type
/// names; do not "tidy" it.
mod reference {
    use super::*;

    const NIL: u32 = u32::MAX;

    /// The hash table model.
    #[derive(Debug, Clone)]
    pub struct ParentBank {
        /// `sets × ways` positions, row-major.
        slots: Vec<u32>,
        /// Per-set FIFO insert cursor.
        cursor: Vec<u8>,
        sets: usize,
        ways: usize,
        banks: usize,
    }

    impl ParentBank {
        /// Creates an empty table with `2^hash_bits` sets of `ways` entries
        /// spread over `banks` banks.
        pub fn new(hash_bits: u32, ways: usize, banks: usize) -> Self {
            let sets = 1usize << hash_bits;
            Self {
                slots: vec![NIL; sets * ways],
                cursor: vec![0; sets],
                sets,
                ways,
                banks,
            }
        }

        /// Multiplicative hash of a 3-byte prefix to a set index.
        #[inline]
        pub fn hash(&self, data: &[u8], pos: usize) -> usize {
            debug_assert!(pos + 3 <= data.len());
            let v = u32::from(data[pos])
                | (u32::from(data[pos + 1]) << 8)
                | (u32::from(data[pos + 2]) << 16);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - self.sets.trailing_zeros())) as usize % self.sets
        }

        /// The bank a set lives in.
        #[inline]
        pub fn bank_of(&self, set: usize) -> usize {
            set % self.banks
        }

        /// Returns the valid candidate positions in `set`, newest first.
        pub fn lookup(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
            let base = set * self.ways;
            let cur = usize::from(self.cursor[set]);
            let ways = self.ways;
            (0..ways).filter_map(move |i| {
                // Newest first: walk backwards from the cursor.
                let idx = base + (cur + ways - 1 - i) % ways;
                let v = self.slots[idx];
                (v != NIL).then_some(v as usize)
            })
        }

        /// Inserts `pos` into `set`, evicting FIFO.
        pub fn insert(&mut self, set: usize, pos: usize) {
            let base = set * self.ways;
            let cur = usize::from(self.cursor[set]);
            self.slots[base + cur] = pos as u32;
            self.cursor[set] = ((cur + 1) % self.ways) as u8;
        }

        /// Clears all entries (between independent requests — the hardware
        /// zeroes the table per job so no state leaks across users).
        pub fn reset(&mut self) {
            self.slots.fill(NIL);
            self.cursor.fill(0);
        }

        /// Number of sets.
        pub fn sets(&self) -> usize {
            self.sets
        }

        /// Associativity.
        pub fn ways(&self) -> usize {
            self.ways
        }

        /// Counts the stall cycles implied by a set of same-cycle accesses:
        /// each bank serves `read_ports` accesses per cycle, so a cycle's
        /// total stalls are `max_over_banks(ceil(accesses / read_ports)) - 1`.
        ///
        /// # Panics
        ///
        /// Panics if `read_ports == 0`.
        pub fn conflict_stalls(&self, sets_accessed: &[usize], read_ports: u32) -> u64 {
            assert!(read_ports > 0, "banks need at least one read port");
            let mut counts = vec![0u32; self.banks];
            for &s in sets_accessed {
                counts[self.bank_of(s)] += 1;
            }
            let worst = counts
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .div_ceil(read_ports);
            u64::from(worst.saturating_sub(1))
        }
    }

    #[derive(Debug)]
    pub struct ParentEngine {
        cfg: AccelConfig,
        bank: ParentBank,
    }

    impl ParentEngine {
        pub fn new(cfg: AccelConfig) -> Self {
            let bank = ParentBank::new(cfg.hash_bits, cfg.hash_ways, cfg.hash_banks);
            Self { cfg, bank }
        }

        pub fn tokenize_from(&mut self, data: &[u8], start: usize) -> MatchOutcome {
            assert!(start <= data.len(), "history beyond input");
            self.bank.reset();
            let n = data.len();
            let lanes = self.cfg.lanes;
            let mut tokens = Vec::with_capacity((n - start) / 4 + 8);
            let mut ingest_cycles = 0u64;
            let mut bank_stall_cycles = 0u64;
            let mut discarded = 0u64;

            // Re-stream history into the dictionary at lane rate.
            for p in 0..start.min(n.saturating_sub(MIN_MATCH - 1)) {
                let set = self.bank.hash(data, p);
                self.bank.insert(set, p);
            }
            let history_cycles = (start as u64).div_ceil(lanes as u64);

            // First position not yet covered by an emitted token.
            let mut emit_until = start;
            let mut cur = start;
            let mut lane_matches: Vec<Option<LaneMatch>> = vec![None; lanes];
            let mut accessed_sets: Vec<usize> = Vec::with_capacity(lanes);

            while cur < n {
                ingest_cycles += 1;
                let window_end = (cur + lanes).min(n);
                accessed_sets.clear();
                for lm in lane_matches.iter_mut() {
                    *lm = None;
                }

                // Phase 1: all lanes probe in parallel.
                for q in cur..window_end {
                    if q + MIN_MATCH > n {
                        break;
                    }
                    let set = self.bank.hash(data, q);
                    accessed_sets.push(set);
                    let max_len = MAX_MATCH.min(n - q);
                    let mut best: Option<LaneMatch> = None;
                    for cand in self.bank.lookup(set) {
                        if cand >= q || q - cand > self.cfg.history_bytes {
                            continue;
                        }
                        let len = match_length(data, cand, q);
                        if len < MIN_MATCH {
                            continue;
                        }
                        // Far 3-byte matches cost more bits than literals.
                        if len == MIN_MATCH && q - cand > 4096 {
                            continue;
                        }
                        let better = match best {
                            None => true,
                            Some(b) => len > usize::from(b.len),
                        };
                        if better {
                            best = Some(LaneMatch {
                                len: len as u16,
                                dist: (q - cand) as u16,
                            });
                            if len >= max_len {
                                break; // comparator saturated
                            }
                        }
                    }
                    lane_matches[q - cur] = best;
                }

                // Port conflicts among this cycle's lookups. Identical set
                // indices merge into one physical access (the hardware
                // combines duplicate lane requests — crucial for runs, where
                // every lane hashes identically).
                accessed_sets.sort_unstable();
                accessed_sets.dedup();
                bank_stall_cycles += self
                    .bank
                    .conflict_stalls(&accessed_sets, self.cfg.bank_read_ports);

                // Phase 2: insert every ingested position (the dictionary is
                // maintained regardless of cover decisions).
                for q in cur..window_end {
                    if q + MIN_MATCH <= n {
                        let set = self.bank.hash(data, q);
                        self.bank.insert(set, q);
                    }
                }

                // Phase 3: resolve a token cover for [max(cur, emit_until),
                // window_end).
                let w0 = emit_until.max(cur);
                if w0 < window_end {
                    let found = lane_matches.iter().flatten().count() as u64;
                    let emitted = match self.cfg.resolution {
                        Resolution::Speculative => self.resolve_speculative(
                            data,
                            cur,
                            w0,
                            window_end,
                            &lane_matches,
                            &mut tokens,
                        ),
                        Resolution::Greedy => Self::resolve_greedy(
                            data,
                            cur,
                            w0,
                            window_end,
                            &lane_matches,
                            &mut tokens,
                        ),
                    };
                    emit_until = emitted;
                    let used = tokens
                        .iter()
                        .rev()
                        .take_while(|t| matches!(t, Token::Match { .. }))
                        .count(); // approximation only used for the waste metric
                    discarded += found.saturating_sub(used as u64);
                }

                cur = window_end;
            }

            debug_assert_eq!(
                tokens.iter().map(Token::input_len).sum::<usize>(),
                n - start,
                "token cover must be exact"
            );
            MatchOutcome {
                tokens,
                ingest_cycles,
                history_cycles,
                bank_stall_cycles,
                discarded_matches: discarded,
            }
        }

        /// Minimum-estimated-bits cover of `[w0, window_end)` via dynamic
        /// programming over the lane window. Returns the first uncovered
        /// position (≥ `window_end` when a match overshoots the window).
        #[allow(clippy::too_many_arguments)]
        fn resolve_speculative(
            &self,
            data: &[u8],
            cur: usize,
            w0: usize,
            window_end: usize,
            lane_matches: &[Option<LaneMatch>],
            tokens: &mut Vec<Token>,
        ) -> usize {
            let m = window_end - w0;
            // dp[i]: min estimated bits to cover positions w0+i .. window_end.
            // A match crossing the window boundary covers future bytes too;
            // its cost is amortized over the in-window fraction so that long
            // boundary-crossing matches are not penalized (they are the whole
            // point of the design).
            let mut dp = vec![f64::INFINITY; m + 1];
            let mut choice: Vec<Option<LaneMatch>> = vec![None; m];
            dp[m] = 0.0;
            for i in (0..m).rev() {
                let mut best = LIT_BITS as f64 + dp[i + 1];
                let mut pick = None;
                if let Some(lm) = lane_matches[w0 + i - cur] {
                    let len = usize::from(lm.len);
                    let inside = (m - i).min(len);
                    let cost = match_bits(lm.len, lm.dist) as f64 * inside as f64 / len as f64;
                    let land = (i + len).min(m);
                    let total = cost + dp[land];
                    // Prefer the match on ties: fewer tokens downstream.
                    if total <= best {
                        best = total;
                        pick = Some(lm);
                    }
                }
                dp[i] = best;
                choice[i] = pick;
            }
            // Walk the chosen cover.
            let mut i = 0usize;
            while i < m {
                match choice[i] {
                    Some(lm) => {
                        tokens.push(Token::Match {
                            len: lm.len,
                            dist: lm.dist,
                        });
                        i += usize::from(lm.len);
                    }
                    None => {
                        tokens.push(Token::Literal(data[w0 + i]));
                        i += 1;
                    }
                }
            }
            w0 + i
        }

        /// First-match-wins cover (the ablation baseline).
        fn resolve_greedy(
            data: &[u8],
            cur: usize,
            w0: usize,
            window_end: usize,
            lane_matches: &[Option<LaneMatch>],
            tokens: &mut Vec<Token>,
        ) -> usize {
            let mut i = w0;
            while i < window_end {
                match lane_matches[i - cur] {
                    Some(lm) => {
                        tokens.push(Token::Match {
                            len: lm.len,
                            dist: lm.dist,
                        });
                        i += usize::from(lm.len);
                    }
                    None => {
                        tokens.push(Token::Literal(data[i]));
                        i += 1;
                    }
                }
            }
            i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::lz77::expand_tokens;

    impl MatchEngine {
        /// Moves this engine's bank, and those of the helpers a request of
        /// up to four segments runs, to `room` stamps below the wrap.
        pub(crate) fn near_wrap(&mut self, room: u32) {
            while self.ahead.len() < 3 {
                self.ahead.push(MatchEngine::new(self.cfg.clone()));
            }
            self.bank.near_wrap(room);
            self.ahead.iter_mut().for_each(|h| h.bank.near_wrap(room));
        }

        /// Whether any of those banks cleared its rows since `near_wrap`.
        pub(crate) fn wrapped(&self, room: u32) -> bool {
            let cleared = |e: &MatchEngine| e.bank.stamp_end() < u32::MAX - room;
            cleared(self) || self.ahead.iter().any(cleared)
        }
    }

    fn engine() -> MatchEngine {
        MatchEngine::new(AccelConfig::power9())
    }

    #[test]
    fn empty_input() {
        let out = engine().tokenize(b"");
        assert!(out.tokens.is_empty());
        assert_eq!(out.ingest_cycles, 0);
    }

    #[test]
    fn cover_is_lossless_on_structured_data() {
        let data: Vec<u8> = b"the paper describes the accelerator the paper describes ".repeat(40);
        let out = engine().tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        assert!(out.tokens.iter().all(|t| t.is_valid()));
        // Repetitive text must actually produce matches.
        let matches = out
            .tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches > 10, "only {matches} matches");
    }

    #[test]
    fn ingest_cycles_are_ceil_n_over_lanes() {
        let data = vec![0u8; 1000];
        let out = engine().tokenize(&data);
        assert_eq!(out.ingest_cycles, 1000u64.div_ceil(8));
        let out_z15 = MatchEngine::new(AccelConfig::z15()).tokenize(&data);
        assert_eq!(out_z15.ingest_cycles, 1000u64.div_ceil(16));
    }

    #[test]
    fn run_detection_across_cycles() {
        let data = vec![b'r'; 4096];
        let out = engine().tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        // First window is literals; afterwards long matches dominate.
        assert!(
            out.tokens.len() < 64,
            "{} tokens for a pure run",
            out.tokens.len()
        );
    }

    #[test]
    fn respects_configured_history_window() {
        let mut cfg = AccelConfig::power9();
        cfg.history_bytes = 1024;
        let mut data = b"UNIQUEMOTIF0123".to_vec();
        data.extend(std::iter::repeat_n(b'.', 4000)); // > window of filler
        data.extend_from_slice(b"UNIQUEMOTIF0123");
        let out = MatchEngine::new(cfg).tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        for t in &out.tokens {
            if let Token::Match { dist, .. } = t {
                assert!(usize::from(*dist) <= 1024, "match beyond window: {t:?}");
            }
        }
    }

    #[test]
    fn speculative_no_worse_than_greedy() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("k{}v{};", i % 83, i % 17).as_bytes());
        }
        let spec = engine().tokenize(&data);
        let mut gcfg = AccelConfig::power9();
        gcfg.resolution = Resolution::Greedy;
        let greedy = MatchEngine::new(gcfg).tokenize(&data);
        assert_eq!(expand_tokens(&spec.tokens), data);
        assert_eq!(expand_tokens(&greedy.tokens), data);
        let bits = |ts: &[Token]| -> u64 {
            ts.iter()
                .map(|t| match *t {
                    Token::Literal(_) => LIT_BITS,
                    Token::Match { len, dist } => match_bits(len, dist),
                })
                .sum()
        };
        assert!(bits(&spec.tokens) <= bits(&greedy.tokens));
    }

    #[test]
    fn pseudorandom_data_is_covered_by_literals() {
        let mut x = 88172645463325252u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let out = engine().tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        let lits = out
            .tokens
            .iter()
            .filter(|t| matches!(t, Token::Literal(_)))
            .count();
        assert!(lits as f64 > data.len() as f64 * 0.8, "{lits} literals");
    }

    #[test]
    fn duplicate_lane_lookups_merge_so_runs_do_not_stall() {
        // A constant stream hashes every lane to the same set; the request
        // combiner merges them into one access, so no stalls.
        let data = vec![b'z'; 8192];
        let out = engine().tokenize(&data);
        assert_eq!(out.bank_stall_cycles, 0, "merged lookups must not stall");
    }

    #[test]
    fn single_ported_banks_stall_on_diverse_data() {
        // With one read port and few banks, distinct prefixes collide by
        // the birthday bound over thousands of windows.
        let mut cfg = AccelConfig::power9();
        cfg.bank_read_ports = 1;
        cfg.hash_banks = 4;
        let mut data = Vec::new();
        for i in 0..4000u32 {
            data.extend_from_slice(format!("w{i:05}x").as_bytes());
        }
        let out = MatchEngine::new(cfg).tokenize(&data);
        assert!(
            out.bank_stall_cycles > 0,
            "no stalls on single-ported banks"
        );
    }

    /// Test input with matches at every scale: a small-alphabet random
    /// stretch (short, near matches), a motif repeated past `MAX_MATCH`
    /// (carried matches covering whole windows), random filler, then the
    /// opening stretch again (far matches, beyond 4096 when long enough).
    fn structured(seed: u64, len: usize, alphabet: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 24
        };
        let mut data = Vec::with_capacity(len + 64);
        while data.len() < len {
            let head = data.len();
            for _ in 0..next() % 600 {
                data.push((next() % alphabet) as u8);
            }
            let motif = 1 + (next() % 9) as usize;
            for i in 0..(next() % 700) as usize {
                data.push(data[data.len().saturating_sub(motif).max(head.min(i))]);
            }
            for _ in 0..next() % 300 {
                data.push(next() as u8);
            }
            let again = (next() % 200) as usize;
            data.extend_from_within(..again.min(data.len()));
        }
        data.truncate(len);
        data
    }

    fn assert_same_as_parent(cfg: &AccelConfig, data: &[u8], start: usize) {
        let want = reference::ParentEngine::new(cfg.clone()).tokenize_from(data, start);
        let mut engine = MatchEngine::new(cfg.clone());
        // Twice on one engine: scratch left by a request must not leak
        // into the next.
        for _ in 0..2 {
            let got = engine.tokenize_from(data, start);
            assert_eq!(got.tokens, want.tokens);
            assert_eq!(got.ingest_cycles, want.ingest_cycles);
            assert_eq!(got.history_cycles, want.history_cycles);
            assert_eq!(got.bank_stall_cycles, want.bank_stall_cycles);
            assert_eq!(got.discarded_matches, want.discarded_matches);
        }
    }

    /// Runs `data[start..]` in `segments` segments, the helpers on a budget
    /// of their own (so the split does not depend on the host's CPUs), and
    /// diffs every outcome field against the parent loop; returns where the
    /// caller adopted a helper's cover.
    fn split_as_parent(
        cfg: &AccelConfig,
        data: &[u8],
        start: usize,
        segments: usize,
    ) -> Vec<usize> {
        dying_split_as_parent(cfg, data, start, segments, &[])
    }

    /// [`split_as_parent`] with the helpers of the segments in `dead`
    /// killed: each runs on a pooled engine shaped past its lane scratch,
    /// which panics in its first window and stays pooled for the next run.
    fn dying_split_as_parent(
        cfg: &AccelConfig,
        data: &[u8],
        start: usize,
        segments: usize,
        dead: &[usize],
    ) -> Vec<usize> {
        let want = reference::ParentEngine::new(cfg.clone()).tokenize_from(data, start);
        let mut engine = MatchEngine::new(cfg.clone());
        engine.workers = Workers::new(segments - 1);
        for segment in 1..segments {
            let mut pooled = MatchEngine::new(cfg.clone());
            if dead.contains(&segment) {
                pooled.cfg.lanes = MAX_LANES + 1;
            }
            engine.ahead.push(pooled);
        }
        let mut took = Vec::new();
        // Twice on one engine: a helper's bank left by a request (or by its
        // death) must not leak into the next.
        for _ in 0..2 {
            let (got, adopted) = engine.tokenize_on(data, start, Some(segments));
            assert_eq!(got.tokens, want.tokens);
            assert_eq!(got.ingest_cycles, want.ingest_cycles);
            assert_eq!(got.history_cycles, want.history_cycles);
            assert_eq!(got.bank_stall_cycles, want.bank_stall_cycles);
            assert_eq!(got.discarded_matches, want.discarded_matches);
            took.push(adopted.iter().map(|a| a.0).collect::<Vec<_>>());
        }
        assert_eq!(took[0], took[1]);
        took.pop().unwrap()
    }

    #[test]
    fn segments_are_decided_by_size_first() {
        use nx_deflate::workers::SEGMENT_MIN;
        use nx_deflate::{CompressionLevel, Encoder, Engine};
        // Both routes split by the driver's one size rule: the model's match
        // engine and the ladder's sequential matcher, each byte for byte.
        let data = nx_corpus::mixed(5, 2 * SEGMENT_MIN);
        let enc = Encoder::with_engine(CompressionLevel::new(6).unwrap(), Engine::Sequential);
        let (model, stream) = (
            MatchEngine::new(AccelConfig::power9()).tokenize(&data),
            enc.compress(&data),
        );
        for (len, slots, want) in [
            (2 * SEGMENT_MIN - 1, 8, 0),
            (2 * SEGMENT_MIN, 0, 0),
            (2 * SEGMENT_MIN, 1, 1),
        ] {
            let full = len == data.len();
            let mut engine = MatchEngine::new(AccelConfig::power9());
            engine.workers = Workers::new(slots);
            let got = engine.tokenize(&data[..len]);
            assert!(!full || got.tokens == model.tokens);
            assert_eq!(engine.workers.peak(), want, "model, {len} bytes on {slots}");
            let budget = Workers::new(slots);
            let got = enc
                .clone()
                .with_workers(budget.clone())
                .compress(&data[..len]);
            assert!(!full || got == stream);
            assert_eq!(budget.peak(), want, "encoder, {len} bytes on {slots}");
        }
    }

    #[test]
    fn covers_meet_and_the_rebuilt_bank_reaches_back_a_full_window() {
        // A 16-byte motif at 1024 copied to 2048, where the second segment
        // starts: the match there reaches back exactly `history_bytes`,
        // which a bank rebuilt one position short misses. The covers meet
        // right at the segment's start, its first checkpoint.
        let cfg = AccelConfig {
            history_bytes: 1024,
            ..AccelConfig::power9()
        };
        let mut data = structured(11, 4096, 256);
        data.copy_within(1024..1040, 2048);
        assert_eq!(split_as_parent(&cfg, &data, 0, 2), [2048]);
        let out = MatchEngine::new(cfg).tokenize(&data).tokens;
        assert!(out.contains(&Token::Match {
            len: 16,
            dist: 1024
        }));
    }

    #[test]
    fn covers_meet_within_the_first_checkpoints_on_mixed_data() {
        // The caller adopts every helper's cover within its segment's first
        // 2 048 lane windows.
        let data = nx_corpus::mixed(7 | 1 << 32, 240_000);
        for cfg in [AccelConfig::power9(), AccelConfig::z15()] {
            let windows = data.len().div_ceil(cfg.lanes);
            let starts = (1..4).map(|i| windows * i / 4 * cfg.lanes);
            let adopted = split_as_parent(&cfg, &data, 0, 4);
            assert_eq!(adopted.len(), 3, "{adopted:?}");
            for (at, from) in adopted.into_iter().zip(starts) {
                assert!(
                    at - from < 2048 * cfg.lanes,
                    "adopted at {from} + {}",
                    at - from
                );
            }
        }
    }

    #[test]
    fn dead_helpers_leave_their_segments_to_the_fused_loop() {
        let data = nx_corpus::mixed(7 | 1 << 32, 240_000);
        for cfg in [AccelConfig::power9(), AccelConfig::z15()] {
            let split = |start, segments, dead: &[usize]| {
                dying_split_as_parent(&cfg, &data, start, segments, dead).len()
            };
            assert_eq!(split(0, 4, &[]), 3);
            // The last segment; the inner ones; every one, after history.
            assert_eq!(split(0, 3, &[2]), 1);
            assert_eq!(split(0, 4, &[1, 2]), 1);
            assert_eq!(split(20_000, 4, &[1, 2, 3]), 0);
        }
    }

    #[test]
    fn segment_route_equals_parent_loop_at_the_seams() {
        let mut cfg = AccelConfig::power9();
        // A run: every window emits only matches, so the two covers' runs of
        // trailing matches never agree and the caller fuses every segment.
        let run = vec![b'r'; 60_000];
        for segments in 2..=4 {
            assert_eq!(split_as_parent(&cfg, &run, 0, segments), []);
        }
        // Mixed input: the covers meet in most segments.
        let mut took = 0;
        for seed in 0..24 {
            let data = structured(seed, 6_000, 24);
            took += split_as_parent(&cfg, &data, 0, 3).len();
        }
        assert!(took >= 24, "covers met {took} times in 48 segments");
        // A short window: history straddles `start` and the segment starts.
        cfg.history_bytes = 1024;
        let data = structured(3, 9_000, 5);
        for start in [0, 700, 1_500, 4_000] {
            split_as_parent(&cfg, &data, start, 4);
        }
        // Tiny segments down to one window, and more asked than windows.
        for len in [0usize, 1, 2, 3, 8, 9, 17, 40] {
            split_as_parent(&cfg, &data[..len], 0, 4);
        }
    }

    #[test]
    fn inputs_around_min_match_equal_parent_loop() {
        for lanes in [1, 3, 8, 16] {
            let cfg = AccelConfig {
                lanes,
                ..AccelConfig::power9()
            };
            for len in 0..=2 * MIN_MATCH + 1 {
                for start in 0..=len {
                    assert_same_as_parent(&cfg, &b"aaaaaaa"[..len], start);
                    assert_same_as_parent(&cfg, &b"abcabca"[..len], start);
                }
            }
        }
    }

    #[test]
    fn stall_fast_path_equals_parent_bank() {
        // The identity table's bank shapes (power9, z15, w3b5p1), one port
        // past the 4-bit fields' reach, four banks to a field, and lane
        // windows past 16.
        let shapes = [
            (8, 12, 16, 2),
            (16, 13, 32, 4),
            (8, 12, 5, 1),
            (16, 12, 16, 8),
            (8, 12, 64, 2),
            (24, 12, 16, 4),
            (64, 8, 4, 3),
        ];
        let mut x = 0x5EED_0FBA_4E5Eu64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 20) as usize % n
        };
        for (lanes, bits, banks, ports) in shapes {
            let mut bank = HashBank::new(bits, 4, banks);
            let parent = reference::ParentBank::new(bits, 4, banks);
            for _ in 0..20_000 {
                // Sets drawn from a few in a few banks: duplicate lanes and
                // crowded banks on most cycles.
                let (n, spread) = (1 + next(lanes), 1 + next(lanes));
                let hot: Vec<usize> = (0..1 + next(4)).map(|_| next(banks)).collect();
                let pick: Vec<usize> = (0..spread)
                    .map(|_| hot[next(hot.len())] + banks * next((1 << bits) / banks))
                    .collect();
                let sets: Vec<usize> = (0..n).map(|_| pick[next(spread)]).collect();
                let mut merged = sets.clone();
                merged.sort_unstable();
                merged.dedup();
                assert_eq!(
                    bank.conflict_stalls(&sets, ports),
                    parent.conflict_stalls(&merged, ports),
                    "{sets:?} over {banks} banks of {ports} ports"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn lane_window_loop_equals_parent_loop(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..12_000,
            alphabet in 1u64..48,
            start_eighths in 0usize..9,
            lanes_pick in 0usize..4,
            shape in 0usize..3,
            greedy in proptest::prelude::any::<bool>(),
        ) {
            let mut cfg = AccelConfig::power9();
            cfg.lanes = [1, 3, 8, 16][lanes_pick];
            if greedy {
                cfg.resolution = Resolution::Greedy;
            }
            match shape {
                // Off the preset shapes: odd ways and banks, one port.
                1 => (cfg.hash_ways, cfg.hash_banks, cfg.bank_read_ports) = (3, 5, 1),
                // A short window and a tiny table: evictions and
                // out-of-window candidates on every probe.
                2 => (cfg.history_bytes, cfg.hash_bits, cfg.hash_ways) = (1024, 6, 2),
                _ => {}
            }
            let data = structured(seed, len, alphabet);
            assert_same_as_parent(&cfg, &data, len * start_eighths / 8);
        }

        #[test]
        fn segment_route_equals_parent_loop(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..12_000,
            alphabet in 1u64..48,
            start_eighths in 0usize..9,
            lanes_pick in 0usize..4,
            shape in 0usize..4,
            greedy in proptest::prelude::any::<bool>(),
            segments in 2usize..5,
        ) {
            let mut cfg = AccelConfig::power9();
            cfg.lanes = [1, 3, 8, 16][lanes_pick];
            match shape {
                1 => (cfg.hash_ways, cfg.hash_banks, cfg.bank_read_ports) = (3, 5, 1),
                2 => (cfg.history_bytes, cfg.hash_bits, cfg.hash_ways) = (1024, 6, 2),
                3 => cfg = AccelConfig::z15(),
                _ => {}
            }
            if greedy {
                cfg.resolution = Resolution::Greedy;
            }
            let data = structured(seed, len, alphabet);
            let start = len * start_eighths / 8;
            let windows = (len - start).div_ceil(cfg.lanes);
            let took = split_as_parent(&cfg, &data, start, segments).len();
            proptest::prop_assert!(took < segments.min(windows.max(1)));
        }
    }
}
