//! The banked, set-associative hash table of the match engine.
//!
//! Each set stores the last `ways` positions whose 3-byte prefix hashed to
//! it (FIFO replacement — hardware uses a shift-in), newest first in one
//! row. Sets are distributed over `banks` independently-ported SRAM banks;
//! the matcher counts same-cycle lookups into one bank as stall cycles,
//! the structural hazard the paper's multi-lane design has to provision
//! against. A way holds a stamp, `base + pos + 1`: a reset advances `base`
//! past every stamp the table holds instead of clearing it, and the rows
//! are cleared only when the `u32` stamps would wrap.

/// Ways one row holds: the widest associativity the model represents.
pub(crate) const ROW: usize = 8;

/// The low and the high bit of every 4-bit field of a `u64`.
const LOW: u64 = u64::MAX / 15;
const HIGH: u64 = LOW << 3;

/// The hash table model.
#[derive(Debug)]
pub(crate) struct HashBank {
    /// Stamps per set, newest first; ways past `ways` are never read.
    rows: Vec<[u32; ROW]>,
    ways: usize,
    banks: usize,
    /// `32 - hash_bits`: the multiplicative hash keeps its top bits.
    shift: u32,
    /// `banks - 1` when `banks` is a power of two (every shipped shape),
    /// so the bank of a set is a mask rather than a division.
    bank_mask: Option<usize>,
    /// Stamps at or below `base` are stale; `end` is the largest the
    /// current request can issue.
    base: u32,
    end: u32,
    /// Per-bank access counts of a cycle the fast path cannot settle.
    counts: Vec<u32>,
}

impl HashBank {
    /// Creates an empty table with `2^hash_bits` sets of `ways` entries
    /// spread over `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds a row.
    pub(crate) fn new(hash_bits: u32, ways: usize, banks: usize) -> Self {
        assert!(ways <= ROW, "ways beyond the bank row");
        Self {
            rows: vec![[0; ROW]; 1 << hash_bits],
            ways,
            banks,
            shift: 32 - hash_bits,
            bank_mask: banks.is_power_of_two().then(|| banks - 1),
            base: 0,
            end: 0,
            counts: vec![0; banks],
        }
    }

    /// Multiplicative hash of a 3-byte prefix to a set index.
    #[inline]
    pub(crate) fn hash(&self, data: &[u8], pos: usize) -> usize {
        let b = &data[pos..pos + 3];
        let v = u32::from(b[0]) | (u32::from(b[1]) << 8) | (u32::from(b[2]) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// The bank a set lives in.
    #[inline]
    pub(crate) fn bank_of(&self, set: usize) -> usize {
        match self.bank_mask {
            Some(mask) => set & mask,
            None => set % self.banks,
        }
    }

    /// The stamp of position `pos` of the current request. A way is a
    /// candidate for `pos` at distance `stamp(pos) - way` when that lies in
    /// `1..=pos` (the way is current) and inside the history window.
    #[inline]
    pub(crate) fn stamp(&self, pos: usize) -> u32 {
        self.base.wrapping_add(pos as u32).wrapping_add(1)
    }

    /// The stamps of `set`, newest first: once a way is stale or out of
    /// the window, so is every way after it.
    #[inline]
    pub(crate) fn row(&self, set: usize) -> &[u32] {
        &self.rows[set][..self.ways]
    }

    /// Inserts `pos` into `set`, evicting FIFO.
    #[inline]
    pub(crate) fn insert(&mut self, set: usize, pos: usize) {
        let stamp = self.stamp(pos);
        let row = &mut self.rows[set];
        row.copy_within(..ROW - 1, 1);
        row[0] = stamp;
    }

    /// Starts a request that stamps the positions below `positions`, every
    /// entry stale (the hardware zeroes the table per job). Past 4 GiB the
    /// stamps wrap: a way read then is still compared byte for byte.
    pub(crate) fn reset(&mut self, positions: usize) {
        if ((u32::MAX - self.end) as usize) < positions {
            self.rows.fill([0; ROW]);
            self.end = 0;
        }
        self.base = self.end;
        self.end = self.base.wrapping_add(positions as u32);
    }

    /// Counts the stall cycles implied by one cycle's lane lookups, given
    /// as the set each lane probes. Identical set indices merge into one
    /// physical access (the hardware combines duplicate lane requests —
    /// crucial for runs, where every lane hashes identically); each bank
    /// then serves `read_ports` accesses per cycle, so the cycle's stalls
    /// are `max_over_banks(ceil(accesses / read_ports)) - 1`.
    ///
    /// The common cycle is settled from raw counts, a lane merged only
    /// with its left neighbour: never below the merged counts, so no bank
    /// over its ports there means no stall. Banks fold onto the 4-bit
    /// fields of a `u64` (a field bounds each of its banks); the last lane
    /// stays apart so no field passes 15.
    ///
    /// # Panics
    ///
    /// Panics if `read_ports == 0`.
    #[inline]
    pub(crate) fn conflict_stalls(&mut self, lane_sets: &[usize], read_ports: u32) -> u64 {
        assert!(read_ports > 0, "banks need at least one read port");
        let Some((&last, rest)) = lane_sets.split_last() else {
            return 0;
        };
        if rest.len() < 16 && read_ports < 8 {
            let field = |set| 4 * (self.bank_of(set) & 15);
            let (mut raw, mut left) = (0u64, usize::MAX);
            for &set in rest {
                raw += u64::from(set != left) << field(set);
                left = set;
            }
            // A field over `read_ports` sets its high bit once `7 -
            // read_ports` is added below it.
            let over = (((raw & !HIGH) + LOW * u64::from(7 - read_ports)) | raw) & HIGH;
            let last_raw = (raw >> field(last)) as u32 & 15;
            if over == 0 && last_raw + u32::from(last != left) <= read_ports {
                return 0;
            }
        }
        self.merged_stalls(lane_sets, read_ports)
    }

    /// [`Self::conflict_stalls`] with duplicate lanes merged.
    #[inline(never)]
    fn merged_stalls(&mut self, lane_sets: &[usize], read_ports: u32) -> u64 {
        self.counts.fill(0);
        let mut worst = 0u32;
        for (lane, &set) in lane_sets.iter().enumerate() {
            if !lane_sets[..lane].contains(&set) {
                let bank = self.bank_of(set);
                self.counts[bank] += 1;
                worst = worst.max(self.counts[bank]);
            }
        }
        u64::from(worst.div_ceil(read_ports) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HashBank {
        /// Moves the stamp space to `room` stamps below the wrap, as if
        /// the table had served requests until then.
        pub(crate) fn near_wrap(&mut self, room: u32) {
            self.end = u32::MAX - room;
        }

        /// The largest stamp the current request can issue.
        pub(crate) fn stamp_end(&self) -> u32 {
            self.end
        }
    }

    /// The positions `set` holds for the current request, newest first.
    fn current(hb: &HashBank, set: usize) -> Vec<usize> {
        (hb.row(set).iter())
            .take_while(|&&s| s > hb.base)
            .map(|&s| (s - hb.base - 1) as usize)
            .collect()
    }

    #[test]
    fn insert_and_lookup_newest_first() {
        let mut hb = HashBank::new(8, 4, 4);
        hb.reset(1000);
        hb.insert(3, 100);
        hb.insert(3, 200);
        hb.insert(3, 300);
        assert_eq!(current(&hb, 3), vec![300, 200, 100]);
        // Distances from a later position are stamp differences.
        let dist: Vec<u32> = hb.row(3).iter().map(|&s| hb.stamp(350) - s).collect();
        assert_eq!(dist[..3], [50, 150, 250]);
    }

    #[test]
    fn fifo_eviction() {
        let mut hb = HashBank::new(8, 2, 4);
        hb.reset(10);
        hb.insert(5, 1);
        hb.insert(5, 2);
        hb.insert(5, 3); // evicts 1
        assert_eq!(current(&hb, 5), vec![3, 2]);
    }

    #[test]
    fn reset_clears() {
        let mut hb = HashBank::new(6, 2, 2);
        hb.reset(8);
        hb.insert(0, 7);
        hb.reset(8);
        assert_eq!(current(&hb, 0), vec![]);
        // The last request's newest stamp sits exactly at the new base:
        // one past position 0's reach.
        assert_eq!(hb.stamp(0) - hb.row(0)[0], 1);
        hb.insert(0, 3);
        assert_eq!(current(&hb, 0), vec![3]);
    }

    #[test]
    fn stamps_clear_the_rows_only_where_they_would_wrap() {
        let mut hb = HashBank::new(6, 2, 2);
        hb.near_wrap(100);
        hb.reset(60);
        hb.insert(1, 59);
        let kept = hb.row(1)[0];
        hb.reset(40);
        assert_eq!(hb.row(1)[0], kept, "room for 40: no clear");
        hb.insert(1, 39);
        assert_eq!(hb.row(1)[0], u32::MAX);
        hb.reset(1);
        assert_eq!((hb.row(1), hb.base, hb.stamp_end()), (&[0, 0][..], 0, 1));
        assert_eq!(current(&hb, 1), vec![]);
    }

    #[test]
    fn hash_is_in_range_and_stable() {
        let hb = HashBank::new(10, 4, 8);
        let data = b"abcdefgh";
        for pos in 0..data.len() - 3 {
            let h = hb.hash(data, pos);
            assert!(h < 1 << 10);
            assert_eq!(h, hb.hash(data, pos));
        }
    }

    #[test]
    fn same_prefix_same_set() {
        let hb = HashBank::new(12, 4, 16);
        let data = b"xyz123xyz456";
        assert_eq!(hb.hash(data, 0), hb.hash(data, 6));
    }

    #[test]
    fn conflict_stall_accounting() {
        let mut hb = HashBank::new(8, 4, 4);
        // Sets 0 and 4 share bank 0; 1 is bank 1. Single-ported:
        assert_eq!(hb.conflict_stalls(&[0, 4, 1], 1), 1);
        assert_eq!(hb.conflict_stalls(&[0, 1, 2, 3], 1), 0);
        assert_eq!(hb.conflict_stalls(&[0, 4, 8, 12], 1), 3);
        assert_eq!(hb.conflict_stalls(&[], 1), 0);
        // Dual-ported: two same-bank accesses are free, four cost one.
        assert_eq!(hb.conflict_stalls(&[0, 4, 1], 2), 0);
        assert_eq!(hb.conflict_stalls(&[0, 4, 8, 12], 2), 1);
        // Lanes probing the same set are one access.
        assert_eq!(hb.conflict_stalls(&[4, 0, 4, 4, 0, 4], 1), 1);
        assert_eq!(hb.conflict_stalls(&[7; 8], 1), 0);
        // Sixteen lanes in one bank: the last lane alone reaches 16.
        assert_eq!(hb.conflict_stalls(&[2; 16], 4), 0);
        let sets: Vec<usize> = (0..16).map(|i| 4 * i).collect();
        assert_eq!(hb.conflict_stalls(&sets, 4), 3);
        assert_eq!(hb.conflict_stalls(&sets, 7), 2);
        // Banks that are not a power of two take the division path.
        let mut odd = HashBank::new(8, 4, 5);
        assert_eq!(odd.conflict_stalls(&[0, 5, 10, 1], 1), 2);
        assert_eq!(odd.conflict_stalls(&[0, 5, 10, 1], 2), 1);
    }
}
