//! The banked, set-associative hash table of the match engine.
//!
//! Each set stores the last `ways` positions whose 3-byte prefix hashed to
//! it (FIFO replacement — hardware uses a shift-in). Sets are distributed
//! over `banks` independently-ported SRAM banks; the matcher counts
//! same-cycle lookups into one bank as stall cycles, the structural hazard
//! the paper's multi-lane design has to provision against.

/// Sentinel for an empty way.
const NIL: u32 = u32::MAX;

/// The hash table model.
#[derive(Debug, Clone)]
pub struct HashBank {
    /// `sets × ways` positions, row-major.
    slots: Vec<u32>,
    /// Per-set FIFO insert cursor.
    cursor: Vec<u8>,
    ways: usize,
    banks: usize,
    /// `32 - hash_bits`: the multiplicative hash keeps its top bits.
    shift: u32,
    /// `banks - 1` when `banks` is a power of two (every shipped shape),
    /// so the bank of a set is a mask rather than a division.
    bank_mask: Option<usize>,
    /// Per-bank access counts of the cycle being priced.
    counts: Vec<u32>,
}

impl HashBank {
    /// Creates an empty table with `2^hash_bits` sets of `ways` entries
    /// spread over `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds what the per-set `u8` cursor addresses.
    pub fn new(hash_bits: u32, ways: usize, banks: usize) -> Self {
        assert!(ways <= usize::from(u8::MAX), "ways beyond the u8 cursor");
        let sets = 1usize << hash_bits;
        Self {
            slots: vec![NIL; sets * ways],
            cursor: vec![0; sets],
            ways,
            banks,
            shift: 32 - hash_bits,
            bank_mask: banks.is_power_of_two().then(|| banks - 1),
            counts: vec![0; banks],
        }
    }

    /// Multiplicative hash of a 3-byte prefix to a set index.
    #[inline]
    pub fn hash(&self, data: &[u8], pos: usize) -> usize {
        let b = &data[pos..pos + 3];
        let v = u32::from(b[0]) | (u32::from(b[1]) << 8) | (u32::from(b[2]) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// The bank a set lives in.
    #[inline]
    pub fn bank_of(&self, set: usize) -> usize {
        match self.bank_mask {
            Some(mask) => set & mask,
            None => set % self.banks,
        }
    }

    /// Returns the valid candidate positions in `set`, newest first.
    #[inline]
    pub fn lookup(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.slots[set * self.ways..][..self.ways];
        let mut way = usize::from(self.cursor[set]);
        // Newest first: walk backwards from the cursor, wrapping once. A
        // set fills in cursor order and never empties between resets, so
        // the first empty way ends the walk.
        (0..self.ways).map_while(move |_| {
            way = if way == 0 { row.len() } else { way } - 1;
            let v = row[way];
            (v != NIL).then_some(v as usize)
        })
    }

    /// Inserts `pos` into `set`, evicting FIFO.
    #[inline]
    pub fn insert(&mut self, set: usize, pos: usize) {
        let cur = self.cursor[set];
        self.slots[set * self.ways + usize::from(cur)] = pos as u32;
        self.cursor[set] = if usize::from(cur) + 1 == self.ways {
            0
        } else {
            cur + 1
        };
    }

    /// Clears all entries (between independent requests — the hardware
    /// zeroes the table per job so no state leaks across users).
    pub fn reset(&mut self) {
        self.slots.fill(NIL);
        self.cursor.fill(0);
    }

    /// Counts the stall cycles implied by one cycle's lane lookups, given
    /// as the set each lane probes. Identical set indices merge into one
    /// physical access (the hardware combines duplicate lane requests —
    /// crucial for runs, where every lane hashes identically); each bank
    /// then serves `read_ports` accesses per cycle, so the cycle's stalls
    /// are `max_over_banks(ceil(accesses / read_ports)) - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `read_ports == 0`.
    pub fn conflict_stalls(&mut self, lane_sets: &[usize], read_ports: u32) -> u64 {
        assert!(read_ports > 0, "banks need at least one read port");
        self.counts.fill(0);
        let mut worst = 0u32;
        for (lane, &set) in lane_sets.iter().enumerate() {
            if lane_sets[..lane].contains(&set) {
                continue;
            }
            let bank = self.bank_of(set);
            self.counts[bank] += 1;
            worst = worst.max(self.counts[bank]);
        }
        if worst <= read_ports {
            return 0; // the common cycle: no bank over its ports
        }
        u64::from(worst.div_ceil(read_ports) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup_newest_first() {
        let mut hb = HashBank::new(8, 4, 4);
        hb.insert(3, 100);
        hb.insert(3, 200);
        hb.insert(3, 300);
        let got: Vec<usize> = hb.lookup(3).collect();
        assert_eq!(got, vec![300, 200, 100]);
    }

    #[test]
    fn fifo_eviction() {
        let mut hb = HashBank::new(8, 2, 4);
        hb.insert(5, 1);
        hb.insert(5, 2);
        hb.insert(5, 3); // evicts 1
        let got: Vec<usize> = hb.lookup(5).collect();
        assert_eq!(got, vec![3, 2]);
    }

    #[test]
    fn reset_clears() {
        let mut hb = HashBank::new(6, 2, 2);
        hb.insert(0, 7);
        hb.reset();
        assert_eq!(hb.lookup(0).count(), 0);
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
        // Banks that are not a power of two take the division path.
        let mut odd = HashBank::new(8, 4, 5);
        assert_eq!(odd.conflict_stalls(&[0, 5, 10, 1], 1), 2);
        assert_eq!(odd.conflict_stalls(&[0, 5, 10, 1], 2), 1);
    }
}
