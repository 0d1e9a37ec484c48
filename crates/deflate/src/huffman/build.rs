//! Code-length construction: frequency histogram → per-symbol code lengths,
//! on fixed stack arrays (no allocation) and in time proportional to the
//! symbols a block *used*: one branch-free pass marks them (`Used`), and
//! every step after it walks the marks in symbol order, not the alphabet.
//!
//! [`limited_lengths`] builds the classic two-queue Huffman tree and,
//! when it is deeper than `max_len`, falls back to **package-merge** on the
//! same sorted leaves. DEFLATE caps literal/length and distance codes at 15
//! bits and the code-length alphabet at 7, so this is the constructor the
//! encoder (and the hardware model in `nx-accel`, which mimics the on-chip
//! table builder) uses, and with no limit (`u8::MAX`) it is plain Huffman. The
//! leaves are sorted by a stable radix sort on the weight's bytes, and the
//! build counts the codes of each length: all the first codes need.
//!
//! **Lengths are reproducible because ties are.** Code lengths decide stream
//! bytes and several optimal trees usually exist, so every choice is pinned:
//! leaves are ordered by weight, then symbol (the sort key is
//! `weight << 16 | symbol`, so an unstable sort yields the stable order),
//! and where a leaf and a package weigh the same the *leaf* goes first, in
//! the Huffman merge and in every package-merge level alike. A rewrite of
//! this file is therefore checked by diffing lengths against the bodies it
//! replaced (`mod reference` below), never by comparing costs.

/// The largest alphabet the scratch holds: DEFLATE's literal/length one.
pub const MAX_SYMBOLS: usize = 288;

/// Scratch size for the two small alphabets (distance, code-length), which
/// should not pay for clearing the large one's.
pub(crate) const SMALL_SYMBOLS: usize = 32;

/// How many codes there are of each length (`[0]` unused).
pub(crate) type LengthCounts = super::FirstCodes;

/// The used symbols of an alphabet: bit `s % 64` of word `s / 64` is set
/// where symbol `s` has a nonzero count (or code length).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Used {
    words: [u64; MAX_SYMBOLS.div_ceil(64)],
    /// How many bits are set.
    pub(crate) count: usize,
}

impl Used {
    /// One branch-free pass over `counts` (at most [`MAX_SYMBOLS`]).
    pub(crate) fn of<T: Copy + Into<u32>>(counts: &[T]) -> Self {
        let mut words = [0u64; MAX_SYMBOLS.div_ceil(64)];
        for (word, chunk) in words.iter_mut().zip(counts.chunks(64)) {
            let bit = |(i, &c): (usize, &T)| u64::from(c.into() != 0) << i;
            *word = chunk.iter().enumerate().map(bit).fold(0, |w, b| w | b);
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Self { words, count }
    }

    /// One past the highest used symbol (0 when none is).
    pub(crate) fn end(&self) -> usize {
        let mut words = self.words.iter().enumerate();
        let (i, w) = words.rfind(|(_, &w)| w != 0).unwrap_or((0, &0));
        64 * i + 64 - w.leading_zeros() as usize
    }

    /// Marks the lowest unused symbols until two are used (zlib's "force at
    /// least two codes" rule: the code is complete). They are in word 0.
    pub(crate) fn force_two(&mut self) {
        for _ in self.count..2 {
            self.words[0] |= 1 << (!self.words[0]).trailing_zeros();
        }
        self.count = self.count.max(2);
    }

    /// Calls `f` on each used symbol, in order.
    pub(crate) fn each(&self, mut f: impl FnMut(usize)) {
        for (i, mut word) in self.words.into_iter().enumerate() {
            while word != 0 {
                f(64 * i + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }
}

/// The symbols `used` marks as `weight << 16 | symbol` keys, lightest first
/// (ties in symbol order); returns how many there are. A marked symbol
/// without a count weighs 1 (a code the plan forces). The keys come in
/// symbol order, so a stable radix sort on the weight's two bytes sorts
/// them; a few keys, or weights past 16 bits, take `sort_unstable`.
fn sorted_leaves<const N: usize>(freqs: &[u32], used: &Used, keys: &mut [u64; N]) -> usize {
    let (mut n, mut heaviest) = (0, 0u32);
    used.each(|symbol| {
        let weight = freqs[symbol].max(1);
        heaviest |= weight;
        keys[n] = u64::from(weight) << 16 | symbol as u64;
        n += 1;
    });
    if n < 32 || heaviest >> 16 != 0 {
        keys[..n].sort_unstable();
    } else {
        let mut low = [0u64; N];
        radix_pass(&keys[..n], &mut low[..n], 16, heaviest);
        if heaviest >> 8 == 0 {
            keys[..n].copy_from_slice(&low[..n]);
        } else {
            radix_pass(&low[..n], &mut keys[..n], 24, heaviest);
        }
    }
    n
}

/// One stable counting-sort pass of `from` into `to` on the byte at key bit
/// `shift`; `heaviest` (the OR of the weights) bounds its values.
fn radix_pass(from: &[u64], to: &mut [u64], shift: u32, heaviest: u32) {
    let mut at = [0u16; 256];
    for &key in from {
        at[(key >> shift) as usize & 255] += 1;
    }
    let mut sum = 0;
    for slot in &mut at[..=(u64::from(heaviest) << 16 >> shift).min(255) as usize] {
        (*slot, sum) = (sum, sum + *slot);
    }
    for &key in from {
        let slot = &mut at[(key >> shift) as usize & 255];
        to[usize::from(*slot)] = key;
        *slot += 1;
    }
}

/// Two-queue Huffman over the sorted `leaves` (at most `N`), writing each
/// leaf's depth to its symbol's slot of `lengths` and counting the depths
/// (past 15 in `[15]`); returns the deepest and the counts.
///
/// The leaves are one queue; the packages, made in nondecreasing weight
/// order, are the other, and `made` of them exist while package `made` is
/// being paired. A node's parent is always a later package, which is what
/// lets one backward pass over the packages turn `up[]` into depths in
/// place before the leaves read theirs.
fn huffman_depths<const N: usize>(leaves: &[u64], lengths: &mut [u8]) -> (u8, LengthCounts) {
    let (n, mut counts) = (leaves.len(), LengthCounts::default());
    if n < 2 {
        // A lone symbol still needs one bit: a zero-length code cannot be
        // decoded.
        leaves
            .iter()
            .for_each(|&k| lengths[(k & 0xFFFF) as usize] = 1);
        counts[1] = n as u16;
        return (n as u8, counts);
    }
    let mut weight = [0u64; N];
    // The parent (a package index) of each leaf and of each package.
    let (mut leaf_up, mut up) = ([0u16; N], [0u16; N]);
    let (mut leaf, mut package) = (0usize, 0usize);
    for made in 0..n - 1 {
        let mut sum = 0;
        for _ in 0..2 {
            // A leaf goes first on equal weight.
            if leaf < n && (package == made || leaves[leaf] >> 16 <= weight[package]) {
                sum += leaves[leaf] >> 16;
                leaf_up[leaf] = made as u16;
                leaf += 1;
            } else {
                sum += weight[package];
                up[package] = made as u16;
                package += 1;
            }
        }
        weight[made] = sum;
    }
    let root = n - 2;
    up[root] = 0;
    for p in (0..root).rev() {
        up[p] = up[usize::from(up[p])] + 1;
    }
    let mut deepest = 0;
    for (&key, &parent) in leaves.iter().zip(&leaf_up) {
        let depth = up[usize::from(parent)] + 1;
        lengths[(key & 0xFFFF) as usize] = depth as u8;
        counts[usize::from(depth.min(15))] += 1;
        deepest = deepest.max(depth);
    }
    (deepest.min(255) as u8, counts)
}

/// Optimal code lengths for `freqs` subject to `max_len` (`u8::MAX`: no
/// limit): the plain Huffman tree when it fits (it is then optimal), else
/// package-merge.
///
/// Zero-frequency symbols receive length 0; a single used symbol receives
/// length 1. The result always satisfies the Kraft equality over used
/// symbols (a complete code) unless fewer than two symbols are used.
///
/// # Panics
///
/// Panics if the tree is too deep and the constraint infeasible
/// (`used_symbols > 2^max_len`; DEFLATE's alphabets — ≤ 288 symbols, limit
/// 15; ≤ 19 symbols, limit 7 — always fit) or `max_len` outside `1..=15`,
/// and if `freqs` is longer than [`MAX_SYMBOLS`].
pub fn limited_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
    let (mut lengths, used) = (vec![0u8; freqs.len()], Used::of(freqs));
    if freqs.len() <= SMALL_SYMBOLS {
        used_lengths_into::<SMALL_SYMBOLS>(freqs, &used, max_len, &mut lengths);
    } else {
        used_lengths_into::<MAX_SYMBOLS>(freqs, &used, max_len, &mut lengths);
    }
    lengths
}

/// [`limited_lengths`] over the symbols `used` marks (at most `N`), into
/// `lengths` zeroed at the others; returns the counts of each length.
pub(crate) fn used_lengths_into<const N: usize>(
    freqs: &[u32],
    used: &Used,
    max_len: u8,
    lengths: &mut [u8],
) -> LengthCounts {
    assert!(freqs.len() <= N, "alphabet larger than DEFLATE's");
    let mut keys = [0u64; N];
    let n = sorted_leaves(freqs, used, &mut keys);
    match huffman_depths::<N>(&keys[..n], lengths) {
        (deepest, _) if deepest > max_len => package_merge::<N>(&keys[..n], max_len, lengths),
        (_, counts) => counts,
    }
}

/// Package-merge in prefix-count form over the sorted `leaves` (at most
/// `N`), replacing their `lengths`; returns the counts of each length.
/// Level 1 is the singles (the leaves); level k + 1 merges them with the
/// packages (adjacent pairs) of level k, a single first on equal weight. A
/// level keeps only its items' weights and which of them are singles: the
/// first `m` items of a level are its first `s` singles -- the `s` lightest
/// symbols, one bit each -- and its first `m - s` packages, i.e. the first
/// `2 (m - s)` items of the level below. No leaf list is ever built; a
/// level is under `2n` items.
fn package_merge<const N: usize>(leaves: &[u64], max_len: u8, lengths: &mut [u8]) -> LengthCounts {
    let n = leaves.len();
    assert!(
        (1..=15).contains(&max_len) && n <= 1usize << max_len,
        "cannot code {n} symbols within {max_len} bits"
    );
    let (mut level, mut merged) = ([[0u64; N]; 2], [[0u64; N]; 2]);
    let (mut level, mut merged) = (level.as_flattened_mut(), merged.as_flattened_mut());
    let mut is_single = [[false; N]; 28];
    let is_single = is_single.as_flattened_mut();
    let mut starts = [0usize; 14];
    for (slot, &leaf) in level.iter_mut().zip(leaves) {
        *slot = leaf >> 16;
    }
    let (mut level_len, mut flags) = (n, 0usize);
    for start in starts.iter_mut().take(usize::from(max_len) - 1) {
        *start = flags;
        let (mut next, mut len) = (0usize, 0usize);
        for pair in level[..level_len].chunks_exact(2) {
            let package = pair[0] + pair[1];
            let lighter = leaves[next..].partition_point(|&leaf| leaf >> 16 <= package);
            for &leaf in &leaves[next..next + lighter] {
                merged[len] = leaf >> 16;
                len += 1;
            }
            is_single[flags..flags + lighter].fill(true);
            flags += lighter + 1; // the package's flag stays false
            next += lighter;
            merged[len] = package;
            len += 1;
        }
        for &leaf in &leaves[next..] {
            merged[len] = leaf >> 16;
            len += 1;
        }
        is_single[flags..flags + (n - next)].fill(true);
        flags += n - next;
        std::mem::swap(&mut level, &mut merged);
        level_len = len;
    }

    // Select the first 2n - 2 items of the top level and follow the
    // packages down: a leaf's length is the count of levels that take it.
    let mut depth = [0u8; N];
    let mut take = (2 * n - 2).min(level_len);
    for &start in starts[..usize::from(max_len) - 1].iter().rev() {
        let taken = &is_single[start..start + take];
        let s = taken.iter().filter(|&&single| single).count();
        depth[..s].iter_mut().for_each(|d| *d += 1);
        take = 2 * (take - s);
    }
    depth[..take].iter_mut().for_each(|d| *d += 1);
    let mut counts = LengthCounts::default();
    for (&leaf, &d) in leaves.iter().zip(&depth) {
        lengths[(leaf & 0xFFFF) as usize] = d;
        counts[usize::from(d)] += 1;
    }
    counts
}

#[cfg(test)]
/// The constructions as they stood before the prefix-count rewrite
/// (issue 23): package-merge with every package's leaf list cloned at every
/// level. Kept verbatim as the oracle the tests below diff against.
pub(crate) mod reference {
    /// The stack builder as it stood before the used-symbol bitmap: leaves
    /// scanned from the whole alphabet and sorted with `sort_unstable`, no
    /// length counts. Verbatim.
    #[allow(dead_code)]
    pub mod stack {
        /// The largest alphabet the scratch holds: DEFLATE's literal/length one.
        pub const MAX_SYMBOLS: usize = 288;

        /// Scratch size for the two small alphabets (distance, code-length), which
        /// should not pay for clearing the large one's.
        const SMALL_SYMBOLS: usize = 32;

        /// The used symbols of `freqs` as `weight << 16 | symbol` keys, lightest
        /// first (ties in symbol order); returns how many there are.
        fn sorted_leaves<const N: usize>(freqs: &[u32], keys: &mut [u64; N]) -> usize {
            let mut n = 0;
            for (symbol, &f) in freqs.iter().enumerate() {
                if f > 0 {
                    keys[n] = u64::from(f) << 16 | symbol as u64;
                    n += 1;
                }
            }
            keys[..n].sort_unstable();
            n
        }

        /// Two-queue Huffman over the sorted `leaves` (at most `N`), writing each
        /// leaf's depth to its symbol's slot of `lengths`; returns the deepest.
        ///
        /// The leaves are one queue; the packages, made in nondecreasing weight
        /// order, are the other, and `made` of them exist while package `made` is
        /// being paired. A node's parent is always a later package, which is what
        /// lets one backward pass over the packages turn `up[]` into depths in
        /// place before the leaves read theirs.
        fn huffman_depths<const N: usize>(leaves: &[u64], lengths: &mut [u8]) -> u8 {
            let n = leaves.len();
            if n < 2 {
                // A lone symbol still needs one bit: a zero-length code cannot be
                // decoded.
                leaves
                    .iter()
                    .for_each(|&k| lengths[(k & 0xFFFF) as usize] = 1);
                return n as u8;
            }
            let mut weight = [0u64; N];
            // The parent (a package index) of each leaf and of each package.
            let (mut leaf_up, mut up) = ([0u16; N], [0u16; N]);
            let (mut leaf, mut package) = (0usize, 0usize);
            for made in 0..n - 1 {
                let mut sum = 0;
                for _ in 0..2 {
                    // A leaf goes first on equal weight.
                    if leaf < n && (package == made || leaves[leaf] >> 16 <= weight[package]) {
                        sum += leaves[leaf] >> 16;
                        leaf_up[leaf] = made as u16;
                        leaf += 1;
                    } else {
                        sum += weight[package];
                        up[package] = made as u16;
                        package += 1;
                    }
                }
                weight[made] = sum;
            }
            let root = n - 2;
            up[root] = 0;
            for p in (0..root).rev() {
                up[p] = up[usize::from(up[p])] + 1;
            }
            let mut deepest = 0;
            for (&key, &parent) in leaves.iter().zip(&leaf_up) {
                let depth = up[usize::from(parent)] + 1;
                lengths[(key & 0xFFFF) as usize] = depth as u8;
                deepest = deepest.max(depth);
            }
            deepest.min(255) as u8
        }

        /// Optimal unbounded Huffman code lengths for `freqs`:
        /// [`limited_lengths`] with no limit.
        pub fn huffman_lengths(freqs: &[u32]) -> Vec<u8> {
            limited_lengths(freqs, u8::MAX)
        }

        /// Builds optimal code lengths for `freqs` subject to `max_len` into
        /// `lengths[..freqs.len()]`: the plain Huffman tree when it fits (it is then
        /// optimal), else package-merge.
        ///
        /// Zero-frequency symbols receive length 0; a single used symbol receives
        /// length 1. The result always satisfies the Kraft equality over used
        /// symbols (a complete code) unless fewer than two symbols are used.
        ///
        /// # Panics
        ///
        /// Panics if the tree is too deep and the constraint infeasible
        /// (`used_symbols > 2^max_len`; DEFLATE's alphabets — ≤ 288 symbols, limit
        /// 15; ≤ 19 symbols, limit 7 — always fit) or `max_len` outside `1..=15`,
        /// and if `freqs` is longer than [`MAX_SYMBOLS`] or than `lengths`.
        pub fn limited_lengths_into(freqs: &[u32], max_len: u8, lengths: &mut [u8]) {
            fn build<const N: usize>(freqs: &[u32], max_len: u8, lengths: &mut [u8]) {
                assert!(freqs.len() <= N, "alphabet larger than DEFLATE's");
                let mut keys = [0u64; N];
                let n = sorted_leaves(freqs, &mut keys);
                lengths.fill(0);
                if huffman_depths::<N>(&keys[..n], lengths) > max_len {
                    package_merge::<N>(&keys[..n], max_len, lengths);
                }
            }
            let lengths = &mut lengths[..freqs.len()];
            if freqs.len() <= SMALL_SYMBOLS {
                build::<SMALL_SYMBOLS>(freqs, max_len, lengths);
            } else {
                build::<MAX_SYMBOLS>(freqs, max_len, lengths);
            }
        }

        /// [`limited_lengths_into`] a fresh vector.
        pub fn limited_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
            let mut lengths = vec![0u8; freqs.len()];
            limited_lengths_into(freqs, max_len, &mut lengths);
            lengths
        }

        /// Package-merge in prefix-count form over the sorted `leaves` (at most
        /// `N`), replacing `lengths`. Level 1 is the singles (the leaves); level
        /// k + 1 merges them with the packages (adjacent pairs) of level k, a single
        /// first on equal weight. A level keeps only its items' weights and which of
        /// them are singles: the first `m` items of a level are its first `s`
        /// singles -- the `s` lightest symbols, one bit each -- and its first `m - s`
        /// packages, i.e. the first `2 (m - s)` items of the level below. No leaf
        /// list is ever built; a level is under `2n` items.
        fn package_merge<const N: usize>(leaves: &[u64], max_len: u8, lengths: &mut [u8]) {
            let n = leaves.len();
            assert!(
                (1..=15).contains(&max_len) && n <= 1usize << max_len,
                "cannot code {n} symbols within {max_len} bits"
            );
            let (mut level, mut merged) = ([[0u64; N]; 2], [[0u64; N]; 2]);
            let (mut level, mut merged) = (level.as_flattened_mut(), merged.as_flattened_mut());
            let mut is_single = [[false; N]; 28];
            let is_single = is_single.as_flattened_mut();
            let mut starts = [0usize; 14];
            for (slot, &leaf) in level.iter_mut().zip(leaves) {
                *slot = leaf >> 16;
            }
            let (mut level_len, mut flags) = (n, 0usize);
            for start in starts.iter_mut().take(usize::from(max_len) - 1) {
                *start = flags;
                let (mut next, mut len) = (0usize, 0usize);
                for pair in level[..level_len].chunks_exact(2) {
                    let package = pair[0] + pair[1];
                    let lighter = leaves[next..].partition_point(|&leaf| leaf >> 16 <= package);
                    for &leaf in &leaves[next..next + lighter] {
                        merged[len] = leaf >> 16;
                        len += 1;
                    }
                    is_single[flags..flags + lighter].fill(true);
                    flags += lighter + 1; // the package's flag stays false
                    next += lighter;
                    merged[len] = package;
                    len += 1;
                }
                for &leaf in &leaves[next..] {
                    merged[len] = leaf >> 16;
                    len += 1;
                }
                is_single[flags..flags + (n - next)].fill(true);
                flags += n - next;
                std::mem::swap(&mut level, &mut merged);
                level_len = len;
            }

            // Select the first 2n - 2 items of the top level and follow the
            // packages down.
            lengths.fill(0);
            let mut take = (2 * n - 2).min(level_len);
            for &start in starts[..usize::from(max_len) - 1].iter().rev() {
                let taken = &is_single[start..start + take];
                let s = taken.iter().filter(|&&single| single).count();
                for &leaf in &leaves[..s] {
                    lengths[(leaf & 0xFFFF) as usize] += 1;
                }
                take = 2 * (take - s);
            }
            for &leaf in &leaves[..take] {
                lengths[(leaf & 0xFFFF) as usize] += 1;
            }
        }
    }

    /// The bodies issue 24 replaced (two-queue Huffman on a `Vec<Node>` with a
    /// DFS stack, package-merge on `Vec`s), verbatim.
    pub mod parent {
        /// Builds optimal unbounded Huffman code lengths for `freqs`.
        ///
        /// Symbols with zero frequency receive length 0. If exactly one symbol has
        /// nonzero frequency it receives length 1 (a zero-length code cannot be
        /// decoded). Returns an all-zero vector when every frequency is zero.
        pub fn huffman_lengths(freqs: &[u32]) -> Vec<u8> {
            /// A leaf carries its symbol; an internal node `usize::MAX` and the
            /// indices of its children.
            #[derive(Clone, Copy)]
            struct Node {
                weight: u64,
                left: usize,
                right: usize,
                symbol: usize,
            }
            let mut lengths = vec![0u8; freqs.len()];
            let mut nodes: Vec<Node> = (0..freqs.len())
                .filter(|&s| freqs[s] > 0)
                .map(|symbol| Node {
                    weight: u64::from(freqs[symbol]),
                    left: usize::MAX,
                    right: usize::MAX,
                    symbol,
                })
                .collect();
            nodes.sort_by_key(|n| n.weight);
            let n = nodes.len();
            if n == 0 {
                return lengths;
            }

            // Heap-free two-queue construction: the sorted leaves are one queue,
            // the internal nodes (made in nondecreasing weight order, so `nodes[n..]`
            // is sorted too) the other; a leaf goes first on equal weight.
            let (mut leaf, mut internal) = (0usize, n);
            for _ in 1..n {
                let mut take_min = |nodes: &[Node]| {
                    let leaf_first = leaf < n
                        && (internal == nodes.len()
                            || nodes[leaf].weight <= nodes[internal].weight);
                    leaf += usize::from(leaf_first);
                    internal += usize::from(!leaf_first);
                    (if leaf_first { leaf } else { internal }) - 1
                };
                let (left, right) = (take_min(&nodes), take_min(&nodes));
                nodes.push(Node {
                    weight: nodes[left].weight + nodes[right].weight,
                    left,
                    right,
                    symbol: usize::MAX,
                });
            }

            // Depth-first traversal from the root assigns depths (a lone leaf is
            // its own root and still needs one bit).
            let mut stack = vec![(nodes.len() - 1, 0u8)];
            while let Some((idx, depth)) = stack.pop() {
                let node = nodes[idx];
                if node.symbol != usize::MAX {
                    lengths[node.symbol] = depth.max(1);
                } else {
                    stack.push((node.left, depth + 1));
                    stack.push((node.right, depth + 1));
                }
            }
            lengths
        }

        /// Builds optimal code lengths for `freqs` subject to `max_len`, using the
        /// package-merge algorithm.
        ///
        /// Zero-frequency symbols receive length 0; a single used symbol receives
        /// length 1. The result always satisfies the Kraft equality over used
        /// symbols (a complete code) unless fewer than two symbols are used.
        ///
        /// # Panics
        ///
        /// Panics if the constraint is infeasible, i.e. `used_symbols > 2^max_len`.
        /// DEFLATE's alphabets (≤ 288 symbols, limit 15; ≤ 19 symbols, limit 7)
        /// always fit.
        pub fn limited_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
            // Fast path: if unconstrained Huffman already fits, it is optimal.
            let mut lengths = huffman_lengths(freqs);
            if lengths.iter().all(|&l| l <= max_len) {
                return lengths;
            }
            // The used symbols, lightest first (ties in symbol order).
            let mut order: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
            order.sort_by_key(|&s| freqs[s]);
            let n = order.len();
            assert!(
                n <= 1usize << max_len,
                "cannot code {n} symbols within {max_len} bits"
            );
            let singles: Vec<u64> = order.iter().map(|&s| u64::from(freqs[s])).collect();

            // Package-merge in prefix-count form. Level 1 is the singles; level
            // k + 1 merges them with the packages (adjacent pairs) of level k, a
            // single first on equal weight. A level keeps only its items' weights
            // and which of them are singles: the first `m` items of a level are
            // its first `s` singles -- the `s` lightest symbols, one bit each --
            // and its first `m - s` packages, i.e. the first `2 (m - s)` items of
            // the level below. No leaf list is ever built.
            let (mut level, mut merged) = (singles.clone(), Vec::with_capacity(2 * n));
            let mut is_single = Vec::with_capacity(2 * n * usize::from(max_len));
            let mut starts = Vec::with_capacity(usize::from(max_len));
            for _ in 1..max_len {
                starts.push(is_single.len());
                merged.clear();
                let mut next = 0usize;
                for pair in level.chunks_exact(2) {
                    let package = pair[0] + pair[1];
                    let lighter = singles[next..].partition_point(|&w| w <= package);
                    merged.extend_from_slice(&singles[next..next + lighter]);
                    is_single.resize(is_single.len() + lighter, true);
                    next += lighter;
                    merged.push(package);
                    is_single.push(false);
                }
                merged.extend_from_slice(&singles[next..]);
                is_single.resize(is_single.len() + (n - next), true);
                std::mem::swap(&mut level, &mut merged);
            }

            // Select the first 2n - 2 items of the top level and follow the
            // packages down.
            lengths.fill(0);
            let mut take = (2 * n - 2).min(level.len());
            for &start in starts.iter().rev() {
                let taken = &is_single[start..start + take];
                let s = taken.iter().filter(|&&single| single).count();
                for &sym in &order[..s] {
                    lengths[sym] += 1;
                }
                take = 2 * (take - s);
            }
            for &sym in &order[..take] {
                lengths[sym] += 1;
            }
            lengths
        }
    }

    pub fn huffman_lengths(freqs: &[u32]) -> Vec<u8> {
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        let mut lengths = vec![0u8; freqs.len()];
        match used.len() {
            0 => return lengths,
            1 => {
                lengths[used[0]] = 1;
                return lengths;
            }
            _ => {}
        }

        // Standard heap-free two-queue construction over nodes sorted by weight.
        #[derive(Clone, Copy)]
        struct Node {
            weight: u64,
            /// Index into `nodes`; leaves reference `usize::MAX` children.
            left: usize,
            right: usize,
            symbol: usize,
        }
        let mut leaves: Vec<Node> = used
            .iter()
            .map(|&s| Node {
                weight: u64::from(freqs[s]),
                left: usize::MAX,
                right: usize::MAX,
                symbol: s,
            })
            .collect();
        leaves.sort_by_key(|n| n.weight);

        let mut nodes: Vec<Node> = leaves.clone();
        let mut internal: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut leaf_i = 0usize;

        let take_min = |leaf_i: &mut usize,
                        internal: &mut std::collections::VecDeque<usize>,
                        nodes: &Vec<Node>,
                        leaves: &Vec<Node>| {
            let leaf_w = leaves.get(*leaf_i).map(|n| n.weight);
            let int_w = internal.front().map(|&i| nodes[i].weight);
            match (leaf_w, int_w) {
                (Some(lw), Some(iw)) if lw <= iw => {
                    let idx = *leaf_i;
                    *leaf_i += 1;
                    idx
                }
                (Some(_), None) => {
                    let idx = *leaf_i;
                    *leaf_i += 1;
                    idx
                }
                (_, Some(_)) => internal.pop_front().unwrap(),
                (None, None) => unreachable!("queues exhausted prematurely"),
            }
        };

        let total_leaves = leaves.len();
        for _ in 0..total_leaves - 1 {
            let a = take_min(&mut leaf_i, &mut internal, &nodes, &leaves);
            let b = take_min(&mut leaf_i, &mut internal, &nodes, &leaves);
            let parent = Node {
                weight: nodes[a].weight + nodes[b].weight,
                left: a,
                right: b,
                symbol: usize::MAX,
            };
            nodes.push(parent);
            internal.push_back(nodes.len() - 1);
        }

        // Depth-first traversal from the root assigns depths.
        let root = nodes.len() - 1;
        let mut stack = vec![(root, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            let n = nodes[idx];
            if n.symbol != usize::MAX {
                lengths[n.symbol] = depth.max(1);
            } else {
                stack.push((n.left, depth + 1));
                stack.push((n.right, depth + 1));
            }
        }
        lengths
    }

    pub fn limited_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        let mut lengths = vec![0u8; freqs.len()];
        match used.len() {
            0 => return lengths,
            1 => {
                lengths[used[0]] = 1;
                return lengths;
            }
            _ => {}
        }
        assert!(
            used.len() <= 1usize << max_len,
            "cannot code {} symbols within {} bits",
            used.len(),
            max_len
        );

        // Fast path: if unconstrained Huffman already fits, it is optimal.
        let plain = huffman_lengths(freqs);
        if plain.iter().all(|&l| l <= max_len) {
            return plain;
        }

        // Package-merge. Items are (weight, set-of-leaves); we track leaf
        // membership as per-symbol counts folded incrementally: each time a leaf
        // appears in a chosen package at some level its length grows by one.
        //
        // Representation: at each level we carry a list of packages; a package
        // is (weight, Vec<u16> leaf indices into `used`). Alphabet sizes here
        // are ≤ 288 so the quadratic bookkeeping is cheap and clear.
        #[derive(Clone)]
        struct Pkg {
            weight: u64,
            leaves: Vec<u16>,
        }

        let mut singles: Vec<Pkg> = used
            .iter()
            .enumerate()
            .map(|(i, &s)| Pkg {
                weight: u64::from(freqs[s]),
                leaves: vec![i as u16],
            })
            .collect();
        singles.sort_by_key(|p| p.weight);

        let mut level: Vec<Pkg> = singles.clone();
        for _ in 1..max_len {
            // Package: pair adjacent items.
            let mut packaged: Vec<Pkg> = Vec::with_capacity(level.len() / 2);
            let mut it = level.chunks_exact(2);
            for pair in &mut it {
                let mut leaves = pair[0].leaves.clone();
                leaves.extend_from_slice(&pair[1].leaves);
                packaged.push(Pkg {
                    weight: pair[0].weight + pair[1].weight,
                    leaves,
                });
            }
            // Merge with the singles of the next level.
            let mut merged = Vec::with_capacity(packaged.len() + singles.len());
            let (mut a, mut b) = (0usize, 0usize);
            while a < singles.len() || b < packaged.len() {
                let take_single = b >= packaged.len()
                    || (a < singles.len() && singles[a].weight <= packaged[b].weight);
                if take_single {
                    merged.push(singles[a].clone());
                    a += 1;
                } else {
                    let leaves = std::mem::take(&mut packaged[b].leaves);
                    merged.push(Pkg {
                        weight: packaged[b].weight,
                        leaves,
                    });
                    b += 1;
                }
            }
            level = merged;
        }

        // Choose the first 2n-2 items; each leaf occurrence adds one bit.
        let n = used.len();
        let mut counts = vec![0u8; n];
        for pkg in level.iter().take(2 * n - 2) {
            for &leaf in &pkg.leaves {
                counts[leaf as usize] += 1;
            }
        }
        for (i, &s) in used.iter().enumerate() {
            lengths[s] = counts[i];
        }
        lengths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Optimal unbounded Huffman code lengths: [`limited_lengths`] with no
    /// limit.
    fn huffman_lengths(freqs: &[u32]) -> Vec<u8> {
        limited_lengths(freqs, u8::MAX)
    }

    fn kraft(lengths: &[u8]) -> f64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1.0 / f64::from(1u32 << l))
            .sum()
    }

    fn cost(freqs: &[u32], lengths: &[u8]) -> u64 {
        freqs
            .iter()
            .zip(lengths)
            .map(|(&f, &l)| u64::from(f) * u64::from(l))
            .sum()
    }

    #[test]
    fn empty_and_single_symbol() {
        assert_eq!(huffman_lengths(&[0, 0, 0]), vec![0, 0, 0]);
        assert_eq!(huffman_lengths(&[0, 7, 0]), vec![0, 1, 0]);
        assert_eq!(limited_lengths(&[0, 0], 15), vec![0, 0]);
        assert_eq!(limited_lengths(&[9, 0], 15), vec![1, 0]);
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        assert_eq!(huffman_lengths(&[1, 1000]), vec![1, 1]);
        assert_eq!(limited_lengths(&[1, 1000], 15), vec![1, 1]);
    }

    #[test]
    fn classic_example_is_optimal() {
        // Frequencies with a known optimal cost.
        let freqs = [5u32, 9, 12, 13, 16, 45];
        let lengths = huffman_lengths(&freqs);
        assert_eq!(cost(&freqs, &lengths), 224); // canonical Huffman cost
        assert!((kraft(&lengths) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fibonacci_forces_limiting() {
        // Fibonacci weights create a maximally skewed tree; limiting to 6
        // bits must still produce a complete, valid code.
        let freqs = [1u32, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];
        let plain = huffman_lengths(&freqs);
        assert!(plain.iter().any(|&l| l > 6));
        let limited = limited_lengths(&freqs, 6);
        assert!(limited.iter().all(|&l| l <= 6 && l > 0));
        assert!((kraft(&limited) - 1.0).abs() < 1e-12);
        // Package-merge is optimal among limited codes: it can't beat the
        // unconstrained cost, and must be within the theoretical bound.
        assert!(cost(&freqs, &limited) >= cost(&freqs, &plain));
    }

    #[test]
    fn limited_matches_plain_when_unconstrained() {
        let freqs = [10u32, 20, 30, 40];
        assert_eq!(
            cost(&freqs, &limited_lengths(&freqs, 15)),
            cost(&freqs, &huffman_lengths(&freqs))
        );
    }

    #[test]
    fn deflate_alphabet_sizes_fit() {
        // 288 literal/length symbols all used, uniform: lengths must fit 15.
        let freqs = vec![1u32; 288];
        let lengths = limited_lengths(&freqs, 15);
        assert!(lengths.iter().all(|&l| l > 0 && l <= 15));
        assert!((kraft(&lengths) - 1.0).abs() < 1e-12);
        // Code-length alphabet: 19 symbols, limit 7.
        let freqs = vec![3u32; 19];
        let lengths = limited_lengths(&freqs, 7);
        assert!(lengths.iter().all(|&l| l > 0 && l <= 7));
    }

    #[test]
    fn package_merge_optimality_brute_force() {
        // For a tiny alphabet, exhaustively verify optimality at limit 3.
        let freqs = [37u32, 14, 8, 5, 2];
        let pm = limited_lengths(&freqs, 3);
        assert!(pm.iter().all(|&l| l <= 3));
        assert!((kraft(&pm) - 1.0).abs() < 1e-12);
        // Enumerate all length assignments 1..=3 satisfying Kraft == 1.
        let mut best = u64::MAX;
        let n = freqs.len();
        let mut assign = vec![1u8; n];
        loop {
            let k = kraft(&assign);
            if (k - 1.0).abs() < 1e-12 {
                best = best.min(cost(&freqs, &assign));
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    // done
                    assert_eq!(cost(&freqs, &pm), best);
                    return;
                }
                if assign[i] < 3 {
                    assign[i] += 1;
                    break;
                }
                assign[i] = 1;
                i += 1;
            }
        }
    }

    #[test]
    fn zero_frequencies_stay_zero() {
        let freqs = [0u32, 5, 0, 7, 0, 11, 0];
        for lengths in [huffman_lengths(&freqs), limited_lengths(&freqs, 4)] {
            assert_eq!(lengths[0], 0);
            assert_eq!(lengths[2], 0);
            assert_eq!(lengths[4], 0);
            assert_eq!(lengths[6], 0);
            assert!(lengths[1] > 0 && lengths[3] > 0 && lengths[5] > 0);
        }
    }
    /// The lengths of every used symbol of `freqs` at `max_len` through
    /// the bitmap door the plan takes, and the length counts it returns.
    fn used_lengths(freqs: &[u32], max_len: u8) -> (Vec<u8>, LengthCounts) {
        let mut lengths = vec![0u8; freqs.len()];
        let used = Used::of(freqs);
        let counts = if freqs.len() <= SMALL_SYMBOLS {
            used_lengths_into::<SMALL_SYMBOLS>(freqs, &used, max_len, &mut lengths)
        } else {
            used_lengths_into::<MAX_SYMBOLS>(freqs, &used, max_len, &mut lengths)
        };
        (lengths, counts)
    }

    /// Both constructions against the stack builder the used-symbol bitmap
    /// replaced (`stack`), the heap-node bodies before it (`parent`) and
    /// the leaf-list package-merge, at every limit that can hold the
    /// histogram; and the length counts the bitmap door returns against the
    /// lengths. Returns how many of the calls took the package-merge
    /// fallback.
    fn diff_against_reference(freqs: &[u32], what: &str) -> usize {
        let plain = huffman_lengths(freqs);
        assert_eq!(plain, reference::huffman_lengths(freqs), "{what}");
        assert_eq!(plain, reference::parent::huffman_lengths(freqs), "{what}");
        let used = freqs.iter().filter(|&&f| f > 0).count();
        let mut fallbacks = 0;
        for max_len in [7u8, 9, 11, 15] {
            if used <= 1 << max_len {
                let got = limited_lengths(freqs, max_len);
                let stack = reference::stack::limited_lengths(freqs, max_len);
                assert_eq!(got, stack, "{what} limit {max_len}");
                let (lengths, counts) = used_lengths(freqs, max_len);
                assert_eq!(lengths, got, "{what} limit {max_len}");
                let mut want = LengthCounts::default();
                got.iter().for_each(|&l| want[usize::from(l)] += 1);
                want[0] = 0;
                assert_eq!(counts, want, "{what} limit {max_len}");
                let want = reference::parent::limited_lengths(freqs, max_len);
                assert_eq!(got, want, "{what} limit {max_len}");
                assert_eq!(
                    got,
                    reference::limited_lengths(freqs, max_len),
                    "{what} limit {max_len}"
                );
                fallbacks += usize::from(plain.iter().any(|&l| l > max_len));
            }
        }
        fallbacks
    }

    /// Every alphabet the encoder builds for `data` at `level`: each
    /// block's literal/length and distance histograms (blocks cut where
    /// `Encoder::compress_into` cuts them), the code-length alphabet of
    /// the header they yield, and the plan made of the three, with the body
    /// it writes of the block's own tokens.
    fn diff_encoder_histograms(data: &[u8], level: u32, what: &str) -> usize {
        use crate::encoder::{self, CompressionLevel, Strategy, MAX_BLOCK_BYTES, MAX_BLOCK_TOKENS};
        let level = CompressionLevel::new(level).unwrap();
        let tokens =
            encoder::deflate_tokens_with(data, level, Strategy::Default, crate::Engine::Auto);
        let mut hist = crate::lz77::Histogram::new();
        let (mut in_block, mut span, mut fallbacks) = (0usize, 0usize, 0usize);
        for (i, &t) in tokens.iter().enumerate() {
            hist.record(t);
            in_block += 1;
            span += t.input_len();
            if i + 1 == tokens.len() || in_block >= MAX_BLOCK_TOKENS || span >= MAX_BLOCK_BYTES {
                hist.record_end_of_block();
                fallbacks += diff_against_reference(&hist.litlen, what);
                fallbacks += diff_against_reference(&hist.dist, what);
                let mut header = limited_lengths(&hist.litlen, 15);
                header.extend(limited_lengths(&hist.dist, 15));
                let mut cl_freq = vec![0u32; 19];
                for s in encoder::reference::rle_code_lengths(&header) {
                    cl_freq[s.symbol()] += 1;
                }
                fallbacks += diff_against_reference(&cl_freq, what);
                encoder::reference::diff_plan(&hist, what);
                let block = &tokens[i + 1 - in_block..=i];
                encoder::reference::diff_stack(&hist, block, what);
                hist.clear();
                (in_block, span) = (0, 0);
            }
        }
        fallbacks
    }

    /// The `nxbench` seed rule (`benchmark/src/workload.rs`).
    fn corpus_seed(seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
            | (1 << 32)
    }

    /// Every alphabet of the four `nxbench` workloads' inputs at seed 42, at
    /// levels 1 / 3 / 6 / 9 (80 MiB x 4: ~20 s in the dev profile).
    #[test]
    fn prefix_count_form_matches_the_leaf_list_form_on_nxbench_histograms() {
        let mut fallbacks = 0;
        let mixed = [(8u64, 4 << 20), (16, 1 << 20), (1, 32 << 20)];
        for (w, &(n, len)) in mixed.iter().enumerate() {
            for i in 0..n {
                let data = nx_corpus::mixed(corpus_seed(42, i), len);
                for level in [1, 3, 6, 9] {
                    let what = format!("workload {w} buffer {i} level {level}");
                    fallbacks += diff_encoder_histograms(&data, level, &what);
                }
            }
        }
        let classes = [
            nx_corpus::CorpusKind::Json,
            nx_corpus::CorpusKind::Logs,
            nx_corpus::CorpusKind::Text,
        ];
        for i in 0..20u64 {
            for (c, class) in classes.iter().enumerate() {
                let data = class.generate(corpus_seed(42, i * 16 + c as u64), 2 << 10);
                for level in [1, 3, 6, 9] {
                    let what = format!("rpc {i} {} level {level}", class.name());
                    fallbacks += diff_encoder_histograms(&data, level, &what);
                }
            }
        }
        println!("{fallbacks} calls took the package-merge fallback");
        assert!(fallbacks > 1000, "only {fallbacks} took the fallback");
    }

    #[test]
    fn prefix_count_form_matches_on_skewed_flat_and_sparse_histograms() {
        // Fibonacci weights (the deepest plain tree), exact and perturbed,
        // at every alphabet size a limit of 7 or 15 can hold.
        let mut fib = vec![1u32, 1];
        while fib.len() < 40 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        let mut fallbacks = 0;
        for n in 2..=fib.len() {
            fallbacks += diff_against_reference(&fib[..n], "fibonacci");
            let reversed: Vec<u32> = fib[..n].iter().rev().copied().collect();
            fallbacks += diff_against_reference(&reversed, "fibonacci reversed");
            for bump in [1u32, 2, 3] {
                let near: Vec<u32> = fib[..n]
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| f + (i as u32 * bump) % 3)
                    .collect();
                fallbacks += diff_against_reference(&near, "near-fibonacci");
            }
        }
        assert!(fallbacks > 100, "only {fallbacks} took the fallback");
        // No symbol, and one alone at either end of each alphabet.
        for len in [2usize, 19, 30, 286, 288] {
            diff_against_reference(&vec![0; len], "none used");
            for only in [0, len - 1] {
                let mut one = vec![0u32; len];
                one[only] = 1 + only as u32;
                diff_against_reference(&one, "one used");
            }
        }
        // All-equal weights (every comparison is a tie) and the used-symbol
        // counts at the edges of DEFLATE's alphabets.
        for used in [2usize, 3, 19, 286, 288] {
            for weight in [1u32, 7, u32::MAX] {
                diff_against_reference(&vec![weight; used], "all equal");
            }
            let ramp: Vec<u32> = (0..used as u32).map(|i| 1 << (i % 31)).collect();
            diff_against_reference(&ramp, "powers of two");
            let mut sparse = vec![0u32; 288];
            for i in 0..used {
                sparse[(i * 7) % 288] += fib[i % 30];
            }
            diff_against_reference(&sparse, "sparse");
        }
    }

    proptest::proptest! {
        #[test]
        fn prefix_count_form_matches_on_random_sparse_histograms(
            picks in proptest::collection::vec((0usize..288, 0u32..24, 1u32..16), 2..120),
        ) {
            // Weights spread over 24 octaves so deep trees are common.
            let mut freqs = vec![0u32; 288];
            for (sym, octave, mantissa) in picks {
                freqs[sym] = mantissa << octave;
            }
            diff_against_reference(&freqs, "random sparse");
        }
    }
}
