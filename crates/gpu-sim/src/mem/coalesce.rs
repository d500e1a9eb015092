//! Global-memory access coalescing (§II-A: "Consecutive accesses to both
//! global and local memory from different threads in a warp are coalesced,
//! i.e., combined into a single larger access").
//!
//! The model coalesces at cache-line granularity (the Fermi-style rule):
//! the lanes of one warp memory instruction are grouped by the 128-byte
//! line they touch; each distinct line becomes one transaction. A fully
//! coalesced row-major access produces one transaction per warp; a
//! strided/scattered access degenerates to one per lane.

/// One lane's byte-level access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct LaneAddr {
    pub lane: u8,
    pub addr: u32,
    pub size: u8,
}

/// The set of warp lanes (≤32) served by one transaction, as a bitmask.
/// Replaces the old per-transaction `Vec<u8>` so [`Transaction`] is `Copy`
/// and transaction buffers can be reused without inner allocations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneMask(u32);

impl LaneMask {
    /// No lanes.
    pub const EMPTY: LaneMask = LaneMask(0);

    /// Mask containing exactly `lane`.
    pub fn single(lane: u8) -> Self {
        LaneMask(1 << u32::from(lane))
    }

    /// Add `lane` (idempotent).
    pub fn insert(&mut self, lane: u8) {
        self.0 |= 1 << u32::from(lane);
    }

    /// Whether `lane` is in the mask.
    pub fn contains(self, lane: u8) -> bool {
        self.0 & (1 << u32::from(lane)) != 0
    }

    /// Number of lanes in the mask.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no lanes are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Lane indices in ascending order — the same order the old vector
    /// accumulated them, since warps collect lanes 0..32.
    pub fn iter(self) -> LaneMaskIter {
        LaneMaskIter(self.0)
    }

    /// Raw bits (diagnostics).
    pub fn bits(self) -> u32 {
        self.0
    }
}

impl IntoIterator for LaneMask {
    type Item = u8;
    type IntoIter = LaneMaskIter;
    fn into_iter(self) -> LaneMaskIter {
        self.iter()
    }
}

/// Ascending-order iterator over a [`LaneMask`].
#[derive(Clone, Copy, Debug)]
pub struct LaneMaskIter(u32);

impl Iterator for LaneMaskIter {
    type Item = u8;
    fn next(&mut self) -> Option<u8> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// A coalesced transaction: a line and the lanes it serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Transaction {
    pub line_addr: u32,
    /// Bytes actually touched within the line (drives network payload for
    /// stores; reads fetch the whole line).
    pub bytes: u32,
    pub lanes: LaneMask,
}

/// Coalesce lane accesses into line transactions, preserving the order in
/// which lines are first touched (lane order → deterministic).
///
/// A lane whose access straddles a line boundary joins both transactions.
pub fn coalesce(lanes: &[LaneAddr], line_bytes: u32) -> Vec<Transaction> {
    let mut out = Vec::with_capacity(4);
    coalesce_into(lanes, line_bytes, &mut out);
    out
}

/// Allocation-free [`coalesce`]: clears and refills `out`, retaining its
/// capacity across warp instructions.
///
/// Fast path (≤32 lanes, no line-straddling access): the warp's line
/// addresses are gathered into a fixed 32-wide array and grouped by a
/// bit-parallel equality scan — take the lowest unprocessed lane, compare
/// its line against all lanes at once, and retire the whole match mask as
/// one transaction. One pass per *distinct line* instead of one linear
/// probe per lane, and the comparison loop autovectorizes. Straddling
/// accesses (and oversized lane lists) take the exact scalar path; both
/// produce identical transactions in identical first-touch order.
pub fn coalesce_into(lanes: &[LaneAddr], line_bytes: u32, out: &mut Vec<Transaction>) {
    out.clear();
    let mask = !(line_bytes - 1);
    let n = lanes.len();
    if n <= 32 {
        let mut lines = [0u32; 32];
        let mut sizes = [0u32; 32];
        let mut straddle = false;
        for (i, la) in lanes.iter().enumerate() {
            let first = la.addr & mask;
            let last = (la.addr + u32::from(la.size.max(1)) - 1) & mask;
            lines[i] = first;
            sizes[i] = u32::from(la.size);
            straddle |= first != last;
        }
        if !straddle {
            let mut remaining: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
            while remaining != 0 {
                let i = remaining.trailing_zeros() as usize;
                let line = lines[i];
                let mut same = 0u32;
                for (j, l) in lines[..n].iter().enumerate() {
                    same |= u32::from(*l == line) << j;
                }
                remaining &= !same;
                let mut tx = Transaction { line_addr: line, bytes: 0, lanes: LaneMask::EMPTY };
                while same != 0 {
                    let j = same.trailing_zeros() as usize;
                    same &= same - 1;
                    tx.lanes.insert(lanes[j].lane);
                    tx.bytes += sizes[j];
                }
                tx.bytes = tx.bytes.min(line_bytes);
                out.push(tx);
            }
            return;
        }
    }
    coalesce_exact_into(lanes, line_bytes, out);
}

/// Exact scalar reference: linear probe per lane line, straddles join
/// both transactions. Used for straddling/oversized inputs and as the
/// differential oracle for the fast path in tests.
fn coalesce_exact_into(lanes: &[LaneAddr], line_bytes: u32, out: &mut Vec<Transaction>) {
    out.clear();
    let mask = !(line_bytes - 1);
    for la in lanes {
        let first = la.addr & mask;
        let last = (la.addr + u32::from(la.size.max(1)) - 1) & mask;
        let mut line = first;
        loop {
            match out.iter_mut().find(|t| t.line_addr == line) {
                Some(t) => {
                    t.lanes.insert(la.lane);
                    t.bytes += u32::from(la.size);
                }
                None => out.push(Transaction {
                    line_addr: line,
                    bytes: u32::from(la.size),
                    lanes: LaneMask::single(la.lane),
                }),
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
    }
    for t in out.iter_mut() {
        t.bytes = t.bytes.min(line_bytes);
    }
}

/// Shared-memory bank-conflict serialization: the number of cycles the
/// banked shared memory needs to serve one warp access — the maximum,
/// over banks, of the number of *distinct words* requested in that bank
/// (§II-A: "If threads within a warp access different banks, all the
/// accesses are served in parallel").
///
/// The count is exact and visits each lane three times. A word-occupancy
/// bitmap over the SM's shared space tells a word's first lane from its
/// repeats: after a pass that gathers the lanes' words, a second sets each
/// lane's bit and counts the word toward its bank only when the bit was
/// clear, and a third zeroes every map word the lanes touched. The map is
/// empty between accesses, so those map words held only this access's
/// bits. The map is allocated once, by [`BankConflicts::new`]. More than
/// 32 lanes or banks, or a word past the map (only a lane that faults
/// beyond the shared space has one), take [`bank_conflict_degree_exact`];
/// both agree exactly.
pub struct BankConflicts {
    /// One bit per 4-byte word of the shared space.
    occupied: Vec<u64>,
}

impl BankConflicts {
    /// A count over a shared space of `shared_bytes` bytes.
    pub fn new(shared_bytes: u32) -> Self {
        Self { occupied: vec![0; shared_bytes.div_ceil(4).div_ceil(64) as usize] }
    }

    /// Serialization degree of one warp access to `banks` banks (1 for no
    /// lanes).
    pub fn degree(&mut self, lanes: &[LaneAddr], banks: u32) -> u32 {
        if lanes.len() > 32 || banks > 32 {
            return bank_conflict_degree_exact(lanes, banks);
        }
        let mut words = [0u32; 32];
        let mut top = 0;
        for (w, la) in words.iter_mut().zip(lanes) {
            *w = la.addr / 4;
            top = top.max(*w);
        }
        if (top / 64) as usize >= self.occupied.len() {
            return bank_conflict_degree_exact(lanes, banks);
        }
        let words = &words[..lanes.len()];
        let pow2 = banks.is_power_of_two();
        let mut per_bank = [0u8; 32];
        for &w in words {
            let slot = &mut self.occupied[(w / 64) as usize];
            let bit = 1u64 << (w % 64);
            let bank = if pow2 { w & (banks - 1) } else { w % banks };
            per_bank[bank as usize] += u8::from(*slot & bit == 0);
            *slot |= bit;
        }
        for &w in words {
            self.occupied[(w / 64) as usize] = 0;
        }
        u32::from(per_bank.into_iter().max().unwrap_or(0).max(1))
    }
}

/// Exact reference for [`BankConflicts::degree`]: for each first
/// occurrence of a word, count the distinct words of its bank. Serves
/// inputs wider than 32 lanes or banks and words past the map, and is the
/// differential oracle for the bitmap count in tests.
fn bank_conflict_degree_exact(lanes: &[LaneAddr], banks: u32) -> u32 {
    let mut max = 1u32;
    for (i, la) in lanes.iter().enumerate() {
        let word = la.addr / 4;
        if lanes[..i].iter().any(|p| p.addr / 4 == word) {
            continue; // not the first occurrence of this word
        }
        let bank = word % banks;
        let mut in_bank = 0u32;
        for (j, lb) in lanes.iter().enumerate() {
            let w = lb.addr / 4;
            if w % banks == bank && !lanes[..j].iter().any(|p| p.addr / 4 == w) {
                in_bank += 1;
            }
        }
        max = max.max(in_bank);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    /// One warp access's degree on a fresh 16 KiB count.
    fn bank_conflict_degree(lanes: &[LaneAddr], banks: u32) -> u32 {
        BankConflicts::new(16 * 1024).degree(lanes, banks)
    }

    fn mk(lanes: impl IntoIterator<Item = (u8, u32)>) -> Vec<LaneAddr> {
        lanes.into_iter().map(|(lane, addr)| LaneAddr { lane, addr, size: 4 }).collect()
    }

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        let lanes = mk((0..32).map(|l| (l as u8, 0x1000 + l * 4)));
        let txs = coalesce(&lanes, 128);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].line_addr, 0x1000);
        assert_eq!(txs[0].lanes.len(), 32);
        assert_eq!(txs[0].bytes, 128);
    }

    #[test]
    fn misaligned_warp_spans_two_lines() {
        let lanes = mk((0..32).map(|l| (l as u8, 0x1040 + l * 4)));
        let txs = coalesce(&lanes, 128);
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].line_addr, 0x1000);
        assert_eq!(txs[1].line_addr, 0x1080);
    }

    #[test]
    fn large_stride_degenerates_to_per_lane() {
        let lanes = mk((0..32).map(|l| (l as u8, l * 256)));
        let txs = coalesce(&lanes, 128);
        assert_eq!(txs.len(), 32);
        assert!(txs.iter().all(|t| t.lanes.len() == 1));
    }

    #[test]
    fn same_address_broadcast_is_one_transaction() {
        let lanes = mk((0..32).map(|l| (l as u8, 0x2000)));
        let txs = coalesce(&lanes, 128);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].lanes.len(), 32);
        assert_eq!(txs[0].bytes, 128);
    }

    #[test]
    fn straddling_lane_joins_both_lines() {
        let lanes = vec![LaneAddr { lane: 0, addr: 0x107E, size: 4 }];
        let txs = coalesce(&lanes, 128);
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].line_addr, 0x1000);
        assert_eq!(txs[1].line_addr, 0x1080);
    }

    #[test]
    fn transaction_order_is_first_touch() {
        let lanes = mk([(0u8, 0x2000u32), (1, 0x1000), (2, 0x2004)]);
        let txs = coalesce(&lanes, 128);
        assert_eq!(txs[0].line_addr, 0x2000);
        assert_eq!(txs[1].line_addr, 0x1000);
    }

    #[test]
    fn conflict_free_shared_access() {
        // 32 lanes, consecutive words over 16 banks: 2 words per bank.
        let lanes = mk((0..32).map(|l| (l as u8, l * 4)));
        assert_eq!(bank_conflict_degree(&lanes, 16), 2);
        // 16 lanes, consecutive words: conflict-free.
        let lanes16 = mk((0..16).map(|l| (l as u8, l * 4)));
        assert_eq!(bank_conflict_degree(&lanes16, 16), 1);
    }

    #[test]
    fn same_word_broadcast_is_conflict_free() {
        let lanes = mk((0..16).map(|l| (l as u8, 64)));
        assert_eq!(bank_conflict_degree(&lanes, 16), 1, "broadcast from one word");
    }

    #[test]
    fn stride_16_words_serializes_fully() {
        // Every lane hits bank 0 with a different word: full serialization.
        let lanes = mk((0..16).map(|l| (l as u8, l * 16 * 4)));
        assert_eq!(bank_conflict_degree(&lanes, 16), 16);
    }

    #[test]
    fn empty_access_costs_one_cycle() {
        assert_eq!(bank_conflict_degree(&[], 16), 1);
    }

    /// splitmix64: a seeded, host-independent test stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The bitmap count against the exact reference on every lane count
    /// (none included) and bank count up to 32 (powers of two or not),
    /// every access size, and address patterns from scattered to fully
    /// piled up. One count per shared space serves every case, so a bit
    /// left set by one access shows in a later one; each space's edge
    /// patterns put lanes on its last word and past its end, where the
    /// count falls back to the reference, and then reuse the words the
    /// fallback saw.
    #[test]
    fn bank_conflict_fast_path_matches_exact_reference() {
        let spaces = [GpuConfig::quadro_fx5800(), GpuConfig::fermi()].map(|c| c.shared_mem_per_sm);
        assert_eq!(spaces, [16 * 1024, 48 * 1024]);
        let mut counts = spaces.map(BankConflicts::new);
        let mut rng = 0x5EED_u64;
        for banks in 1..=32u32 {
            for n in 0..=32u32 {
                for size in [1u8, 2, 4] {
                    let align = u32::from(size);
                    let one_bank = |l: u32| l * banks * 4;
                    // Broadcast; consecutive; every lane in one bank, on
                    // distinct words and on three words; byte lanes that
                    // share words four at a time; words repeated on lanes
                    // eight apart.
                    let mut patterns: Vec<Vec<u32>> = vec![
                        vec![0x40; n as usize],
                        (0..n).map(|l| l * align).collect(),
                        (0..n).map(one_bank).collect(),
                        (0..n).map(|l| one_bank(l % 3) + 8).collect(),
                        (0..n).map(|l| one_bank(l / 4) + l % 4).collect(),
                        (0..n).map(|l| one_bank(l % 4) + 4 * (l % 8 / 4)).collect(),
                    ];
                    for span in [64u32, 1024, 1 << 20] {
                        for _ in 0..4 {
                            patterns.push(
                                (0..n)
                                    .map(|_| (splitmix(&mut rng) as u32 % span) / align * align)
                                    .collect(),
                            );
                        }
                    }
                    for space in spaces {
                        // Down from the last word, one bank; past the end;
                        // both, alternating; inside but for the last lane,
                        // then the same words again; past the end with
                        // repeats on lanes four apart.
                        let (last, past) = (space - 4, space);
                        patterns.extend([
                            (0..n).map(|l| last - one_bank(l)).collect(),
                            (0..n).map(|l| past + one_bank(l)).collect(),
                            (0..n)
                                .map(|l| if l % 2 == 0 { last - one_bank(l / 2) } else { past + one_bank(l / 2) })
                                .collect(),
                            (0..n).map(|l| if l + 1 == n { past } else { last - one_bank(l) }).collect(),
                            (0..n).map(|l| last - one_bank(l)).collect(),
                            (0..n).map(|l| past + one_bank(l % 4)).collect(),
                        ]);
                    }
                    for addrs in patterns {
                        let lanes: Vec<LaneAddr> = addrs
                            .iter()
                            .enumerate()
                            .map(|(l, &addr)| LaneAddr { lane: l as u8, addr, size })
                            .collect();
                        let exact = bank_conflict_degree_exact(&lanes, banks);
                        for (count, space) in counts.iter_mut().zip(spaces) {
                            assert_eq!(
                                count.degree(&lanes, banks),
                                exact,
                                "space {space} banks {banks} size {size} lanes {addrs:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// HIST's byte counters (`s_hist[bin * 64 + tid]`, one byte each) on
    /// 16 banks: lanes `4k..4k+3` share bank `k`, and share a word when
    /// their bins match, so the degree is the most distinct bins among
    /// four neighbouring lanes.
    #[test]
    fn hist_byte_counters_conflict_by_distinct_bins_per_lane_quad() {
        let warp = |bin: &dyn Fn(u32) -> u32| -> Vec<LaneAddr> {
            (0..32).map(|t| LaneAddr { lane: t as u8, addr: bin(t) * 64 + t, size: 1 }).collect()
        };
        let mut rng = 7u64;
        let random: Vec<u32> = (0..32).map(|_| (splitmix(&mut rng) % 3) as u32).collect();
        let cases: [(&dyn Fn(u32) -> u32, u32); 4] = [
            (&|_| 5, 1),
            (&|t| t % 2, 2),
            (&|t| t % 4 * 9, 4),
            (&|t| random[t as usize], 3),
        ];
        for (i, (bin, degree)) in cases.into_iter().enumerate() {
            let lanes = warp(bin);
            assert_eq!(bank_conflict_degree(&lanes, 16), degree, "case {i}");
            assert_eq!(bank_conflict_degree_exact(&lanes, 16), degree, "case {i}");
        }
    }

    #[test]
    fn fast_path_matches_exact_reference() {
        let patterns: Vec<Vec<LaneAddr>> = vec![
            // coalesced, broadcast, strided, scattered with duplicates
            (0..32).map(|l| LaneAddr { lane: l as u8, addr: 0x1000 + l * 4, size: 4 }).collect(),
            (0..32).map(|l| LaneAddr { lane: l as u8, addr: 0x2000, size: 4 }).collect(),
            (0..32).map(|l| LaneAddr { lane: l as u8, addr: l * 256, size: 4 }).collect(),
            (0..32)
                .map(|l| LaneAddr { lane: l as u8, addr: (l % 3) * 0x300 + l * 8, size: 8 })
                .collect(),
            // partial warp, mixed sizes
            vec![
                LaneAddr { lane: 0, addr: 0x100, size: 1 },
                LaneAddr { lane: 5, addr: 0x104, size: 8 },
                LaneAddr { lane: 9, addr: 0x100, size: 4 },
            ],
            vec![],
        ];
        for lanes in &patterns {
            let mut fast = Vec::new();
            let mut exact = Vec::new();
            coalesce_into(lanes, 128, &mut fast);
            coalesce_exact_into(lanes, 128, &mut exact);
            assert_eq!(fast, exact, "pattern {lanes:?}");
        }
    }
}
