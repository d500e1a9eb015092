//! TLB models for HAccRG's virtual-memory support (§IV-B "Supporting
//! Virtual Memory").
//!
//! When the GPU translates addresses through a TLB, the RDU's shadow
//! accesses need translations too. The paper proposes two mechanisms:
//!
//! 1. **Appended tag bit** — one TLB whose entries carry an extra bit
//!    distinguishing shadow pages; shadow translations compete with
//!    regular ones for capacity ("This approach can potentially reduce
//!    the effective TLB capacity for regular (non-shadow) memory
//!    entries").
//! 2. **Separate shadow TLB** — a second, smaller TLB dedicated to shadow
//!    pages ("Shadow memory TLB can be smaller than the regular TLB since
//!    all GPU pages do not belong to the global memory space").
//!
//! The `tlb_ablation` harness replays recorded per-launch address streams
//! through both mechanisms and reports the capacity effect the paper
//! predicts.

use serde::{Deserialize, Serialize};

/// Page size for translation (4 KB, as in the Sandy Bridge / Fusion
/// systems the paper cites).
pub const PAGE_SHIFT: u32 = 12;

/// A set-associative TLB with true-LRU replacement (tag store only).
#[derive(Clone, Debug)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    /// (tag, shadow bit, last-use); tag includes the shadow bit when the
    /// appended-bit mechanism is in use.
    entries: Vec<Option<(u64, u64)>>,
    tick: u64,
    /// Translation hits observed.
    pub hits: u64,
    /// Translation misses observed.
    pub misses: u64,
}

impl Tlb {
    /// Build a TLB with `entries` total entries and `ways` associativity.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways) && (entries / ways).is_power_of_two());
        Self {
            sets: entries / ways,
            ways,
            entries: vec![None; entries],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Probe-and-fill for a key (virtual page number, possibly with an
    /// appended shadow bit). Returns whether it hit.
    pub fn access(&mut self, key: u64) -> bool {
        self.tick += 1;
        // Index by VPN bits (key bit 0 is the appended shadow tag, which
        // must live in the tag, not the index, or data pages would only
        // reach half the sets).
        let set = ((key >> 1) as usize) & (self.sets - 1);
        let base = set * self.ways;
        let ways = &mut self.entries[base..base + self.ways];
        if let Some(e) = ways.iter_mut().flatten().find(|(t, _)| *t == key) {
            e.1 = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // LRU victim.
        let victim = (0..self.ways)
            .min_by_key(|&i| ways[i].map_or(0, |(_, lru)| lru + 1))
            .expect("ways > 0");
        ways[victim] = Some((key, self.tick));
        false
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reset counters and contents.
    pub fn clear(&mut self) {
        self.entries.fill(None);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

/// Which §IV-B dual-translation mechanism to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlbMechanism {
    /// One TLB; shadow translations carry an appended tag bit and share
    /// capacity with regular translations.
    AppendedBit,
    /// A dedicated (smaller) shadow TLB beside the regular one.
    SeparateShadowTlb {
        /// Entries in the shadow TLB.
        shadow_entries: usize,
    },
}

/// Result of replaying an address stream through a mechanism.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
#[allow(missing_docs)] // counter names are self-describing
pub struct TlbAblation {
    pub data_hits: u64,
    pub data_misses: u64,
    pub shadow_hits: u64,
    pub shadow_misses: u64,
}

impl TlbAblation {
    /// Data-translation hit rate.
    pub fn data_hit_rate(&self) -> f64 {
        rate(self.data_hits, self.data_misses)
    }

    /// Shadow-translation hit rate.
    pub fn shadow_hit_rate(&self) -> f64 {
        rate(self.shadow_hits, self.shadow_misses)
    }
}

fn rate(h: u64, m: u64) -> f64 {
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

/// Replay a stream of `(data_addr, Option<shadow_addr>)` pairs through a
/// mechanism with a `main_entries`-entry, `ways`-way primary TLB.
pub fn replay_mechanism(
    mech: TlbMechanism,
    main_entries: usize,
    ways: usize,
    stream: impl IntoIterator<Item = (u32, Option<u32>)>,
) -> TlbAblation {
    let mut main = Tlb::new(main_entries, ways);
    let mut shadow_tlb = match mech {
        TlbMechanism::SeparateShadowTlb { shadow_entries } => {
            Some(Tlb::new(shadow_entries, ways.min(shadow_entries)))
        }
        TlbMechanism::AppendedBit => None,
    };
    let mut out = TlbAblation::default();
    for (data, shadow) in stream {
        let dvpn = u64::from(data >> PAGE_SHIFT);
        // Appended-bit mechanism: regular entries have bit 0 = 0.
        let dkey = dvpn << 1;
        if main.access(dkey) {
            out.data_hits += 1;
        } else {
            out.data_misses += 1;
        }
        if let Some(sa) = shadow {
            let svpn = u64::from(sa >> PAGE_SHIFT);
            let hit = match (&mut shadow_tlb, mech) {
                (Some(st), _) => st.access(svpn << 1),
                (None, _) => main.access((svpn << 1) | 1),
            };
            if hit {
                out.shadow_hits += 1;
            } else {
                out.shadow_misses += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_hits_after_fill() {
        let mut t = Tlb::new(16, 4);
        assert!(!t.access(0x42));
        assert!(t.access(0x42));
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_in_a_set() {
        // 1 set, 2 ways: third distinct key evicts the least recent.
        let mut t = Tlb::new(2, 2);
        t.access(0b000); // set 0
        t.access(0b010);
        t.access(0b000); // refresh
        t.access(0b100); // evicts 0b010
        assert!(t.access(0b000), "recently used survived");
        assert!(!t.access(0b010), "LRU victim evicted");
    }

    #[test]
    fn appended_bit_distinguishes_shadow_pages() {
        // Same VPN, shadow vs regular: different keys, both resident.
        let mut t = Tlb::new(16, 4);
        assert!(!t.access(0x10 << 1));
        assert!(!t.access((0x10 << 1) | 1));
        assert!(t.access(0x10 << 1));
        assert!(t.access((0x10 << 1) | 1));
    }

    #[test]
    fn shared_capacity_hurts_data_hit_rate() {
        // A data working set that exactly fits the TLB: perfect reuse
        // without shadow pressure, degraded with the appended-bit scheme,
        // restored by the separate shadow TLB.
        let pages: Vec<u32> = (0..16u32).map(|p| p << PAGE_SHIFT).collect();
        let rounds = 32;
        let mk_stream = |with_shadow: bool| {
            let pages = pages.clone();
            (0..rounds).flat_map(move |_| {
                pages
                    .clone()
                    .into_iter()
                    .map(move |p| (p, with_shadow.then_some(0x8000_0000 | (p >> 1))))
            })
        };

        let alone = replay_mechanism(TlbMechanism::AppendedBit, 16, 4, mk_stream(false));
        let shared = replay_mechanism(TlbMechanism::AppendedBit, 16, 4, mk_stream(true));
        let split = replay_mechanism(
            TlbMechanism::SeparateShadowTlb { shadow_entries: 8 },
            16,
            4,
            mk_stream(true),
        );
        assert!(alone.data_hit_rate() > 0.9, "{}", alone.data_hit_rate());
        assert!(
            shared.data_hit_rate() < alone.data_hit_rate(),
            "shadow entries must pressure the shared TLB: {} vs {}",
            shared.data_hit_rate(),
            alone.data_hit_rate()
        );
        assert!(
            split.data_hit_rate() > shared.data_hit_rate(),
            "separate shadow TLB restores data capacity: {} vs {}",
            split.data_hit_rate(),
            shared.data_hit_rate()
        );
    }

    #[test]
    fn ablation_counters_accumulate() {
        let stream = vec![(0u32, Some(0x8000_0000u32)), (0, Some(0x8000_0000)), (4096, None)];
        let r = replay_mechanism(TlbMechanism::AppendedBit, 16, 4, stream);
        assert_eq!(r.data_hits + r.data_misses, 3);
        assert_eq!(r.shadow_hits + r.shadow_misses, 2);
    }
}
