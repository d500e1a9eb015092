//! Bloom-filter *atomic ID* signatures tracking the set of locks held by a
//! thread (paper §III-B).
//!
//! A signature is a small bit vector split into `bins` equal-width bins.
//! Inserting a lock address sets exactly one bit per bin, selected by
//! *direct indexing with the low-order bits of the (word) address* — the
//! scheme the paper adopts from Yu & Narayanasamy (reference \[28\]).
//! Removing locks is
//! done by clearing the whole signature when the thread releases its last
//! lock, which is cheap and matches the observation that GPU kernels use
//! shallow lock nesting.
//!
//! Two signatures are intersected with a bitwise AND; the intersection is
//! *null* — no common lock can possibly be present — when any bin of the
//! AND is all-zero. Aliasing (two distinct lock addresses producing the
//! same per-bin index) makes the detector *miss* races, never report false
//! ones; §VI-A2 quantifies the miss rate as `1/bin_width` for the paper's
//! direct-indexed bins (25% / 12.5% / 6.25% for 8/16/32-bit signatures with
//! 2 bins), which [`BloomConfig::expected_miss_rate`] mirrors and the
//! §VI-A2 stress table (`all --only bloom_stress`) measures.

/// Shape of the atomic-ID signature: total bit width and number of bins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomConfig {
    /// Total signature width in bits: 8, 16 or 32 (§VI-A2).
    pub bits: u8,
    /// Number of bins the signature is divided into: 2 or 4 (§VI-A2).
    pub bins: u8,
}

impl BloomConfig {
    /// The paper's chosen configuration: 16-bit signature, 2 bins
    /// ("To trade-off between hardware cost and accuracy, we set the
    /// atomic ID size to 16 bits", §VI-A2).
    pub const PAPER_DEFAULT: BloomConfig = BloomConfig { bits: 16, bins: 2 };

    /// Width of each bin in bits.
    pub fn bin_width(self) -> u8 {
        debug_assert!(self.bins > 0 && self.bits.is_multiple_of(self.bins));
        self.bits / self.bins
    }

    /// Validate that the configuration is one the hardware could realize.
    pub fn validate(self) -> Result<(), String> {
        if !matches!(self.bits, 8 | 16 | 32) {
            return Err(format!("atomic ID width must be 8/16/32 bits, got {}", self.bits));
        }
        if !matches!(self.bins, 1 | 2 | 4) {
            return Err(format!("atomic ID bins must be 1/2/4, got {}", self.bins));
        }
        if !self.bits.is_multiple_of(self.bins) {
            return Err("signature bits must divide evenly into bins".into());
        }
        if !self.bin_width().is_power_of_two() {
            return Err("bin width must be a power of two for direct indexing".into());
        }
        Ok(())
    }

    /// Analytical race-miss probability for two uniformly random distinct
    /// lock addresses: with direct low-order-bit indexing every bin selects
    /// the same index, so a collision occurs when the low `log2(bin_width)`
    /// word-address bits match — probability `1 / bin_width`.
    ///
    /// Reproduces §VI-A2: 8/16/32-bit, 2-bin signatures miss 25%, 12.5% and
    /// 6.25% of injected races, and 4-bin signatures (narrower bins) do
    /// worse than 2-bin ones at equal total width.
    pub fn expected_miss_rate(self) -> f64 {
        1.0 / f64::from(self.bin_width())
    }
}

impl Default for BloomConfig {
    fn default() -> Self {
        Self::PAPER_DEFAULT
    }
}

/// A Bloom-filter signature value. The backing store is a `u32` regardless
/// of the configured width; bits above `config.bits` are always zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct BloomSig(pub u32);

impl BloomSig {
    /// The empty signature: no locks held / unprotected access.
    pub const EMPTY: BloomSig = BloomSig(0);

    /// True when no lock has been inserted (the paper encodes "unprotected"
    /// as an all-zero atomic ID).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Insert a lock variable's address. One bit per bin is set, indexed by
    /// the low-order bits of the word address (locks are word-sized).
    pub fn insert(&mut self, lock_addr: u32, cfg: BloomConfig) {
        let w = u32::from(cfg.bin_width());
        let word = lock_addr >> 2;
        for bin in 0..u32::from(cfg.bins) {
            let idx = word & (w - 1);
            self.0 |= 1 << (bin * w + idx);
        }
    }

    /// Signature containing exactly one lock.
    pub fn of_lock(lock_addr: u32, cfg: BloomConfig) -> Self {
        let mut s = Self::EMPTY;
        s.insert(lock_addr, cfg);
        s
    }

    /// Bitwise-AND intersection of two locksets (§III-B: "The intersection
    /// of Bloom filter signatures is a simple bitwise AND operation").
    pub fn intersect(self, other: BloomSig) -> BloomSig {
        BloomSig(self.0 & other.0)
    }

    /// A *null* intersection proves the two locksets share no lock: if any
    /// bin has no surviving bit, no element can be in both sets.
    pub fn is_null_intersection(self, other: BloomSig, cfg: BloomConfig) -> bool {
        let inter = self.intersect(other).0;
        let w = u32::from(cfg.bin_width());
        let mask = if w == 32 { u32::MAX } else { (1 << w) - 1 };
        (0..u32::from(cfg.bins)).any(|bin| (inter >> (bin * w)) & mask == 0)
    }

    /// Clear the signature (lock release path: "we simply clear the
    /// signature when a thread releases all the lock variables held").
    pub fn clear(&mut self) {
        self.0 = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C2: BloomConfig = BloomConfig { bits: 16, bins: 2 };
    const C4: BloomConfig = BloomConfig { bits: 16, bins: 4 };

    #[test]
    fn config_validation() {
        assert!(C2.validate().is_ok());
        assert!(C4.validate().is_ok());
        assert!(BloomConfig { bits: 12, bins: 2 }.validate().is_err());
        assert!(BloomConfig { bits: 16, bins: 3 }.validate().is_err());
        assert!(BloomConfig { bits: 8, bins: 4 }.validate().is_ok());
    }

    #[test]
    fn insert_sets_one_bit_per_bin() {
        let s = BloomSig::of_lock(0x1000, C2);
        assert_eq!(s.0.count_ones(), 2);
        let s4 = BloomSig::of_lock(0x1000, C4);
        assert_eq!(s4.0.count_ones(), 4);
    }

    #[test]
    fn same_lock_always_intersects() {
        let a = BloomSig::of_lock(0x40, C2);
        let b = BloomSig::of_lock(0x40, C2);
        assert!(!a.is_null_intersection(b, C2));
    }

    #[test]
    fn disjoint_locks_yield_null_intersection() {
        // Word addresses 0 and 1 differ in the low index bits for an 8-wide bin.
        let a = BloomSig::of_lock(0x0, C2);
        let b = BloomSig::of_lock(0x4, C2);
        assert!(a.is_null_intersection(b, C2));
    }

    #[test]
    fn superset_keeps_intersection_alive() {
        let mut held = BloomSig::of_lock(0x100, C2);
        held.insert(0x204, C2);
        let guard = BloomSig::of_lock(0x100, C2);
        assert!(!held.is_null_intersection(guard, C2));
    }

    #[test]
    fn empty_signature_is_null_against_everything() {
        let a = BloomSig::of_lock(0x8, C2);
        assert!(a.is_null_intersection(BloomSig::EMPTY, C2));
        assert!(BloomSig::EMPTY.is_null_intersection(BloomSig::EMPTY, C2));
    }

    #[test]
    fn aliasing_follows_low_order_word_bits() {
        // bin width 8 => index = word_addr & 7. Addresses 0x0 and 0x20
        // (words 0 and 8) alias; 0x0 and 0x4 (words 0 and 1) do not.
        let a = BloomSig::of_lock(0x0, C2);
        let alias = BloomSig::of_lock(0x20, C2);
        assert_eq!(a, alias);
        assert_ne!(a, BloomSig::of_lock(0x4, C2));
    }

    #[test]
    fn expected_miss_rates_match_paper() {
        assert_eq!(BloomConfig { bits: 8, bins: 2 }.expected_miss_rate(), 0.25);
        assert_eq!(BloomConfig { bits: 16, bins: 2 }.expected_miss_rate(), 0.125);
        assert_eq!(BloomConfig { bits: 32, bins: 2 }.expected_miss_rate(), 0.0625);
        // 4 bins are worse than 2 at equal width (narrower bins).
        assert!(
            BloomConfig { bits: 16, bins: 4 }.expected_miss_rate()
                > BloomConfig { bits: 16, bins: 2 }.expected_miss_rate()
        );
    }

    #[test]
    fn clear_empties_the_signature() {
        let mut s = BloomSig::of_lock(0xdead_bee0, C2);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn bits_above_configured_width_stay_zero() {
        for addr in (0..4096u32).step_by(4) {
            let s = BloomSig::of_lock(addr, BloomConfig { bits: 8, bins: 2 });
            assert_eq!(s.0 >> 8, 0, "addr {addr:#x} set bits above width");
        }
    }
}
