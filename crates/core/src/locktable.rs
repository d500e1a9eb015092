//! The exact lookup-table alternative to Bloom-filter atomic IDs.
//!
//! §III-B: "A more accurate look-up table based approach for tracking
//! lock variables can also be adopted, however we choose Bloom filter due
//! to its low hardware overhead." This module implements that alternative
//! so the trade-off can be measured: a small CAM of lock addresses per
//! thread, with exact set semantics (no aliasing, hence no missed races)
//! but bounded capacity and much larger storage per thread.

use crate::json::Value;

/// Exact lockset held in a small content-addressable table.
///
/// `CAP` is the hardware table depth. Real GPU kernels nest at most a few
/// locks (§III-B cites [22, 28]); overflow falls back to *saturated*
/// state, which conservatively intersects as "maybe common" so the
/// detector never gains false positives from overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockTable<const CAP: usize = 4> {
    entries: [u32; CAP],
    len: u8,
    /// More than `CAP` live locks were held at once.
    saturated: bool,
}

impl<const CAP: usize> Default for LockTable<CAP> {
    fn default() -> Self {
        Self { entries: [0; CAP], len: 0, saturated: false }
    }
}

impl<const CAP: usize> LockTable<CAP> {
    /// Empty table, usable in `const` contexts (shadow-entry `FRESH`).
    pub const EMPTY: Self = Self { entries: [0; CAP], len: 0, saturated: false };

    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks currently tracked.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the set is empty (and not saturated).
    pub fn is_empty(&self) -> bool {
        self.len == 0 && !self.saturated
    }

    /// Whether the table overflowed at some point this epoch.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Insert a lock address (idempotent).
    pub fn insert(&mut self, lock_addr: u32) {
        if self.entries[..self.len()].contains(&lock_addr) {
            return;
        }
        if self.len() == CAP {
            self.saturated = true;
            return;
        }
        self.entries[self.len()] = lock_addr;
        self.len += 1;
    }

    /// Remove a lock address (exact removal — the capability Bloom
    /// signatures lack).
    pub fn remove(&mut self, lock_addr: u32) {
        if let Some(i) = self.entries[..self.len()].iter().position(|&e| e == lock_addr) {
            self.entries[i] = self.entries[self.len() - 1];
            self.len -= 1;
        }
    }

    /// Clear (outermost release / kernel end).
    pub fn clear(&mut self) {
        self.len = 0;
        self.saturated = false;
    }

    /// Exact membership.
    pub fn contains(&self, lock_addr: u32) -> bool {
        self.entries[..self.len()].contains(&lock_addr)
    }

    /// Exact common-lock test: true iff the two sets share an element.
    /// Saturation is conservative — a saturated side may hold anything,
    /// so the intersection is treated as possibly non-empty (no race
    /// reported), mirroring how hardware would fail safe.
    pub fn intersects(&self, other: &Self) -> bool {
        if self.saturated || other.saturated {
            return true;
        }
        self.entries[..self.len()].iter().any(|e| other.contains(*e))
    }

    /// Exact intersection (used to refine the shadow entry's protecting
    /// set, like the Bloom AND).
    pub fn intersect(&self, other: &Self) -> Self {
        if self.saturated {
            return *other;
        }
        if other.saturated {
            return *self;
        }
        let mut out = Self::new();
        for &e in &self.entries[..self.len()] {
            if other.contains(e) {
                out.insert(e);
            }
        }
        out
    }

    /// Storage bits per thread for this table depth: CAP × 32-bit
    /// addresses + a count/saturation field. Compare with the 16-bit
    /// Bloom signature (§VI-A2) — this is the "low hardware overhead"
    /// argument, quantified.
    pub fn storage_bits() -> u32 {
        (CAP as u32) * 32 + 8
    }

    /// The trace-format object `{"entries":[..CAP],"len":n,"saturated":b}`.
    /// Slots past `len` are written too, so the table round-trips exactly.
    pub(crate) fn to_json(self) -> Value {
        crate::json_object!(LockTable { entries: entries.to_vec(), len, saturated } = self)
    }

    /// Inverse of [`Self::to_json`]. Rejects a missing field, an entry
    /// outside `u32`, an entry count other than `CAP` and a `len` above
    /// `CAP`.
    pub(crate) fn from_json(v: &Value) -> Result<Self, String> {
        let list = v.field("entries")?.as_array().ok_or("field `entries`: expected an array")?;
        if list.len() != CAP {
            return Err(format!("field `entries`: expected {CAP} entries, got {}", list.len()));
        }
        let mut entries = [0u32; CAP];
        for (slot, e) in entries.iter_mut().zip(list) {
            let entry = e.as_u64().and_then(|n| u32::try_from(n).ok());
            *slot = entry.ok_or("field `entries`: expected u32 entries")?;
        }
        let len: u8 = v.int_field("len")?;
        if usize::from(len) > CAP {
            return Err(format!("field `len`: {len} exceeds the table depth {CAP}"));
        }
        Ok(Self { entries, len, saturated: v.bool_field("saturated")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::{BloomConfig, BloomSig};

    #[test]
    fn exact_set_semantics() {
        let mut t: LockTable = LockTable::new();
        assert!(t.is_empty());
        t.insert(0x100);
        t.insert(0x200);
        t.insert(0x100); // idempotent
        assert_eq!(t.len(), 2);
        assert!(t.contains(0x100));
        t.remove(0x100);
        assert!(!t.contains(0x100));
        assert!(t.contains(0x200));
    }

    #[test]
    fn exact_removal_beats_bloom_clear_semantics() {
        // Bloom filters can only clear wholesale; the table removes one
        // lock while keeping the other visible.
        let mut t: LockTable = LockTable::new();
        t.insert(0xA0);
        t.insert(0xB0);
        t.remove(0xA0);
        let mut other: LockTable = LockTable::new();
        other.insert(0xB0);
        assert!(t.intersects(&other));
        let mut third: LockTable = LockTable::new();
        third.insert(0xA0);
        assert!(!t.intersects(&third), "removed lock is exactly gone");
    }

    #[test]
    fn no_aliasing_ever() {
        // The §VI-A2 Bloom stress case: 0x0 and 0x20 alias in a 2-bin
        // 16-bit signature; the table distinguishes them exactly.
        let cfg = BloomConfig { bits: 16, bins: 2 };
        assert_eq!(BloomSig::of_lock(0x0, cfg), BloomSig::of_lock(0x100, cfg));
        let mut a: LockTable = LockTable::new();
        a.insert(0x0);
        let mut b: LockTable = LockTable::new();
        b.insert(0x100);
        assert!(!a.intersects(&b), "distinct locks never alias in the table");
    }

    #[test]
    fn overflow_saturates_conservatively() {
        let mut t: LockTable<2> = LockTable::new();
        t.insert(1 << 2);
        t.insert(2 << 2);
        t.insert(3 << 2); // overflow
        assert!(t.saturated());
        let empty: LockTable<2> = LockTable::new();
        assert!(t.intersects(&empty.intersect(&t)) || t.saturated());
        // Saturated tables intersect with everything (fail safe: no
        // false races, possibly missed ones — like the Bloom trade-off).
        let mut other: LockTable<2> = LockTable::new();
        other.insert(99 << 2);
        assert!(t.intersects(&other));
    }

    #[test]
    fn intersection_refines_like_the_bloom_and() {
        let mut a: LockTable = LockTable::new();
        a.insert(0x10);
        a.insert(0x20);
        let mut b: LockTable = LockTable::new();
        b.insert(0x20);
        b.insert(0x30);
        let i = a.intersect(&b);
        assert_eq!(i.len(), 1);
        assert!(i.contains(0x20));
    }

    #[test]
    fn storage_cost_quantifies_the_papers_choice() {
        // A 4-deep exact table costs 136 bits per thread vs the 16-bit
        // Bloom signature: 8.5× — the paper's "low hardware overhead"
        // rationale for Bloom filters.
        assert_eq!(LockTable::<4>::storage_bits(), 136);
        let fermi_threads = 1536u32;
        let table_kb = fermi_threads * LockTable::<4>::storage_bits() / 8 / 1024;
        let bloom_kb = fermi_threads * 16 / 8 / 1024;
        assert!(table_kb >= 8 * bloom_kb, "{table_kb}KB vs {bloom_kb}KB");
    }
}
