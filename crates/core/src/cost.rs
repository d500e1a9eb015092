//! Hardware- and memory-overhead model (§VI-C2, §VI-C3, Table IV).
//!
//! The paper budgets HAccRG's cost as (a) comparator logic in each SM and
//! memory slice, (b) dedicated storage for shared shadow entries and the
//! ID registers, and (c) a reserved slice of device memory for the global
//! shadow table. These functions reproduce that arithmetic so the
//! `table4` harness and the documentation can derive every number from the
//! configuration instead of hard-coding it.

use crate::granularity::Granularity;

/// Shared-memory shadow entry width: 1-bit modified + 1-bit shared +
/// 10-bit tid (§VI-C2).
pub const SHARED_ENTRY_BITS: u32 = 12;

/// Global shadow entry, basic fields: 1-bit modified + 1-bit shared +
/// 10-bit tid + 3-bit bid + 5-bit sid + 8-bit sync ID (§VI-C2).
pub const GLOBAL_ENTRY_BASIC_BITS: u32 = 28;
/// Basic + 8-bit fence ID.
pub const GLOBAL_ENTRY_FENCE_BITS: u32 = GLOBAL_ENTRY_BASIC_BITS + 8;
/// Basic + fence + 16-bit atomic ID — the full entry.
pub const GLOBAL_ENTRY_FULL_BITS: u32 = GLOBAL_ENTRY_FENCE_BITS + 16;

/// Addressable stride of one packed global shadow word in device memory.
/// 52 bits round up to the next power-of-two-addressable size the memory
/// system can fetch atomically.
pub const GLOBAL_SHADOW_STRIDE_BYTES: u32 = 8;

/// Stall cycles a bulk shadow invalidation costs: the banked shadow
/// storage clears one row per bank per cycle (§IV-A), so a reset of
/// `entries` entries over `banks` banks takes `ceil(entries / banks)`
/// cycles. This is the *modeled* hardware charge; the functional shadow
/// table invalidates lazily via generation counters and must keep quoting
/// this arithmetic cost regardless of how little host work it does.
/// Because the charge is arithmetic, the simulator accumulates it on the
/// SM's detector-busy counter and folds it into the cycle count at
/// launch end (see the passive-detection epilogue below) instead of
/// stalling warps — stalling would let detection perturb the retired
/// instruction stream.
pub fn banked_reset_cycles(entries: u64, banks: u32) -> u64 {
    entries.div_ceil(u64::from(banks.max(1)))
}

/// Per-ID register widths (§VI-A2).
pub const SYNC_ID_BITS: u32 = 8;
/// Fence-ID register width (§VI-A2).
pub const FENCE_ID_BITS: u32 = 8;
/// Atomic-ID (Bloom signature) register width (§VI-A2).
pub const ATOMIC_ID_BITS: u32 = 16;

/// Storage budget summary for a GPU configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HardwareBudget {
    /// Shared shadow storage per SM, bytes.
    pub shared_shadow_bytes_per_sm: u64,
    /// ID registers (sync + fence + atomic) per SM, bytes.
    pub id_storage_bytes_per_sm: u64,
    /// Race register file (all SMs' fence IDs), bytes per replica.
    pub race_register_file_bytes: u64,
    /// Shared-RDU comparators per SM (one per bank, entry-wide).
    pub shared_comparators_per_sm: u32,
    /// Global-RDU comparators per memory slice for the basic fields.
    pub global_basic_comparators_per_slice: u32,
    /// Global-RDU comparators per memory slice for fence/atomic IDs.
    pub global_id_comparators_per_slice: u32,
}

/// Parameters the budget depends on.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct BudgetParams {
    #[allow(missing_docs)]
    pub num_sms: u32,
    pub shared_bytes_per_sm: u32,
    pub shared_granularity: Granularity,
    pub global_granularity: Granularity,
    pub shared_banks: u32,
    pub max_blocks_per_sm: u32,
    pub max_warps_per_sm: u32,
    pub max_threads_per_sm: u32,
    pub l2_line_bytes: u32,
}

impl BudgetParams {
    /// NVIDIA Fermi sizing used for the §VI-C2 numbers: 48 KB shared per
    /// SM, 8 blocks / 48 warps / 1536 threads per SM, 16 SMs.
    pub fn fermi() -> Self {
        Self {
            num_sms: 16,
            shared_bytes_per_sm: 48 * 1024,
            shared_granularity: Granularity::SHARED_DEFAULT,
            global_granularity: Granularity::GLOBAL_DEFAULT,
            shared_banks: 8,
            max_blocks_per_sm: 8,
            max_warps_per_sm: 48,
            max_threads_per_sm: 1536,
            l2_line_bytes: 128,
        }
    }
}

/// Compute the full storage/logic budget.
pub fn hardware_budget(p: &BudgetParams) -> HardwareBudget {
    let shared_entries = p.shared_granularity.entries_for(p.shared_bytes_per_sm) as u64;
    let shared_shadow_bits = shared_entries * u64::from(SHARED_ENTRY_BITS);

    let id_bits = u64::from(p.max_blocks_per_sm) * u64::from(SYNC_ID_BITS)
        + u64::from(p.max_warps_per_sm) * u64::from(FENCE_ID_BITS)
        + u64::from(p.max_threads_per_sm) * u64::from(ATOMIC_ID_BITS);

    let rrf_bits = u64::from(p.num_sms) * u64::from(p.max_warps_per_sm) * u64::from(FENCE_ID_BITS);

    // §VI-C2: "For parallel comparison across shared memory banks at
    // 16-byte granularity, HAccRG requires 8 12-bit comparators per SM"
    // and, for a 128-byte line at 4-byte granularity, "32 28-bit
    // comparators for basic shadow entries and 16 24-bit comparators for
    // fence and atomic IDs per memory slice".
    let global_chunks_per_line = p.l2_line_bytes / p.global_granularity.bytes();

    HardwareBudget {
        shared_shadow_bytes_per_sm: shared_shadow_bits / 8,
        id_storage_bytes_per_sm: id_bits / 8,
        race_register_file_bytes: rrf_bits / 8,
        shared_comparators_per_sm: p.shared_banks,
        global_basic_comparators_per_slice: global_chunks_per_line,
        global_id_comparators_per_slice: global_chunks_per_line / 2,
    }
}

/// === Passive-detection timing epilogue ===
///
/// HAccRG's contract is that the detector *observes* execution without
/// changing it: enabling detection must leave the retired instruction
/// stream, the memory traffic and every architectural counter
/// bit-identical to a detection-off run. The simulator therefore charges
/// detector time arithmetically — the same discipline as
/// [`banked_reset_cycles`] — instead of injecting shadow requests into
/// the caches and DRAM (which would perturb scheduling, e.g. a bucket
/// lock's CAS retry count). Per-unit busy cycles are accumulated on the
/// side during the run and folded into the cycle count as a modeled
/// epilogue window at launch end; the fold takes the *maximum* over SMs
/// and over memory slices, since independent units overlap.
///
/// One global-RDU shadow line access occupies its slice's L2 port for
/// this many cycles (shadow shares the port round-robin with data).
pub const SHADOW_PORT_CYCLES: u64 = 1;

/// First touch of a shadow line misses L2 and fetches from DRAM; the
/// charge models the amortized FR-FCFS service per line (bank-parallel,
/// mostly row hits on the dense shadow table), not a full cold-miss
/// round trip.
pub const SHADOW_FILL_CYCLES: u64 = 8;

/// Fig. 8 placement: one shared-shadow line access through the L1 port.
pub const SHARED_SHADOW_HIT_CYCLES: u64 = 1;

/// Fig. 8 placement: first touch of a shared-shadow line misses L1 and
/// round-trips to L2 (amortized across overlapping fills).
pub const SHARED_SHADOW_MISS_CYCLES: u64 = 16;

/// Modeled busy cycles of one memory slice's shadow port: every shadow
/// line access holds the L2 port, and first-touch lines add a DRAM fill.
pub fn shadow_slice_cycles(port_accesses: u64, fills: u64) -> u64 {
    port_accesses * SHADOW_PORT_CYCLES + fills * SHADOW_FILL_CYCLES
}

/// Reserved device memory for the global shadow table over a kernel
/// footprint of `tracked_bytes` (Table IV). Reported both as packed bits
/// (the paper's accounting) and as the addressable stride the simulator
/// actually allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowFootprint {
    /// Number of shadow entries.
    pub entries: u64,
    /// Packed size: entries × 52 bits (the §VI-C2 full entry).
    pub packed_bytes: u64,
    /// Allocated size: entries × 8-byte stride.
    pub allocated_bytes: u64,
}

/// Compute the Table IV shadow-memory overhead for a kernel footprint.
pub fn global_shadow_footprint(tracked_bytes: u64, gran: Granularity) -> ShadowFootprint {
    let entries = tracked_bytes.div_ceil(u64::from(gran.bytes()));
    ShadowFootprint {
        entries,
        packed_bytes: (entries * u64::from(GLOBAL_ENTRY_FULL_BITS)).div_ceil(8),
        allocated_bytes: entries * u64::from(GLOBAL_SHADOW_STRIDE_BYTES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_bit_widths_match_section_6c2() {
        assert_eq!(SHARED_ENTRY_BITS, 12);
        assert_eq!(GLOBAL_ENTRY_BASIC_BITS, 28);
        assert_eq!(GLOBAL_ENTRY_FENCE_BITS, 36);
        assert_eq!(GLOBAL_ENTRY_FULL_BITS, 52);
    }

    #[test]
    fn fermi_budget_reproduces_paper_numbers() {
        let b = hardware_budget(&BudgetParams::fermi());
        // "HAccRG will require 4.5KB storage per SM on Fermi for the
        // shared memory shadow entries."
        assert_eq!(b.shared_shadow_bytes_per_sm, 4608); // 4.5 KB
        // "the storage size for global memory data race detection will be
        // 3KB per SM" (8×8b + 48×8b + 1536×16b = 25,024 bits ≈ 3.05 KB).
        assert!((3000..3200).contains(&b.id_storage_bytes_per_sm), "{}", b.id_storage_bytes_per_sm);
        // "The race register file ... takes 0.75KB per copy."
        assert_eq!(b.race_register_file_bytes, 768);
        // Comparator counts of §VI-C2.
        assert_eq!(b.shared_comparators_per_sm, 8);
        assert_eq!(b.global_basic_comparators_per_slice, 32);
        assert_eq!(b.global_id_comparators_per_slice, 16);
    }

    #[test]
    fn shadow_footprint_scales_inversely_with_granularity() {
        let g4 = global_shadow_footprint(1 << 20, Granularity::new(4).unwrap());
        let g64 = global_shadow_footprint(1 << 20, Granularity::new(64).unwrap());
        assert_eq!(g4.entries, 1 << 18);
        assert_eq!(g64.entries, 1 << 14);
        assert_eq!(g4.entries, g64.entries * 16);
        assert!(g4.packed_bytes > g64.packed_bytes);
    }

    #[test]
    fn packed_accounting_uses_52_bits() {
        let f = global_shadow_footprint(4096, Granularity::GLOBAL_DEFAULT);
        assert_eq!(f.entries, 1024);
        assert_eq!(f.packed_bytes, 1024 * 52 / 8);
        assert_eq!(f.allocated_bytes, 1024 * 8);
    }

    #[test]
    fn zero_footprint_is_zero_overhead() {
        let f = global_shadow_footprint(0, Granularity::GLOBAL_DEFAULT);
        assert_eq!(f.entries, 0);
        assert_eq!(f.packed_bytes, 0);
        assert_eq!(f.allocated_bytes, 0);
    }
}
