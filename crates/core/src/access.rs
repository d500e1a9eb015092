//! Memory-access descriptors observed by the race-detection units.
//!
//! Every memory request issued by a GPU thread is summarized as a
//! [`MemAccess`] carrying the identity of the accessing thread
//! ([`ThreadCoord`]), the logical clocks of its warp/block at issue time
//! (fence ID, sync ID — paper §III-C and §IV-B) and its lockset signature
//! (atomic ID, §III-B). The RDUs consume these records and nothing else:
//! the detector is completely decoupled from how the access stream is
//! produced (cycle-level simulator, trace replay, or unit test).

use crate::bloom::BloomSig;
use crate::json::Value;
use crate::locktable::LockTable;

/// Identity of the accessing thread in the GPU thread hierarchy.
///
/// All identifiers are *global* (unique across the whole grid): two threads
/// in different blocks always have different `warp` values, which lets the
/// detector treat "different warp or different thread-block" (§IV-B) as a
/// single comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThreadCoord {
    /// Global thread ID (`blockIdx * blockDim + threadIdx`).
    pub tid: u32,
    /// Global warp ID (`tid / warp_size`).
    pub warp: u32,
    /// Thread-block ID (`blockIdx`).
    pub block: u32,
    /// Streaming multiprocessor executing the thread's block.
    pub sm: u32,
}

impl ThreadCoord {
    /// Convenience constructor used pervasively in tests.
    pub fn new(tid: u32, warp: u32, block: u32, sm: u32) -> Self {
        Self { tid, warp, block, sm }
    }

    /// Derive coordinates from a flat thread ID and launch geometry.
    ///
    /// `block_dim` is the number of threads per block, `warp_size` the SIMD
    /// width of a warp (32 in the paper's configuration), and `sms` the
    /// number of streaming multiprocessors blocks are distributed over
    /// (round-robin, which is how the simulator assigns them).
    pub fn from_flat(tid: u32, block_dim: u32, warp_size: u32, sms: u32) -> Self {
        let block = tid / block_dim;
        Self {
            tid,
            warp: tid / warp_size,
            block,
            sm: block % sms.max(1),
        }
    }

    /// The trace-format object `{"tid","warp","block","sm"}`.
    pub(crate) fn to_json(self) -> Value {
        crate::json_object!(ThreadCoord { tid, warp, block, sm } = self)
    }

    /// Inverse of [`Self::to_json`]; rejects a missing or out-of-range
    /// field.
    pub(crate) fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            tid: v.int_field("tid")?,
            warp: v.int_field("warp")?,
            block: v.int_field("block")?,
            sm: v.int_field("sm")?,
        })
    }
}

/// The kind of memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AccessKind {
    Read,
    Write,
    /// Hardware atomic read-modify-write. Atomics are serialized by the
    /// memory system and act as synchronization primitives (lock words,
    /// tickets); HAccRG does not flag conflicting atomics as races and
    /// does not let them perturb the shadow state (§II-A, §III-B).
    Atomic,
}

impl AccessKind {
    /// Whether the access can produce a racy *write* side.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Whether the access participates in race detection at all.
    pub fn is_tracked(self) -> bool {
        !matches!(self, AccessKind::Atomic)
    }
}

/// Which memory space an access targets. Local memory is thread-private and
/// can never race, so the RDUs only ever see `Shared` and `Global`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemSpace {
    Shared,
    Global,
    Local,
}

/// One memory access as observed by an RDU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct MemAccess {
    /// Byte address. For the shared-memory RDU this is an offset into the
    /// SM's shared memory; for the global RDU it is a device address.
    pub addr: u32,
    /// Access width in bytes (1, 2, 4 or 8).
    pub size: u8,
    pub kind: AccessKind,
    pub who: ThreadCoord,
    /// Static instruction address — used to deduplicate race reports per
    /// program location, mirroring how the paper counts injected races.
    pub pc: u32,
    /// The accessing block's barrier logical clock at issue time (§IV-B).
    pub sync_id: u8,
    /// The accessing warp's fence logical clock at issue time (§III-C).
    pub fence_id: u8,
    /// Bloom-filter signature of the locks currently held (§III-B);
    /// empty when the thread holds no locks.
    pub atomic_sig: BloomSig,
    /// Exact set of held locks (§III-B's lookup-table alternative),
    /// populated by producers that track it (simulator, replayer).
    /// Empty-while-in-critical-section means the producer did not supply
    /// exact information and only the Bloom signature can be trusted.
    pub locks: LockTable<4>,
    /// True when issued between critical-section markers.
    pub in_critical_section: bool,
    /// True when a global read was satisfied by the (non-coherent) L1 data
    /// cache; used for the stale-L1 RAW check of §IV-B.
    pub l1_hit: bool,
    /// Cycle at which the hitting L1 line was filled (meaningful only
    /// when `l1_hit`). The simulator supplies it so the detector can tell
    /// a genuinely stale cached copy (filled before the producer's write)
    /// from a line fetched after the write completed.
    pub l1_fill_cycle: u64,
    /// Issue cycle of the access (0 in unit tests).
    pub cycle: u64,
}

impl MemAccess {
    /// A plain (non-critical-section) access with all clocks at zero.
    /// Primarily a test/bench convenience.
    pub fn plain(addr: u32, size: u8, kind: AccessKind, who: ThreadCoord) -> Self {
        Self {
            addr,
            size,
            kind,
            who,
            pc: 0,
            sync_id: 0,
            fence_id: 0,
            atomic_sig: BloomSig::EMPTY,
            locks: LockTable::EMPTY,
            in_critical_section: false,
            l1_hit: false,
            l1_fill_cycle: 0,
            cycle: 0,
        }
    }

    /// Builder-style setter for the program counter.
    pub fn at_pc(mut self, pc: u32) -> Self {
        self.pc = pc;
        self
    }

    /// Builder-style setter for the logical clocks.
    pub fn with_clocks(mut self, sync_id: u8, fence_id: u8) -> Self {
        self.sync_id = sync_id;
        self.fence_id = fence_id;
        self
    }

    /// Builder-style setter marking a critical-section access.
    pub fn locked(mut self, sig: BloomSig) -> Self {
        self.atomic_sig = sig;
        self.in_critical_section = true;
        self
    }

    /// Builder-style setter attaching the exact lockset alongside the
    /// Bloom signature (enables exact-mode checks and miss attribution).
    pub fn with_locks(mut self, locks: LockTable<4>) -> Self {
        self.locks = locks;
        self
    }

    /// Builder-style setter for the L1-hit flag.
    pub fn l1(mut self, hit: bool) -> Self {
        self.l1_hit = hit;
        self
    }

    /// Builder-style setter marking an L1 hit whose line was filled at
    /// `fill_cycle`.
    pub fn l1_filled_at(mut self, fill_cycle: u64) -> Self {
        self.l1_hit = true;
        self.l1_fill_cycle = fill_cycle;
        self
    }

    /// Builder-style setter for the issue cycle.
    pub fn at_cycle(mut self, cycle: u64) -> Self {
        self.cycle = cycle;
        self
    }

    /// The trace-format object: every field under its own name, `kind`
    /// as its variant name and `atomic_sig` as an integer.
    pub(crate) fn to_json(self) -> Value {
        crate::json_object!(MemAccess {
            addr, size, kind: format!("{kind:?}"), who: who.to_json(), pc, sync_id, fence_id,
            atomic_sig: atomic_sig.0, locks: locks.to_json(), in_critical_section, l1_hit,
            l1_fill_cycle, cycle,
        } = self)
    }

    /// Inverse of [`Self::to_json`]. `locks` may be absent (an empty
    /// table); every other field must be present and in range.
    pub(crate) fn from_json(v: &Value) -> Result<Self, String> {
        let kind = match v.str_field("kind")? {
            "Read" => AccessKind::Read,
            "Write" => AccessKind::Write,
            "Atomic" => AccessKind::Atomic,
            other => return Err(format!("unknown access kind `{other}`")),
        };
        Ok(Self {
            addr: v.int_field("addr")?,
            size: v.int_field("size")?,
            kind,
            who: ThreadCoord::from_json(v.field("who")?)?,
            pc: v.int_field("pc")?,
            sync_id: v.int_field("sync_id")?,
            fence_id: v.int_field("fence_id")?,
            atomic_sig: BloomSig(v.int_field("atomic_sig")?),
            locks: v.get("locks").map_or(Ok(LockTable::EMPTY), LockTable::from_json)?,
            in_critical_section: v.bool_field("in_critical_section")?,
            l1_hit: v.bool_field("l1_hit")?,
            l1_fill_cycle: v.int_field("l1_fill_cycle")?,
            cycle: v.int_field("cycle")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_derives_hierarchy() {
        // 64 threads/block, warp size 32, 4 SMs.
        let t = ThreadCoord::from_flat(130, 64, 32, 4);
        assert_eq!(t.tid, 130);
        assert_eq!(t.block, 2);
        assert_eq!(t.warp, 4);
        assert_eq!(t.sm, 2);
    }

    #[test]
    fn from_flat_zero_sms_does_not_divide_by_zero() {
        let t = ThreadCoord::from_flat(5, 32, 32, 0);
        assert_eq!(t.sm, 0);
    }

    #[test]
    fn atomic_accesses_are_untracked_writes() {
        assert!(!AccessKind::Atomic.is_write());
        assert!(!AccessKind::Atomic.is_tracked());
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::Read.is_tracked());
    }

    #[test]
    fn builder_setters_compose() {
        let who = ThreadCoord::new(1, 0, 0, 0);
        let a = MemAccess::plain(16, 4, AccessKind::Read, who)
            .at_pc(7)
            .with_clocks(2, 3)
            .l1(true);
        assert_eq!(a.pc, 7);
        assert_eq!(a.sync_id, 2);
        assert_eq!(a.fence_id, 3);
        assert!(a.l1_hit);
        assert!(!a.in_critical_section);
    }
}
