//! The timing memory system: request types, coalescer, tag-only caches,
//! interconnect links, FR-FCFS DRAM and the L2/memory-slice model.
//!
//! Architectural data lives in [`crate::device::DeviceMemory`]; everything
//! here decides *when* requests complete, with one exception — atomics are
//! functionally executed when their request is processed at the L2 slice,
//! which is what serializes contended lock operations exactly as the
//! hardware would.

pub mod cache;
pub mod coalesce;
pub mod dram;
pub mod icnt;
pub mod slice;
pub mod tlb;

use crate::isa::AtomOp;

/// One lane's atomic operation, carried inside an atomic transaction and
/// applied at the slice in lane order.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub struct LaneAtomic {
    pub lane: u8,
    pub addr: u32,
    pub op: AtomOp,
    pub src: u32,
    pub src2: u32,
}

/// What a memory request is for — determines its response handling.
#[derive(Clone, Debug)]
pub enum ReqKind {
    /// Global load transaction: fills L1 on return and wakes the warp.
    LoadData,
    /// Global store (write-through): the L2 ack decrements the warp's
    /// outstanding-store count (fences wait on it).
    StoreData,
    /// Atomic transaction: executed at the slice; the response carries the
    /// old values, written to the destination register's lanes.
    Atomic {
        /// Per-lane RMW operations, applied in lane order.
        ops: Vec<LaneAtomic>,
        /// Destination register receiving the old values.
        dreg: u16,
    },
}

impl ReqKind {
    /// Whether a response must travel back to the SM.
    pub fn wants_response(&self) -> bool {
        matches!(self, ReqKind::LoadData | ReqKind::StoreData | ReqKind::Atomic { .. })
    }

    /// Whether the request writes memory (for L2 dirty handling).
    pub fn is_write(&self) -> bool {
        matches!(self, ReqKind::StoreData | ReqKind::Atomic { .. })
    }
}

/// A memory transaction travelling between an SM and a memory slice.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub struct MemReq {
    pub id: u64,
    /// 128-byte-aligned line address.
    pub line_addr: u32,
    /// Payload bytes (data flits on the network).
    pub bytes: u32,
    /// Issuing SM.
    pub sm: u32,
    /// Warp slot within the SM (for wakeup routing).
    pub warp_slot: usize,
    /// Global warp ID of the issuer — guards against a response arriving
    /// after the CTA retired and another warp reused the slot.
    pub gwarp: u32,
    pub kind: ReqKind,
    /// Lowest shadow-table line the global RDU accessed for this request,
    /// if it accessed any. Timing-inert: the slice ignores it (the
    /// passive detector charges shadow traffic in
    /// [`crate::detector::LaunchDet`]); only the §IV-B TLB trace reads
    /// it.
    pub shadow_line: Option<u32>,
    /// Old values returned by an atomic, filled at the slice.
    pub atomic_old: Vec<(u8, u32)>,
}

impl MemReq {
    /// Network flits for this request in the SM→slice direction: one
    /// header/control flit (which also carries the sync/fence/atomic IDs,
    /// §V) plus data flits for stores.
    pub fn request_flits(&self, flit_bytes: u32) -> u64 {
        let data = match self.kind {
            ReqKind::StoreData => self.bytes,
            ReqKind::Atomic { .. } => 8, // operands
            _ => 0,
        };
        1 + u64::from(data.div_ceil(flit_bytes))
    }

    /// Network flits for the response in the slice→SM direction.
    pub fn response_flits(&self, flit_bytes: u32) -> u64 {
        let data = match self.kind {
            ReqKind::LoadData => self.bytes,
            ReqKind::Atomic { .. } => 8,
            ReqKind::StoreData => 0, // bare ack
        };
        1 + u64::from(data.div_ceil(flit_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: ReqKind, bytes: u32) -> MemReq {
        MemReq {
            id: 0,
            line_addr: 0,
            bytes,
            sm: 0,
            warp_slot: 0,
            gwarp: 0,
            kind,
            shadow_line: None,
            atomic_old: Vec::new(),
        }
    }

    #[test]
    fn flit_accounting() {
        // 128-byte load: 1 request flit, 1 + 4 response flits at 32 B.
        let r = req(ReqKind::LoadData, 128);
        assert_eq!(r.request_flits(32), 1);
        assert_eq!(r.response_flits(32), 5);
        // 128-byte store: 5 request flits, 1 ack flit.
        let w = req(ReqKind::StoreData, 128);
        assert_eq!(w.request_flits(32), 5);
        assert_eq!(w.response_flits(32), 1);
    }

    #[test]
    fn kind_classification() {
        assert!(ReqKind::StoreData.is_write());
        assert!(ReqKind::Atomic { ops: vec![], dreg: 0 }.is_write());
        assert!(!ReqKind::LoadData.is_write());
        assert!(ReqKind::LoadData.wants_response());
        assert!(ReqKind::StoreData.wants_response());
    }
}
