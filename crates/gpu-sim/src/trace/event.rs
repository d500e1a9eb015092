//! Structured simulator events — the vocabulary of the tracing layer.
//!
//! Each variant is a point observation stamped (by the [`Tracer`]) with
//! the cycle it occurred on. The set covers the paper's three pipelines:
//! warp scheduling inside the SMs, the memory-transaction lifecycle
//! (coalesce → L1 → interconnect → L2 → DRAM), and the detector (Fig. 3
//! shadow-state edges plus race reports).
//!
//! [`Tracer`]: crate::trace::Tracer

use haccrg::json::Value;
use haccrg::json_object;
use haccrg::prelude::{MemSpace, RaceRecord};
use haccrg::shadow::ShadowState;

use crate::mem::ReqKind;

/// Why a warp left the runnable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// Waiting for outstanding load/atomic responses.
    Memory,
    /// Waiting for a `membar` (outstanding global stores to reach L2).
    Fence,
    /// A global load could not allocate L1 MSHRs (all occupied); the
    /// warp replays the issue once fills drain.
    MshrFull,
}

/// A [`ReqKind`] stripped to a copyable, serializable tag for events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqTag {
    /// Global load transaction.
    Load,
    /// Global store (write-through).
    Store,
    /// Atomic read-modify-write executed at the slice.
    Atomic,
}

impl From<&ReqKind> for ReqTag {
    fn from(k: &ReqKind) -> Self {
        match k {
            ReqKind::LoadData => ReqTag::Load,
            ReqKind::StoreData => ReqTag::Store,
            ReqKind::Atomic { .. } => ReqTag::Atomic,
        }
    }
}

/// One structured simulator event.
///
/// [`SimEvent::to_json`] writes it with an internal `"type"` tag, so a
/// JSON stream of events is self-describing:
/// `{"type":"WarpIssue","sm":0,"gwarp":3,"pc":7}`.
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    /// A kernel launch began (cycle 0 of the launch).
    KernelLaunch {
        /// Monotonic launch sequence number on this GPU.
        launch: u32,
        /// Grid size in blocks.
        grid: u32,
        /// Threads per block.
        block_dim: u32,
    },
    /// The launch's last block retired.
    KernelEnd {
        /// Launch sequence number.
        launch: u32,
    },
    /// A warp issued an instruction.
    WarpIssue {
        /// SM executing the warp.
        sm: u32,
        /// Global warp ID.
        gwarp: u32,
        /// Source line tag of the instruction.
        pc: u32,
    },
    /// A warp became unrunnable.
    WarpStall {
        /// SM executing the warp.
        sm: u32,
        /// Global warp ID.
        gwarp: u32,
        /// Why it stalled.
        reason: StallReason,
    },
    /// A block's warp arrived at a barrier.
    BarrierArrive {
        /// SM executing the block.
        sm: u32,
        /// Block ID.
        block: u32,
        /// Global warp ID of the arriver.
        gwarp: u32,
    },
    /// All of a block's warps arrived; the barrier released.
    BarrierRelease {
        /// SM executing the block.
        sm: u32,
        /// Block ID.
        block: u32,
        /// Extra cycles charged for shared-shadow invalidation.
        stall_cycles: u64,
    },
    /// A warp's memory fence completed.
    FenceComplete {
        /// SM executing the warp.
        sm: u32,
        /// Global warp ID.
        gwarp: u32,
    },
    /// A warp's global access was coalesced into line transactions.
    MemCoalesce {
        /// Issuing SM.
        sm: u32,
        /// Global warp ID.
        gwarp: u32,
        /// Source line tag of the memory instruction.
        pc: u32,
        /// Active lanes participating.
        lanes: u32,
        /// Line transactions generated.
        transactions: u32,
    },
    /// An L1 data-cache lookup for one transaction.
    L1Access {
        /// SM owning the L1.
        sm: u32,
        /// 128-byte line address.
        line: u32,
        /// Tag hit?
        hit: bool,
        /// Store (write-through) rather than load.
        write: bool,
    },
    /// A request left an SM for the interconnect.
    ReqDepart {
        /// Issuing SM.
        sm: u32,
        /// Unique transaction ID.
        id: u64,
        /// Line address.
        line: u32,
        /// Request kind.
        kind: ReqTag,
    },
    /// An L2 bank lookup at a memory slice.
    L2Access {
        /// Memory slice.
        slice: u32,
        /// Line address.
        line: u32,
        /// Tag hit?
        hit: bool,
        /// Shadow-table traffic (detector) rather than program data.
        shadow: bool,
    },
    /// A request was issued to the slice's DRAM channel.
    DramAccess {
        /// Memory slice.
        slice: u32,
        /// Line address.
        line: u32,
        /// Write (writeback) rather than read.
        write: bool,
        /// Whether the controller hit the open row (FR-FCFS).
        row_hit: bool,
    },
    /// A response arrived back at its SM.
    RespArrive {
        /// Destination SM.
        sm: u32,
        /// Transaction ID.
        id: u64,
        /// Line address.
        line: u32,
        /// Request kind.
        kind: ReqTag,
    },
    /// A shadow entry moved along a Fig. 3 edge.
    ShadowTransition {
        /// Shared or global shadow table.
        space: MemSpace,
        /// SM performing the access that caused the edge.
        sm: u32,
        /// Base address of the tracked chunk.
        chunk_addr: u32,
        /// State before the access.
        from: ShadowState,
        /// State after the access.
        to: ShadowState,
    },
    /// The detector reported a (distinct) race.
    RaceDetected {
        /// The full provenance-carrying record.
        record: RaceRecord,
    },
}

impl SimEvent {
    /// Perfetto track mapping: `(pid, tid)`. SMs are processes `1 + sm`
    /// (their warps are threads `1 + gwarp`), memory slices are processes
    /// `1000 + slice`, and kernel-scope events live on process 0.
    pub fn track(&self) -> (u64, u64) {
        match self {
            SimEvent::KernelLaunch { .. } | SimEvent::KernelEnd { .. } => (0, 0),
            SimEvent::WarpIssue { sm, gwarp, .. }
            | SimEvent::WarpStall { sm, gwarp, .. }
            | SimEvent::BarrierArrive { sm, gwarp, .. }
            | SimEvent::FenceComplete { sm, gwarp }
            | SimEvent::MemCoalesce { sm, gwarp, .. } => {
                (1 + u64::from(*sm), 1 + u64::from(*gwarp))
            }
            SimEvent::BarrierRelease { sm, .. }
            | SimEvent::L1Access { sm, .. }
            | SimEvent::ReqDepart { sm, .. }
            | SimEvent::RespArrive { sm, .. }
            | SimEvent::ShadowTransition { sm, .. } => (1 + u64::from(*sm), 0),
            SimEvent::L2Access { slice, .. } | SimEvent::DramAccess { slice, .. } => {
                (1000 + u64::from(*slice), 0)
            }
            SimEvent::RaceDetected { record } => {
                (1 + u64::from(record.cur.sm), 1 + u64::from(record.cur.warp))
            }
        }
    }

    /// The event as a JSON object: `"type"` (the variant name) first,
    /// then the variant's fields.
    pub fn to_json(&self) -> Value {
        let mut v = self.args();
        if let Value::Object(members) = &mut v {
            members.insert(0, ("type".into(), self.name().into()));
        }
        v
    }

    /// The variant's fields as a JSON object (the Perfetto `args`):
    /// enums as their variant names, a race as [`RaceRecord::to_json`].
    pub(crate) fn args(&self) -> Value {
        match *self {
            SimEvent::KernelLaunch { launch, grid, block_dim } => {
                json_object!(launch, grid, block_dim)
            }
            SimEvent::KernelEnd { launch } => json_object!(launch),
            SimEvent::WarpIssue { sm, gwarp, pc } => json_object!(sm, gwarp, pc),
            SimEvent::WarpStall { sm, gwarp, reason } => {
                json_object!(sm, gwarp, reason: format!("{reason:?}"))
            }
            SimEvent::BarrierArrive { sm, block, gwarp } => json_object!(sm, block, gwarp),
            SimEvent::BarrierRelease { sm, block, stall_cycles } => {
                json_object!(sm, block, stall_cycles)
            }
            SimEvent::FenceComplete { sm, gwarp } => json_object!(sm, gwarp),
            SimEvent::MemCoalesce { sm, gwarp, pc, lanes, transactions } => {
                json_object!(sm, gwarp, pc, lanes, transactions)
            }
            SimEvent::L1Access { sm, line, hit, write } => json_object!(sm, line, hit, write),
            SimEvent::ReqDepart { sm, id, line, kind }
            | SimEvent::RespArrive { sm, id, line, kind } => {
                json_object!(sm, id, line, kind: format!("{kind:?}"))
            }
            SimEvent::L2Access { slice, line, hit, shadow } => {
                json_object!(slice, line, hit, shadow)
            }
            SimEvent::DramAccess { slice, line, write, row_hit } => {
                json_object!(slice, line, write, row_hit)
            }
            SimEvent::ShadowTransition { space, sm, chunk_addr, from, to } => json_object!(
                space: format!("{space:?}"), sm, chunk_addr, from: format!("{from:?}"),
                to: format!("{to:?}")
            ),
            SimEvent::RaceDetected { record } => json_object!(record: record.to_json()),
        }
    }

    /// The variant name, as used for the Perfetto event `name` field.
    pub fn name(&self) -> &'static str {
        match self {
            SimEvent::KernelLaunch { .. } => "KernelLaunch",
            SimEvent::KernelEnd { .. } => "KernelEnd",
            SimEvent::WarpIssue { .. } => "WarpIssue",
            SimEvent::WarpStall { .. } => "WarpStall",
            SimEvent::BarrierArrive { .. } => "BarrierArrive",
            SimEvent::BarrierRelease { .. } => "BarrierRelease",
            SimEvent::FenceComplete { .. } => "FenceComplete",
            SimEvent::MemCoalesce { .. } => "MemCoalesce",
            SimEvent::L1Access { .. } => "L1Access",
            SimEvent::ReqDepart { .. } => "ReqDepart",
            SimEvent::L2Access { .. } => "L2Access",
            SimEvent::DramAccess { .. } => "DramAccess",
            SimEvent::RespArrive { .. } => "RespArrive",
            SimEvent::ShadowTransition { .. } => "ShadowTransition",
            SimEvent::RaceDetected { .. } => "RaceDetected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_tags_cover_all_kinds() {
        assert_eq!(ReqTag::from(&ReqKind::LoadData), ReqTag::Load);
        assert_eq!(ReqTag::from(&ReqKind::StoreData), ReqTag::Store);
        assert_eq!(
            ReqTag::from(&ReqKind::Atomic { ops: vec![], dreg: 0 }),
            ReqTag::Atomic
        );
    }

    #[test]
    fn events_serialize_with_type_tag() {
        let ev = SimEvent::WarpIssue { sm: 2, gwarp: 5, pc: 9 };
        let v = ev.to_json();
        assert_eq!(v["type"], "WarpIssue");
        assert_eq!(v["sm"], 2);
        assert_eq!(v["gwarp"], 5);
        assert_eq!(v["pc"], 9);
        assert_eq!(ev.name(), "WarpIssue");
    }

    #[test]
    fn tracks_separate_sms_and_slices() {
        let sm_ev = SimEvent::L1Access { sm: 3, line: 0, hit: true, write: false };
        let slice_ev = SimEvent::L2Access { slice: 3, line: 0, hit: true, shadow: false };
        assert_eq!(sm_ev.track().0, 4);
        assert_eq!(slice_ev.track().0, 1003);
    }
}
