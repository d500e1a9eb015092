//! Trace replay: drive the detector from a recorded event stream instead
//! of a live simulator.
//!
//! The detector core is completely decoupled from how accesses are
//! produced, so a program trace — memory accesses plus synchronization
//! events in program order — is enough to reproduce HAccRG's verdicts.
//! This is how one would use the library against traces captured from a
//! real GPU profiler, and it is also the substrate for the repository's
//! ablation studies. The [`Replayer`] only decodes events and stamps
//! clock fields; the [`Detector`] it feeds is the one the cycle-level
//! simulator drives, through the same calls.

use crate::access::{MemAccess, MemSpace};
use crate::config::DetectorConfig;
use crate::cost::GLOBAL_SHADOW_STRIDE_BYTES;
use crate::detector::Detector;
use crate::granularity::Granularity;
use crate::health::DetectorHealth;
use crate::json::Value;
use crate::json_object;
use crate::race::RaceLog;

/// One trace event, in program order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A memory access. `space` selects the RDU; shared accesses carry
    /// SM-local shared addresses.
    Access {
        /// Which memory space the access targets.
        space: MemSpace,
        /// The access itself (clock fields are filled by the replayer).
        access: MemAccess,
    },
    /// Block `block` passed a barrier; its shared allocation on SM `sm`
    /// covers `[shared_lo, shared_hi)`.
    Barrier {
        /// The block that synchronized.
        block: u32,
        /// SM the block resides on.
        sm: u32,
        /// Start of its shared-memory allocation.
        shared_lo: u32,
        /// End (exclusive) of its shared-memory allocation.
        shared_hi: u32,
    },
    /// Warp `warp` completed a memory fence.
    Fence {
        /// Global warp ID.
        warp: u32,
    },
}

/// Geometry the detector needs up front: the trace header, and the
/// launch geometry the simulator builds its [`Detector`] from.
#[derive(Clone, Copy, Debug)]
pub struct TraceGeometry {
    /// SMs with shared-memory RDUs.
    pub num_sms: u32,
    /// Shared memory per SM in bytes.
    pub shared_bytes_per_sm: u32,
    /// Shared-memory banks per SM.
    pub shared_banks: u32,
    /// Thread-blocks in the grid.
    pub blocks: u32,
    /// Total (global) warps.
    pub warps: u32,
    /// Tracked global region `[base, base+len)`.
    pub global_base: u32,
    /// Tracked global region length.
    pub global_len: u32,
}

impl TraceEvent {
    /// The trace-file line for this event, externally tagged by variant:
    /// `{"Fence":{"warp":0}}` (the format of the `haccrg-trace` crate).
    pub fn to_json(&self) -> Value {
        match *self {
            TraceEvent::Access { space, access } => json_object!(
                Access: json_object!(space: format!("{space:?}"), access: access.to_json())
            ),
            TraceEvent::Barrier { block, sm, shared_lo, shared_hi } => {
                json_object!(Barrier: json_object!(block, sm, shared_lo, shared_hi))
            }
            TraceEvent::Fence { warp } => json_object!(Fence: json_object!(warp)),
        }
    }

    /// Whether every id the event names lies inside `geo`: its block and
    /// warp, and the SM of a shared access or a barrier.
    fn within(&self, geo: &TraceGeometry) -> Result<(), String> {
        let check = |what: &str, id: u32, n: u32| {
            if id < n {
                Ok(())
            } else {
                Err(format!("{what} {id} is outside the geometry (0..{n})"))
            }
        };
        match *self {
            TraceEvent::Access { space, access } => {
                check("block", access.who.block, geo.blocks)?;
                check("warp", access.who.warp, geo.warps)?;
                if space == MemSpace::Shared {
                    check("sm", access.who.sm, geo.num_sms)?;
                }
                Ok(())
            }
            TraceEvent::Barrier { block, sm, .. } => {
                check("block", block, geo.blocks)?;
                check("sm", sm, geo.num_sms)
            }
            TraceEvent::Fence { warp } => check("warp", warp, geo.warps),
        }
    }

    /// Inverse of [`Self::to_json`]. Rejects an unknown variant, a missing
    /// field and any number out of range for its field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let Some([(tag, body)]) = v.as_object() else {
            return Err("expected an object with one variant tag".into());
        };
        match tag.as_str() {
            "Access" => {
                let space = match body.str_field("space")? {
                    "Shared" => MemSpace::Shared,
                    "Global" => MemSpace::Global,
                    "Local" => MemSpace::Local,
                    other => return Err(format!("unknown memory space `{other}`")),
                };
                let access = MemAccess::from_json(body.field("access")?)?;
                Ok(TraceEvent::Access { space, access })
            }
            "Barrier" => Ok(TraceEvent::Barrier {
                block: body.int_field("block")?,
                sm: body.int_field("sm")?,
                shared_lo: body.int_field("shared_lo")?,
                shared_hi: body.int_field("shared_hi")?,
            }),
            "Fence" => Ok(TraceEvent::Fence { warp: body.int_field("warp")? }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

impl TraceGeometry {
    /// The trace-file header line: one object of the seven fields.
    pub fn to_json(&self) -> Value {
        json_object!(TraceGeometry {
            num_sms, shared_bytes_per_sm, shared_banks, blocks, warps, global_base, global_len,
        } = *self)
    }

    /// Inverse of [`Self::to_json`]; rejects a missing or out-of-range
    /// field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            num_sms: v.int_field("num_sms")?,
            shared_bytes_per_sm: v.int_field("shared_bytes_per_sm")?,
            shared_banks: v.int_field("shared_banks")?,
            blocks: v.int_field("blocks")?,
            warps: v.int_field("warps")?,
            global_base: v.int_field("global_base")?,
            global_len: v.int_field("global_len")?,
        })
    }

    /// Where replay addresses the global shadow words: right after the
    /// tracked region (replay has no timing, so only distinctness
    /// matters). Refuses, as the simulator's launch layout does, a
    /// geometry whose tracked region, or the shadow words of either
    /// space at `cfg`'s granularities, would run past the 32-bit address
    /// space.
    fn shadow_base(&self, cfg: &DetectorConfig) -> Result<u32, String> {
        let words = |bytes: u32, gran: Granularity| {
            u32::try_from(gran.entries_for(bytes)).ok()?.checked_mul(GLOBAL_SHADOW_STRIDE_BYTES)
        };
        let fits = || {
            let base = self.global_base.checked_add(self.global_len)?;
            base.checked_add(words(self.global_len, cfg.global_granularity)?)?;
            words(self.shared_bytes_per_sm, cfg.shared_granularity)?;
            Some(base)
        };
        fits().ok_or_else(|| {
            format!(
                "the tracked region ({} bytes from {:#x}) and the shadow words of {} B global and \
                 {} B shared granules ({} shared bytes per SM) overflow the 32-bit address space",
                self.global_len,
                self.global_base,
                cfg.global_granularity.bytes(),
                cfg.shared_granularity.bytes(),
                self.shared_bytes_per_sm,
            )
        })
    }
}

/// Replays traces through the detector.
pub struct Replayer {
    geo: TraceGeometry,
    det: Detector,
    health: DetectorHealth,
    events: u64,
}

impl Replayer {
    /// Build a replayer for a configuration and geometry. A geometry
    /// whose shadow layout runs past the 32-bit address space is refused.
    pub fn new(cfg: &DetectorConfig, geo: &TraceGeometry) -> Result<Self, String> {
        Ok(Self {
            geo: *geo,
            det: Detector::new(*cfg, geo, geo.shadow_base(cfg)?),
            health: DetectorHealth::default(),
            events: 0,
        })
    }

    /// Feed one event. Access events get their sync/fence clock fields
    /// stamped from the detector's clocks (so traces do not need to
    /// carry them). An event naming a block or warp — or, for a shared
    /// access or a barrier, an SM — outside the geometry is rejected
    /// unreplayed.
    pub fn feed(&mut self, ev: &TraceEvent) -> Result<(), String> {
        ev.within(&self.geo)?;
        self.events += 1;
        match *ev {
            TraceEvent::Access { space, mut access } => {
                let who = access.who;
                access.sync_id = self.det.clocks().sync_id(who.block);
                access.fence_id = self.det.clocks().fence_id(who.warp);
                if space == MemSpace::Global {
                    self.det.note_global(who.block);
                }
                self.det.observe_health(space, &access, &mut self.health);
            }
            TraceEvent::Barrier { block, sm, shared_lo, shared_hi } => {
                self.det.barrier(block, sm, shared_lo, shared_hi);
            }
            TraceEvent::Fence { warp } => self.det.fence(warp),
        }
        Ok(())
    }

    /// Feed a whole trace, stopping at the first rejected event.
    pub fn replay<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a TraceEvent>,
    ) -> Result<&RaceLog, String> {
        for e in events {
            self.feed(e)?;
        }
        Ok(self.races())
    }

    /// Races detected so far.
    pub fn races(&self) -> &RaceLog {
        self.det.races()
    }

    /// Fidelity health counters accumulated so far (drops folded in).
    pub fn health(&self) -> DetectorHealth {
        let mut h = self.health;
        h.log_dropped += self.races().dropped();
        h
    }

    /// Events consumed.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};
    use crate::prelude::RaceKind;

    fn geo() -> TraceGeometry {
        TraceGeometry {
            num_sms: 2,
            shared_bytes_per_sm: 4096,
            shared_banks: 16,
            blocks: 4,
            warps: 16,
            global_base: 0x1000,
            global_len: 0x1000,
        }
    }

    fn acc(space: MemSpace, addr: u32, kind: AccessKind, tid: u32, warp: u32, block: u32, sm: u32) -> TraceEvent {
        TraceEvent::Access {
            space,
            access: MemAccess::plain(addr, 4, kind, ThreadCoord::new(tid, warp, block, sm)),
        }
    }

    #[test]
    fn replay_detects_the_fig3_raw() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let trace = [
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Shared, 64, AccessKind::Read, 40, 1, 0, 0),
        ];
        let log = r.replay(trace.iter()).unwrap();
        assert_eq!(log.distinct(), 1);
        assert_eq!(log.records()[0].kind, RaceKind::Raw);
        assert_eq!(r.events(), 2);
    }

    #[test]
    fn barrier_events_order_shared_accesses() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let trace = [
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0),
            TraceEvent::Barrier { block: 0, sm: 0, shared_lo: 0, shared_hi: 4096 },
            acc(MemSpace::Shared, 64, AccessKind::Read, 40, 1, 0, 0),
        ];
        assert_eq!(r.replay(trace.iter()).unwrap().distinct(), 0);
    }

    #[test]
    fn fence_events_publish_global_writes() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let racy = [
            acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Global, 0x1040, AccessKind::Read, 100, 4, 1, 1),
        ];
        assert_eq!(r.replay(racy.iter()).unwrap().distinct(), 1);

        let mut r2 = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let fenced = [
            acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 0, 0, 0),
            TraceEvent::Fence { warp: 0 },
            acc(MemSpace::Global, 0x1040, AccessKind::Read, 100, 4, 1, 1),
        ];
        assert_eq!(r2.replay(fenced.iter()).unwrap().distinct(), 0);
    }

    #[test]
    fn clock_fields_are_stamped_by_the_replayer() {
        // The same trace with barriers interleaved: sync IDs advance so
        // same-block cross-warp accesses in later epochs are safe.
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let trace = [
            acc(MemSpace::Global, 0x1000, AccessKind::Write, 0, 0, 0, 0),
            TraceEvent::Barrier { block: 0, sm: 0, shared_lo: 0, shared_hi: 0 },
            acc(MemSpace::Global, 0x1000, AccessKind::Read, 33, 1, 0, 0),
        ];
        assert_eq!(r.replay(trace.iter()).unwrap().distinct(), 0, "barrier separated epochs");
    }

    #[test]
    fn local_accesses_are_ignored() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let trace = [
            acc(MemSpace::Local, 0x10, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Local, 0x10, AccessKind::Write, 40, 1, 0, 0),
        ];
        assert_eq!(r.replay(trace.iter()).unwrap().distinct(), 0);
    }

    #[test]
    fn replayer_surfaces_health_and_witnesses() {
        let mut cfg = DetectorConfig::paper_default();
        cfg.witness_capture = true;
        let mut r = Replayer::new(&cfg, &geo()).unwrap();
        let trace = [
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0),
            acc(MemSpace::Shared, 64, AccessKind::Read, 40, 1, 0, 0),
        ];
        let log = r.replay(trace.iter()).unwrap();
        assert_eq!(log.distinct(), 1);
        assert_eq!(log.witness_of(0).len(), 2, "witness timeline rides the race");
        let h = r.health();
        assert_eq!(h.log_dropped, 0);
        assert!(h.shadow_pages_allocated >= 1, "occupancy gauge counts the touched page");
    }

    #[test]
    fn events_outside_the_geometry_are_rejected_unreplayed() {
        let mut r = Replayer::new(&DetectorConfig::paper_default(), &geo()).unwrap();
        let outside = [
            acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 0, 4, 0),
            acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 16, 0, 0),
            acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 2),
            TraceEvent::Barrier { block: 4, sm: 0, shared_lo: 0, shared_hi: 64 },
            TraceEvent::Barrier { block: 0, sm: 2, shared_lo: 0, shared_hi: 64 },
            TraceEvent::Fence { warp: 16 },
        ];
        for e in &outside {
            assert!(r.feed(e).is_err(), "{e:?}");
        }
        assert_eq!(r.events(), 0);
        // A global access names its SM for provenance only.
        assert_eq!(r.feed(&acc(MemSpace::Global, 0x1040, AccessKind::Write, 0, 0, 0, 9)), Ok(()));
        assert_eq!(r.events(), 1);
        assert!(r.replay(outside.iter()).is_err());
    }

    /// A tracked region that ends inside the address space but whose
    /// shadow words would not, a tracked region past it, and shared
    /// shadow words past it at 1 B granules: all refused, as the
    /// simulator's launch layout refuses them.
    #[test]
    fn a_shadow_layout_past_32_bits_is_refused() {
        let cfg = DetectorConfig::paper_default();
        let at = |global_base, global_len, shared_bytes_per_sm| TraceGeometry {
            global_base,
            global_len,
            shared_bytes_per_sm,
            ..geo()
        };
        assert_eq!(geo().shadow_base(&cfg), Ok(0x2000));
        // The longest region from 0x1000 whose shadow words (8 bytes per
        // 4-byte granule) still end inside 32 bits, at u32::MAX.
        let largest = 1_431_654_399;
        assert_eq!(at(0x1000, largest, 4096).shadow_base(&cfg), Ok(0x1000 + largest));
        for refused in [
            at(0x1000, largest + 1, 4096),
            at(0x8000_0000, 0x7FFF_FFFF, 4096),
            at(u32::MAX, 2, 4096),
        ] {
            assert!(refused.shadow_base(&cfg).is_err(), "{refused:?}");
            assert!(Replayer::new(&cfg, &refused).is_err(), "{refused:?}");
        }
        let mut fine = cfg;
        fine.shared_granularity = Granularity::new(1).unwrap();
        assert!(at(0x1000, 0x1000, 1 << 28).shadow_base(&fine).is_ok());
        assert!(at(0x1000, 0x1000, 1 << 29).shadow_base(&fine).is_err());
    }

    #[test]
    fn trace_events_serialize() {
        let e = acc(MemSpace::Shared, 64, AccessKind::Write, 0, 0, 0, 0);
        let json = e.to_json().to_string();
        let back = TraceEvent::from_json(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn every_field_round_trips_through_the_trace_format() {
        use crate::bloom::BloomSig;
        use crate::json::parse;
        use crate::locktable::LockTable;
        let mut locks = LockTable::new();
        for lock in [0x40, 0x80, 0xc0] {
            locks.insert(lock);
        }
        locks.remove(0x40); // leaves a stale slot past `len`
        let access = MemAccess::plain(u32::MAX, 8, AccessKind::Atomic, ThreadCoord::new(1, 2, 3, 4))
            .at_pc(7)
            .with_clocks(255, 9)
            .locked(BloomSig(u32::MAX))
            .with_locks(locks)
            .l1_filled_at(u64::MAX)
            .at_cycle(12);
        for e in [
            TraceEvent::Access { space: MemSpace::Local, access },
            TraceEvent::Barrier { block: 1, sm: 2, shared_lo: 3, shared_hi: u32::MAX },
            TraceEvent::Fence { warp: 5 },
        ] {
            assert_eq!(TraceEvent::from_json(&parse(&e.to_json().to_string()).unwrap()), Ok(e));
        }
        let header = geo().to_json();
        let back = TraceGeometry::from_json(&parse(&header.to_string()).unwrap()).unwrap();
        assert_eq!(back.to_json(), header);
    }
}
