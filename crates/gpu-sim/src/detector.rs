//! Wiring between the simulator and the `haccrg` detector core, and the
//! one owner of detection's modeled cost.
//!
//! A launch's RDUs, logical clocks and race log are one
//! [`haccrg::Detector`], the front end the trace replayer drives too.
//! The compute phase reads its clocks to stamp captured accesses; the
//! apply phase makes every call on it, in SM-id order. [`LaunchDet`]
//! owns everything the simulator models beside it: the shadow layout,
//! and the cost of detection — banked shared-shadow resets at barriers
//! (§IV-A), Fig. 8 shared-shadow lines through a ghost L1 per SM, and
//! global shadow lines through each slice's L2 port plus first-touch
//! DRAM fills (§IV-B). Detection is passive: it never changes the
//! instruction or memory stream. Its cost is counted on the side, and
//! `LaunchDet::modeled_cycles` is the epilogue `Gpu::launch` appends
//! to the cycle count.

use haccrg::access::MemAccess;
use haccrg::config::{DetectorConfig, SharedShadowPlacement};
use haccrg::cost;
use haccrg::replay::TraceGeometry;
use haccrg::Detector;

use crate::config::GpuConfig;
use crate::gpu::SimError;

/// A first-touch set over the lines of `[base, base + span)`: a ghost
/// cache with no evictions (the shadow table is dense and hot; modeling
/// eviction noise would buy nothing). A line's index is its offset from
/// `base`, shifted, so a `base` part-way into a line puts the partial
/// line before it outside the set.
struct GhostLines {
    base: u32,
    shift: u32,
    touched: Vec<u64>,
}

impl GhostLines {
    fn new(base: u32, span_bytes: u64, line_bytes: u32) -> Self {
        let lines = span_bytes.div_ceil(u64::from(line_bytes));
        Self {
            base,
            shift: line_bytes.trailing_zeros(),
            touched: vec![0; (lines as usize).div_ceil(64)],
        }
    }

    /// Mark `line` touched; true on its first touch. A line outside the
    /// set is never a first touch.
    fn first_touch(&mut self, line: u32) -> bool {
        let idx = (line.wrapping_sub(self.base) >> self.shift) as usize;
        match self.touched.get_mut(idx / 64) {
            Some(word) if *word & (1 << (idx % 64)) == 0 => {
                *word |= 1 << (idx % 64);
                true
            }
            _ => false,
        }
    }
}

/// The cycle loop's detector state during one launch, mutated only in
/// the apply phase: the detector plus the modeled cost of its shadow
/// traffic.
pub struct LaunchDet {
    /// The launch's RDUs, clocks and race log.
    pub detector: Detector,
    gpu: GpuConfig,
    /// Modeled busy cycles per SM: banked barrier resets, or Fig. 8
    /// ghost-L1 charges. Never a warp stall.
    sm_busy: Vec<u64>,
    /// Under Fig. 8 placement, each SM's ghost L1 over its shared-shadow
    /// region; empty otherwise.
    fig8: Vec<GhostLines>,
    /// The global shadow table's lines as the slices' L2s see them.
    table: GhostLines,
    /// Per-slice shadow L2-port accesses.
    port_accesses: Vec<u64>,
    /// Per-slice first-touch DRAM fills.
    fills: Vec<u64>,
}

impl LaunchDet {
    /// Detector state for a launch of geometry `geo` on `gpu`. The shadow
    /// table sits at `device_mem_bytes`, past the allocatable heap; after
    /// a 4 KiB gap, each SM gets a Fig. 8 region for its shared-shadow
    /// entries (2 bytes each, plus a line, rounded down to whole L1
    /// lines). Only their addresses matter: the detector models their
    /// contents. A layout past the 32-bit address space is refused, as
    /// saturating it would alias the Fig. 8 regions onto the table.
    pub fn new(
        cfg: DetectorConfig,
        gpu: &GpuConfig,
        geo: &TraceGeometry,
    ) -> Result<Self, SimError> {
        let table_base = gpu.device_mem_bytes;
        let table_bytes =
            cost::global_shadow_footprint(u64::from(geo.global_len), cfg.global_granularity)
                .allocated_bytes;
        let line = gpu.l1.line_bytes;
        let stride = ((gpu.shared_mem_per_sm / 4) * 2 + line) & !(line - 1);
        let fig8_base = u32::try_from(table_bytes)
            .ok()
            .and_then(|t| table_base.checked_add(t))
            .and_then(|end| end.checked_add(4096))
            .filter(|&base| {
                gpu.num_sms
                    .checked_mul(stride)
                    .and_then(|span| base.checked_add(span))
                    .is_some()
            })
            .ok_or_else(|| {
                SimError::BadLaunch(
                    "shadow layout overflows the 32-bit address space \
                     (tracked region + shared-shadow region too large)"
                        .into(),
                )
            })?;
        let fig8 = if cfg.shared_enabled && cfg.shared_shadow == SharedShadowPlacement::GlobalMemory
        {
            let region = |sm| GhostLines::new(fig8_base + sm * stride, u64::from(stride), line);
            (0..gpu.num_sms).map(region).collect()
        } else {
            Vec::new()
        };
        let slices = gpu.num_mem_slices as usize;
        Ok(Self {
            detector: Detector::new(cfg, geo, table_base),
            gpu: *gpu,
            sm_busy: vec![0; gpu.num_sms as usize],
            fig8,
            table: GhostLines::new(table_base, table_bytes, gpu.l2.line_bytes),
            port_accesses: vec![0; slices],
            fills: vec![0; slices],
        })
    }

    /// Block `block` on SM `sm` released a barrier over its shared
    /// allocation `[lo, hi)`: the detector bumps its sync ID and resets
    /// the range. Returns the reset's modeled charge to the SM: the
    /// banked clear under the hardware placement, nothing under Fig. 8,
    /// whose entries live in global memory.
    pub(crate) fn barrier(&mut self, sm: u32, block: u32, (lo, hi): (u32, u32)) -> u64 {
        let cycles = self.detector.barrier(block, sm, lo, hi);
        if self.detector.config().shared_shadow != SharedShadowPlacement::Hardware {
            return 0;
        }
        self.sm_busy[sm as usize] += cycles;
        cycles
    }

    /// Fig. 8 placement: charge the shared-shadow lines the RDU fetches
    /// for one shared check of SM `sm` to that SM's ghost L1 — a first
    /// touch misses to L2, later accesses hit — and return how many
    /// lines it accessed. The real L1's contents, port and MSHRs are
    /// untouched. Under the hardware placement this charges nothing.
    pub(crate) fn charge_shared(
        &mut self,
        sm: u32,
        accesses: &[MemAccess],
        lines: &mut Vec<u32>,
    ) -> u64 {
        let Some(ghost) = self.fig8.get_mut(sm as usize) else {
            return 0;
        };
        let shift = self.detector.config().shared_granularity.shift();
        let line_mask = !(self.gpu.l1.line_bytes - 1);
        lines.clear();
        for a in accesses {
            // 2 bytes per 12-bit entry, rounded up.
            let line = (ghost.base + (a.addr >> shift) * 2) & line_mask;
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
        for &line in lines.iter() {
            self.sm_busy[sm as usize] += if ghost.first_touch(line) {
                cost::SHARED_SHADOW_MISS_CYCLES
            } else {
                cost::SHARED_SHADOW_HIT_CYCLES
            };
        }
        lines.len() as u64
    }

    /// Charge one global check's shadow lines to their slices: each
    /// holds its slice's L2 port, and a first touch adds a DRAM fill.
    pub(crate) fn charge_global(&mut self, lines: &[u32]) {
        for &line in lines {
            let slice = self.gpu.slice_of(line) as usize;
            self.port_accesses[slice] += 1;
            if self.table.first_touch(line) {
                self.fills[slice] += 1;
            }
        }
    }

    /// The epilogue: the busiest SM's charges plus the busiest slice's
    /// shadow port and fill time.
    pub(crate) fn modeled_cycles(&self) -> u64 {
        let sm = self.sm_busy.iter().copied().max().unwrap_or(0);
        let slice = self
            .port_accesses
            .iter()
            .zip(&self.fills)
            .map(|(&p, &f)| cost::shadow_slice_cycles(p, f))
            .max()
            .unwrap_or(0);
        sm + slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccrg::access::{AccessKind, ThreadCoord};

    fn geometry() -> TraceGeometry {
        TraceGeometry {
            num_sms: 4,
            shared_bytes_per_sm: 16 * 1024,
            shared_banks: 16,
            blocks: 8,
            warps: 64,
            global_base: 0x1000,
            global_len: 0x8000,
        }
    }

    #[test]
    fn global_charges_span_the_shadow_table() {
        let gpu = GpuConfig::test_small();
        let mut d = LaunchDet::new(DetectorConfig::paper_default(), &gpu, &geometry()).unwrap();
        assert_eq!(d.detector.clocks().num_warps(), 64);
        assert_eq!(d.port_accesses.len(), gpu.num_mem_slices as usize);
        // 8 K chunks of 4 B, each an 8 B shadow word: 64 KiB of table,
        // every line of it tracked, none past the end.
        let line = gpu.l2.line_bytes;
        let last = gpu.device_mem_bytes + 0x1_0000 - line;
        d.charge_global(&[last, last + line, last]);
        let slice = gpu.slice_of(last) as usize;
        assert_eq!((d.port_accesses[slice], d.fills[slice]), (2, 1));
        let past = gpu.slice_of(last + line) as usize;
        assert_ne!(past, slice, "the two lines sit on different slices");
        assert_eq!((d.port_accesses[past], d.fills[past]), (1, 0));
        let fill = cost::shadow_slice_cycles(1, 1);
        assert!(
            d.modeled_cycles() >= fill,
            "the busiest slice charges its fill"
        );
    }

    #[test]
    fn fig8_charges_offset_then_shift_from_an_unaligned_region() {
        let gpu = GpuConfig::test_small();
        let line = gpu.l1.line_bytes;
        // A table ending 64 bytes past a line puts SM 0's region there.
        let geo = TraceGeometry {
            global_len: 0x8000 + 32,
            ..geometry()
        };
        let cfg = DetectorConfig {
            shared_shadow: SharedShadowPlacement::GlobalMemory,
            ..DetectorConfig::paper_default()
        };
        let mut d = LaunchDet::new(cfg, &gpu, &geo).unwrap();
        let base = d.fig8[0].base;
        assert_eq!(base % line, 64);
        let who = ThreadCoord::new(0, 0, 0, 0);
        let at = |addr| MemAccess::plain(addr, 4, AccessKind::Write, who);
        let shift = cfg.shared_granularity.shift();
        // Entry 0 shares the partial line before the region: always a
        // hit. The next line's first entry misses, then hits.
        let first_full = ((line - 64) / 2) << shift;
        let mut lines = Vec::new();
        assert_eq!(d.charge_shared(0, &[at(0)], &mut lines), 1);
        assert_eq!(d.sm_busy[0], cost::SHARED_SHADOW_HIT_CYCLES);
        d.charge_shared(0, &[at(first_full), at(first_full)], &mut lines);
        d.charge_shared(0, &[at(first_full)], &mut lines);
        let want = 2 * cost::SHARED_SHADOW_HIT_CYCLES + cost::SHARED_SHADOW_MISS_CYCLES;
        assert_eq!(d.sm_busy[0], want);
        assert_eq!(d.modeled_cycles(), want, "no global traffic, one busy SM");

        // Under the hardware placement there is no Fig. 8 region.
        let mut hw = LaunchDet::new(DetectorConfig::paper_default(), &gpu, &geo).unwrap();
        assert_eq!(hw.charge_shared(0, &[at(0)], &mut lines), 0);
    }
}
