//! Wiring between the simulator and the `haccrg` detector core.
//!
//! A launch's RDUs, logical clocks and race log are one
//! [`haccrg::Detector`], the front end the trace replayer drives too.
//! The compute phase reads its clocks to stamp captured accesses; the
//! apply phase makes every call on it, in SM-id order. [`LaunchDet`]
//! adds only what the simulator models beside it: the timing of global
//! shadow traffic. Detection is passive: it never changes the
//! instruction or memory stream. Its timing cost (global shadow
//! traffic, barrier reset stalls, Fig. 8 spills) is counted on the side
//! and added to the cycle count by the epilogue of `Gpu::launch`.

use haccrg::config::DetectorConfig;
use haccrg::replay::TraceGeometry;
use haccrg::Detector;

/// Side model of the global RDU's shadow-memory timing, kept entirely
/// outside the architectural memory system so detection stays passive:
/// shadow line accesses charge modeled L2-port cycles per slice, and
/// first touches of a shadow line charge a modeled DRAM fill. The fold
/// into the launch cycle count (max over slices) happens in
/// `Gpu::launch`'s epilogue.
pub struct ShadowTimingModel {
    /// Per-slice shadow L2-port accesses.
    pub port_accesses: Vec<u64>,
    /// Per-slice first-touch DRAM fills.
    pub fills: Vec<u64>,
    /// Residency bitmap over the shadow region, one bit per L2 line —
    /// a ghost cache with no evictions (the shadow table is dense and
    /// hot; modeling eviction noise would buy nothing).
    resident: Vec<u64>,
    base_line: u32,
    line_shift: u32,
}

impl ShadowTimingModel {
    /// Model covering `[shadow_base, shadow_base + span_bytes)` striped
    /// over `num_slices` slices of `line_bytes` lines. Preallocated so
    /// the per-access path never touches the heap.
    pub fn new(num_slices: u32, shadow_base: u32, span_bytes: u64, line_bytes: u32) -> Self {
        let line_shift = line_bytes.trailing_zeros();
        let lines = span_bytes.div_ceil(u64::from(line_bytes));
        Self {
            port_accesses: vec![0; num_slices as usize],
            fills: vec![0; num_slices as usize],
            resident: vec![0; (lines as usize).div_ceil(64)],
            base_line: shadow_base >> line_shift,
            line_shift,
        }
    }

    /// Record one shadow line access routed to `slice`.
    pub fn access(&mut self, slice: u32, line_addr: u32) {
        self.port_accesses[slice as usize] += 1;
        let idx = ((line_addr >> self.line_shift).wrapping_sub(self.base_line)) as usize;
        let (w, b) = (idx / 64, idx % 64);
        // Out-of-range lines (clamped layouts) charge the port but skip
        // residency tracking rather than indexing out of bounds.
        if let Some(word) = self.resident.get_mut(w) {
            if *word & (1 << b) == 0 {
                *word |= 1 << b;
                self.fills[slice as usize] += 1;
            }
        }
    }

    /// Modeled busy cycles of the busiest slice's shadow port.
    pub fn max_slice_cycles(&self) -> u64 {
        self.port_accesses
            .iter()
            .zip(&self.fills)
            .map(|(&p, &f)| haccrg::cost::shadow_slice_cycles(p, f))
            .max()
            .unwrap_or(0)
    }
}

/// The cycle loop's detector state during one launch: the detector and
/// the timing model of its global shadow traffic, both mutated only in
/// the apply phase.
pub struct LaunchDet {
    /// The launch's RDUs, clocks and race log.
    pub detector: Detector,
    /// Passive timing model for global shadow traffic.
    pub shadow_timing: ShadowTimingModel,
}

impl LaunchDet {
    /// Detector state for a launch of geometry `geo`: the global shadow
    /// table is addressed from `shadow_base`, and `slices` describes the
    /// memory system the timing model mirrors: `(num_slices,
    /// l2_line_bytes)`.
    pub fn new(cfg: DetectorConfig, geo: &TraceGeometry, shadow_base: u32, slices: (u32, u32)) -> Self {
        let span = haccrg::cost::global_shadow_footprint(u64::from(geo.global_len), cfg.global_granularity)
            .allocated_bytes;
        Self {
            detector: Detector::new(cfg, geo, shadow_base),
            shadow_timing: ShadowTimingModel::new(slices.0, shadow_base, span, slices.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_model_spans_the_global_shadow_table() {
        let geo = TraceGeometry {
            num_sms: 4,
            shared_bytes_per_sm: 16 * 1024,
            shared_banks: 16,
            blocks: 8,
            warps: 64,
            global_base: 0x1000,
            global_len: 0x8000,
        };
        let mut d = LaunchDet::new(DetectorConfig::paper_default(), &geo, 0x100_0000, (8, 128));
        assert_eq!(d.detector.clocks().num_warps(), 64);
        assert_eq!(d.shadow_timing.port_accesses.len(), 8);
        // 8 K chunks of 4 B, each an 8 B shadow word: 512 lines of 128 B,
        // every one of them resident-tracked, none past the end.
        d.shadow_timing.access(0, 0x100_0000 + 511 * 128);
        d.shadow_timing.access(0, 0x100_0000 + 512 * 128);
        assert_eq!((d.shadow_timing.port_accesses[0], d.shadow_timing.fills[0]), (2, 1));
    }
}
