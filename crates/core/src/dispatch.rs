//! Shadow-check dispatch accounting.
//!
//! The batch kernel ([`crate::region::ShadowRegion::check_warp_batch`])
//! retires each lane on one of two tiers:
//!
//! * **wide** — the SWAR screen over the shadow page's columns passed
//!   (the lane is the recorded thread, or under the §III-A warp filter
//!   another lane of the recorded warp) and the lane was applied on the
//!   columns (no per-entry branch chain, no whole-entry load or store),
//!   or the lane was the first touch of a fresh entry outside a critical
//!   section and opened it;
//! * **scalar** — the full Fig. 3 check, the same per-chunk code the
//!   reference [`crate::region::ShadowRegion::observe_health`] runs:
//!   cross-warp conflicts, sync-ID epoch reopens, critical-section
//!   lanes (first touches included), and every chunk of a multi-chunk
//!   or page-straddling access.
//!
//! Tracing and witness capture run on whichever tier retires the lane —
//! each tier reports its own Fig. 3 edges and witness events — so
//! attaching an observer never changes the tier. [`DispatchStats`] counts
//! lanes per tier so tests (and bisection) can assert which path actually
//! ran; detection results are bit-identical to the reference by
//! construction, so nothing else observable moves. A launch reports the
//! sum over its RDUs (`gpu_sim::gpu::LaunchResult::dispatch`; `runbench`
//! prints it as its `tiers` line).

/// Per-RDU counters of how many lanes each dispatch tier retired.
///
/// Deliberately *not* part of [`crate::region::RduStats`]: those are
/// compared bit-identical between the batch kernel and the per-access
/// reference by the equivalence suites, while the reference has no
/// tiers to count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Lanes retired by the wide SWAR screen + vectorized apply.
    pub wide_lanes: u64,
    /// Chunks retired by the full Fig. 3 check.
    pub scalar_lanes: u64,
}

impl DispatchStats {
    /// Total lanes dispatched through either tier.
    pub fn total(&self) -> u64 {
        self.wide_lanes + self.scalar_lanes
    }

    /// Add another RDU's (or launch's) tallies into these.
    pub fn accumulate(&mut self, o: &DispatchStats) {
        self.wide_lanes += o.wide_lanes;
        self.scalar_lanes += o.scalar_lanes;
    }
}

/// Parse an `HACCRG_FORCE_SCALAR_SHADOW` value (`1`/`true`/`yes`/`on`).
/// Nothing in the library reads the variable; the end-to-end ledger
/// refuses to run while it is set and parses it with this function.
pub fn parse_force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some("1" | "true" | "yes" | "on"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_like_no_cycle_skip() {
        for on in ["1", "true", "yes", "on"] {
            assert!(parse_force_scalar(Some(on)), "{on:?} must parse as set");
        }
        for off in [None, Some("0"), Some("false"), Some(""), Some("2")] {
            assert!(!parse_force_scalar(off), "{off:?} must parse as unset");
        }
    }

    #[test]
    fn dispatch_totals_sum_all_tiers() {
        let mut d = DispatchStats { wide_lanes: 5, scalar_lanes: 1 };
        assert_eq!(d.total(), 6);
        d.accumulate(&DispatchStats { wide_lanes: 1, scalar_lanes: 3 });
        assert_eq!(d, DispatchStats { wide_lanes: 6, scalar_lanes: 4 });
    }
}
