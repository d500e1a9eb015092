//! Host-side phase profiler: where does *wall-clock* time go inside a
//! launch?
//!
//! The simulator's own statistics describe the simulated machine; this
//! module describes the simulator. Every major loop segment of
//! [`crate::gpu::Gpu::launch`] — fetch/execute, coalescing, shadow
//! checks, L1 probing, interconnect routing, L2/DRAM cycling, sampling,
//! skip-logic bookkeeping — is bracketed by a
//! [`scope`] guard that attributes its elapsed nanoseconds to a fixed
//! [`Phase`], tagged with the phase that was live when it opened. The
//! result is a per-(phase, parent) time/count table that [`report`]
//! aggregates into a hierarchy: exactly the evidence needed to decide
//! what to vectorize in the dense-cycle wall (ROADMAP item 3).
//!
//! **Zero-cost when disabled** (the default): [`scope`] reads one
//! relaxed atomic and returns an inert guard — no clock read, no
//! thread-local traffic, no allocation. The existing Criterion
//! tracing-overhead guard (`tracing_overhead_scan_tiny` in
//! `crates/bench/benches/e2e.rs`) covers this path, since every
//! instrumented site runs under it.
//!
//! The accumulation tables are process-wide atomics, so the profiler
//! composes with both levels of parallelism: sweep workers and
//! `CyclePool` compute workers all fold into the same table. In parallel
//! mode the compute phases are measured per worker thread, so their sum
//! can legitimately exceed the coordinator's wall-clock; attribution
//! percentages are meaningful on a serial run (`runbench --profile`
//! without `--parallel-sms`).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::Serialize;

/// A named profiling phase. The hierarchy is implicit: each [`scope`]
/// records the phase that was live on its thread when it opened, so the
/// same table serves serial and fanned execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A whole `Gpu::launch` call (the root).
    Launch,
    /// Pre-loop launch setup: validation, shadow layout, SM/slice
    /// construction, detector decomposition.
    Setup,
    /// Block dispatcher placement scans.
    Dispatch,
    /// The per-cycle SM compute phase (serial loop or one worker chunk).
    SmCompute,
    /// Warp instruction fetch/decode/execute ([`crate::sm`]'s `issue`).
    FetchExecute,
    /// Intra-warp global-access coalescing.
    Coalesce,
    /// Per-transaction L1 probing, MSHR bookkeeping and request
    /// generation for coalesced global transactions.
    L1Access,
    /// Shared-memory RDU checks (compute phase, SM-local).
    ShadowShared,
    /// The serial apply phase: replaying buffered cycle output.
    Apply,
    /// Global RDU checks (apply phase, coordinator-side).
    ShadowGlobal,
    /// Interconnect routing: SM egress and slice ingress links.
    Icnt,
    /// Memory-slice cycling: L2 port arbitration, MSHRs, writebacks.
    SliceCycle,
    /// DRAM controller cycling and fill completion inside a slice cycle.
    Dram,
    /// Arbiter settling on gated slice cycles. No scope opens it any
    /// more — slices have no shadow-vs-data arbiter — so it always reads
    /// zero; it stays in the phase list that reports are built from.
    ArbiterSettle,
    /// Response delivery back into the SMs.
    Respond,
    /// Metrics sampling cuts.
    Sampler,
    /// Completion checks, watchdog, no-progress guard and fast-forward
    /// target computation — the skip-logic overhead.
    SkipLogic,
    /// Post-loop aggregation: stats merge, final sample, race log.
    Finish,
}

/// Number of [`Phase`] variants.
pub const NUM_PHASES: usize = 18;

/// Every phase, in declaration order (index = discriminant).
pub const ALL_PHASES: [Phase; NUM_PHASES] = [
    Phase::Launch,
    Phase::Setup,
    Phase::Dispatch,
    Phase::SmCompute,
    Phase::FetchExecute,
    Phase::Coalesce,
    Phase::L1Access,
    Phase::ShadowShared,
    Phase::Apply,
    Phase::ShadowGlobal,
    Phase::Icnt,
    Phase::SliceCycle,
    Phase::Dram,
    Phase::ArbiterSettle,
    Phase::Respond,
    Phase::Sampler,
    Phase::SkipLogic,
    Phase::Finish,
];

impl Phase {
    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Launch => "launch",
            Phase::Setup => "setup",
            Phase::Dispatch => "dispatch",
            Phase::SmCompute => "sm_compute",
            Phase::FetchExecute => "fetch_execute",
            Phase::Coalesce => "coalesce",
            Phase::L1Access => "l1_access",
            Phase::ShadowShared => "shadow_check_shared",
            Phase::Apply => "apply",
            Phase::ShadowGlobal => "shadow_check_global",
            Phase::Icnt => "icnt",
            Phase::SliceCycle => "slice_cycle",
            Phase::Dram => "dram",
            Phase::ArbiterSettle => "arbiter_settle",
            Phase::Respond => "respond",
            Phase::Sampler => "sampler",
            Phase::SkipLogic => "skip_logic",
            Phase::Finish => "finish",
        }
    }

    fn index(self) -> usize {
        ALL_PHASES.iter().position(|p| *p == self).expect("phase listed")
    }
}

/// Monotonic event counters, accumulated alongside the timers (enabled
/// runs only; all zero when the profiler is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Cycle-loop iterations actually executed (dense cycles).
    DenseCycles,
    /// Cycles fast-forwarded over by skip jumps.
    SkippedCycles,
    /// Shared-memory lane accesses checked by SM-local RDUs.
    SharedChecks,
    /// Global-memory lane accesses checked by the global RDU.
    GlobalChecks,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 4;

/// Every counter, in declaration order.
pub const ALL_COUNTERS: [Counter; NUM_COUNTERS] =
    [Counter::DenseCycles, Counter::SkippedCycles, Counter::SharedChecks, Counter::GlobalChecks];

impl Counter {
    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DenseCycles => "dense_cycles",
            Counter::SkippedCycles => "skipped_cycles",
            Counter::SharedChecks => "shared_checks",
            Counter::GlobalChecks => "global_checks",
        }
    }

    fn index(self) -> usize {
        ALL_COUNTERS.iter().position(|c| *c == self).expect("counter listed")
    }
}

/// Parent dimension: a phase index, or [`ROOT`] for "no enclosing phase
/// on this thread" (top of a launch, or a worker thread's chunk).
const ROOT: usize = NUM_PHASES;
const SLOTS: usize = NUM_PHASES * (NUM_PHASES + 1);

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)] // const used only as an array initializer
const ZERO: AtomicU64 = AtomicU64::new(0);
static NS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static CALLS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static COUNTS: [AtomicU64; NUM_COUNTERS] = [ZERO; NUM_COUNTERS];

thread_local! {
    /// The phase currently live on this thread (parent for new scopes).
    static CURRENT: Cell<usize> = const { Cell::new(ROOT) };
}

/// Whether the profiler is collecting. One relaxed load — this is the
/// entire disabled-path cost of every instrumented site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every timer and counter (does not change the enabled flag).
pub fn reset() {
    for a in NS.iter().chain(CALLS.iter()) {
        a.store(0, Ordering::Relaxed);
    }
    for a in &COUNTS {
        a.store(0, Ordering::Relaxed);
    }
}

/// An RAII timing guard returned by [`scope`]. Inert when the profiler
/// is disabled.
#[must_use = "a dropped scope measures nothing"]
pub struct Scope {
    /// `(start, phase index, parent index)`; `None` when disabled.
    active: Option<(Instant, usize, usize)>,
}

/// Open a timing scope for `phase`, recording under the phase currently
/// live on this thread. Time is accumulated when the guard drops.
#[inline]
pub fn scope(phase: Phase) -> Scope {
    if !enabled() {
        return Scope { active: None };
    }
    let idx = phase.index();
    let parent = CURRENT.with(|c| c.replace(idx));
    Scope { active: Some((Instant::now(), idx, parent)) }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((start, idx, parent)) = self.active.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            CURRENT.with(|c| c.set(parent));
            let slot = idx * (NUM_PHASES + 1) + parent;
            NS[slot].fetch_add(ns, Ordering::Relaxed);
            CALLS[slot].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Bump a counter by `n` (no-op when disabled).
#[inline]
pub fn count(c: Counter, n: u64) {
    if enabled() {
        COUNTS[c.index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// One aggregated phase in a [`ProfReport`].
#[derive(Clone, Debug, Serialize)]
pub struct PhaseRow {
    /// Phase name.
    pub phase: &'static str,
    /// Dominant recorded parent (most calls), `None` for top-level
    /// phases.
    pub parent: Option<&'static str>,
    /// Scope activations.
    pub calls: u64,
    /// Total nanoseconds inside the phase (including children).
    pub total_ns: u64,
    /// Nanoseconds not attributed to any child phase.
    pub self_ns: u64,
}

/// One counter in a [`ProfReport`].
#[derive(Clone, Debug, Serialize)]
pub struct CounterRow {
    /// Counter name.
    pub counter: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// A snapshot of the accumulated profile.
#[derive(Clone, Debug, Serialize)]
pub struct ProfReport {
    /// Phases with at least one recorded call.
    pub phases: Vec<PhaseRow>,
    /// Event counters.
    pub counters: Vec<CounterRow>,
}

impl ProfReport {
    /// Total time recorded for `phase` (0 when never entered).
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.phases.iter().find(|r| r.phase == phase.name()).map_or(0, |r| r.total_ns)
    }

    /// Fraction of the root launch time attributed to named child
    /// phases: `1 − launch.self_ns / launch.total_ns`. Returns 1.0 when
    /// no launch was recorded (nothing to attribute).
    pub fn attributed_fraction(&self) -> f64 {
        match self.phases.iter().find(|r| r.phase == Phase::Launch.name()) {
            Some(l) if l.total_ns > 0 => 1.0 - l.self_ns as f64 / l.total_ns as f64,
            _ => 1.0,
        }
    }

    /// Serialize as pretty-printed JSON. Hand-rolled rather than via
    /// `serde_json` so the output is real even under the offline stub
    /// crates; every value is a bare identifier or integer, so no
    /// escaping is needed.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::from("{\n  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let parent = match p.parent {
                Some(par) => format!("\"{par}\""),
                None => "null".into(),
            };
            let _ = write!(
                o,
                "{}\n    {{\"phase\": \"{}\", \"parent\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                p.phase, parent, p.calls, p.total_ns, p.self_ns,
            );
        }
        o.push_str("\n  ],\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let _ = write!(
                o,
                "{}\n    {{\"counter\": \"{}\", \"value\": {}}}",
                if i == 0 { "" } else { "," },
                c.counter, c.value,
            );
        }
        o.push_str("\n  ]\n}\n");
        o
    }

    /// Render as an indented human-readable table (phases as a tree by
    /// dominant parent, then counters).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let root_total = self.total_ns(Phase::Launch).max(1);
        let _ = writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>12} {:>7}",
            "phase", "calls", "total ms", "self ms", "%"
        );
        // Depth-first over the dominant-parent tree, keeping report order
        // stable (declaration order within a level).
        let mut stack: Vec<(usize, Option<&'static str>)> = vec![(0, None)];
        let mut emitted = vec![false; self.phases.len()];
        while let Some((depth, parent)) = stack.pop() {
            let mut children: Vec<usize> = self
                .phases
                .iter()
                .enumerate()
                .filter(|(i, r)| !emitted[*i] && r.parent == parent)
                .map(|(i, _)| i)
                .collect();
            // Reverse so the stack pops in declaration order.
            children.reverse();
            for i in children {
                emitted[i] = true;
                let r = &self.phases[i];
                let name = format!("{}{}", "  ".repeat(depth), r.phase);
                let _ = writeln!(
                    out,
                    "{:<34} {:>12} {:>12.3} {:>12.3} {:>6.1}%",
                    name,
                    r.calls,
                    r.total_ns as f64 / 1e6,
                    r.self_ns as f64 / 1e6,
                    100.0 * r.total_ns as f64 / root_total as f64,
                );
                stack.push((depth, parent));
                stack.push((depth + 1, Some(r.phase)));
                break; // re-scan after marking, preserving tree order
            }
        }
        let unattributed = self.phases.iter().find(|r| r.phase == "launch").map_or(0, |r| r.self_ns);
        let _ = writeln!(
            out,
            "unattributed: {:.3} ms ({:.1}% of launch)",
            unattributed as f64 / 1e6,
            100.0 * unattributed as f64 / root_total as f64,
        );
        if self.counters.iter().any(|c| c.value > 0) {
            let _ = writeln!(out, "counters:");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<24} {:>16}", c.counter, c.value);
            }
        }
        out
    }
}

/// Snapshot the accumulated tables into a [`ProfReport`].
pub fn report() -> ProfReport {
    // Per-phase totals summed over parents, and per-parent child time.
    let mut total = [0u64; NUM_PHASES];
    let mut calls = [0u64; NUM_PHASES];
    let mut child = [0u64; NUM_PHASES];
    let mut best_parent: Vec<Option<(usize, u64)>> = vec![None; NUM_PHASES];
    for p in 0..NUM_PHASES {
        for par in 0..=NUM_PHASES {
            let slot = p * (NUM_PHASES + 1) + par;
            let ns = NS[slot].load(Ordering::Relaxed);
            let n = CALLS[slot].load(Ordering::Relaxed);
            if n == 0 && ns == 0 {
                continue;
            }
            total[p] += ns;
            calls[p] += n;
            if par < NUM_PHASES {
                child[par] += ns;
                if best_parent[p].is_none_or(|(_, cnt)| n > cnt) {
                    best_parent[p] = Some((par, n));
                }
            }
        }
    }
    let phases = (0..NUM_PHASES)
        .filter(|&p| calls[p] > 0)
        .map(|p| PhaseRow {
            phase: ALL_PHASES[p].name(),
            parent: best_parent[p].map(|(par, _)| ALL_PHASES[par].name()),
            calls: calls[p],
            total_ns: total[p],
            self_ns: total[p].saturating_sub(child[p]),
        })
        .collect();
    let counters = ALL_COUNTERS
        .iter()
        .map(|&c| CounterRow { counter: c.name(), value: COUNTS[c.index()].load(Ordering::Relaxed) })
        .collect();
    ProfReport { phases, counters }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tables are process-wide, so the profiler tests share one lock
    // via serial execution inside a single test (cargo runs tests in one
    // process; enabling/resetting concurrently would interleave).
    #[test]
    fn scopes_nest_counters_count_and_disabled_is_inert() {
        // Disabled: no accumulation.
        set_enabled(false);
        reset();
        {
            let _s = scope(Phase::Launch);
            count(Counter::DenseCycles, 5);
        }
        assert!(report().phases.is_empty());
        assert!(report().counters.iter().all(|c| c.value == 0));

        // Enabled: nesting records parentage and time flows upward.
        set_enabled(true);
        reset();
        {
            let _l = scope(Phase::Launch);
            {
                let _c = scope(Phase::SmCompute);
                let _f = scope(Phase::FetchExecute);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            count(Counter::DenseCycles, 3);
            count(Counter::SharedChecks, 7);
        }
        set_enabled(false);
        let r = report();
        let get = |n: &str| r.phases.iter().find(|p| p.phase == n).expect("phase present");
        assert_eq!(get("launch").parent, None);
        assert_eq!(get("sm_compute").parent, Some("launch"));
        assert_eq!(get("fetch_execute").parent, Some("sm_compute"));
        assert_eq!(get("launch").calls, 1);
        assert!(get("launch").total_ns >= get("sm_compute").total_ns);
        assert!(get("sm_compute").total_ns >= get("fetch_execute").total_ns);
        assert!(get("fetch_execute").total_ns >= 1_000_000, "slept 2ms");
        // Self time excludes the child.
        assert!(get("sm_compute").self_ns < get("sm_compute").total_ns);
        let cnt = |n: &str| r.counters.iter().find(|c| c.counter == n).unwrap().value;
        assert_eq!(cnt("dense_cycles"), 3);
        assert_eq!(cnt("shared_checks"), 7);
        // Nearly all launch time is attributed (single child chain).
        assert!(r.attributed_fraction() > 0.5, "{}", r.attributed_fraction());
        // Render and JSON both carry the tree.
        let txt = r.render();
        assert!(txt.contains("launch"), "{txt}");
        assert!(txt.contains("  sm_compute"), "{txt}");
        assert!(txt.contains("unattributed"), "{txt}");
        let json = r.to_json();
        assert!(json.contains("\"phases\""), "{json}");
        assert!(json.contains("\"fetch_execute\""), "{json}");
        assert!(json.contains("\"parent\": \"sm_compute\""), "{json}");
        assert!(json.contains("\"dense_cycles\", \"value\": 3"), "{json}");
        reset();
    }
}
