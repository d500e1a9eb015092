//! Differential fuzz farm with auto-minimization.
//!
//! Every campaign seed becomes one structured random kernel (from
//! `gpu_sim::fuzzgen` — the same statement space the in-crate property
//! tests explore), which is then executed across the full configuration
//! matrix and cross-checked three ways:
//!
//! 1. **Architectural passivity.** Detection-on (HAccRG-HW) must replay
//!    the detection-off instruction and memory stream bit-for-bit; the
//!    detector's cost is a deterministic modeled epilogue. Any
//!    perturbation of warp instructions, cache traffic, DRAM behaviour or
//!    functional results is a finding — this is the invariant whose
//!    violation produced the PR's seed bug (the HASH spin lock retried
//!    more under detection because probe traffic delayed lock release).
//! 2. **Engine determinism.** Dense vs cycle-skip execution must be
//!    bit-identical per configuration, and repeated runs must reproduce
//!    exactly.
//! 3. **Detector agreement.** The hardware detector's racy-granule set
//!    must match an independent happens-before oracle
//!    (`haccrg_baselines::oracle`) computed from the kernel's closed-form
//!    semantics — both false positives and misses are findings. *Fragile*
//!    races (granules the single-entry shadow can legally lose under some
//!    interleaving — see `OracleReport::global_fragile`) may go either
//!    way. The software baselines (HAccRG-SW, GRace-add) must terminate,
//!    reproduce, and — on schedule-invariant kernels (race-free with no
//!    plain-vs-atomic word overlap), where every interleaving yields the
//!    same memory — preserve functional results despite their
//!    instrumentation overhead.
//!
//! Failures auto-shrink by greedy delta debugging over the statement
//! tree ([`shrink`]): the minimal spec still exhibiting the same check
//! failure is emitted as a corpus text file that replays under
//! `cargo run -p haccrg-bench --bin fuzz -- --replay <file>` or the
//! `fuzz_corpus` regression test.
//!
//! The detector runs with `exact_lockset` so lockset checks are
//! signature-exact: Bloom aliasing is a modeled fidelity limitation, not
//! a bug, and would otherwise drown real disagreements in known noise.

use gpu_sim::device::HEAP_BASE;
use gpu_sim::fuzzgen::{FuzzStmt, GenConfig, KernelSpec, GLOBAL_WORDS};
use gpu_sim::prelude::*;
use haccrg::config::DetectorConfig;
use haccrg::json::esc_json;
use haccrg::prelude::{MemSpace, RaceRecord};
use haccrg_baselines::grace::{instrument_grace, GraceConfig};
use haccrg_baselines::oracle::{self, OracleReport};
use haccrg_baselines::sw_haccrg::{instrument_sw, SwConfig};

/// Watchdog for fuzz launches: generous, because instrumented spin-lock
/// kernels under contention legitimately run long.
const WATCHDOG: u64 = 100_000_000;

/// One verified discrepancy: which cross-check tripped, and the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable check identifier (e.g. `arch-perturbation`,
    /// `oracle-miss`); shrinking preserves this.
    pub check: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// Detector-fault injection for harness self-tests: proves the farm
/// flags a buggy detector and the shrinker minimizes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Drop every detector race report whose granule index is a multiple
    /// of 4 — a deterministic "partially deaf detector".
    pub drop_races: bool,
}

impl FaultInjection {
    fn filter(&self, records: Vec<RaceRecord>) -> Vec<RaceRecord> {
        if !self.drop_races {
            return records;
        }
        records.into_iter().filter(|r| (r.addr >> 2) % 4 != 0).collect()
    }
}

/// Everything one engine configuration produced for one kernel.
struct EngineRun {
    stats: SimStats,
    skip: SkipStats,
    races: Vec<RaceRecord>,
    out: Vec<u32>,
    data: Vec<u32>,
    /// Base address of the data buffer (`param(0)`) in this run.
    data_base: u32,
}

fn detector_config() -> DetectorConfig {
    DetectorConfig { exact_lockset: true, ..DetectorConfig::paper_default() }
}

fn engine_config(cycle_skip: bool) -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.watchdog_cycles = WATCHDOG;
    cfg.cycle_skip = cycle_skip;
    cfg
}

fn run_engine(
    spec: &KernelSpec,
    k: &Kernel,
    detect: bool,
    cycle_skip: bool,
    fault: FaultInjection,
) -> Result<EngineRun, String> {
    let mut gpu = Gpu::new(engine_config(cycle_skip));
    gpu.set_detector(detect.then(detector_config));
    let params = spec.alloc_params(&mut gpu);
    let res = gpu
        .launch(k, spec.grid, spec.block_dim, &params)
        .map_err(|e| format!("launch failed: {e:?}"))?;
    Ok(EngineRun {
        stats: res.stats,
        skip: res.skip,
        races: fault.filter(res.races.records().to_vec()),
        out: gpu.mem.copy_to_host_u32(params[1], spec.out_words() as usize),
        data: gpu.mem.copy_to_host_u32(params[0], GLOBAL_WORDS as usize),
        data_base: params[0],
    })
}

/// Compare the architecturally-visible `SimStats` fields — everything a
/// passive detector must leave untouched. Cycles and detector-side
/// counters are deliberately excluded. Returns the differing fields.
pub fn arch_diff(a: &SimStats, b: &SimStats) -> Vec<&'static str> {
    let mut d = Vec::new();
    macro_rules! cmp {
        ($($f:ident),* $(,)?) => {
            $(if a.$f != b.$f { d.push(stringify!($f)); })*
        };
    }
    cmp!(
        warp_instructions,
        thread_instructions,
        shared_insts,
        global_insts,
        shared_loads,
        shared_stores,
        global_loads,
        global_stores,
        atomics,
        barriers,
        fences,
        bank_conflict_cycles,
        global_transactions,
        l1,
        l2,
        dram,
        icnt_flits,
        l1_mshr_full_stalls,
        mem_faults,
    );
    d
}

/// Detector race reports mapped to the oracle's granule keyspace.
///
/// Shared granules are compared by address only: a block's shared access
/// pattern depends on `tid` alone, so every block races identically, and
/// the `RaceLog` dedup key `(space, addr, kind, category, pc)` collapses
/// the per-block repeats into one record anyway.
fn detector_granules(run: &EngineRun) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut global = Vec::new();
    let mut shared = Vec::new();
    let mut foreign = Vec::new();
    let data_end = run.data_base + GLOBAL_WORDS * 4;
    for r in &run.races {
        match r.space {
            MemSpace::Global => {
                if (run.data_base..data_end).contains(&r.addr) {
                    global.push(r.addr - run.data_base);
                } else {
                    // A race outside the data buffer (out/lock buffers are
                    // race-free by construction) is always a false report.
                    foreign.push(r.addr);
                }
            }
            MemSpace::Shared => shared.push(r.addr),
            // Fuzz kernels have no local-memory traffic.
            MemSpace::Local => foreign.push(r.addr),
        }
    }
    global.sort_unstable();
    global.dedup();
    shared.sort_unstable();
    shared.dedup();
    foreign.sort_unstable();
    foreign.dedup();
    (global, shared, foreign)
}

fn fmt_list<T: std::fmt::Debug>(items: &[T], cap: usize) -> String {
    let shown: Vec<String> = items.iter().take(cap).map(|i| format!("{i:?}")).collect();
    if items.len() > cap {
        format!("[{} …{} total]", shown.join(", "), items.len())
    } else {
        format!("[{}]", shown.join(", "))
    }
}

/// Run one instrumented software baseline twice; check termination,
/// determinism, and (when the oracle proves every interleaving yields the
/// same memory) functional transparency against the base run.
#[allow(clippy::too_many_arguments)]
fn check_sw_baseline(
    name: &'static str,
    check: &'static str,
    spec: &KernelSpec,
    k: &Kernel,
    base: &EngineRun,
    schedule_invariant: bool,
    instrument: impl Fn(&Kernel, &mut Gpu) -> Kernel,
    findings: &mut Vec<Finding>,
) {
    let run_once = || -> Result<(SimStats, Vec<u32>), String> {
        let mut gpu = Gpu::new(engine_config(true));
        let params = spec.alloc_params(&mut gpu);
        let ik = instrument(k, &mut gpu);
        let res = gpu
            .launch(&ik, spec.grid, spec.block_dim, &params)
            .map_err(|e| format!("launch failed: {e:?}"))?;
        Ok((res.stats, gpu.mem.copy_to_host_u32(params[1], spec.out_words() as usize)))
    };
    let a = match run_once() {
        Ok(v) => v,
        Err(e) => {
            findings.push(Finding { check, detail: format!("{name}: {e}") });
            return;
        }
    };
    match run_once() {
        Ok(b) => {
            if a != b {
                findings.push(Finding {
                    check,
                    detail: format!("{name}: repeated runs diverged"),
                });
            } else if schedule_invariant && a.1 != base.out {
                findings.push(Finding {
                    check,
                    detail: format!(
                        "{name}: changed functional results of a schedule-invariant kernel"
                    ),
                });
            }
        }
        Err(e) => findings.push(Finding { check, detail: format!("{name} rerun: {e}") }),
    }
}

/// Execute `spec` across the full differential matrix and return every
/// discrepancy. An empty vec means all cross-checks agreed.
pub fn run_differential(spec: &KernelSpec, fault: FaultInjection) -> Vec<Finding> {
    let mut findings = Vec::new();
    let k = spec.build();
    if let Err(e) = k.validate() {
        return vec![Finding { check: "kernel-invalid", detail: e }];
    }

    // Base: detection off, dense.
    let base = match run_engine(spec, &k, false, false, FaultInjection::default()) {
        Ok(r) => r,
        Err(e) => return vec![Finding { check: "base-run", detail: e }],
    };

    if base.skip.cycles_skipped != 0 {
        findings.push(Finding {
            check: "engine-determinism",
            detail: format!(
                "dense run fast-forwarded {} cycles",
                base.skip.cycles_skipped
            ),
        });
    }

    // Engine determinism and dense/skip equivalence, detection off.
    for (label, cycle_skip) in [("detoff-rerun", false), ("detoff-cycle-skip", true)] {
        match run_engine(spec, &k, false, cycle_skip, FaultInjection::default()) {
            Ok(r) => {
                if r.stats != base.stats || r.out != base.out || r.data != base.data {
                    findings.push(Finding {
                        check: "engine-determinism",
                        detail: format!(
                            "{label}: diverged from base (stats {}, out {}, data {})",
                            r.stats == base.stats,
                            r.out == base.out,
                            r.data == base.data
                        ),
                    });
                }
            }
            Err(e) => findings.push(Finding {
                check: "engine-determinism",
                detail: format!("{label}: {e}"),
            }),
        }
    }

    // Detection on: architecturally passive, deterministic, never faster.
    let hw = match run_engine(spec, &k, true, false, fault) {
        Ok(r) => r,
        Err(e) => {
            findings.push(Finding { check: "hw-run", detail: e });
            return findings;
        }
    };
    let diff = arch_diff(&base.stats, &hw.stats);
    if !diff.is_empty() {
        findings.push(Finding {
            check: "arch-perturbation",
            detail: format!("detection-on changed architectural stats: {diff:?}"),
        });
    }
    if hw.out != base.out || hw.data != base.data {
        findings.push(Finding {
            check: "functional-perturbation",
            detail: "detection-on changed functional results".into(),
        });
    }
    if hw.stats.cycles < base.stats.cycles {
        findings.push(Finding {
            check: "negative-overhead",
            detail: format!(
                "detection-on faster than off: {} < {}",
                hw.stats.cycles, base.stats.cycles
            ),
        });
    }

    // Detection on, cycle skipping: bit-identical, detector included.
    match run_engine(spec, &k, true, true, fault) {
        Ok(r) => {
            if r.stats != hw.stats || r.out != hw.out || r.races != hw.races {
                findings.push(Finding {
                    check: "deton-engine-determinism",
                    detail: format!(
                        "deton-cycle-skip: diverged from dense detection run \
                         (stats {}, out {}, races {})",
                        r.stats == hw.stats,
                        r.out == hw.out,
                        r.races == hw.races
                    ),
                });
            }
        }
        Err(e) => findings.push(Finding {
            check: "deton-engine-determinism",
            detail: format!("deton-cycle-skip: {e}"),
        }),
    }

    // Detector verdicts vs the independent happens-before oracle.
    let truth = oracle::analyze(spec);
    let (det_global, det_shared, foreign) = detector_granules(&hw);
    if !foreign.is_empty() {
        findings.push(Finding {
            check: "oracle-false-positive",
            detail: format!(
                "races outside the data buffer: {}",
                fmt_list(&foreign, 4)
            ),
        });
    }
    // Fragile granules (every racing pair displaceable from the single
    // shadow entry under some schedule) may go either way: finding one is
    // not a false positive, missing one is not a miss.
    let fp_g: Vec<u32> = det_global
        .iter()
        .copied()
        .filter(|g| !truth.global.contains(g) && !truth.global_fragile.contains(g))
        .collect();
    let miss_g: Vec<u32> =
        truth.global.iter().copied().filter(|g| !det_global.contains(g)).collect();
    let truth_shared: std::collections::BTreeSet<u32> =
        truth.shared.iter().map(|(_, g)| *g).collect();
    let fp_s: Vec<u32> =
        det_shared.iter().copied().filter(|g| !truth_shared.contains(g)).collect();
    let miss_s: Vec<u32> =
        truth_shared.iter().copied().filter(|g| !det_shared.contains(g)).collect();
    if !fp_g.is_empty() || !fp_s.is_empty() {
        findings.push(Finding {
            check: "oracle-false-positive",
            detail: format!(
                "detector races the oracle rules out: global {} shared {}",
                fmt_list(&fp_g, 4),
                fmt_list(&fp_s, 4)
            ),
        });
    }
    if !miss_g.is_empty() || !miss_s.is_empty() {
        findings.push(Finding {
            check: "oracle-miss",
            detail: format!(
                "real races the detector missed: global {} shared {}",
                fmt_list(&miss_g, 4),
                fmt_list(&miss_s, 4)
            ),
        });
    }

    // Software baselines: instrumented, so their timing shift may only be
    // functionally invisible when the oracle proves every interleaving
    // yields the same memory (race-free AND no plain-vs-atomic overlap);
    // they always must terminate and reproduce.
    check_sw_baseline(
        "HAccRG-SW",
        "sw-baseline",
        spec,
        &k,
        &base,
        truth.schedule_invariant(),
        |k, gpu| {
            let tracked = gpu.mem.alloc_ptr() - HEAP_BASE;
            let mut cfg = SwConfig {
                shadow_base: 0,
                heap_base: HEAP_BASE,
                gran_shift: 2,
                cover_shared: true,
                shared_shadow_base: 0,
                shared_chunks_per_block: (k.shared_bytes >> 2).max(1),
            };
            cfg.shadow_base = gpu.mem.alloc(cfg.shadow_bytes(tracked)).expect("shadow alloc");
            cfg.shared_shadow_base = gpu
                .mem
                .alloc(cfg.shared_shadow_bytes(spec.grid))
                .expect("shared shadow alloc");
            instrument_sw(k, cfg)
        },
        &mut findings,
    );
    check_sw_baseline(
        "GRace-add",
        "grace-baseline",
        spec,
        &k,
        &base,
        truth.schedule_invariant(),
        |k, gpu| {
            let warp = gpu.cfg.warp_size;
            let warps_per_block = spec.block_dim.div_ceil(warp);
            let max_warps = spec.grid * warps_per_block;
            let cfg = GraceConfig {
                cursors_base: gpu.mem.alloc(max_warps * 4).expect("cursor alloc"),
                logs_base: gpu.mem.alloc(max_warps * 256 * 4).expect("log alloc"),
                log_cap: 256,
                warps_per_block,
                warp_size: warp,
            };
            instrument_grace(k, cfg)
        },
        &mut findings,
    );

    findings
}

// ---------------------------------------------------------------------
// Auto-minimization: greedy delta debugging over the statement tree.
// ---------------------------------------------------------------------

/// All one-step reductions of a statement list, in deterministic order:
/// drop a statement, splice an `If`/`For` body in place of the compound,
/// force a loop to a single trip, or reduce inside a nested body.
fn reduced_lists(stmts: &[FuzzStmt]) -> Vec<Vec<FuzzStmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
    }
    for (i, s) in stmts.iter().enumerate() {
        let mut splice = |body: &[FuzzStmt]| {
            let mut v = stmts.to_vec();
            v.splice(i..=i, body.iter().cloned());
            out.push(v);
        };
        match s {
            FuzzStmt::If(m, t, e) => {
                splice(t);
                splice(e);
                for t2 in reduced_lists(t) {
                    let mut v = stmts.to_vec();
                    v[i] = FuzzStmt::If(*m, t2, e.clone());
                    out.push(v);
                }
                for e2 in reduced_lists(e) {
                    let mut v = stmts.to_vec();
                    v[i] = FuzzStmt::If(*m, t.clone(), e2);
                    out.push(v);
                }
            }
            FuzzStmt::For(n, body) => {
                splice(body);
                if *n % 3 != 0 {
                    let mut v = stmts.to_vec();
                    v[i] = FuzzStmt::For(0, body.clone());
                    out.push(v);
                }
                for b2 in reduced_lists(body) {
                    let mut v = stmts.to_vec();
                    v[i] = FuzzStmt::For(*n, b2);
                    out.push(v);
                }
            }
            _ => {}
        }
    }
    out
}

/// All one-step reductions of a spec: statement-tree reductions plus
/// launch-geometry reductions (fewer blocks, narrower blocks).
pub fn candidates(spec: &KernelSpec) -> Vec<KernelSpec> {
    let mut out: Vec<KernelSpec> = reduced_lists(&spec.stmts)
        .into_iter()
        .map(|stmts| KernelSpec { stmts, ..spec.clone() })
        .collect();
    if spec.grid > 1 {
        out.push(KernelSpec { grid: spec.grid / 2, ..spec.clone() });
    }
    if spec.block_dim > 32 {
        out.push(KernelSpec { block_dim: 32, ..spec.clone() });
    }
    out
}

fn measure(spec: &KernelSpec) -> usize {
    spec.node_count() + spec.grid as usize + spec.block_dim as usize
}

/// Greedy delta debugging: repeatedly accept the first one-step
/// reduction on which `fails` still holds, until a fixpoint. Fully
/// deterministic — the same input and predicate always shrink to the
/// same minimal spec.
pub fn shrink(spec: &KernelSpec, fails: &mut impl FnMut(&KernelSpec) -> bool) -> KernelSpec {
    let mut cur = spec.clone();
    loop {
        let before = measure(&cur);
        let next = candidates(&cur)
            .into_iter()
            .filter(|c| measure(c) < before && !c.stmts.is_empty())
            .find(|c| fails(c));
        match next {
            Some(c) => cur = c,
            None => return cur,
        }
    }
}

/// Shrink against [`run_differential`], preserving the original failure's
/// check identifier so the minimized repro fails the same way.
pub fn shrink_finding(
    spec: &KernelSpec,
    check: &'static str,
    fault: FaultInjection,
) -> KernelSpec {
    let mut fails =
        |c: &KernelSpec| run_differential(c, fault).iter().any(|f| f.check == check);
    shrink(spec, &mut fails)
}

// ---------------------------------------------------------------------
// Campaign plumbing.
// ---------------------------------------------------------------------

/// Everything one campaign seed produced.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    /// The generating seed.
    pub seed: u64,
    /// Generated launch geometry (for the JSONL record).
    pub grid: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Statement-tree nodes of the generated kernel.
    pub nodes: usize,
    /// Robustly racy granules the oracle found (global, shared).
    pub oracle_races: (usize, usize),
    /// Fragile global granules: racy, but legally missable by the
    /// single-entry shadow (see `OracleReport::global_fragile`).
    pub oracle_fragile: usize,
    /// Discrepancies, empty on agreement.
    pub findings: Vec<Finding>,
    /// Minimized repro for the first finding, with its node count.
    pub minimized: Option<(KernelSpec, &'static str)>,
}

/// Fuzz one seed end-to-end: generate, cross-check, shrink on failure.
pub fn fuzz_one(seed: u64, gen: &GenConfig, fault: FaultInjection) -> SeedOutcome {
    let spec = KernelSpec::generate(seed, gen);
    let truth = oracle::analyze(&spec);
    let findings = run_differential(&spec, fault);
    let minimized = findings.first().map(|f| {
        let min = shrink_finding(&spec, f.check, fault);
        (min, f.check)
    });
    SeedOutcome {
        seed,
        grid: spec.grid,
        block_dim: spec.block_dim,
        nodes: spec.node_count(),
        oracle_races: (truth.global.len(), truth.shared.len()),
        oracle_fragile: truth.global_fragile.len(),
        findings,
        minimized,
    }
}

/// One JSONL campaign line for `o`.
pub fn outcome_json(o: &SeedOutcome) -> String {
    let findings: Vec<String> = o
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"check\":\"{}\",\"detail\":\"{}\"}}",
                esc_json(f.check),
                esc_json(&f.detail)
            )
        })
        .collect();
    let minimized = match &o.minimized {
        Some((spec, check)) => format!(
            "{{\"check\":\"{}\",\"nodes\":{},\"grid\":{},\"block\":{}}}",
            esc_json(check),
            spec.node_count(),
            spec.grid,
            spec.block_dim
        ),
        None => "null".into(),
    };
    format!(
        concat!(
            "{{\"seed\":{},\"grid\":{},\"block\":{},\"nodes\":{},",
            "\"oracle_global\":{},\"oracle_shared\":{},\"oracle_fragile\":{},",
            "\"findings\":[{}],\"minimized\":{}}}"
        ),
        o.seed,
        o.grid,
        o.block_dim,
        o.nodes,
        o.oracle_races.0,
        o.oracle_races.1,
        o.oracle_fragile,
        findings.join(","),
        minimized
    )
}

/// Oracle re-export so the `fuzz` bin can summarize without a second
/// dependency path.
pub fn oracle_of(spec: &KernelSpec) -> OracleReport {
    oracle::analyze(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed spread of seeds must cross-check clean — the same gate the
    /// CI smoke job enforces at larger budget.
    #[test]
    fn differential_matrix_agrees_on_fixed_seeds() {
        for seed in 0..8u64 {
            let o = fuzz_one(seed, &GenConfig::default(), FaultInjection::default());
            assert!(
                o.findings.is_empty(),
                "seed {seed} disagreed: {:?}",
                o.findings
            );
        }
    }

    /// The farm must notice a deliberately deaf detector: drop a quarter
    /// of its race reports and the oracle comparison flags a miss.
    #[test]
    fn injected_detector_fault_is_caught_and_shrinks() {
        let fault = FaultInjection { drop_races: true };
        let gen = GenConfig::default();
        // Find a seed whose kernel really races on a dropped granule.
        let seed = (0..64u64)
            .find(|s| {
                fuzz_one(*s, &gen, fault)
                    .findings
                    .iter()
                    .any(|f| f.check == "oracle-miss")
            })
            .expect("some seed in 0..64 must race on a dropped granule");
        let spec = KernelSpec::generate(seed, &gen);
        let min = shrink_finding(&spec, "oracle-miss", fault);
        assert!(
            run_differential(&min, fault).iter().any(|f| f.check == "oracle-miss"),
            "minimized repro no longer fails"
        );
        assert!(
            min.node_count() <= spec.node_count(),
            "shrinking must not grow the kernel"
        );
        // Determinism: shrinking twice gives the identical repro.
        let min2 = shrink_finding(&spec, "oracle-miss", fault);
        assert_eq!(min, min2, "shrinker must be deterministic");
    }

    #[test]
    fn shrinker_reaches_a_one_node_fixpoint_on_a_trivial_predicate() {
        // Predicate: "contains a LockedRmw" — the minimum is exactly one
        // statement, and every reduction path must find it.
        let spec = KernelSpec::generate(3, &GenConfig::default());
        let mut has_lock = |c: &KernelSpec| {
            fn any_lock(sts: &[FuzzStmt]) -> bool {
                sts.iter().any(|s| match s {
                    FuzzStmt::LockedRmw(_) => true,
                    FuzzStmt::If(_, t, e) => any_lock(t) || any_lock(e),
                    FuzzStmt::For(_, b) => any_lock(b),
                    _ => false,
                })
            }
            any_lock(&c.stmts)
        };
        if !has_lock(&spec) {
            return; // seed without a lock: nothing to assert
        }
        let min = shrink(&spec, &mut has_lock);
        assert_eq!(min.node_count(), 1, "minimal lock witness is one statement: {min:?}");
        assert_eq!(min.grid, 1);
        assert_eq!(min.block_dim, 32);
    }

    #[test]
    fn outcome_json_is_stable_and_escaped() {
        let o = SeedOutcome {
            seed: 7,
            grid: 2,
            block_dim: 64,
            nodes: 5,
            oracle_races: (1, 0),
            oracle_fragile: 0,
            findings: vec![Finding { check: "oracle-miss", detail: "granule \"3\"".into() }],
            minimized: None,
        };
        let j = outcome_json(&o);
        assert!(j.starts_with("{\"seed\":7,"));
        assert!(j.contains("\\\"3\\\""), "quotes must be escaped: {j}");
        assert!(j.ends_with("\"minimized\":null}"));
    }
}
