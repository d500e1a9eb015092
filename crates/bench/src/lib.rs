//! # haccrg-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §V–VI. The `all`
//! binary runs the whole battery and writes `EXPERIMENTS.md`;
//! `all --only NAME` runs and prints one part of it:
//!
//! | `--only` | reproduces |
//! |----------|------------|
//! | `table2` | Tables I–II — GPU configuration, benchmark suite & instruction mix |
//! | `table3` | Table III — false races vs tracking granularity |
//! | `table4` | Table IV — global shadow-memory overhead (+ §VI-C2 hardware budget) |
//! | `effectiveness` | §VI-A — real + injected race detection (`--fidelity-out FILE`: miss forensics) |
//! | `id_sizes` | §VI-A2 — sync and fence ID headroom |
//! | `tlb_ablation` | §IV-B — the two dual-translation TLB mechanisms |
//! | `bloom_stress` | §VI-A2 — atomic-ID signature accuracy over a million random lock pairs |
//! | `fig7` | Fig. 7 — normalized execution time (HW, SW, GRace) |
//! | `fig8` | Fig. 8 — shared shadow entries spilled to global memory |
//! | `variants` | extension — the SDK's algorithm variants under detection |
//! | `fig9` | Fig. 9 — DRAM bandwidth utilization |
//! | `sched_ablation` | extension — detection overhead under RR vs GTO scheduling |
//!
//! The other binaries:
//!
//! | binary | runs |
//! |--------|------|
//! | `runbench` | one benchmark under a chosen detector, with tracing, profiling and race reports |
//! | `fuzz` | the differential fuzz farm |
//!
//! Every binary checks its command line with [`cli`]: a flag it does not
//! honour, a repeated or valueless flag, or a malformed number exits 2.
//! Host speed is the `e2ebench` ledger's job: it times each layer on the
//! Table II suite's own traffic.

#![forbid(unsafe_code)]

pub mod cli;
pub mod effectiveness;
pub mod fidelity;
pub mod figures;
pub mod fuzz;
pub mod manifest;
pub mod progress;
pub mod report;
pub mod sweep;
pub mod tables;

pub use cli::{Args, RunSetup};
pub use manifest::{Environment, RunManifest, WorkloadRef};
pub use progress::SweepProgress;
pub use sweep::{JobError, SweepRunner};

use haccrg_workloads::Scale;

/// Stable lowercase name of a scale (manifests, filenames).
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Paper => "paper",
        Scale::Repro => "repro",
        Scale::Tiny => "tiny",
    }
}

/// Run one closure per item on a [`SweepRunner`] pool and collect results
/// in input order. The simulator is deterministic per launch; independent
/// runs parallelize perfectly. Panics if any job panicked — callers that
/// want per-job failure rows use [`SweepRunner::run`] directly. Each job
/// reports to the process-wide progress stream (if configured) and the
/// TTY renderer under its label.
pub fn parallel_map_labeled<T, R, F>(labels: Vec<String>, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert_eq!(labels.len(), items.len(), "one label per item");
    run_labeled(labels, items, f)
}

/// [`parallel_map_labeled`] over Table II benchmarks, labeling each job
/// with its benchmark name for the progress stream and TTY renderer.
pub fn parallel_map_benches<R, F>(benches: Vec<Box<dyn haccrg_workloads::Benchmark>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Box<dyn haccrg_workloads::Benchmark>) -> R + Sync,
{
    let labels = benches.iter().map(|b| b.name().to_string()).collect();
    run_labeled(labels, benches, f)
}

fn run_labeled<T, R, F>(labels: Vec<String>, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let runner = SweepRunner::from_env();
    let tracker = progress::for_sweep(labels, runner.jobs().min(items.len().max(1)));
    runner
        .run_with_progress(tracker, items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("sweep worker failed: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let labels = (0..16).map(|i| format!("job-{i}")).collect();
        let r = parallel_map_labeled(labels, (0..16).collect(), |x: i32| x * x);
        assert_eq!(r, (0..16).map(|x| x * x).collect::<Vec<_>>());
    }
}
