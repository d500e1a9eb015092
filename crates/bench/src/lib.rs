//! # haccrg-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §V–VI:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table2` | Table II — benchmark suite & instruction mix |
//! | `table3` | Table III — false races vs tracking granularity |
//! | `table4` | Table IV — global shadow-memory overhead (+ §VI-C2 hardware budget) |
//! | `fig7`   | Fig. 7 — normalized execution time (HW, SW, GRace) |
//! | `fig8`   | Fig. 8 — shared shadow entries spilled to global memory |
//! | `fig9`   | Fig. 9 — DRAM bandwidth utilization |
//! | `effectiveness` | §VI-A — real + injected race detection |
//! | `bloom_stress`  | §VI-A2 — atomic-ID signature accuracy |
//! | `all`    | everything above, writing `EXPERIMENTS.md` |
//!
//! Criterion micro-benchmarks for the detector and simulator hot paths
//! live under `benches/`.

#![forbid(unsafe_code)]

pub mod cycleskip;
pub mod effectiveness;
pub mod fidelity;
pub mod figures;
pub mod fuzz;
pub mod manifest;
pub mod progress;
pub mod report;
pub mod sweep;
pub mod tables;

pub use manifest::{Environment, RunManifest, WorkloadRef};
pub use progress::SweepProgress;
pub use sweep::{JobError, SweepRunner};

use haccrg_workloads::Scale;

/// Parse the common `--scale` CLI argument (`paper|repro|tiny`; default
/// repro). Exits with status 2 on a missing or unknown value, or on a
/// second `--scale`.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == "--scale") else {
        return Scale::Repro;
    };
    if args[i + 1..].iter().any(|a| a == "--scale") {
        eprintln!("--scale given more than once");
        std::process::exit(2);
    }
    match args.get(i + 1).map(String::as_str) {
        Some("paper") => Scale::Paper,
        Some("repro") => Scale::Repro,
        Some("tiny") => Scale::Tiny,
        Some(v) => {
            eprintln!("--scale takes paper, repro or tiny, not {v:?}");
            std::process::exit(2);
        }
        None => {
            eprintln!("--scale needs paper, repro or tiny");
            std::process::exit(2);
        }
    }
}

/// Stable lowercase name of a scale (manifests, filenames).
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Paper => "paper",
        Scale::Repro => "repro",
        Scale::Tiny => "tiny",
    }
}

/// Parse the common `--jobs N` CLI argument and pin the process-wide
/// sweep worker count (see [`sweep::set_jobs`]); returns the resulting
/// count. Exits with status 2 on a malformed value.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => sweep::set_jobs(n),
            None => {
                eprintln!("--jobs needs a worker count");
                std::process::exit(2);
            }
        }
    }
    sweep::configured_jobs()
}

/// Parse the common `--no-cycle-skip` escape hatch: pins the process-wide
/// [`haccrg_workloads::runner`] default so every simulation in this
/// process runs the dense cycle loop instead of event-driven
/// fast-forwarding. Results are bit-identical either way (see DESIGN.md,
/// "Event-driven cycle skipping") — the flag exists for bisection and for
/// measuring the dense baseline. Returns whether skipping remains on.
pub fn cycle_skip_from_args() -> bool {
    let on = !std::env::args().any(|a| a == "--no-cycle-skip");
    haccrg_workloads::runner::set_cycle_skip(on);
    on
}

/// Parse the common `--progress-out FILE` argument and pin the
/// process-wide live-progress configuration (see [`progress`]). Every
/// sweep in the process then streams JSONL lifecycle/throughput events
/// to `FILE`; a TTY status line on stderr is independent of the flag.
/// Returns whether a stream destination was configured. Exits with
/// status 2 on a `--progress-out` with no path.
pub fn progress_from_args() -> bool {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = progress::ProgressConfig {
        path: None,
        interval_ms: progress::DEFAULT_INTERVAL_MS,
    };
    if let Some(i) = args.iter().position(|a| a == "--progress-out") {
        match args.get(i + 1) {
            Some(p) if !p.starts_with("--") => cfg.path = Some(p.into()),
            _ => {
                eprintln!("--progress-out needs a file path");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--progress-interval-ms") {
        if let Some(ms) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            cfg.interval_ms = ms.max(1);
        }
    }
    let streaming = cfg.path.is_some();
    progress::configure(cfg);
    streaming
}

/// Parse the common `--manifest-out FILE` argument: where to write the
/// [`RunManifest`] for this run, if anywhere. Exits with status 2 on a
/// `--manifest-out` with no path.
pub fn manifest_out_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--manifest-out")?;
    match args.get(i + 1) {
        Some(p) if !p.starts_with("--") => Some(p.into()),
        _ => {
            eprintln!("--manifest-out needs a file path");
            std::process::exit(2);
        }
    }
}

/// Bundle of the common observability CLI state a bin threads through
/// its run: parses `--scale`, `--jobs`, `--no-cycle-skip`,
/// `--progress-out` and `--manifest-out` in one call and remembers the
/// start time for the manifest's wall clock.
pub struct RunSetup {
    /// Input scale (`--scale`).
    pub scale: Scale,
    /// Sweep worker count (`--jobs`).
    pub jobs: usize,
    /// Whether event-driven cycle skipping stays on.
    pub cycle_skip: bool,
    started: std::time::Instant,
}

impl RunSetup {
    /// Parse the common observability arguments (see struct docs).
    pub fn from_args() -> Self {
        let scale = scale_from_args();
        let jobs = jobs_from_args();
        let cycle_skip = cycle_skip_from_args();
        progress_from_args();
        RunSetup { scale, jobs, cycle_skip, started: std::time::Instant::now() }
    }

    /// Elapsed wall time since the setup was created, in milliseconds.
    pub fn wall_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Write the run manifest for a suite-sweep bin if `--manifest-out`
    /// was given: workloads are the full Table II suite content-hashed at
    /// this scale, `stats_digest` is 0 (multi-run bins have no single
    /// merged outcome), and `config_hash` covers the stock Table I GPU.
    pub fn write_suite_manifest(&self, bin: &str, artifacts: &[&str]) {
        self.write_manifest_with(bin, artifacts, true);
    }

    /// Write a minimal manifest (no workload hashes) for bins that don't
    /// sweep the Table II suite (microbenchmarks, stress tests).
    pub fn write_manifest(&self, bin: &str, artifacts: &[&str]) {
        self.write_manifest_with(bin, artifacts, false);
    }

    fn write_manifest_with(&self, bin: &str, artifacts: &[&str], suite: bool) {
        let Some(path) = manifest_out_from_args() else { return };
        let mut m = RunManifest::new(bin);
        m.scale = scale_name(self.scale).into();
        m.jobs = self.jobs;
        m.cycle_skip = self.cycle_skip;
        if suite {
            m.workloads = manifest::suite_workloads(self.scale);
        }
        m.config_hash =
            manifest::config_hash(&gpu_sim::prelude::GpuConfig::quadro_fx5800());
        m.wall_ms = self.wall_ms();
        m.artifacts = artifacts.iter().map(|a| a.to_string()).collect();
        m.write(&path);
    }
}

/// Run one closure per item on a [`SweepRunner`] pool and collect results
/// in input order. The simulator is deterministic per launch; independent
/// runs parallelize perfectly. Panics if any job panicked — callers that
/// want per-job failure rows use [`SweepRunner::run`] directly.
///
/// Jobs report to the process-wide progress stream (if configured) under
/// generic `job-N` labels; [`parallel_map_labeled`] attaches real names.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let labels = (0..items.len()).map(|i| format!("job-{i}")).collect();
    run_labeled(labels, items, f)
}

/// [`parallel_map`] with a human-readable label per item for the live
/// progress stream and TTY renderer.
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
        let r = parallel_map((0..16).collect(), |x: i32| x * x);
        assert_eq!(r, (0..16).map(|x| x * x).collect::<Vec<_>>());
    }
}
