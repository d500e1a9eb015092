//! Measure event-driven cycle skipping and write `BENCH_cycleskip.json`.
//!
//! Two measurements:
//!
//! 1. **Microkernels** — the `pointer_chase` and `barrier_storm` kernels
//!    from [`haccrg_bench::cycleskip`], built to sit at the extremes the
//!    fast-forward layer targets (single in-flight DRAM round trips and
//!    long block-wide barrier waits). Each runs dense and skipping; the
//!    report records wall-clock per launch, simulated cycles, the skipped
//!    fraction, and the speedup. Statistics must be bit-identical between
//!    the two modes and the best microkernel speedup must clear 2x —
//!    both asserted on every run.
//! 2. **Table II suite** — every workload at `tiny` scale with the
//!    paper-default detector, dense vs skipping, for context on realistic
//!    instruction mixes (one timed pass each; treat as indicative).
//!
//! Usage: `cargo run --release -p haccrg-bench --bin cycleskip_bench --
//! [--out FILE] [--manifest-out FILE]` (default `BENCH_cycleskip.json` in
//! the current directory — run from the repo root to refresh the
//! committed snapshot).

use std::fmt::Write as _;
use std::time::Instant;

use haccrg_bench::cycleskip::{barrier_storm, pointer_chase, run_micro, Micro};
use haccrg_bench::cli::{MANIFEST_OUT, OUT};
use haccrg_workloads::runner::{run, RunConfig};
use haccrg_workloads::{all_benchmarks, Scale};

/// Timed launches per microkernel per mode (the mean is reported).
const MICRO_ITERS: u32 = 5;

/// Mean seconds per call of `f`, run `iters` times.
fn time_s<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

struct MicroRow {
    name: &'static str,
    dense_s: f64,
    skip_s: f64,
    cycles: u64,
    skipped: u64,
    jumps: u64,
}

impl MicroRow {
    fn speedup(&self) -> f64 {
        self.dense_s / self.skip_s
    }
    fn skipped_fraction(&self) -> f64 {
        self.skipped as f64 / self.cycles as f64
    }
}

fn measure_micro(m: &Micro) -> MicroRow {
    // Correctness gate first: identical stats, dense never skips.
    let (dense_stats, dense_skip) = run_micro(m, false);
    let (skip_stats, skip) = run_micro(m, true);
    assert_eq!(dense_stats, skip_stats, "{}: dense and skip modes diverged", m.name);
    assert_eq!(dense_skip.cycles_skipped, 0, "{}: dense mode skipped", m.name);
    let dense_s = time_s(MICRO_ITERS, || run_micro(m, false));
    let skip_s = time_s(MICRO_ITERS, || run_micro(m, true));
    MicroRow {
        name: m.name,
        dense_s,
        skip_s,
        cycles: skip_stats.cycles,
        skipped: skip.cycles_skipped,
        jumps: skip.skip_jumps,
    }
}

fn main() {
    let setup = haccrg_bench::RunSetup::from_args("cycleskip_bench", &[OUT, MANIFEST_OUT]);
    let out_path = setup.args.value(OUT.0).unwrap_or("BENCH_cycleskip.json");

    let micros: Vec<MicroRow> =
        [pointer_chase(), barrier_storm()].iter().map(measure_micro).collect();

    // Table II suite at tiny scale, paper-default detection, one pass per
    // mode.
    struct SuiteRow {
        name: String,
        dense_s: f64,
        skip_s: f64,
        cycles: u64,
        skipped: u64,
    }
    let mut suite: Vec<SuiteRow> = Vec::new();
    let mut dense_cfg = RunConfig::detecting(Scale::Tiny);
    dense_cfg.gpu.cycle_skip = false;
    let skip_cfg = RunConfig::detecting(Scale::Tiny);
    for b in all_benchmarks() {
        let t0 = Instant::now();
        let dense = run(b.as_ref(), &dense_cfg).expect("runs");
        let dense_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let skip = run(b.as_ref(), &skip_cfg).expect("runs");
        let skip_s = t1.elapsed().as_secs_f64();
        assert_eq!(dense.stats, skip.stats, "{}: suite run diverged", b.name());
        suite.push(SuiteRow {
            name: b.name().to_string(),
            dense_s,
            skip_s,
            cycles: skip.stats.cycles,
            skipped: skip.skip.cycles_skipped,
        });
    }

    let mut rows = String::new();
    for (i, r) in micros.iter().enumerate() {
        let sep = if i + 1 < micros.len() { "," } else { "" };
        let _ = write!(
            rows,
            r#"    {{
      "name": "{}",
      "dense_ms": {:.2},
      "skip_ms": {:.2},
      "speedup": {:.2},
      "sim_cycles": {},
      "cycles_skipped": {},
      "skip_jumps": {},
      "skipped_fraction": {:.3}
    }}{sep}
"#,
            r.name,
            r.dense_s * 1e3,
            r.skip_s * 1e3,
            r.speedup(),
            r.cycles,
            r.skipped,
            r.jumps,
            r.skipped_fraction(),
        );
    }
    let mut suite_rows = String::new();
    for (i, r) in suite.iter().enumerate() {
        let sep = if i + 1 < suite.len() { "," } else { "" };
        let _ = write!(
            suite_rows,
            r#"    {{
      "name": "{}",
      "dense_ms": {:.2},
      "skip_ms": {:.2},
      "speedup": {:.2},
      "sim_cycles": {},
      "cycles_skipped": {}
    }}{sep}
"#,
            r.name,
            r.dense_s * 1e3,
            r.skip_s * 1e3,
            r.dense_s / r.skip_s,
            r.cycles,
            r.skipped,
        );
    }
    let best = micros.iter().map(MicroRow::speedup).fold(0.0, f64::max);
    let report = format!(
        r#"{{
  "benchmark": "cycle_skip",
  "produced_by": "cargo run --release -p haccrg-bench --bin cycleskip_bench",
  "environment": {env},
  "micro_iters": {MICRO_ITERS},
  "microkernels": [
{rows}  ],
  "table2_tiny_detecting": [
{suite_rows}  ],
  "best_micro_speedup": {best:.2}
}}
"#,
        env = haccrg_bench::Environment::capture().to_json(),
    );
    std::fs::write(out_path, report).expect("write report");
    println!("wrote {out_path}");
    for r in &micros {
        println!(
            "{:14} dense {:7.2} ms  skip {:7.2} ms  ({:.2}x, {:.1}% of {} cycles skipped)",
            r.name,
            r.dense_s * 1e3,
            r.skip_s * 1e3,
            r.speedup(),
            r.skipped_fraction() * 100.0,
            r.cycles,
        );
    }
    for r in &suite {
        println!(
            "{:14} dense {:7.2} ms  skip {:7.2} ms  ({:.2}x)",
            r.name,
            r.dense_s * 1e3,
            r.skip_s * 1e3,
            r.dense_s / r.skip_s,
        );
    }
    assert!(best >= 2.0, "best microkernel speedup {best:.2}x is below the 2x target");
    setup.write_manifest(&[out_path]);
}
