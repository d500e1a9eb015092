//! Run the evaluation battery: print every table and, with `--out`,
//! write `EXPERIMENTS.md`.
//!
//! ```console
//! $ cargo run --release -p haccrg-bench --bin all -- --out EXPERIMENTS.md
//! $ cargo run --release -p haccrg-bench --bin all -- --only fig7 --scale tiny
//! ```
//!
//! Options:
//! * `--only NAME` — run and print one part of the battery: `table2`
//!   (Tables I and II), `table3`, `table4` (with the §VI-C2 budget),
//!   `effectiveness` (§VI-A, plus a `MISSED:` line per undetected
//!   injection), `id_sizes`, `tlb_ablation`, `bloom_stress` (the §VI-A2
//!   signature-accuracy table), `fig7`, `fig8`, `variants`, `fig9` or
//!   `sched_ablation`
//! * `--out FILE` — write the whole battery as markdown (not with
//!   `--only`)
//! * `--fidelity-out FILE` — also write the miss-forensics report of the
//!   §VI-A campaign (see [`haccrg_bench::fidelity`])
//! * `--scale SCALE` — `paper` | `repro` | `tiny` (default `repro`)
//! * `--jobs N` — sweep worker count (default: one per core)
//! * `--progress-out FILE`, `--progress-interval-ms N` — stream the
//!   sweeps' JSONL progress events
//! * `--manifest-out FILE` — write a run manifest
//!
//! Any other flag, a repeated flag, a flag without its value or a
//! malformed number exits with status 2 (see [`haccrg_bench::cli`]).
//!
//! The output is byte-identical for any `--jobs N`: sweep results are
//! collected in input order and each simulation is single-threaded and
//! deterministic.

use std::fmt::Write as _;

use gpu_sim::{log_error, log_info};

use haccrg_bench::cli::{Arg, Flag, JOBS, MANIFEST_OUT, OUT, PROGRESS_INTERVAL_MS, PROGRESS_OUT, SCALE};
use haccrg_bench::effectiveness::{campaign_table, real_races, run_campaign};
use haccrg_bench::fidelity::fidelity_report;
use haccrg_bench::figures::{bloom_stress, bloom_stress_rows, fig7, fig8, fig9, tlb_ablation};
use haccrg_bench::report::Table;
use haccrg_bench::tables::{
    hardware_budget_table, id_sizing, sched_ablation, table1, table2, table3, table4, variants_table,
};
use haccrg_bench::RunSetup;

/// The parts `--only` selects, in battery order.
const PARTS: [&str; 12] = [
    "table2", "table3", "table4", "effectiveness", "id_sizes", "tlb_ablation",
    "bloom_stress", "fig7", "fig8", "variants", "fig9", "sched_ablation",
];

const FIDELITY_OUT: Flag = ("--fidelity-out", Arg::Value("FILE"));

const FLAGS: [Flag; 8] = [
    ("--only", Arg::OneOf(&PARTS)),
    OUT,
    FIDELITY_OUT,
    SCALE,
    JOBS,
    PROGRESS_OUT,
    PROGRESS_INTERVAL_MS,
    MANIFEST_OUT,
];

/// The battery as it runs: every section that runs prints its table and
/// appends it to the markdown report.
struct Battery<'a> {
    only: Option<&'a str>,
    md: String,
}

impl Battery<'_> {
    /// Whether the part `name` runs.
    fn runs(&self, name: &str) -> bool {
        self.only.is_none_or(|o| o == name)
    }

    /// Run, print and record one section of the part `part`, unless
    /// `--only` names another part.
    fn section(&mut self, part: &str, title: &str, paper: &str, table: impl FnOnce() -> Table) {
        if !self.runs(part) {
            return;
        }
        log_info!("… {title}");
        let t = table();
        let _ = writeln!(self.md, "## {title}\n");
        let _ = writeln!(self.md, "**Paper:** {paper}\n");
        self.md.push_str(&t.to_markdown());
        self.md.push('\n');
        println!("{}", t.render());
    }
}

fn main() {
    let setup = RunSetup::from_args("all", &FLAGS);
    let (args, scale) = (&setup.args, setup.scale);
    let only = args.value("--only");
    let out_path = args.value(OUT.0);
    let fidelity_out = args.value(FIDELITY_OUT.0);
    if only.is_some() && out_path.is_some() {
        args.fail("--out writes the whole battery; drop --only");
    }
    if fidelity_out.is_some() && only.is_some_and(|o| o != "effectiveness") {
        args.fail("--fidelity-out needs the effectiveness part");
    }

    let scale_name = haccrg_bench::scale_name(scale);
    log_info!(
        "running {} at scale '{scale_name}' with {} sweep worker(s) …",
        only.unwrap_or("the full battery"),
        setup.jobs
    );

    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p haccrg-bench --bin all --scale {scale_name}`.\n"
    );
    let _ = writeln!(
        md,
        "All simulations use the Table I configuration (30 SMs, 8 memory \
         slices). Inputs are the `{scale_name}` scale; see DESIGN.md for the \
         input-scaling substitution. Absolute cycle counts are *not* \
         expected to match GPGPU-Sim — relative overheads and detection \
         results are the reproduction targets. Sweeps fan out over \
         `--jobs N` worker threads (default: one per core); every number \
         below is independent of `N` — results are collected in input \
         order and each simulation is single-threaded and deterministic.\n"
    );
    let mut b = Battery { only, md };

    b.section(
        "table2",
        "Table I — hardware configuration",
        "Quadro FX5800: 30 SMs, SIMD width 8, warp 32, 16KB shared/SM, 8 memory slices, FR-FCFS, GDDR3.",
        table1,
    );
    b.section(
        "table2",
        "Table II — benchmark suite",
        "Ten CUDA benchmarks; shared-instruction share ranges 0%–22.9%, global 1.1%–87.2% (PSUM highest).",
        || table2(scale),
    );
    b.section(
        "table3",
        "Table III (shared) — false races vs granularity",
        "No false shared races for most benchmarks up to 16B; HIST reports many (byte-sized elements).",
        || table3(scale, true),
    );
    b.section(
        "table3",
        "Table III (global) — false races vs granularity",
        "No false global races at 4B for any benchmark; several stay clean through 64B.",
        || table3(scale, false),
    );
    b.section(
        "table4",
        "Table IV — global shadow overhead",
        "Footprint-proportional: 9KB (SCAN) to 27.9MB (HIST) at 4B granularity with 52-bit entries.",
        || table4(scale),
    );
    b.section(
        "table4",
        "§VI-C2 — hardware budget",
        "4.5KB shared shadow per Fermi SM, ~3KB ID storage per SM, 0.75KB race register file per replica.",
        hardware_budget_table,
    );
    b.section(
        "effectiveness",
        "§VI-A — real races",
        "Races found in multi-block SCAN and KMEANS (documented bugs) and OFFT (address-calculation WAR); none elsewhere.",
        || real_races(scale),
    );
    if b.runs("effectiveness") {
        let results = run_campaign(scale);
        b.section(
            "effectiveness",
            "§VI-A — injected races",
            "41 injected (23 barrier + 13 cross-block + 3 fence + 2 critical-section), all 41 detected.",
            || campaign_table(&results),
        );
        for r in results.iter().filter(|r| !r.detected) {
            println!("MISSED: {}", r.label);
            let _ = writeln!(b.md, "> **MISSED:** {}\n", r.label);
        }
        if let Some(path) = fidelity_out {
            if let Err(e) = std::fs::write(path, fidelity_report(&results, scale)) {
                log_error!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            log_info!("wrote fidelity report to {path}");
        }
    }
    b.section(
        "id_sizes",
        "§VI-A2 — logical-clock headroom",
        "Sync IDs increment at most 5 times (REDUCE); fence counts are similarly small — 8-bit counters never wrap.",
        || id_sizing(scale),
    );
    b.section(
        "tlb_ablation",
        "§IV-B — virtual-memory TLB mechanisms",
        "The appended-tag-bit TLB shares capacity between data and shadow translations; a separate (smaller) shadow TLB restores data hit rate.",
        || tlb_ablation(scale, 64, 4, 16),
    );
    b.section(
        "bloom_stress",
        "§VI-A2 — atomic-ID accuracy",
        "8/16/32-bit 2-bin signatures miss 25% / 12.5% / 6.25%; 2 bins beat 4 bins.",
        || bloom_stress(&bloom_stress_rows()),
    );
    b.section(
        "fig7",
        "Fig. 7 — normalized execution time",
        "Shared-only ≈1% mean overhead; shared+global ≈27% (geomean). HAccRG-SW: 6.6×/12.4×/18.1× on SCAN/HIST/KMEANS; GRace far slower on shared-heavy kernels.",
        || fig7(scale),
    );
    b.section(
        "fig8",
        "Fig. 8 — shared shadow placement",
        "Small extra penalty for most benchmarks when shared shadow entries spill to global memory; OFFT suffers most.",
        || fig8(scale),
    );
    b.section(
        "variants",
        "Extension — algorithm variants",
        "Not in the paper: the SDK's Blelloch scan and 256-bin shared-atomic histogram under detection.",
        || variants_table(scale),
    );
    b.section(
        "fig9",
        "Fig. 9 — DRAM bandwidth utilization",
        "Shared-only detection leaves utilization unchanged; combined detection raises it for L2-dependent benchmarks and barely moves L1-friendly ones.",
        || fig9(scale),
    );
    b.section(
        "sched_ablation",
        "Extension — scheduler ablation",
        "Not in the paper: detection overhead under round-robin (Table I) and greedy-then-oldest warp scheduling; verdicts must agree.",
        || sched_ablation(scale),
    );

    let mut artifacts: Vec<&str> = fidelity_out.into_iter().collect();
    if let Some(path) = out_path {
        // Hand-written interpretation appendix (ships with the binary).
        b.md.push_str(include_str!("all_appendix.md"));
        std::fs::write(path, &b.md).expect("write EXPERIMENTS output");
        log_info!("wrote {path}");
        artifacts.insert(0, path);
    }
    setup.write_suite_manifest(&artifacts);
}
