//! `fuzz` — differential fuzz campaign driver.
//!
//! Generates `--budget` structured random kernels starting at `--seed`,
//! runs each through the full differential matrix (HAccRG-HW /
//! HAccRG-SW / GRace-add × dense / cycle-skip × detection on/off, plus
//! the happens-before oracle), auto-shrinks any failure to a minimal
//! repro, and streams one JSONL record per seed.
//!
//! ```text
//! cargo run --release -p haccrg-bench --bin fuzz -- \
//!     --seed 1 --budget 500 --jobs 4 --corpus-out crates/bench/corpus
//! ```
//!
//! Flags (besides `--jobs N`, `--progress-out FILE`,
//! `--progress-interval-ms N` and `--manifest-out FILE`):
//!
//! * `--seed N` — first campaign seed (default 1).
//! * `--budget N` — number of seeds to fuzz (default 100).
//! * `--out FILE` — JSONL campaign log (default `fuzz_campaign.jsonl`).
//! * `--corpus-out DIR` — write minimized repros as corpus text files.
//! * `--inject-fault` — deliberately drop a quarter of detector race
//!   reports; proves the farm catches a buggy detector end-to-end.
//! * `--replay FILE` — instead of a campaign, re-run one corpus file
//!   through the matrix and report its findings.
//!
//! Exit status is 0 iff every seed cross-checked clean (so the CI smoke
//! job is a plain invocation), 1 on findings, 2 on usage errors (any
//! flag not listed here, see [`haccrg_bench::cli`]).

use std::io::Write as _;

use gpu_sim::fuzzgen::{GenConfig, KernelSpec};
use haccrg_bench::cli::{Arg, Flag, JOBS, MANIFEST_OUT, OUT, PROGRESS_INTERVAL_MS, PROGRESS_OUT};
use haccrg_bench::fuzz::{self, FaultInjection, SeedOutcome};
use haccrg_bench::progress::esc_json;
use haccrg_bench::{parallel_map_labeled, RunSetup};

const FLAGS: [Flag; 10] = [
    ("--seed", Arg::Number),
    ("--budget", Arg::Number),
    OUT,
    ("--corpus-out", Arg::Value("DIR")),
    ("--inject-fault", Arg::Switch),
    ("--replay", Arg::Value("FILE")),
    JOBS,
    PROGRESS_OUT,
    PROGRESS_INTERVAL_MS,
    MANIFEST_OUT,
];

fn replay(path: &str, fault: FaultInjection) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let spec = KernelSpec::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    let findings = fuzz::run_differential(&spec, fault);
    let truth = fuzz::oracle_of(&spec);
    println!(
        "replay {path}: seed {} grid {} block {} nodes {} | oracle races: {} global, {} shared",
        spec.seed,
        spec.grid,
        spec.block_dim,
        spec.node_count(),
        truth.global.len(),
        truth.shared.len()
    );
    if findings.is_empty() {
        println!("all cross-checks agreed");
        std::process::exit(0);
    }
    for f in &findings {
        println!("FINDING [{}] {}", f.check, f.detail);
    }
    std::process::exit(1);
}

fn main() {
    let setup = RunSetup::from_args("fuzz", &FLAGS);
    let args = &setup.args;
    let fault = FaultInjection { drop_races: args.switch("--inject-fault") };
    if let Some(path) = args.value("--replay") {
        replay(path, fault);
    }

    let seed0 = args.number("--seed").unwrap_or(1);
    let budget = args.number("--budget").unwrap_or(100);
    let out_path = args.value(OUT.0).unwrap_or("fuzz_campaign.jsonl");
    let corpus_out = args.value("--corpus-out");
    let gen = GenConfig::default();

    let seeds: Vec<u64> = (0..budget).map(|i| seed0.wrapping_add(i)).collect();
    let labels = seeds.iter().map(|s| format!("seed-{s}")).collect();
    let outcomes: Vec<SeedOutcome> =
        parallel_map_labeled(labels, seeds, |seed| fuzz::fuzz_one(seed, &gen, fault));

    let mut jsonl = String::new();
    jsonl.push_str(&format!(
        concat!(
            "{{\"type\":\"campaign\",\"seed\":{},\"budget\":{},\"jobs\":{},",
            "\"inject_fault\":{}}}\n"
        ),
        seed0, budget, setup.jobs, fault.drop_races
    ));

    let mut failing = 0usize;
    let mut racy = 0usize;
    if let Some(dir) = corpus_out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        });
    }
    for o in &outcomes {
        if o.oracle_races.0 + o.oracle_races.1 > 0 {
            racy += 1;
        }
        if !o.findings.is_empty() {
            failing += 1;
            for f in &o.findings {
                eprintln!("seed {}: [{}] {}", o.seed, f.check, f.detail);
            }
            if let (Some(dir), Some((min, check))) = (corpus_out, &o.minimized) {
                let file = format!("{dir}/seed-{}-{}.kernel", o.seed, check);
                let body = format!(
                    "# minimized repro: seed {} failed check '{}'\n{}",
                    o.seed,
                    check,
                    min.to_text()
                );
                std::fs::write(&file, body).unwrap_or_else(|e| {
                    eprintln!("cannot write {file}: {e}");
                    std::process::exit(2);
                });
                eprintln!("seed {}: minimized repro -> {file}", o.seed);
            }
        }
        jsonl.push_str(&fuzz::outcome_json(o));
        jsonl.push('\n');
    }
    jsonl.push_str(&format!(
        concat!(
            "{{\"type\":\"summary\",\"seeds\":{},\"oracle_racy\":{},\"failing\":{},",
            "\"corpus_out\":{},\"wall_ms\":{}}}\n"
        ),
        outcomes.len(),
        racy,
        failing,
        match corpus_out {
            Some(d) => format!("\"{}\"", esc_json(d)),
            None => "null".into(),
        },
        setup.wall_ms()
    ));

    let mut f = std::fs::File::create(out_path).unwrap_or_else(|e| {
        eprintln!("cannot create {out_path}: {e}");
        std::process::exit(2);
    });
    f.write_all(jsonl.as_bytes()).expect("write campaign log");

    println!(
        "fuzzed {} seeds ({} oracle-racy): {} disagreed | {} | {:.1}s",
        outcomes.len(),
        racy,
        failing,
        out_path,
        setup.wall_ms() as f64 / 1000.0
    );
    setup.write_manifest(&[out_path]);
    std::process::exit(if failing == 0 { 0 } else { 1 });
}
