//! The binaries' command lines, driven end to end: every binary refuses a
//! flag it does not honour, `all --only NAME` prints exactly the library
//! tables of that part of the battery, and `bloom_stress --out` writes
//! where it is told.

use std::path::PathBuf;
use std::process::{Command, Output};

use haccrg_bench::effectiveness::{campaign_table, real_races, run_campaign};
use haccrg_bench::figures::{fig7, fig8, fig9, tlb_ablation};
use haccrg_bench::report::Table;
use haccrg_bench::tables::{
    hardware_budget_table, id_sizing, sched_ablation, table1, table2, table3, table4, variants_table,
};
use haccrg_workloads::Scale;

const BINS: [&str; 7] = [
    env!("CARGO_BIN_EXE_all"),
    env!("CARGO_BIN_EXE_runbench"),
    env!("CARGO_BIN_EXE_fuzz"),
    env!("CARGO_BIN_EXE_bloom_stress"),
    env!("CARGO_BIN_EXE_cycleskip_bench"),
    env!("CARGO_BIN_EXE_shadow_bench"),
    env!("CARGO_BIN_EXE_warp_bench"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).env("HACCRG_LOG", "off").output().expect("spawn")
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn every_binary_refuses_an_unknown_flag_by_name() {
    for bin in BINS {
        let o = run(bin, &["--frobnicate"]);
        assert_eq!(o.status.code(), Some(2), "{bin}: {}", stderr(&o));
        assert!(stderr(&o).contains("--frobnicate"), "{bin}: {}", stderr(&o));
        assert!(stderr(&o).contains("usage: "), "{bin}: {}", stderr(&o));
        assert!(o.stdout.is_empty(), "{bin} ran before refusing");
    }
}

#[test]
fn deleted_flags_are_refused() {
    let all = env!("CARGO_BIN_EXE_all");
    let runbench = env!("CARGO_BIN_EXE_runbench");
    for (bin, args) in [
        (all, &["--no-cycle-skip"][..]),
        (all, &["--scale", "tiny", "--scale", "tiny"]),
        (all, &["--jobs", "two"]),
        (all, &["--only", "bloom_stress"]),
        (runbench, &["--bench", "SCAN", "--jobs", "2"]),
        (runbench, &["--bench", "SCAN", "--multi-block"]),
        (runbench, &["--bench", "SCAN", "--no-cycle-skip"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--scale", "tiny"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--sed", "7"]),
        (env!("CARGO_BIN_EXE_bloom_stress"), &["--pairs", "20000"]),
        (env!("CARGO_BIN_EXE_bloom_stress"), &["mine.json"]),
        (env!("CARGO_BIN_EXE_warp_bench"), &["--out"]),
    ] {
        let o = run(bin, args);
        assert_eq!(o.status.code(), Some(2), "{bin} {args:?}: {}", stderr(&o));
    }
}

#[test]
fn only_refuses_what_it_cannot_honour() {
    let all = env!("CARGO_BIN_EXE_all");
    let o = run(all, &["--only", "table2", "--out", "never.md"]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    let o = run(all, &["--only", "fig8", "--fidelity-out", "never.json"]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    // Samples go nowhere without a file to carry them.
    let runbench = env!("CARGO_BIN_EXE_runbench");
    let o = run(runbench, &["--bench", "SCAN", "--scale", "tiny", "--sample-every", "500"]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    assert!(stderr(&o).contains("--sample-every") && stderr(&o).contains("usage: "), "{}", stderr(&o));
    assert!(o.stdout.is_empty(), "runbench ran before refusing");
}

/// `all --only name --scale tiny --jobs 2` must print `tables`, each
/// rendered and followed by a blank line, then `extra`.
fn check_only(name: &str, tables: &[Table], extra: &str) {
    let o = run(env!("CARGO_BIN_EXE_all"), &["--only", name, "--scale", "tiny", "--jobs", "2"]);
    assert!(o.status.success(), "{name}: {}", stderr(&o));
    let mut want: String = tables.iter().map(|t| format!("{}\n", t.render())).collect();
    want.push_str(extra);
    assert_eq!(String::from_utf8_lossy(&o.stdout), want, "all --only {name}");
}

const TINY: Scale = Scale::Tiny;

#[test]
fn only_table2() {
    check_only("table2", &[table1(), table2(TINY)], "");
}

#[test]
fn only_table3() {
    check_only("table3", &[table3(TINY, true), table3(TINY, false)], "");
}

#[test]
fn only_table4() {
    check_only("table4", &[table4(TINY), hardware_budget_table()], "");
}

#[test]
fn only_effectiveness() {
    let results = run_campaign(TINY);
    let missed: String =
        results.iter().filter(|r| !r.detected).map(|r| format!("MISSED: {}\n", r.label)).collect();
    check_only("effectiveness", &[real_races(TINY), campaign_table(&results)], &missed);
}

#[test]
fn only_id_sizes() {
    check_only("id_sizes", &[id_sizing(TINY)], "");
}

#[test]
fn only_tlb_ablation() {
    check_only("tlb_ablation", &[tlb_ablation(TINY, 64, 4, 16)], "");
}

#[test]
fn only_fig7() {
    let t = fig7(TINY);
    assert!(t.render().contains("(HAccRG-SW)"), "fig7 keeps its software rows");
    check_only("fig7", &[t], "");
}

#[test]
fn only_fig8() {
    check_only("fig8", &[fig8(TINY)], "");
}

#[test]
fn only_variants() {
    check_only("variants", &[variants_table(TINY)], "");
}

#[test]
fn only_fig9() {
    check_only("fig9", &[fig9(TINY)], "");
}

#[test]
fn only_sched_ablation() {
    check_only("sched_ablation", &[sched_ablation(TINY)], "");
}

#[test]
fn bloom_stress_writes_where_it_is_told() {
    let dir: PathBuf = std::env::temp_dir().join(format!("haccrg-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let o = Command::new(env!("CARGO_BIN_EXE_bloom_stress"))
        .args(["--out", "mine.json"])
        .env("HACCRG_LOG", "off")
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(o.status.success(), "{}", stderr(&o));
    let written = std::fs::read_to_string(dir.join("mine.json")).expect("--out file written");
    assert!(written.contains("\"benchmark\": \"bloom_stress\""), "{written}");
    assert!(!dir.join("BENCH_bloom.json").exists(), "wrote the default file as well");
    std::fs::remove_dir_all(&dir).unwrap();
}
