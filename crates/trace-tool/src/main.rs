//! `haccrg-trace` — run HAccRG race detection over a recorded trace.
//!
//! ```console
//! $ haccrg-trace my_kernel.trace           # file input
//! $ some-profiler | haccrg-trace -         # stdin
//! $ haccrg-trace explain my_kernel.trace   # witness-timeline forensics
//! ```
//!
//! The `explain` subcommand forces witness capture on and renders, per
//! static race group, the conflicting records with their witness
//! timelines and Fig. 3 state-transition chains.
//!
//! Options:
//! * `--shared-gran N` / `--global-gran N` — tracking granularities
//!   (defaults 16 and 4 bytes, the paper's)
//! * `--bloom BITSxBINS` — atomic-ID shape (e.g. `16x2`, the default)
//! * `--no-warp-filter` — treat warp re-grouping as enabled
//! * `--quiet` — suppress the per-record listing (counters + grouped
//!   summary only; the exit status still reports detection); not with
//!   `explain`, whose report is the records
//! * `-h` / `--help` — print usage
//!
//! Diagnostics go through the `HACCRG_LOG` leveled logger (levels
//! `off|error|warn|info|debug`, default `info`), so scripted pipelines
//! can silence them with `HACCRG_LOG=off` without losing the exit code.
//!
//! Unknown or repeated options, and `--quiet` under `explain`, are
//! rejected with the usage message (exit status 2); exit status 1 means
//! the trace contained races.

use std::fs::File;
use std::io::{self, BufReader};

use gpu_sim::log_error;
use haccrg::config::DetectorConfig;
use haccrg::granularity::Granularity;
use haccrg_trace::{analyze, explain_report, report_with};

const USAGE: &str = "\
usage: haccrg-trace [explain] [FILE|-] [options]

Run HAccRG race detection over a recorded access trace (a file, or
stdin when the path is `-` or omitted).

The `explain` subcommand replays the trace with witness capture forced
on and renders a forensic report per static race group: the first few
dynamic records, each with its witness timeline (the last accesses to
the racy chunk) and the Fig. 3 shadow-state transition chain they
walked.

options:
  --shared-gran N     shared-memory tracking granularity in bytes
                      (power of two in [1,4096]; default 16)
  --global-gran N     global-memory tracking granularity in bytes
                      (power of two in [1,4096]; default 4)
  --bloom BITSxBINS   atomic-ID Bloom-filter shape (default 16x2)
  --no-warp-filter    treat warp re-grouping as enabled
  --quiet             suppress the per-record race listing; keep the
                      counters and the grouped static-pair summary
                      (not with explain)
  -h, --help          print this message and exit

Each option may be given once.

environment:
  HACCRG_LOG          diagnostic verbosity (off|error|warn|info|debug;
                      default info)

exit status: 0 = no races, 1 = races detected, 2 = usage/input error";

/// Parsed command line: detector configuration plus the input path
/// (`None` or `Some("-")` = stdin).
#[derive(Debug)]
struct Options {
    cfg: DetectorConfig,
    path: Option<String>,
    quiet: bool,
    explain: bool,
}

/// Parse `args` (without the program name). `Ok(None)` means help was
/// requested; `Err` carries a message for stderr (usage follows).
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut cfg = DetectorConfig::paper_default();
    let mut path: Option<String> = None;
    let mut quiet = false;
    // The subcommand must lead: `haccrg-trace explain k.trace`. Anywhere
    // else, `explain` is an input path like any other word.
    let explain = args.first().map(String::as_str) == Some("explain");
    if explain {
        // Timelines are the whole point of the subcommand.
        cfg.witness_capture = true;
    }
    let args = if explain { &args[1..] } else { args };
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if seen.contains(&a) {
                return Err(format!("{a} given more than once"));
            }
            seen.push(a);
        }
        match a {
            "-h" | "--help" => return Ok(None),
            "--shared-gran" | "--global-gran" => {
                let v = args.get(i + 1).ok_or_else(|| format!("{a} needs a value"))?;
                let n: u32 = v.parse().map_err(|_| format!("{a}: {v:?} is not a number"))?;
                let g = Granularity::new(n).map_err(|e| format!("{a}: {e}"))?;
                if a == "--shared-gran" {
                    cfg.shared_granularity = g;
                } else {
                    cfg.global_granularity = g;
                }
                i += 2;
            }
            "--bloom" => {
                let v = args.get(i + 1).ok_or_else(|| "--bloom needs a value".to_string())?;
                let (bits, bins) =
                    v.split_once('x').ok_or_else(|| format!("--bloom: {v:?} is not BITSxBINS"))?;
                cfg.bloom = haccrg::bloom::BloomConfig {
                    bits: bits.parse().map_err(|_| format!("--bloom: bad bit count in {v:?}"))?,
                    bins: bins.parse().map_err(|_| format!("--bloom: bad bin count in {v:?}"))?,
                };
                cfg.bloom.validate().map_err(|e| format!("--bloom: {e}"))?;
                i += 2;
            }
            "--no-warp-filter" => {
                cfg.warp_regrouping = true;
                i += 1;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            "-" => {
                if path.replace("-".into()).is_some() {
                    return Err("more than one input path given".into());
                }
                i += 1;
            }
            _ if a.starts_with('-') => return Err(format!("unknown option {a:?}")),
            _ => {
                if path.replace(a.to_string()).is_some() {
                    return Err("more than one input path given".into());
                }
                i += 1;
            }
        }
    }
    if explain && quiet {
        return Err("--quiet does not apply to explain, whose report is the records".into());
    }
    Ok(Some(Options { cfg, path, quiet, explain }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            log_error!("haccrg-trace: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let result = match opts.path.as_deref() {
        None | Some("-") => analyze(BufReader::new(io::stdin().lock()), &opts.cfg),
        Some(p) => match File::open(p) {
            Ok(f) => analyze(BufReader::new(f), &opts.cfg),
            Err(e) => {
                log_error!("cannot open {p}: {e}");
                std::process::exit(2);
            }
        },
    };

    match result {
        Ok(a) => {
            if opts.explain {
                print!("{}", explain_report(&a));
            } else {
                print!("{}", report_with(&a, opts.quiet));
            }
            if a.replayer.races().any() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            log_error!("trace error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn bare_invocation_reads_stdin_with_defaults() {
        let o = parse_args(&[]).unwrap().expect("not help");
        assert!(o.path.is_none());
        assert_eq!(o.cfg.bloom, DetectorConfig::paper_default().bloom);
        assert_eq!(o.cfg.shared_granularity.bytes(), 16);
        assert_eq!(o.cfg.global_granularity.bytes(), 4);
    }

    #[test]
    fn positional_path_and_flags_parse() {
        let o = parse_args(&argv(&[
            "k.trace",
            "--shared-gran",
            "8",
            "--bloom",
            "16x4",
            "--no-warp-filter",
        ]))
        .unwrap()
        .expect("not help");
        assert_eq!(o.path.as_deref(), Some("k.trace"));
        assert_eq!(o.cfg.shared_granularity.bytes(), 8);
        assert_eq!(o.cfg.bloom.bins, 4);
        assert!(o.cfg.warp_regrouping);
    }

    #[test]
    fn help_flag_wins() {
        assert!(parse_args(&argv(&["--help"])).unwrap().is_none());
        assert!(parse_args(&argv(&["k.trace", "-h"])).unwrap().is_none());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = parse_args(&argv(&["--granularity", "8"])).unwrap_err();
        assert!(e.contains("unknown option"), "{e}");
    }

    #[test]
    fn missing_and_malformed_values_are_rejected() {
        assert!(parse_args(&argv(&["--shared-gran"])).is_err());
        assert!(parse_args(&argv(&["--shared-gran", "three"])).is_err());
        assert!(parse_args(&argv(&["--shared-gran", "6"])).is_err(), "not a power of two");
        assert!(parse_args(&argv(&["--bloom", "16-2"])).is_err());
        assert!(parse_args(&argv(&["--bloom", "7x2"])).is_err(), "invalid bit width");
    }

    #[test]
    fn duplicate_paths_are_rejected() {
        assert!(parse_args(&argv(&["a.trace", "b.trace"])).is_err());
        assert!(parse_args(&argv(&["-", "b.trace"])).is_err());
    }

    #[test]
    fn stdin_dash_is_accepted() {
        let o = parse_args(&argv(&["-"])).unwrap().expect("not help");
        assert_eq!(o.path.as_deref(), Some("-"));
    }

    #[test]
    fn repeated_options_are_rejected() {
        for args in [
            &["--global-gran", "4", "--global-gran", "64"][..],
            &["--quiet", "--quiet"],
            &["--bloom", "16x2", "k.trace", "--bloom", "16x4"],
            &["explain", "--no-warp-filter", "--no-warp-filter"],
        ] {
            let e = parse_args(&argv(args)).unwrap_err();
            assert!(e.contains("given more than once"), "{args:?}: {e}");
        }
        // Help wins at its first mention, before any repeat is seen.
        assert!(parse_args(&argv(&["--help", "--help"])).unwrap().is_none());
    }

    #[test]
    fn explain_subcommand_leads_and_forces_witness_capture() {
        assert!(!parse_args(&[]).unwrap().expect("not help").explain);
        // `--quiet` would be ignored: explain's report is the records.
        let e = parse_args(&argv(&["explain", "k.trace", "--quiet"])).unwrap_err();
        assert!(e.contains("--quiet"), "{e}");
        let o = parse_args(&argv(&["explain", "k.trace"])).unwrap().expect("not help");
        assert!(o.explain);
        assert!(o.cfg.witness_capture, "explain is pointless without timelines");
        assert_eq!(o.path.as_deref(), Some("k.trace"));
        // Not in the leading position, `explain` is just a file path.
        let o = parse_args(&argv(&["k.trace", "explain"]));
        assert!(o.is_err(), "second positional word is a duplicate path");
        let o = parse_args(&argv(&["--quiet", "explain"])).unwrap().expect("not help");
        assert!(!o.explain);
        assert_eq!(o.path.as_deref(), Some("explain"));
        assert!(!o.cfg.witness_capture);
    }

    #[test]
    fn quiet_flag_parses_and_defaults_off() {
        assert!(!parse_args(&[]).unwrap().expect("not help").quiet);
        let o = parse_args(&argv(&["k.trace", "--quiet"])).unwrap().expect("not help");
        assert!(o.quiet);
        assert_eq!(o.path.as_deref(), Some("k.trace"));
    }
}
