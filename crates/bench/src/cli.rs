//! The one command-line parser of the `haccrg-bench` binaries.
//!
//! Each binary hands [`RunSetup::from_args`] the flags it honours and
//! nothing else. Anything outside that list is refused with exit status
//! 2: an unknown flag or stray word, a flag given twice, a value flag
//! with no value (or whose value is itself a flag), a malformed number,
//! or a word outside a flag's choices. The error names the flag and is
//! followed by the binary's usage line, so a typo never runs something
//! other than what was asked.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use haccrg_workloads::Scale;

use crate::manifest::{self, RunManifest};
use crate::{progress, scale_name, sweep};

/// What a flag takes.
#[derive(Clone, Copy, Debug)]
pub enum Arg {
    /// Nothing: the flag is a switch.
    Switch,
    /// A free-form value, shown in the usage line as the given name
    /// (`FILE`, `NAME`, `DIR`).
    Value(&'static str),
    /// An unsigned integer.
    Number,
    /// One word out of a fixed set.
    OneOf(&'static [&'static str]),
    /// A flag that no longer exists: refused with the given reason.
    Retired(&'static str),
}

/// One honoured flag: its spelling and what it takes.
pub type Flag = (&'static str, Arg);

/// `--scale paper|repro|tiny` (default `repro`).
pub const SCALE: Flag = ("--scale", Arg::OneOf(&["paper", "repro", "tiny"]));
/// `--jobs N`: sweep worker count (0 or absent: one per core).
pub const JOBS: Flag = ("--jobs", Arg::Number);
/// `--out FILE`: the binary's main output file.
pub const OUT: Flag = ("--out", Arg::Value("FILE"));
/// `--manifest-out FILE`: write a [`RunManifest`].
pub const MANIFEST_OUT: Flag = ("--manifest-out", Arg::Value("FILE"));
/// `--progress-out FILE`: stream the sweeps' JSONL progress events.
pub const PROGRESS_OUT: Flag = ("--progress-out", Arg::Value("FILE"));
/// `--progress-interval-ms N`: progress reporter tick.
pub const PROGRESS_INTERVAL_MS: Flag = ("--progress-interval-ms", Arg::Number);

/// A command line checked against the flags its binary honours.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    flags: Vec<Flag>,
    argv: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Check `argv` (without the program name) against `flags`; an `Err`
    /// names the refused flag.
    fn parse_from(bin: &'static str, flags: &[Flag], argv: Vec<String>) -> Result<Args, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(&(name, arg)) = flags.iter().find(|(n, _)| n == a) else {
                return Err(if a.starts_with('-') {
                    format!("unknown flag {a:?}")
                } else {
                    format!("unexpected argument {a:?}")
                });
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given more than once"));
            }
            let value = match arg {
                Arg::Switch => None,
                Arg::Retired(why) => return Err(format!("{name}: {why}")),
                Arg::Value(_) | Arg::Number | Arg::OneOf(_) => {
                    let Some(v) = it.next().filter(|v| !v.starts_with("--")) else {
                        return Err(format!("{name} needs a value ({})", metavar(arg)));
                    };
                    match arg {
                        Arg::Number if v.parse::<u64>().is_err() => {
                            return Err(format!("{name} needs a whole number, not {v:?}"));
                        }
                        Arg::OneOf(words) if !words.contains(&v.as_str()) => {
                            return Err(format!("{name} takes {}, not {v:?}", words.join("|")));
                        }
                        _ => Some(v.clone()),
                    }
                }
            };
            given.push((name, value));
        }
        Ok(Args { bin, flags: flags.to_vec(), argv, given })
    }

    /// Whether the binary honours `flag`.
    fn honours(&self, flag: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == flag)
    }

    /// The value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| *n == flag).and_then(|(_, v)| v.as_deref())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == flag)
    }

    /// The number given for `flag`, if any (checked when parsing).
    pub fn number(&self, flag: &str) -> Option<u64> {
        self.value(flag).map(|v| v.parse().expect("checked when parsing"))
    }

    /// `--scale`, defaulting to `repro`.
    pub fn scale(&self) -> Scale {
        match self.value(SCALE.0) {
            Some("paper") => Scale::Paper,
            Some("tiny") => Scale::Tiny,
            _ => Scale::Repro,
        }
    }

    /// Refuse a combination the flag list cannot express: print `msg`
    /// and the usage line, and exit with status 2.
    pub fn fail(&self, msg: impl fmt::Display) -> ! {
        refuse(self.bin, &self.flags, msg)
    }
}

fn refuse(bin: &str, flags: &[Flag], msg: impl fmt::Display) -> ! {
    eprintln!("{bin}: {msg}\n{}", usage(bin, flags));
    std::process::exit(2);
}

fn metavar(arg: Arg) -> String {
    match arg {
        Arg::Value(name) => name.to_string(),
        Arg::Number => "N".to_string(),
        Arg::OneOf(words) => words.join("|"),
        Arg::Switch | Arg::Retired(_) => String::new(),
    }
}

/// The usage line built from a binary's flags.
fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut s = format!("usage: {bin}");
    for &(name, arg) in flags {
        match arg {
            Arg::Retired(_) => {}
            Arg::Switch => s += &format!(" [{name}]"),
            _ => s += &format!(" [{name} {}]", metavar(arg)),
        }
    }
    s
}

/// A binary's parsed command line plus the process-wide state the common
/// flags pin: the sweep worker count (`--jobs`), the progress stream
/// (`--progress-out`) and the start time for the manifest's wall clock.
pub struct RunSetup {
    /// The parsed command line.
    pub args: Args,
    /// Input scale (`--scale`; `repro` when absent or not honoured).
    pub scale: Scale,
    /// Sweep worker count (`--jobs`; 0 when the binary runs no sweeps).
    pub jobs: usize,
    started: Instant,
}

impl RunSetup {
    /// Check the process's arguments against `flags` — on a refusal,
    /// print the error and the usage line and exit with status 2 — and
    /// pin whichever of `--jobs` and `--progress-out` the binary honours.
    pub fn from_args(bin: &'static str, flags: &[Flag]) -> Self {
        let argv = std::env::args().skip(1).collect();
        let args = Args::parse_from(bin, flags, argv).unwrap_or_else(|e| refuse(bin, flags, e));
        let jobs = if args.honours(JOBS.0) {
            if let Some(n) = args.number(JOBS.0) {
                sweep::set_jobs(usize::try_from(n).unwrap_or(usize::MAX));
            }
            sweep::configured_jobs()
        } else {
            0
        };
        if args.honours(PROGRESS_OUT.0) {
            progress::configure(progress::ProgressConfig {
                path: args.value(PROGRESS_OUT.0).map(Into::into),
                interval_ms: args
                    .number(PROGRESS_INTERVAL_MS.0)
                    .unwrap_or(progress::DEFAULT_INTERVAL_MS)
                    .max(1),
            });
        }
        RunSetup { scale: args.scale(), jobs, args, started: Instant::now() }
    }

    /// Elapsed wall time since the setup was created, in milliseconds.
    pub fn wall_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// A manifest of this run so far: binary, argv, scale (when
    /// honoured), worker count, the stock Table I GPU's `config_hash`
    /// and the wall clock. Callers add workloads, digests and artifacts.
    pub fn manifest(&self) -> RunManifest {
        let mut m = RunManifest::new(self.args.bin);
        m.argv = self.args.argv.clone();
        if self.args.honours(SCALE.0) {
            m.scale = scale_name(self.scale).into();
        }
        m.jobs = self.jobs;
        m.config_hash = manifest::config_hash(&gpu_sim::prelude::GpuConfig::quadro_fx5800());
        m.wall_ms = self.wall_ms();
        m
    }

    /// Write the manifest of a suite-sweep binary if `--manifest-out` was
    /// given: the full Table II suite content-hashed at this scale, and
    /// `stats_digest` 0 (a multi-run binary has no single merged outcome).
    pub fn write_suite_manifest(&self, artifacts: &[&str]) {
        self.write_manifest_with(artifacts, true);
    }

    /// Write a manifest without workload hashes if `--manifest-out` was
    /// given (the fuzz farm).
    pub fn write_manifest(&self, artifacts: &[&str]) {
        self.write_manifest_with(artifacts, false);
    }

    fn write_manifest_with(&self, artifacts: &[&str], suite: bool) {
        let Some(path) = self.args.value(MANIFEST_OUT.0) else { return };
        let mut m = self.manifest();
        if suite {
            m.workloads = manifest::suite_workloads(self.scale);
        }
        m.artifacts = artifacts.iter().map(|a| a.to_string()).collect();
        m.write(Path::new(path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [Flag; 5] = [
        SCALE,
        OUT,
        ("--seed", Arg::Number),
        ("--list", Arg::Switch),
        ("--parallel-sms", Arg::Retired("the SM worker pool was removed")),
    ];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse_from("testbin", &FLAGS, argv.iter().map(|s| s.to_string()).collect())
    }

    fn refusal(argv: &[&str]) -> String {
        parse(argv).expect_err("must be refused")
    }

    #[test]
    fn honoured_flags_parse() {
        let a = parse(&["--scale", "tiny", "--list", "--seed", "7", "--out", "x.json"]).unwrap();
        assert_eq!(a.scale(), Scale::Tiny);
        assert!(a.switch("--list"));
        assert_eq!(a.number("--seed"), Some(7));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert_eq!(a.argv.len(), 7);
        let empty = parse(&[]).unwrap();
        assert_eq!(empty.scale(), Scale::Repro);
        assert!(!empty.switch("--list"));
        assert_eq!(empty.number("--seed"), None);
        assert_eq!(empty.value("--out"), None);
    }

    #[test]
    fn unknown_flag_is_refused_by_name() {
        assert!(refusal(&["--frobnicate"]).contains("\"--frobnicate\""));
        assert!(refusal(&["--scale", "tiny", "-x"]).contains("\"-x\""));
        assert!(refusal(&["mine.json"]).contains("\"mine.json\""));
    }

    #[test]
    fn repeated_flag_is_refused() {
        assert!(refusal(&["--seed", "1", "--seed", "2"]).contains("--seed given more than once"));
        assert!(refusal(&["--list", "--list"]).contains("--list given more than once"));
    }

    #[test]
    fn missing_value_is_refused() {
        assert!(refusal(&["--out"]).contains("--out needs a value (FILE)"));
        assert!(refusal(&["--seed"]).contains("--seed needs a value (N)"));
        assert!(refusal(&["--scale"]).contains("--scale needs a value (paper|repro|tiny)"));
    }

    #[test]
    fn malformed_number_is_refused() {
        assert!(refusal(&["--seed", "seven"]).contains("--seed needs a whole number"));
        assert!(refusal(&["--seed", "-1"]).contains("--seed needs a whole number"));
        assert!(refusal(&["--seed", "1.5"]).contains("--seed needs a whole number"));
    }

    #[test]
    fn a_value_that_is_itself_a_flag_is_refused() {
        assert!(refusal(&["--out", "--list"]).contains("--out needs a value (FILE)"));
        assert!(refusal(&["--seed", "--scale", "tiny"]).contains("--seed needs a value (N)"));
    }

    #[test]
    fn word_outside_the_choices_is_refused() {
        let e = refusal(&["--scale", "tnyi"]);
        assert!(e.contains("--scale takes paper|repro|tiny") && e.contains("\"tnyi\""), "{e}");
    }

    #[test]
    fn retired_flag_gives_its_reason() {
        assert_eq!(refusal(&["--parallel-sms"]), "--parallel-sms: the SM worker pool was removed");
    }

    #[test]
    fn usage_lists_every_live_flag() {
        assert_eq!(
            usage("testbin", &FLAGS),
            "usage: testbin [--scale paper|repro|tiny] [--out FILE] [--seed N] [--list]"
        );
    }
}
