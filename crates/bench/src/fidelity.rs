//! Miss forensics — the ground-truth fidelity audit behind
//! `effectiveness --fidelity-out`.
//!
//! The §VI-A campaign knows every race it plants, so an undetected plant
//! is a *measured miss*, not a suspicion. This module cross-references
//! detection outcomes against the injection plan and attributes each miss
//! to the loss channel the [`DetectorHealth`] counters observed during
//! the injected run:
//!
//! | cause | evidence |
//! |-------|----------|
//! | `bloom_aliasing`   | `bloom_suppressed_conflicts > 0` — a conflicting both-protected pair whose exact locksets were disjoint while the Bloom intersection stayed non-null (§VI-A2) |
//! | `log_saturation`   | `log_dropped > 0` — a distinct record arrived after the race log hit capacity |
//! | `skipped_checks`   | `detector_skipped_checks > 0` — the RDU check was never performed |
//! | `id_truncation`    | `id_truncation_collisions > 0` — packed §VI-C2 field widths would have conflated the writers |
//! | `unknown`          | none of the above fired (the plant may be benign under this schedule) |
//!
//! Causes are tested in that order: the first channel with evidence wins,
//! most-specific first (a suppressed conflict *is* the missed check; a
//! truncation collision is only a would-have diagnostic on the unpacked
//! simulator).
//!
//! The flagship probe is [`aliasing_probes`]: `LockedWrite` plants on
//! HASH whose wrong lock sits `+16` bytes from the victim's bucket lock —
//! inside one §VI-A2 index for narrow signatures (bin width ≤ 4), a
//! distinct index for the paper's 16-bit/2-bin default. Audited under an
//! 8-bit/2-bin Bloom the plant is missed and attributed to
//! `bloom_aliasing`; under exact lockset semantics (or the default
//! signature) the same plant is detected — the report shows both, which
//! is the evidence a reader needs to trust the attribution.

use std::fmt::Write as _;

use haccrg::config::DetectorConfig;
use haccrg::json::esc_json;
use haccrg::prelude::{BloomConfig, DetectorHealth};
use haccrg_workloads::hash::{hash_of, Hash};
use haccrg_workloads::inject::Injection;
use haccrg_workloads::runner::RunConfig;
use haccrg_workloads::{benchmark_by_name, Scale};

use crate::effectiveness::{run_plan_with, InjKind, InjectionResult, Plan};
use crate::scale_name;

/// Schema version stamped into every fidelity report.
pub const FIDELITY_SCHEMA: u32 = 1;

/// Why a planted race went undetected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissCause {
    /// Bloom signature intersection stayed non-null for provably
    /// disjoint locksets (§VI-A2 aliasing).
    BloomAliasing,
    /// The race log was at capacity when the distinct record arrived.
    LogSaturation,
    /// The RDU check was skipped outright.
    SkippedChecks,
    /// Packed §VI-C2 ID widths would have conflated the two writers.
    IdTruncation,
    /// No loss channel left evidence.
    Unknown,
}

impl MissCause {
    /// Stable snake_case tag used in the JSON report.
    pub fn tag(self) -> &'static str {
        match self {
            MissCause::BloomAliasing => "bloom_aliasing",
            MissCause::LogSaturation => "log_saturation",
            MissCause::SkippedChecks => "skipped_checks",
            MissCause::IdTruncation => "id_truncation",
            MissCause::Unknown => "unknown",
        }
    }
}

/// Attribute a miss to the first loss channel with evidence
/// (most-specific first; see the module docs for the order's rationale).
pub fn attribute(health: &DetectorHealth, skipped_checks: u64) -> MissCause {
    if health.bloom_suppressed_conflicts > 0 {
        MissCause::BloomAliasing
    } else if health.log_dropped > 0 {
        MissCause::LogSaturation
    } else if skipped_checks > 0 {
        MissCause::SkippedChecks
    } else if health.id_truncation_collisions > 0 {
        MissCause::IdTruncation
    } else {
        MissCause::Unknown
    }
}

/// One audited plant: the injection outcome plus, when missed, the
/// attributed cause.
pub struct Audit {
    /// Plan label.
    pub label: String,
    /// Injection category.
    pub kind: InjKind,
    /// Whether the injected run reported a fresh race.
    pub detected: bool,
    /// Fresh distinct records the plant produced.
    pub new_distinct: usize,
    /// Attributed cause — `Some` only for misses.
    pub cause: Option<MissCause>,
    /// Health counters of the injected run (the attribution evidence).
    pub health: DetectorHealth,
    /// Skipped lockset checks of the injected run.
    pub skipped_checks: u64,
}

/// Audit already-run injection results (the campaign path: outcomes were
/// produced once, the auditor only cross-references them).
pub fn audit_results(results: &[InjectionResult]) -> Vec<Audit> {
    results
        .iter()
        .map(|r| Audit {
            label: r.label.clone(),
            kind: r.kind,
            detected: r.detected,
            new_distinct: r.new_distinct,
            cause: (!r.detected).then(|| attribute(&r.health, r.skipped_checks)),
            health: r.health,
            skipped_checks: r.skipped_checks,
        })
        .collect()
}

/// Run `plans` under `det` and audit each outcome.
pub fn audit_under(plans: &[Plan], scale: Scale, det: DetectorConfig) -> Vec<Audit> {
    let results: Vec<InjectionResult> =
        plans.iter().map(|p| run_plan_with(p, scale, det)).collect();
    audit_results(&results)
}

/// Critical-section plants engineered to alias under narrow Bloom
/// signatures: each prepends a write to a live HASH bucket performed
/// under the *wrong* lock, `+16` bytes from the bucket's own lock — the
/// two locks share a §VI-A2 signature index whenever the bin width is
/// ≤ 4 (e.g. 8-bit/2-bin), and distinct indices at the paper default.
///
/// `LockedWrite` plants from thread 0 of every block, and at `tiny` (the
/// scale the tests and CI audit) block 0's plant opens the victim's
/// shadow entry, so the victims are keys owned by threads outside block
/// 0's first warp: the §III-A warp filter orders every pair within one
/// warp, so a victim in the planting warp meets no race to detect (the
/// lockset check finds the null intersection and the filter drops it).
/// Each victim's bucket is also hashed by a key of that first warp,
/// whose critical section fences the warp before it releases the bucket
/// lock: by the time the victim holds the lock, the planted write is
/// published, so only the lockset rule can flag the pair. A victim alone
/// in its bucket reads the unfenced plant, and the §III-C fence rule
/// reports that read under any signature width — as it does at `repro`,
/// where another block's plant opens the entry first.
pub fn aliasing_probes(scale: Scale) -> Vec<Plan> {
    let (table_n, keys_n, _) = Hash::geometry(scale);
    let keys = Hash::keys(keys_n);
    let bucket = |k: u32| hash_of(k, table_n - 1);
    let warp = RunConfig::detecting(scale).gpu.warp_size as usize;
    let first_warp: Vec<u32> = keys[..warp].iter().map(|&k| bucket(k)).collect();
    keys[warp..]
        .iter()
        .map(|&k| bucket(k))
        .filter(|b| first_warp.contains(b))
        .take(2)
        .map(|bucket| Plan {
            label: format!("HASH/LockedWrite(bucket={bucket},alias=+16)"),
            bench: benchmark_by_name("HASH").expect("HASH benchmark"),
            launch: 0,
            injection: Injection::LockedWrite {
                lock_param_idx: 2,
                lock_offset: bucket * 4,
                alias_offset: 16,
                data_param_idx: 1,
                data_offset: bucket * 4,
            },
            kind: InjKind::CriticalSection,
        })
        .collect()
}

/// A narrow 8-bit/2-bin Bloom configuration — bin width 4, so locks 16
/// bytes apart always alias (`expected_miss_rate` = 25%).
pub fn narrow_bloom() -> DetectorConfig {
    let mut cfg = DetectorConfig::paper_default();
    cfg.bloom = BloomConfig { bits: 8, bins: 2 };
    cfg
}

/// The paper-default detector with exact lockset semantics: signature
/// aliasing cannot suppress a race, so any plant missed under
/// [`narrow_bloom`] but caught here was lost to the Bloom filter.
pub fn exact_lockset() -> DetectorConfig {
    let mut cfg = DetectorConfig::paper_default();
    cfg.exact_lockset = true;
    cfg
}

/// One named section of the fidelity report: a set of audits under one
/// detector configuration.
pub struct Section {
    /// Section name (`campaign`, `aliasing_probes_narrow_bloom`, …).
    pub name: String,
    /// Detector configuration the audits ran under.
    pub detector: DetectorConfig,
    /// Per-plant audits.
    pub audits: Vec<Audit>,
}

fn health_json(h: &DetectorHealth) -> String {
    format!(
        "{{\"bloom_insert_aliased\": {}, \"bloom_null_intersections\": {}, \"bloom_nonnull_intersections\": {}, \"bloom_suppressed_conflicts\": {}, \"id_truncation_collisions\": {}, \"shadow_fresh_on_mismatch\": {}, \"shadow_pages_allocated\": {}, \"log_dropped\": {}}}",
        h.bloom_insert_aliased,
        h.bloom_null_intersections,
        h.bloom_nonnull_intersections,
        h.bloom_suppressed_conflicts,
        h.id_truncation_collisions,
        h.shadow_fresh_on_mismatch,
        h.shadow_pages_allocated,
        h.log_dropped,
    )
}

fn detector_json(d: &DetectorConfig) -> String {
    format!(
        "{{\"bloom_bits\": {}, \"bloom_bins\": {}, \"exact_lockset\": {}, \"expected_bloom_miss_rate\": {:.6}}}",
        d.bloom.bits,
        d.bloom.bins,
        d.exact_lockset,
        d.bloom.expected_miss_rate(),
    )
}

/// JSON for one or more audit sections. Stable key order; validated
/// structurally by the CI observability job.
pub fn fidelity_json(scale: Scale, sections: &[Section]) -> String {
    let mut s = String::with_capacity(4096);
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": {FIDELITY_SCHEMA},");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale_name(scale));
    let _ = writeln!(s, "  \"sections\": [");
    for (si, sec) in sections.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", esc_json(&sec.name));
        let _ = writeln!(s, "      \"detector\": {},", detector_json(&sec.detector));
        let planted = sec.audits.len();
        let detected = sec.audits.iter().filter(|a| a.detected).count();
        let _ = writeln!(s, "      \"planted\": {planted},");
        let _ = writeln!(s, "      \"detected\": {detected},");
        let _ = writeln!(s, "      \"missed\": {},", planted - detected);
        let _ = writeln!(s, "      \"probes\": [");
        for (i, a) in sec.audits.iter().enumerate() {
            let cause = match a.cause {
                Some(c) => format!("\"{}\"", c.tag()),
                None => "null".into(),
            };
            let _ = writeln!(
                s,
                "        {{\"label\": \"{}\", \"kind\": \"{}\", \"detected\": {}, \"new_distinct\": {}, \"cause\": {}, \"skipped_checks\": {}, \"health\": {}}}{}",
                esc_json(&a.label),
                a.kind.label(),
                a.detected,
                a.new_distinct,
                cause,
                a.skipped_checks,
                health_json(&a.health),
                if i + 1 < sec.audits.len() { "," } else { "" },
            );
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(s, "    }}{}", if si + 1 < sections.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// The full fidelity report behind `effectiveness --fidelity-out`:
/// the already-run campaign audited under the paper default, plus the
/// aliasing probes swept across the narrow Bloom (expected miss →
/// `bloom_aliasing`) and exact lockset semantics (expected detection).
pub fn fidelity_report(campaign_results: &[InjectionResult], scale: Scale) -> String {
    let sections = vec![
        Section {
            name: "campaign".into(),
            detector: DetectorConfig::paper_default(),
            audits: audit_results(campaign_results),
        },
        Section {
            name: "aliasing_probes_narrow_bloom".into(),
            detector: narrow_bloom(),
            audits: audit_under(&aliasing_probes(scale), scale, narrow_bloom()),
        },
        Section {
            name: "aliasing_probes_exact_lockset".into(),
            detector: exact_lockset(),
            audits: audit_under(&aliasing_probes(scale), scale, exact_lockset()),
        },
    ];
    fidelity_json(scale, &sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_prefers_the_most_specific_evidence() {
        let mut h = DetectorHealth::default();
        assert_eq!(attribute(&h, 0), MissCause::Unknown);
        h.id_truncation_collisions = 1;
        assert_eq!(attribute(&h, 0), MissCause::IdTruncation);
        assert_eq!(attribute(&h, 3), MissCause::SkippedChecks);
        h.log_dropped = 1;
        assert_eq!(attribute(&h, 3), MissCause::LogSaturation);
        h.bloom_suppressed_conflicts = 1;
        assert_eq!(attribute(&h, 3), MissCause::BloomAliasing);
    }

    #[test]
    fn narrow_bloom_always_aliases_the_probe_offset() {
        // +16 bytes = +4 words; bin width 8/2 = 4 → same index mod 4.
        assert!(narrow_bloom().bloom.bin_width() <= 4);
        assert!(DetectorConfig::paper_default().bloom.bin_width() > 4);
    }

    #[test]
    fn fidelity_json_is_structurally_sound() {
        let sec = Section {
            name: "t".into(),
            detector: narrow_bloom(),
            audits: vec![Audit {
                label: "x\"y".into(),
                kind: InjKind::CriticalSection,
                detected: false,
                new_distinct: 0,
                cause: Some(MissCause::BloomAliasing),
                health: DetectorHealth { bloom_suppressed_conflicts: 2, ..Default::default() },
                skipped_checks: 0,
            }],
        };
        let j = fidelity_json(Scale::Tiny, &[sec]);
        assert!(j.contains("\"schema\": 1"), "{j}");
        assert!(j.contains("\"cause\": \"bloom_aliasing\""), "{j}");
        assert!(j.contains("\"bloom_suppressed_conflicts\": 2"), "{j}");
        assert!(j.contains("x\\\"y"), "quotes escaped: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }
}
