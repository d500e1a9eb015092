//! # haccrg-trace — standalone trace-based race detection
//!
//! Runs the HAccRG detector over a recorded GPU memory trace without the
//! cycle-level simulator: the workflow a profiler-based deployment of the
//! paper's algorithm would use.
//!
//! A trace is a JSON-lines file: the first line is the
//! [`haccrg::replay::TraceGeometry`], each following line one
//! [`haccrg::replay::TraceEvent`] in program order:
//!
//! ```text
//! {"num_sms":4,"shared_bytes_per_sm":16384,"shared_banks":16,"blocks":2,"warps":4,"global_base":4096,"global_len":65536}
//! {"Access":{"space":"Global","access":{"addr":4096,"size":4,"kind":"Write","who":{"tid":0,"warp":0,"block":0,"sm":0},"pc":1,"sync_id":0,"fence_id":0,"atomic_sig":0,"in_critical_section":false,"l1_hit":false,"l1_fill_cycle":0,"cycle":0}}}
//! {"Fence":{"warp":0}}
//! {"Access":{"space":"Global","access":{"addr":4096,"size":4,"kind":"Read","who":{"tid":64,"warp":2,"block":1,"sm":1},"pc":9,"sync_id":0,"fence_id":0,"atomic_sig":0,"in_critical_section":false,"l1_hit":false,"l1_fill_cycle":0,"cycle":5}}}
//! ```
//!
//! Sync/fence clock fields inside access records are ignored — the
//! replayer stamps them from the `Barrier`/`Fence` events, so traces only
//! need raw accesses plus synchronization markers. Every field shown is
//! required except an access's optional `locks`, the exact lockset
//! `{"entries":[a,b,c,d],"len":n,"saturated":false}` that
//! [`haccrg::replay::TraceEvent::to_json`] writes in full.
//!
//! The reader never truncates: a line with an unknown variant, a missing
//! field, a number a field cannot hold (negative, fractional or too
//! wide), or an id outside the header's geometry (a block or warp, or
//! the SM of a shared access or a barrier) is skipped and counted, like
//! a line that is not JSON at all. A malformed header is an error.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::BufRead;

use haccrg::config::DetectorConfig;
use haccrg::json;
use haccrg::replay::{Replayer, TraceEvent, TraceGeometry};

/// Outcome of analysing one trace.
pub struct Analysis {
    /// The replayer, holding the race log.
    pub replayer: Replayer,
    /// Events consumed.
    pub events: u64,
    /// Malformed or out-of-geometry lines skipped.
    pub skipped: u64,
}

/// Parse and replay a JSON-lines trace from a reader. Malformed event
/// lines, and events outside the header's geometry, are counted in
/// [`Analysis::skipped`]; a malformed header is an `Err`.
pub fn analyze(
    input: impl BufRead,
    cfg: &DetectorConfig,
) -> Result<Analysis, String> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or("empty trace: expected a TraceGeometry header line")?
        .map_err(|e| format!("read error: {e}"))?;
    let geo = json::parse(&header)
        .and_then(|v| TraceGeometry::from_json(&v))
        .map_err(|e| format!("bad geometry header: {e}"))?;

    let mut replayer =
        Replayer::new(cfg, &geo).map_err(|e| format!("bad geometry header: {e}"))?;
    let mut skipped = 0u64;
    for (no, line) in lines.enumerate() {
        let line = line.map_err(|e| format!("read error at line {}: {e}", no + 2))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = json::parse(&line).and_then(|v| TraceEvent::from_json(&v));
        if ev.and_then(|ev| replayer.feed(&ev)).is_err() {
            skipped += 1;
        }
    }
    let events = replayer.events();
    Ok(Analysis { replayer, events, skipped })
}

/// Render a human-readable report.
///
/// Equivalent to [`report_with`] with `quiet = false`.
pub fn report(a: &Analysis) -> String {
    report_with(a, false)
}

/// Render a human-readable report.
///
/// When `quiet` is set the per-record listing is suppressed and only the
/// counters plus the grouped summary are printed — the shape a CI log or
/// a sweep over many traces wants. Grouping collapses the (potentially
/// thousands of) dynamic records onto static racing instruction pairs
/// via [`haccrg::prelude::group_races`], so the quiet report still names
/// every distinct bug.
pub fn report_with(a: &Analysis, quiet: bool) -> String {
    use std::fmt::Write as _;
    let log = a.replayer.races();
    let mut out = String::new();
    let _ = writeln!(out, "events   : {}", a.events);
    if a.skipped > 0 {
        let _ = writeln!(out, "skipped  : {} malformed lines", a.skipped);
    }
    let _ = writeln!(out, "races    : {} distinct ({} dynamic)", log.distinct(), log.total());
    if !quiet {
        for r in log.records() {
            let _ = writeln!(out, "  {r}");
        }
    }
    let groups = log.groups();
    if !groups.is_empty() {
        let _ = writeln!(out, "groups   : {} static racing pair(s)", groups.len());
        for g in &groups {
            let _ = writeln!(out, "  {g}");
        }
    }
    out
}

/// Most records rendered per race group by [`explain_report`]. Groups can
/// fold thousands of dynamic records; a handful of timelines per static
/// pair is what a developer actually reads.
pub const EXPLAIN_RECORD_CAP: usize = 3;

/// Render the forensic "why did this race fire" report: every static
/// race group, its first few dynamic records, and each record's witness
/// timeline — the last accesses to the racy chunk with the Fig. 3 shadow
/// state transition every one of them caused.
///
/// Timelines exist only when detection ran with
/// [`DetectorConfig::witness_capture`] on (the `explain` subcommand
/// forces it); otherwise each record notes the capture was off.
pub fn explain_report(a: &Analysis) -> String {
    use std::fmt::Write as _;
    let log = a.replayer.races();
    let mut out = String::new();
    let _ = writeln!(out, "events   : {}", a.events);
    if a.skipped > 0 {
        let _ = writeln!(out, "skipped  : {} malformed lines", a.skipped);
    }
    let _ = writeln!(out, "races    : {} distinct ({} dynamic)", log.distinct(), log.total());
    let groups = log.groups();
    if groups.is_empty() {
        let _ = writeln!(out, "nothing to explain: the trace is race-free");
        return out;
    }
    let records = log.records();
    for g in &groups {
        let _ = writeln!(out, "\n{g}");
        let members: Vec<usize> = (0..records.len())
            .filter(|&i| {
                let r = &records[i];
                r.kind == g.kind
                    && r.category == g.category
                    && r.space == g.space
                    && r.prev_pc == g.prev_pc
                    && r.pc == g.pc
            })
            .collect();
        for &i in members.iter().take(EXPLAIN_RECORD_CAP) {
            let r = &records[i];
            let _ = writeln!(out, "  record: {r}");
            let witness = log.witness_of(i);
            if witness.is_empty() {
                let _ = writeln!(
                    out,
                    "    (no witness timeline: detection ran without witness capture)"
                );
                continue;
            }
            for w in witness {
                let _ = writeln!(
                    out,
                    "    cycle {:>6}  sm {:2} blk {:3} warp {:3} tid {:5}  pc {:#06x}  {:<6} {:#x}  {} -> {}",
                    w.cycle,
                    w.who.sm,
                    w.who.block,
                    w.who.warp,
                    w.who.tid,
                    w.pc,
                    format!("{:?}", w.kind),
                    w.addr,
                    w.state_before,
                    w.state_after,
                );
            }
            // The Fig. 3 transition chain the timeline walked, deduped
            // to the state changes (self-loops like repeated reads in
            // read-shared collapse away).
            let mut chain = vec![witness[0].state_before];
            for w in witness {
                if *chain.last().expect("seeded") != w.state_before {
                    chain.push(w.state_before);
                }
                if *chain.last().expect("seeded") != w.state_after {
                    chain.push(w.state_after);
                }
            }
            let rendered: Vec<String> = chain.iter().map(|s| s.to_string()).collect();
            let _ = writeln!(out, "    fig3: {}", rendered.join(" -> "));
        }
        if members.len() > EXPLAIN_RECORD_CAP {
            let _ = writeln!(
                out,
                "  ... {} more record(s) in this group",
                members.len() - EXPLAIN_RECORD_CAP
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const GEO: &str = r#"{"num_sms":4,"shared_bytes_per_sm":16384,"shared_banks":16,"blocks":2,"warps":4,"global_base":4096,"global_len":65536}"#;

    fn access(kind: &str, tid: u32, warp: u32, block: u32, sm: u32, pc: u32) -> String {
        format!(
            r#"{{"Access":{{"space":"Global","access":{{"addr":4096,"size":4,"kind":"{kind}","who":{{"tid":{tid},"warp":{warp},"block":{block},"sm":{sm}}},"pc":{pc},"sync_id":0,"fence_id":0,"atomic_sig":0,"in_critical_section":false,"l1_hit":false,"l1_fill_cycle":0,"cycle":0}}}}}}"#
        )
    }

    #[test]
    fn detects_a_cross_block_raw_in_a_trace() {
        let trace = format!(
            "{GEO}\n{}\n{}\n",
            access("Write", 0, 0, 0, 0, 1),
            access("Read", 64, 2, 1, 1, 9),
        );
        let a = analyze(Cursor::new(trace), &DetectorConfig::paper_default()).unwrap();
        assert_eq!(a.events, 2);
        assert_eq!(a.replayer.races().distinct(), 1);
        let rep = report(&a);
        assert!(rep.contains("RAW"), "{rep}");
        assert!(rep.contains("groups   : 1 static racing pair(s)"), "{rep}");
    }

    #[test]
    fn quiet_report_keeps_the_grouped_summary_only() {
        let trace = format!(
            "{GEO}\n{}\n{}\n{}\n",
            access("Write", 0, 0, 0, 0, 1),
            access("Read", 64, 2, 1, 1, 9),
            access("Read", 65, 2, 1, 1, 9),
        );
        let a = analyze(Cursor::new(trace), &DetectorConfig::paper_default()).unwrap();
        let full = report_with(&a, false);
        let quiet = report_with(&a, true);
        // Quiet drops the per-record listing but keeps counts + groups.
        assert!(quiet.len() < full.len(), "quiet:\n{quiet}\nfull:\n{full}");
        assert!(quiet.contains("races    :"), "{quiet}");
        assert!(quiet.contains("groups   :"), "{quiet}");
        assert!(full.contains(" race @ "), "{full}");
        assert!(!quiet.contains(" race @ "), "{quiet}");
        assert!(quiet.contains(" race group @ "), "{quiet}");
    }

    #[test]
    fn race_free_trace_reports_no_group_section() {
        let trace = format!("{GEO}\n{}\n", access("Write", 0, 0, 0, 0, 1));
        let a = analyze(Cursor::new(trace), &DetectorConfig::paper_default()).unwrap();
        let rep = report_with(&a, true);
        assert!(!rep.contains("groups"), "{rep}");
    }

    #[test]
    fn fence_events_suppress_the_race() {
        let trace = format!(
            "{GEO}\n{}\n{}\n{}\n",
            access("Write", 0, 0, 0, 0, 1),
            r#"{"Fence":{"warp":0}}"#,
            access("Read", 64, 2, 1, 1, 9),
        );
        let a = analyze(Cursor::new(trace), &DetectorConfig::paper_default()).unwrap();
        assert_eq!(a.replayer.races().distinct(), 0);
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let good = access("Write", 0, 0, 0, 0, 1);
        let edit = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1)
        };
        let bad = [
            "not json".to_string(),
            edit(r#""addr":4096"#, r#""addr":4294967296"#),
            edit(r#""tid":0"#, r#""tid":-1"#),
            edit(r#""size":4"#, r#""size":4.5"#),
            r#"{"Flush":{}}"#.to_string(),
            edit(r#""who":{"tid":0,"warp":0,"block":0,"sm":0},"#, ""),
            good[..good.len() - 3].to_string(),
            edit(r#""kind":"Write""#, r#""kind":"Wr\u00zzte""#),
            // Ids outside the header's geometry (2 blocks, 4 warps, 4 SMs).
            edit(r#""block":0"#, r#""block":5"#),
            r#"{"Fence":{"warp":9}}"#.to_string(),
            r#"{"Barrier":{"block":7,"sm":0,"shared_lo":0,"shared_hi":64}}"#.to_string(),
            edit(r#""space":"Global""#, r#""space":"Shared""#).replacen(r#""sm":0"#, r#""sm":9"#, 1),
        ];
        for line in &bad {
            let trace = format!("{GEO}\n{line}\n{good}\n");
            let a = analyze(Cursor::new(trace), &DetectorConfig::paper_default()).unwrap();
            assert_eq!(a.skipped, 1, "{line}");
            assert_eq!(a.events, 1, "{line}");
        }
        let header = GEO.replacen(r#""warps":4,"#, "", 1);
        assert_ne!(header, GEO);
        let trace = format!("{header}\n{good}\n");
        assert!(analyze(Cursor::new(trace), &DetectorConfig::paper_default()).is_err());
    }

    /// The Fig. 1 trace of `examples/trace_pipeline.rs`: every thread
    /// writes `out[tid]`, then (after a barrier, if asked) the last
    /// thread reads the whole array.
    fn fig1(with_barrier: bool) -> (TraceGeometry, Vec<TraceEvent>) {
        use haccrg::prelude::{AccessKind, MemAccess, MemSpace, ThreadCoord};
        const OUT: u32 = 0x1000;
        const THREADS: u32 = 64;
        let geo = TraceGeometry {
            num_sms: 1,
            shared_bytes_per_sm: 16 * 1024,
            shared_banks: 16,
            blocks: 1,
            warps: THREADS / 32,
            global_base: OUT,
            global_len: THREADS * 4,
        };
        let access = |tid, addr, kind, pc| {
            let who = ThreadCoord::from_flat(tid, THREADS, 32, 1);
            let access = MemAccess::plain(addr, 4, kind, who).at_pc(pc);
            TraceEvent::Access { space: MemSpace::Global, access }
        };
        let writes = (0..THREADS).map(|tid| access(tid, OUT + tid * 4, AccessKind::Write, 6));
        let mut t: Vec<_> = writes.collect();
        if with_barrier {
            t.push(TraceEvent::Barrier { block: 0, sm: 0, shared_lo: 0, shared_hi: 0 });
        }
        t.extend((0..THREADS).map(|i| access(THREADS - 1, OUT + i * 4, AccessKind::Read, 9)));
        (geo, t)
    }

    #[test]
    fn written_traces_replay_to_the_same_race_groups() {
        let cfg = DetectorConfig::paper_default();
        for with_barrier in [false, true] {
            let (geo, events) = fig1(with_barrier);
            let mut trace = format!("{}\n", geo.to_json());
            for e in &events {
                trace += &format!("{}\n", e.to_json());
            }
            let a = analyze(Cursor::new(trace), &cfg).unwrap();
            let mut direct = Replayer::new(&cfg, &geo).unwrap();
            direct.replay(events.iter()).unwrap();
            assert_eq!((a.events, a.skipped), (events.len() as u64, 0));
            assert_eq!(a.replayer.races().distinct(), direct.races().distinct());
            assert_eq!(a.replayer.races().groups(), direct.races().groups());
            let races = direct.races().distinct() > 0;
            assert_eq!(races, !with_barrier, "only the missing barrier races");
        }
    }

    /// A header whose tracked region fits 32 bits while its shadow words
    /// do not: refused as a bad header (exit status 2) before any event
    /// replays.
    #[test]
    fn a_header_whose_shadow_overflows_the_address_space_is_an_error() {
        let header = r#"{"num_sms":1,"shared_bytes_per_sm":16384,"shared_banks":16,"blocks":1,"warps":1,"global_base":2147483648,"global_len":2147483647}"#;
        let write = r#"{"Access":{"space":"Global","access":{"addr":2147483652,"size":4,"kind":"Write","who":{"tid":0,"warp":0,"block":0,"sm":0},"pc":1,"sync_id":0,"fence_id":0,"atomic_sig":0,"in_critical_section":false,"l1_hit":false,"l1_fill_cycle":0,"cycle":0}}}"#;
        let trace = format!("{header}\n{write}\n");
        let Err(e) = analyze(Cursor::new(trace), &DetectorConfig::paper_default()) else {
            panic!("an overflowing shadow layout was replayed");
        };
        assert!(e.starts_with("bad geometry header: "), "{e}");
        assert!(e.contains("overflow the 32-bit address space"), "{e}");
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(analyze(Cursor::new(""), &DetectorConfig::paper_default()).is_err());
        assert!(analyze(Cursor::new("{}"), &DetectorConfig::paper_default()).is_err());
    }

    /// Build an analysis without JSON parsing: feed [`TraceEvent`]s
    /// straight into a [`Replayer`] with witness capture toggled by the
    /// caller.
    fn replayed_raw(witness_capture: bool) -> Analysis {
        use haccrg::prelude::{AccessKind, MemAccess, MemSpace, ThreadCoord};
        let geo = TraceGeometry {
            num_sms: 4,
            shared_bytes_per_sm: 16384,
            shared_banks: 16,
            blocks: 2,
            warps: 4,
            global_base: 4096,
            global_len: 65536,
        };
        let mut cfg = DetectorConfig::paper_default();
        cfg.witness_capture = witness_capture;
        let mut replayer = Replayer::new(&cfg, &geo).unwrap();
        let acc = |kind, tid, warp, block, sm| TraceEvent::Access {
            space: MemSpace::Global,
            access: MemAccess::plain(4096, 4, kind, ThreadCoord::new(tid, warp, block, sm)),
        };
        replayer.feed(&acc(AccessKind::Write, 0, 0, 0, 0)).unwrap();
        replayer.feed(&acc(AccessKind::Read, 64, 2, 1, 1)).unwrap();
        let events = replayer.events();
        Analysis { replayer, events, skipped: 0 }
    }

    #[test]
    fn explain_renders_witness_timelines_and_the_fig3_chain() {
        let a = replayed_raw(true);
        assert_eq!(a.replayer.races().distinct(), 1, "the RAW fires");
        let rep = explain_report(&a);
        assert!(rep.contains("race group @"), "{rep}");
        assert!(rep.contains("record:"), "{rep}");
        assert!(rep.contains("cycle"), "{rep}");
        // Both conflicting accesses appear in the timeline with their
        // Fig. 3 transitions, and the deduped chain summarizes them.
        assert!(rep.contains("Write"), "{rep}");
        assert!(rep.contains("Read"), "{rep}");
        assert!(rep.contains("fresh -> written"), "{rep}");
        assert!(rep.contains("fig3: fresh -> written"), "{rep}");
        assert!(!rep.contains("no witness timeline"), "{rep}");
    }

    #[test]
    fn explain_without_capture_says_so_instead_of_inventing_a_timeline() {
        let a = replayed_raw(false);
        assert_eq!(a.replayer.races().distinct(), 1);
        let rep = explain_report(&a);
        assert!(rep.contains("no witness timeline"), "{rep}");
        assert!(!rep.contains("fig3:"), "{rep}");
    }

    #[test]
    fn explain_on_a_clean_trace_has_nothing_to_explain() {
        use haccrg::prelude::{AccessKind, MemAccess, MemSpace, ThreadCoord};
        let geo = TraceGeometry {
            num_sms: 4,
            shared_bytes_per_sm: 16384,
            shared_banks: 16,
            blocks: 2,
            warps: 4,
            global_base: 4096,
            global_len: 65536,
        };
        let mut cfg = DetectorConfig::paper_default();
        cfg.witness_capture = true;
        let mut replayer = Replayer::new(&cfg, &geo).unwrap();
        replayer
            .feed(&TraceEvent::Access {
                space: MemSpace::Global,
                access: MemAccess::plain(4096, 4, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0)),
            })
            .unwrap();
        let events = replayer.events();
        let a = Analysis { replayer, events, skipped: 0 };
        let rep = explain_report(&a);
        assert!(rep.contains("nothing to explain"), "{rep}");
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let trace = format!("{GEO}\n\n\n{}\n\n", access("Write", 0, 0, 0, 0, 1));
        let a = analyze(Cursor::new(trace), &DetectorConfig::paper_default()).unwrap();
        assert_eq!(a.events, 1);
        assert_eq!(a.skipped, 0);
    }
}
