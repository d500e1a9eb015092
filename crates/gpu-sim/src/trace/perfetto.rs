//! Chrome/Perfetto `trace-event` JSON exporter.
//!
//! Events map to instant events (`ph: "i"`) on one track per hardware
//! unit: process `1 + sm` for each SM (warps as threads), process
//! `1000 + slice` for each memory slice, process 0 for kernel-scope
//! events. Cycles become microsecond timestamps 1:1, so Perfetto's
//! timeline reads directly in cycles. Load the file at
//! <https://ui.perfetto.dev> or `chrome://tracing`.

use std::io::{self, Write};

use haccrg::json::Value;
use haccrg::json_object;

use crate::trace::event::SimEvent;
use crate::trace::MetricsSample;

/// Write the Chrome `trace-event` JSON document for a recorded event
/// stream into `w`. `dropped` (from [`RingRecorder::dropped`]) is
/// recorded under `otherData` so truncated traces are never mistaken for
/// complete ones.
///
/// [`RingRecorder::dropped`]: crate::trace::RingRecorder::dropped
pub fn write_chrome_trace<W: Write>(
    w: W,
    events: &[(u64, SimEvent)],
    dropped: u64,
) -> io::Result<()> {
    write_document(w, instant_events(events), dropped)
}

/// Write the trace document with counter tracks (`ph: "C"`) folded in
/// from a cycle-sampled metrics series: instructions and fast-forward
/// activity per interval plus the interconnect-occupancy gauge, stamped
/// at each interval's end cycle on the kernel-scope track (pid 0).
/// Perfetto renders each as a step chart under the event timeline.
pub fn write_chrome_trace_with_counters<W: Write>(
    w: W,
    events: &[(u64, SimEvent)],
    dropped: u64,
    samples: &[MetricsSample],
) -> io::Result<()> {
    let rows = instant_events(events).chain(samples.iter().flat_map(counter_events));
    write_document(w, rows, dropped)
}

/// The instant-event (`ph: "i"`) rows for a recorded event stream.
fn instant_events(events: &[(u64, SimEvent)]) -> impl Iterator<Item = Value> + '_ {
    events.iter().map(|(cycle, ev)| {
        let (pid, tid) = ev.track();
        json_object!(name: ev.name(), ph: "i", s: "t", ts: *cycle, pid, tid, args: ev.args())
    })
}

/// The counter rows for one metrics sample.
fn counter_events(s: &MetricsSample) -> impl Iterator<Item = Value> {
    let idle: u64 = s.per_sm_idle_cycles.iter().sum();
    let h = &s.delta.health;
    let counters = [
        ("warp_instructions", s.delta.warp_instructions),
        ("cycles_skipped", s.cycles_skipped),
        ("skip_jumps", s.skip_jumps),
        ("sm_idle_cycles", idle),
        ("icnt_in_flight", s.icnt_in_flight),
        // Detector-fidelity health: loss channels and check outcomes
        // per interval, so saturation or aliasing bursts line up with
        // the instant-event timeline above them.
        ("det_bloom_insert_aliased", h.bloom_insert_aliased),
        ("det_bloom_suppressed_conflicts", h.bloom_suppressed_conflicts),
        ("det_bloom_null_intersections", h.bloom_null_intersections),
        ("det_id_truncation_collisions", h.id_truncation_collisions),
        ("det_shadow_pages_allocated", h.shadow_pages_allocated),
        ("det_log_dropped", h.log_dropped),
    ];
    let ts = s.end_cycle;
    counters.into_iter().map(move |(name, value)| {
        let args = Value::object([(name, value.into())]);
        json_object!(name, ph: "C", ts, pid: 0u32, tid: 0u32, args)
    })
}

/// Write `rows` as `traceEvents` inside the document envelope, one row at
/// a time, so a full event ring never becomes one JSON tree in memory.
fn write_document<W: Write>(
    mut w: W,
    rows: impl Iterator<Item = Value>,
    dropped: u64,
) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[")?;
    for (i, row) in rows.enumerate() {
        write!(w, "{}{row}", if i > 0 { "," } else { "" })?;
    }
    let other = json_object!(
        generator: "gpu-sim tracer",
        clock: "gpu-cycles (1 cycle = 1 us timestamp)",
        dropped_events: dropped,
    );
    write!(w, "],\"displayTimeUnit\":\"ns\",\"otherData\":{other}}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse what `write` emits.
    fn written(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Value {
        let mut out = Vec::new();
        write(&mut out).unwrap();
        haccrg::json::parse(std::str::from_utf8(&out).unwrap()).unwrap()
    }

    #[test]
    fn exports_instant_events_with_args() {
        let events = vec![
            (0, SimEvent::KernelLaunch { launch: 0, grid: 2, block_dim: 32 }),
            (5, SimEvent::WarpIssue { sm: 1, gwarp: 3, pc: 7 }),
        ];
        let doc = written(|w| write_chrome_trace(w, &events, 0));
        let tes = doc["traceEvents"].as_array().unwrap();
        assert_eq!(tes.len(), 2);
        assert_eq!(tes[0]["name"], "KernelLaunch");
        assert_eq!(tes[0]["ph"], "i");
        assert_eq!(tes[0]["ts"], 0);
        assert_eq!(tes[1]["pid"], 2);
        assert_eq!(tes[1]["tid"], 4);
        assert_eq!(tes[1]["args"]["pc"], 7);
        assert!(tes[1]["args"].get("type").is_none(), "tag folded into name");
        assert_eq!(doc["otherData"]["dropped_events"], 0);
    }

    #[test]
    fn counter_tracks_follow_the_sample_series() {
        use crate::stats::SimStats;
        let mk = |end_cycle: u64, skipped: u64, jumps: u64| MetricsSample {
            launch: 0,
            start_cycle: 0,
            end_cycle,
            delta: SimStats { warp_instructions: 7, ..Default::default() },
            per_sm_l1: vec![],
            per_slice_l2: vec![],
            per_slice_dram: vec![],
            icnt_in_flight: 2,
            cycles_skipped: skipped,
            skip_jumps: jumps,
            per_sm_idle_cycles: vec![3, 4],
        };
        let samples = [mk(100, 40, 1), mk(200, 0, 0)];
        let doc = written(|w| write_chrome_trace_with_counters(w, &[], 0, &samples));
        let tes = doc["traceEvents"].as_array().unwrap();
        // 11 counters per sample (5 engine + 6 detector health), no
        // instant events.
        assert_eq!(tes.len(), 22);
        assert!(tes.iter().all(|e| e["ph"] == "C" && e["pid"] == 0));
        let skipped: Vec<&Value> =
            tes.iter().filter(|e| e["name"] == "cycles_skipped").collect();
        assert_eq!(skipped.len(), 2);
        assert_eq!(skipped[0]["ts"], 100);
        assert_eq!(skipped[0]["args"]["cycles_skipped"], 40);
        assert_eq!(skipped[1]["args"]["cycles_skipped"], 0);
        let idle: Vec<&Value> =
            tes.iter().filter(|e| e["name"] == "sm_idle_cycles").collect();
        assert_eq!(idle[0]["args"]["sm_idle_cycles"], 7);
        assert!(tes.iter().any(|e| e["name"] == "warp_instructions"
            && e["args"]["warp_instructions"] == 7));
        assert!(tes.iter().any(|e| e["name"] == "det_log_dropped"
            && e["args"]["det_log_dropped"] == 0));
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let events = vec![(9, SimEvent::FenceComplete { sm: 0, gwarp: 1 })];
        let v = written(|w| write_chrome_trace(w, &events, 4));
        assert_eq!(v["traceEvents"][0]["name"], "FenceComplete");
        assert_eq!(v["otherData"]["dropped_events"], 4);
    }
}
