//! Plain-text / markdown table rendering and JSON experiment dumps.

use std::fmt::Write as _;

use serde::Serialize;

/// A rectangular results table.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], w: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = w[i] - c.chars().count();
                let _ = write!(s, "{}{}  ", c, " ".repeat(pad));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &w));
        out.push('\n');
        let total: usize = w.iter().sum::<usize>() + 2 * w.len();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r, &w));
            out.push('\n');
        }
        out
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }
}

/// Format a ratio like `1.27×`.
pub fn ratio(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}×")
    } else if x >= 10.0 {
        format!("{x:.1}×")
    } else {
        format!("{x:.2}×")
    }
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a byte count human-readably.
pub fn bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.1}MB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1}KB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n}B")
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Hand-rolled JSON array of race groups for `--races-out` (stable field
/// order; meaningful under the offline serde stubs).
pub fn race_groups_json(groups: &[haccrg::prelude::RaceGroup]) -> String {
    let mut out = String::from("[\n");
    for (i, g) in groups.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"category\": \"{}\", \"kind\": \"{}\", \"space\": \"{:?}\", \"prev_pc\": {}, \"pc\": {}, \"records\": {}, \"distinct_addrs\": {}, \"addr_lo\": {}, \"addr_hi\": {}, \"first_cycle\": {}, \"last_cycle\": {}}}{}",
            g.category,
            g.kind,
            g.space,
            g.prev_pc,
            g.pc,
            g.records,
            g.distinct_addrs,
            g.addr_lo,
            g.addr_hi,
            g.first.cycle,
            g.last.cycle,
            if i + 1 < groups.len() { "," } else { "" },
        );
    }
    out.push_str("]\n");
    out
}

/// Schema version of the [`races_json`] document.
pub const RACES_SCHEMA: u32 = 1;

/// The `--races-out` document: the grouped races plus the detector loss
/// counters a consumer needs before trusting "N races" at face value — a
/// nonzero `log_dropped` or `detector_skipped_checks` means the run may
/// have seen more conflicts than it recorded (see
/// [`haccrg::prelude::DetectorHealth`]).
pub fn races_json(
    groups: &[haccrg::prelude::RaceGroup],
    distinct: usize,
    dynamic: u64,
    log_dropped: u64,
    skipped_checks: u64,
) -> String {
    format!(
        "{{\n\
         \"schema\": {RACES_SCHEMA},\n\
         \"distinct\": {distinct},\n\
         \"dynamic\": {dynamic},\n\
         \"log_dropped\": {log_dropped},\n\
         \"detector_skipped_checks\": {skipped_checks},\n\
         \"groups\": {}}}\n",
        race_groups_json(groups)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn races_json_wraps_groups_with_loss_counters() {
        let j = races_json(&[], 0, 0, 3, 7);
        assert!(j.contains("\"schema\": 1"), "{j}");
        assert!(j.contains("\"log_dropped\": 3"), "{j}");
        assert!(j.contains("\"detector_skipped_checks\": 7"), "{j}");
        assert!(j.contains("\"groups\": ["), "{j}");
        let opens = j.matches('{').count();
        assert_eq!(opens, j.matches('}').count(), "{j}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.lines().count() >= 4);
        // Columns align: both value cells start at the same offset.
        let lines: Vec<&str> = s.lines().skip(3).collect();
        assert_eq!(lines[0].find('1'), lines[1].find('2'));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn markdown_has_separator() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ratio(1.273), "1.27×");
        assert_eq!(ratio(12.7), "12.7×");
        assert_eq!(ratio(273.0), "273×");
        assert_eq!(pct(0.271), "27.1%");
        assert_eq!(bytes(512), "512B");
        assert_eq!(bytes(4608), "4.5KB");
        assert_eq!(bytes(28 << 20), "28.0MB");
    }

    #[test]
    fn geomean_matches_hand_calculation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
