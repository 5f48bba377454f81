//! Experiment reporting: aligned text tables, JSON dumps, the log-log
//! exponent fits used to check the paper's asymptotic claims, and the
//! machine-readable `BENCH_engine.json` perf-trajectory file.

use fmdb_middleware::stats::AccessStats;

/// One formatted table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch — experiment code bug.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A full experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id ("E1", …).
    pub id: String,
    /// Headline description.
    pub title: String,
    /// The paper claim being reproduced.
    pub claim: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Findings / caveats, printed after the tables.
    pub notes: Vec<String>,
    /// Named numeric results the perf trajectory tracks: folded into
    /// the experiment's `BENCH_engine.json` entry by `e00_run_all`.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, claim: &str) -> Report {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            claim: claim.to_owned(),
            tables: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds a table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Records a named numeric result for the machine-readable
    /// trajectory (`BENCH_engine.json`).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Renders the whole report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# {} — {}\n\nPaper claim: {}\n\n",
            self.id, self.title, self.claim
        );
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("* {n}\n"));
        }
        out
    }

    /// Serializes the report as one JSON object (hand-rolled — the
    /// report shape is strings all the way down, so a serializer
    /// dependency is not warranted).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_field(&mut out, "id", &self.id);
        out.push(',');
        json_field(&mut out, "title", &self.title);
        out.push(',');
        json_field(&mut out, "claim", &self.claim);
        out.push_str(",\"tables\":[");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_field(&mut out, "title", &t.title);
            out.push_str(",\"headers\":");
            json_string_array(&mut out, &t.headers);
            out.push_str(",\"rows\":[");
            for (j, row) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string_array(&mut out, row);
            }
            out.push_str("]}");
        }
        out.push_str("],\"notes\":");
        json_string_array(&mut out, &self.notes);
        out.push_str(",\"metrics\":");
        json_metrics(&mut out, &self.metrics);
        out.push('}');
        out
    }

    /// Prints to stdout (and a JSON line to stderr when
    /// `FMDB_JSON=1`, for tooling).
    pub fn print(&self) {
        println!("{}", self.render());
        if std::env::var_os("FMDB_JSON").is_some() {
            eprintln!("{}", self.to_json());
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn json_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(&json_escape(value));
    out.push('"');
}

/// Emits a `{name: number}` object. Non-finite values serialize to
/// bare `NaN`/`inf` tokens — invalid JSON by design, so the
/// `check-bench` gate fails loudly instead of shipping a poisoned
/// trajectory.
fn json_metrics(out: &mut String, metrics: &[(String, f64)]) {
    out.push('{');
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(name));
        out.push_str("\":");
        out.push_str(&format!("{value:.6}"));
    }
    out.push('}');
}

fn json_string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(item));
        out.push('"');
    }
    out.push(']');
}

/// One experiment's measured cost for the machine-readable perf
/// trajectory (`BENCH_engine.json`, written by `e00_run_all`).
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Experiment id ("E1", …).
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// Wall-clock time of the whole experiment, milliseconds.
    pub wall_ms: f64,
    /// Accesses the experiment drove through the shared engine
    /// (difference of `Engine::access_totals` snapshots; experiments
    /// running private engines contribute zeros here but still report
    /// wall-clock).
    pub stats: AccessStats,
    /// The experiment's named numeric results ([`Report::metric`]) —
    /// e.g. E22's empirical optimality ratios.
    pub metrics: Vec<(String, f64)>,
}

/// Serializes the suite's per-experiment wall-clock and access counts
/// as one JSON object — the `BENCH_engine.json` payload tracked across
/// PRs. `quick` records whether the suite ran in quick mode, so
/// trajectories only compare like with like.
pub fn bench_engine_json(entries: &[BenchEntry], quick: bool) -> String {
    let mut out = String::from("{\"schema\":\"fmdb-bench-engine/v1\",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    out.push_str(",\"experiments\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        json_field(&mut out, "id", &e.id);
        out.push(',');
        json_field(&mut out, "title", &e.title);
        out.push_str(&format!(
            ",\"wall_ms\":{:.3},\"sorted\":{},\"random\":{},\"worker_spawns\":{},\"page_reads\":{},\"page_hits\":{},\"page_evictions\":{},\"pages_skipped\":{},\"blocks_skipped\":{}",
            e.wall_ms,
            e.stats.sorted,
            e.stats.random,
            e.stats.worker_spawns,
            e.stats.page_reads,
            e.stats.page_hits,
            e.stats.page_evictions,
            e.stats.pages_skipped,
            e.stats.blocks_skipped,
        ));
        out.push_str(",\"metrics\":");
        json_metrics(&mut out, &e.metrics);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Fits `y = c·x^e` by least squares on (ln x, ln y); returns the
/// exponent `e`. Pairs with non-positive coordinates are skipped.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    if logs.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return f64::NAN;
    }
    (n * sxy - sx * sy) / denom
}

/// Formats a float with 3 significant-ish decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an integer-valued quantity.
pub fn int(v: u64) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "cost"]);
        t.row(vec!["10".into(), "4".into()]);
        t.row(vec!["10000".into(), "400".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| 10000 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn exponent_fit_recovers_powers() {
        let sqrt_points: Vec<(f64, f64)> = (1..=20)
            .map(|i| (i as f64, (i as f64).sqrt() * 3.0))
            .collect();
        assert!((fit_exponent(&sqrt_points) - 0.5).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (1..=20).map(|i| (i as f64, i as f64 * 7.0)).collect();
        assert!((fit_exponent(&linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponent_fit_edge_cases() {
        assert!(fit_exponent(&[]).is_nan());
        assert!(fit_exponent(&[(1.0, 1.0)]).is_nan());
        assert!(fit_exponent(&[(0.0, 5.0), (-1.0, 2.0)]).is_nan());
    }

    #[test]
    fn report_serializes_to_json() {
        let mut r = Report::new("E0", "demo \"quoted\"", "claim\nwith newline");
        let mut t = Table::new("t", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        r.table(t);
        r.note("note");
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""id":"E0""#));
        assert!(j.contains(r#"demo \"quoted\""#));
        assert!(j.contains(r#"claim\nwith newline"#));
        assert!(j.contains(r#""rows":[["1","2"]]"#));
        assert!(j.contains(r#""notes":["note"]"#));
    }

    #[test]
    fn bench_engine_json_is_well_formed() {
        let entries = vec![
            BenchEntry {
                id: "E1".into(),
                title: "FA \"scaling\"".into(),
                wall_ms: 12.5,
                stats: AccessStats {
                    sorted: 100,
                    random: 40,
                    worker_spawns: 8,
                    page_reads: 12,
                    page_hits: 5,
                    page_evictions: 2,
                    pages_skipped: 6,
                    blocks_skipped: 9,
                },
                metrics: vec![("opt_ratio_ta".to_owned(), 1.25)],
            },
            BenchEntry {
                id: "E21".into(),
                title: "sharding".into(),
                wall_ms: 0.0,
                stats: AccessStats::ZERO,
                metrics: Vec::new(),
            },
        ];
        let j = bench_engine_json(&entries, true);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"schema\":\"fmdb-bench-engine/v1\""));
        assert!(j.contains("\"quick\":true"));
        assert!(j.contains("\"id\":\"E1\""));
        assert!(j.contains(r#"FA \"scaling\""#));
        assert!(j.contains("\"wall_ms\":12.500"));
        assert!(j.contains("\"worker_spawns\":8"));
        assert!(j.contains("\"page_reads\":12"));
        assert!(j.contains("\"page_hits\":5"));
        assert!(j.contains("\"page_evictions\":2"));
        assert!(j.contains("\"pages_skipped\":6"));
        assert!(j.contains("\"blocks_skipped\":9"));
        assert!(j.contains("\"metrics\":{\"opt_ratio_ta\":1.250000}"));
        assert!(j.contains("\"metrics\":{}"));
        assert!(j.contains("\"id\":\"E21\""));
        let empty = bench_engine_json(&[], false);
        assert!(empty.contains("\"quick\":false"));
        assert!(empty.contains("\"experiments\":[]"));
    }

    #[test]
    fn report_renders_sections() {
        let mut r = Report::new("E0", "demo", "claim text");
        r.table(Table::new("t", &["x"]));
        r.note("a note");
        let s = r.render();
        assert!(s.contains("# E0"));
        assert!(s.contains("claim text"));
        assert!(s.contains("* a note"));
    }
}
