//! Experiment reporting: aligned text tables, the log-log exponent
//! fits used to check the paper's asymptotic claims, metrics with the
//! bounds that gate them, and the machine-readable `BENCH_engine.json`
//! perf-trajectory file.

use std::fmt;

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
    pub metrics: Vec<Metric>,
    /// Turning-corpus rows the experiment's shape streams graded
    /// exactly: a count column beside the engine's access columns.
    pub shape_rows_graded: u64,
}

/// One named numeric result of an experiment.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, unique within its report.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// What the value must satisfy, for a gated metric.
    pub gate: Option<Gate>,
}

/// The bound a gated metric is held to, and where to look when it
/// fails.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// What the value must satisfy.
    pub bound: Bound,
    /// What a violation means and which code to read first.
    pub look_here_first: &'static str,
}

/// What a gated metric must satisfy, beyond being finite (which every
/// metric must be).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `v ≥ lo`.
    AtLeast(f64),
    /// `0 < v ≤ hi`: a cost, or a ratio of costs, with a ceiling.
    PositiveAtMost(f64),
    /// `lo ≤ v ≤ hi`.
    Within(f64, f64),
    /// `v > 0`: a cost, or a ratio of costs — zero means its timer or
    /// counter broke.
    Positive,
}

impl Bound {
    /// Whether `v` satisfies the bound (never, for a NaN).
    pub fn admits(self, v: f64) -> bool {
        match self {
            Bound::AtLeast(lo) => v >= lo,
            Bound::PositiveAtMost(hi) => v > 0.0 && v <= hi,
            Bound::Within(lo, hi) => v >= lo && v <= hi,
            Bound::Positive => v > 0.0,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(lo) => write!(f, "≥ {lo}"),
            Bound::PositiveAtMost(hi) => write!(f, "in (0, {hi}]"),
            Bound::Within(lo, hi) => write!(f, "in [{lo}, {hi}]"),
            Bound::Positive => write!(f, "> 0"),
        }
    }
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
            shape_rows_graded: 0,
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
        self.push(name.into(), value, None)
    }

    /// Records a metric as [`Report::metric`] does, and the bound a run
    /// fails on ([`Report::violations`]) when the value is outside it.
    pub fn gated(
        &mut self,
        name: impl Into<String>,
        value: f64,
        bound: Bound,
        look_here_first: &'static str,
    ) -> &mut Self {
        let gate = Gate {
            bound,
            look_here_first,
        };
        self.push(name.into(), value, Some(gate))
    }

    fn push(&mut self, name: String, value: f64, gate: Option<Gate>) -> &mut Self {
        self.metrics.push(Metric { name, value, gate });
        self
    }

    /// What fails this run, one line each: every metric that is not
    /// finite, and every gated metric outside its bound.
    pub fn violations(&self) -> Vec<String> {
        let id = &self.id;
        self.metrics
            .iter()
            .filter_map(|Metric { name, value, gate }| {
                if !value.is_finite() {
                    return Some(format!("{id}: `{name}` = {value} is not finite"));
                }
                let gate = gate.filter(|gate| !gate.bound.admits(*value))?;
                Some(format!(
                    "{id}: `{name}` = {value} is not {} — {}",
                    gate.bound, gate.look_here_first
                ))
            })
            .collect()
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

/// Emits a `{name: number}` object; the values are finite (a report
/// with [`Report::violations`] is never written).
fn json_metrics<'a>(out: &mut String, metrics: impl IntoIterator<Item = &'a Metric>) {
    out.push('{');
    for (i, Metric { name, value, .. }) in metrics.into_iter().enumerate() {
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

/// One experiment's measured cost for the machine-readable perf
/// trajectory (`BENCH_engine.json`, written by `e00_run_all`).
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// The experiment's report: id, title and named numeric results
    /// ([`Report::metric`]) — e.g. E22's empirical optimality ratios.
    pub report: Report,
    /// Wall-clock time of the whole experiment, milliseconds.
    pub wall_ms: f64,
    /// Accesses the experiment drove through the shared engine
    /// (difference of `Engine::access_totals` snapshots; experiments
    /// running private engines contribute zeros here but still report
    /// wall-clock).
    pub stats: AccessStats,
}

/// An experiment's count columns, as both artifacts name them: what it
/// drove through the shared engine, and the shape rows it graded.
fn count_columns(entry: &BenchEntry) -> [(&'static str, u64); 9] {
    let stats = &entry.stats;
    [
        ("sorted", stats.sorted),
        ("random", stats.random),
        ("worker_spawns", stats.worker_spawns),
        ("page_reads", stats.page_reads),
        ("page_hits", stats.page_hits),
        ("page_evictions", stats.page_evictions),
        ("pages_skipped", stats.pages_skipped),
        ("blocks_skipped", stats.blocks_skipped),
        ("shape_rows_graded", entry.report.shape_rows_graded),
    ]
}

/// Emits `,"column":count` for each of [`count_columns`].
fn json_counts(out: &mut String, entry: &BenchEntry) {
    for (name, count) in count_columns(entry) {
        out.push_str(&format!(",\"{name}\":{count}"));
    }
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
        json_field(&mut out, "id", &e.report.id);
        out.push(',');
        json_field(&mut out, "title", &e.report.title);
        out.push_str(&format!(",\"wall_ms\":{:.3}", e.wall_ms));
        json_counts(&mut out, e);
        out.push_str(",\"metrics\":");
        json_metrics(&mut out, &e.report.metrics);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One line of `BENCH_history.jsonl`, the suite's memory across
/// commits (`e00_run_all` appends one per whole-suite run): the commit
/// the run was built from, its mode, and per experiment the access
/// count columns of the `BENCH_engine.json` the same entries make and the
/// gated metrics — no wall-clock total, no ungated metric. No newline
/// inside.
pub fn bench_history_line(entries: &[BenchEntry], quick: bool, commit: &str) -> String {
    let mut out = String::from("{\"schema\":\"fmdb-bench-history/v1\",");
    json_field(&mut out, "commit", commit);
    out.push_str(",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    out.push_str(",\"experiments\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        json_field(&mut out, "id", &e.report.id);
        json_counts(&mut out, e);
        out.push_str(",\"gated\":");
        json_metrics(
            &mut out,
            e.report
                .metrics
                .iter()
                .filter(|metric| metric.gate.is_some()),
        );
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
    fn bench_engine_json_is_well_formed() {
        let mut e1 = Report::new("E1", "FA \"scaling\"", "");
        e1.metric("opt_ratio_ta", 1.25);
        e1.shape_rows_graded = 7;
        let entries = vec![
            BenchEntry {
                report: e1,
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
            },
            BenchEntry {
                report: Report::new("E23", "block pruning", ""),
                wall_ms: 0.0,
                stats: AccessStats::ZERO,
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
        assert!(j.contains("\"blocks_skipped\":9,\"shape_rows_graded\":7"));
        assert!(j.contains("\"metrics\":{\"opt_ratio_ta\":1.250000}"));
        assert!(j.contains("\"metrics\":{}"));
        assert!(j.contains("\"id\":\"E23\""));
        let empty = bench_engine_json(&[], false);
        assert!(empty.contains("\"quick\":false"));
        assert!(empty.contains("\"experiments\":[]"));
    }

    /// A parsed JSON value: just enough of RFC 8259 for the artifacts.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            let Json::Obj(fields) = self else {
                panic!("{self:?} is not an object")
            };
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no `{key}`"))
        }

        fn items(&self) -> &[Json] {
            let Json::Arr(items) = self else {
                panic!("{self:?} is not an array")
            };
            items
        }
    }

    /// Parses one JSON document, all of `text`; panics on anything else.
    fn parse(text: &str) -> Json {
        let chars: Vec<char> = text.chars().collect();
        let mut at = 0;
        let value = parse_value(&chars, &mut at);
        assert_eq!(at, chars.len(), "trailing input at {at}");
        value
    }

    fn parse_value(c: &[char], at: &mut usize) -> Json {
        let expect = |at: &mut usize, want: char| {
            assert_eq!(c[*at], want, "at {at}");
            *at += 1;
        };
        match c[*at] {
            '{' => {
                *at += 1;
                let mut fields = Vec::new();
                while c[*at] != '}' {
                    if !fields.is_empty() {
                        expect(at, ',');
                    }
                    let Json::Str(key) = parse_value(c, at) else {
                        panic!("a key is a string")
                    };
                    expect(at, ':');
                    fields.push((key, parse_value(c, at)));
                }
                *at += 1;
                Json::Obj(fields)
            }
            '[' => {
                *at += 1;
                let mut items = Vec::new();
                while c[*at] != ']' {
                    if !items.is_empty() {
                        expect(at, ',');
                    }
                    items.push(parse_value(c, at));
                }
                *at += 1;
                Json::Arr(items)
            }
            '"' => {
                *at += 1;
                let mut s = String::new();
                while c[*at] != '"' {
                    if c[*at] == '\\' {
                        *at += 1;
                        s.push(match c[*at] {
                            'n' => '\n',
                            'r' => '\r',
                            't' => '\t',
                            'u' => {
                                let hex: String = c[*at + 1..*at + 5].iter().collect();
                                *at += 4;
                                char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap()
                            }
                            other => other,
                        });
                    } else {
                        s.push(c[*at]);
                    }
                    *at += 1;
                }
                *at += 1;
                Json::Str(s)
            }
            't' | 'f' => {
                let word = if c[*at] == 't' { "true" } else { "false" };
                let got: String = c[*at..*at + word.len()].iter().collect();
                assert_eq!(got, word);
                *at += word.len();
                Json::Bool(word == "true")
            }
            _ => {
                let start = *at;
                while *at < c.len() && "+-.0123456789eE".contains(c[*at]) {
                    *at += 1;
                }
                let number: String = c[start..*at].iter().collect();
                Json::Num(
                    number
                        .parse()
                        .unwrap_or_else(|_| panic!("`{number}` at {start}")),
                )
            }
        }
    }

    #[test]
    fn a_history_line_parses_back_with_the_artifacts_access_columns() {
        let mut e20 = Report::new("E20", "kernels \"and\" binds", "");
        e20.shape_rows_graded = 1234;
        e20.metric("kernel_ms", 3.5)
            .gated("lanes_vs_rows", 0.625, Bound::PositiveAtMost(0.84), "here")
            .gated("kernel_us", 14.25, Bound::Positive, "there");
        let entries = vec![
            BenchEntry {
                report: Report::new("E1", "FA scaling", ""),
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
            },
            BenchEntry {
                report: e20,
                wall_ms: 3.0,
                stats: AccessStats {
                    sorted: u64::MAX,
                    ..AccessStats::ZERO
                },
            },
        ];
        let line = bench_history_line(&entries, true, "c6d80fa\tdirty");
        assert!(!line.contains('\n'), "{line}");
        let history = parse(&line);
        let artifact = parse(&bench_engine_json(&entries, true));
        assert_eq!(
            history.get("schema"),
            &Json::Str("fmdb-bench-history/v1".into())
        );
        assert_eq!(history.get("commit"), &Json::Str("c6d80fa\tdirty".into()));
        assert_eq!(history.get("quick"), artifact.get("quick"));
        let (lines, written) = (history.get("experiments"), artifact.get("experiments"));
        assert_eq!(lines.items().len(), entries.len());
        for ((line, written), entry) in lines.items().iter().zip(written.items()).zip(&entries) {
            assert_eq!(line.get("id"), written.get("id"));
            for (column, count) in count_columns(entry) {
                assert_eq!(line.get(column), written.get(column), "{column}");
                assert_eq!(line.get(column), &Json::Num(count as f64), "{column}");
            }
            let gated: Vec<(String, Json)> = entry
                .report
                .metrics
                .iter()
                .filter(|metric| metric.gate.is_some())
                .map(|metric| (metric.name.clone(), Json::Num(metric.value)))
                .collect();
            assert_eq!(line.get("gated"), &Json::Obj(gated));
        }
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
