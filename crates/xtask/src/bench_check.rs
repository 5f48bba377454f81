//! `cargo xtask check-bench` — gate on the `BENCH_engine.json` perf
//! trajectory.
//!
//! `e00_run_all` writes one entry per experiment; this check fails the
//! build when the artifact has drifted from the suite: a missing
//! experiment (E1–E22), a non-numeric measurement (NaN/inf serialize to
//! bare tokens, which are invalid JSON and rejected by the parser
//! here), an E22 instance-optimality ratio below 1 (the certificate
//! oracle is a lower bound — a ratio under 1 means the harness itself
//! is broken, not that an algorithm beat the optimum), an E16
//! planner-regret drift (every `regret_*` cell ≥ 1 by construction,
//! `regret_median` ≤ 2, `regret_max` ≤ 10 — the unified cost model's
//! quality bar), E18 paged-store telemetry that is missing or
//! nonsensical (cold/warm wall-clock present, `warm_hit_rate` in
//! [0, 1], `cold_page_reads` > 0 — a zero means the experiment never
//! touched the store — `warm_ta_vs_mem` a positive finite ratio, and
//! `cold_us_per_page_read` at most 12 µs: a page miss with the file in
//! the OS cache cost 24 µs while its checksum ran bit by bit), E19
//! bookkeeping costs that are missing or out of line (`ta_`, `nra_`,
//! `ca_h10_ns_per_access` positive, `nra_vs_ta_ns_per_access` at most
//! 10: the planner prices accesses only, which holds up just as long as
//! an access costs about the same CPU whichever schedule charged it;
//! `engine_vs_scalar_many8` positive and at most 2: eight forced-TA
//! requests through `Engine::run` cost 3.7–4.6 times the scalar runs
//! while every probe paid for an LRU grade cache no query ever hit,
//! ≈ 1 since the engine keeps none),
//! an E20 bind path that is missing or has grown back around its
//! kernel (`kernel_us`, `bind_us` positive, `bind_vs_kernel` at most 4:
//! `Catalog::source_for` cost 6–8 colour kernels while every atom went
//! through two hash tables and two sorts, ≈ 2 since a list is built
//! once, as arrays), E21 sharding numbers that are missing
//! (`speedup_2`, `cost_ratio_2`, `partition_us` present and positive —
//! whether sharding stays is ROADMAP item 3's call; the gate only keeps
//! the numbers it is decided on in the artifact),
//! or E23 block-max pruning telemetry that is missing or nonsensical
//! (`corpus_speedup`/`drain_speedup` positive — pruned runs that take
//! no time at all mean the timer broke — and both skip rates in
//! [0, 1]).
//!
//! The parser is a minimal hand-rolled recursive-descent JSON reader —
//! same no-dependency reasoning as the writer in
//! `crates/bench/src/report.rs`.

use std::fmt::Write as _;

/// A parsed JSON value (only what the bench artifact needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{...}` with insertion order preserved.
    Obj(Vec<(String, Json)>),
    /// `[...]`.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// A number (finite by construction — `NaN`/`inf` never parse).
    Num(f64),
    /// `true`/`false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("invalid JSON at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.consume(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return Err(self.error("bad \\u escape")),
                            }
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }
}

/// Parses a JSON document.
pub fn parse(content: &str) -> Result<Json, String> {
    let mut p = Parser::new(content);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage after document"));
    }
    Ok(value)
}

/// The experiment ids the suite must have produced.
const REQUIRED: std::ops::RangeInclusive<u32> = 1..=23;

/// Ceiling on E18's `cold_us_per_page_read`: half of what a page miss
/// cost under the bit-at-a-time checksum (≈ 24 µs), four times what it
/// costs under the table kernel (≈ 3 µs) — room for a slow host, none
/// for the old kernel.
const E18_MAX_COLD_US_PER_PAGE: f64 = 12.0;

/// E19's wall-clock metrics, the ratio last.
const E19_PER_ACCESS: [&str; 4] = [
    "ta_ns_per_access",
    "nra_ns_per_access",
    "ca_h10_ns_per_access",
    "nra_vs_ta_ns_per_access",
];

/// Ceiling on E19's `nra_vs_ta_ns_per_access`: ≈ 70 while the threshold
/// kernel re-ranked every open object every round, ≈ 2.5 since its
/// bookkeeping is incremental.
const E19_MAX_NRA_VS_TA: f64 = 10.0;

/// E19's engine-overhead metric.
const E19_ENGINE: [&str; 1] = ["engine_vs_scalar_many8"];

/// Ceiling on E19's `engine_vs_scalar_many8`: 3.7–4.6 while the engine
/// put a lock-striped LRU grade cache and a source registry in front of
/// every probe of a memory-speed list, 0.9–1.5 since it keeps neither.
const E19_MAX_ENGINE_VS_SCALAR: f64 = 2.0;

/// E20's bind-path metrics, the ratio last.
const E20_BIND: [&str; 3] = ["kernel_us", "bind_us", "bind_vs_kernel"];

/// Ceiling on E20's `bind_vs_kernel`: 6–8 while `Catalog::source_for`
/// hashed, sorted, drained and re-hashed every list, ≈ 2 since it
/// builds one array once.
const E20_MAX_BIND_VS_KERNEL: f64 = 4.0;

/// E21's sharding metrics: present and positive, nothing more.
const E21_SHARDING: [&str; 3] = ["speedup_2", "cost_ratio_2", "partition_us"];

/// Every metric of `names` was `found` and is positive; returns the
/// last one's value (the families above keep their gated ratio last).
fn all_positive(id: &str, names: &[&str], found: &[Option<f64>]) -> Result<f64, String> {
    let mut last = 0.0;
    for (name, found) in names.iter().zip(found) {
        last = found.ok_or_else(|| format!("{id} is missing the `{name}` metric"))?;
        if last <= 0.0 {
            return Err(format!("{id}: `{name}` = {last} must be positive"));
        }
    }
    Ok(last)
}

/// Validates a `BENCH_engine.json` payload. Returns a human-readable
/// summary on success, the first failure otherwise.
pub fn check(content: &str) -> Result<String, String> {
    let root = parse(content)?;
    match root.get("schema").and_then(Json::as_str) {
        Some("fmdb-bench-engine/v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let experiments = match root.get("experiments") {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing `experiments` array".to_owned()),
    };

    let mut seen: Vec<String> = Vec::new();
    let mut min_ratio = f64::INFINITY;
    let mut ratio_count = 0usize;
    let mut regret_count = 0usize;
    let mut regret_median: Option<f64> = None;
    let mut regret_max: Option<f64> = None;
    let mut e18_cold_wall: Option<f64> = None;
    let mut e18_warm_wall: Option<f64> = None;
    let mut e18_hit_rate: Option<f64> = None;
    let mut e18_page_reads: Option<f64> = None;
    let mut e18_ta_ratio: Option<f64> = None;
    let mut e18_cold_page_us: Option<f64> = None;
    let mut e19_per_access: [Option<f64>; 4] = [None; 4];
    let mut e19_engine: [Option<f64>; 1] = [None; 1];
    let mut e20_bind: [Option<f64>; 3] = [None; 3];
    let mut e21_sharding: [Option<f64>; 3] = [None; 3];
    let mut e23_corpus_speedup: Option<f64> = None;
    let mut e23_drain_speedup: Option<f64> = None;
    let mut e23_corpus_skip: Option<f64> = None;
    let mut e23_page_skip: Option<f64> = None;
    for entry in experiments {
        let id = entry
            .get("id")
            .and_then(Json::as_str)
            .ok_or("experiment entry without a string `id`")?
            .to_owned();
        for field in ["wall_ms", "sorted", "random"] {
            let value = entry
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{id}: `{field}` missing or non-numeric"))?;
            if value < 0.0 {
                return Err(format!("{id}: `{field}` is negative ({value})"));
            }
        }
        if let Some(metrics) = entry.get("metrics") {
            let fields = match metrics {
                Json::Obj(fields) => fields,
                _ => return Err(format!("{id}: `metrics` is not an object")),
            };
            for (name, value) in fields {
                let v = value
                    .as_num()
                    .ok_or_else(|| format!("{id}: metric `{name}` is non-numeric"))?;
                if id == "E22" && name.starts_with("opt_ratio_") {
                    ratio_count += 1;
                    min_ratio = min_ratio.min(v);
                    if v < 1.0 - 1e-9 {
                        return Err(format!(
                            "E22: optimality ratio `{name}` = {v} is below 1 — the \
                             certificate oracle is a lower bound, so this is a harness bug"
                        ));
                    }
                }
                if id == "E18" {
                    match name.as_str() {
                        "cold_wall_ms" => e18_cold_wall = Some(v),
                        "warm_wall_ms" => e18_warm_wall = Some(v),
                        "warm_hit_rate" => e18_hit_rate = Some(v),
                        "cold_page_reads" => e18_page_reads = Some(v),
                        "warm_ta_vs_mem" => e18_ta_ratio = Some(v),
                        "cold_us_per_page_read" => e18_cold_page_us = Some(v),
                        _ => {}
                    }
                }
                for (family, names, found) in [
                    ("E19", &E19_PER_ACCESS[..], &mut e19_per_access[..]),
                    ("E19", &E19_ENGINE[..], &mut e19_engine[..]),
                    ("E20", &E20_BIND[..], &mut e20_bind[..]),
                    ("E21", &E21_SHARDING[..], &mut e21_sharding[..]),
                ] {
                    if let Some(at) = names.iter().position(|n| id == family && n == name) {
                        found[at] = Some(v);
                    }
                }
                if id == "E23" {
                    match name.as_str() {
                        "corpus_speedup" => e23_corpus_speedup = Some(v),
                        "drain_speedup" => e23_drain_speedup = Some(v),
                        "corpus_skip_rate" => e23_corpus_skip = Some(v),
                        "page_skip_rate" => e23_page_skip = Some(v),
                        _ => {}
                    }
                }
                if id == "E16" && name.starts_with("regret") {
                    if v < 1.0 - 1e-9 {
                        return Err(format!(
                            "E16: `{name}` = {v} is below 1 — regret compares against a \
                             pool that includes the optimizer's own run, so this is a \
                             harness bug"
                        ));
                    }
                    match name.as_str() {
                        "regret_median" => regret_median = Some(v),
                        "regret_max" => regret_max = Some(v),
                        _ => regret_count += 1,
                    }
                }
            }
        }
        seen.push(id);
    }

    for i in REQUIRED {
        let want = format!("E{i}");
        if !seen.contains(&want) {
            return Err(format!(
                "experiment {want} missing from the trajectory (found: {})",
                seen.join(", ")
            ));
        }
    }
    if ratio_count == 0 {
        return Err("E22 carries no `opt_ratio_*` metrics".to_owned());
    }
    if regret_count == 0 {
        return Err("E16 carries no per-cell `regret_*` metrics".to_owned());
    }
    let median = regret_median.ok_or("E16 is missing the `regret_median` metric")?;
    let max = regret_max.ok_or("E16 is missing the `regret_max` metric")?;
    if median > 2.0 + 1e-9 {
        return Err(format!(
            "E16: regret_median = {median} exceeds the 2x bound — the unified planner \
             is mispricing the common case"
        ));
    }
    if max > 10.0 + 1e-9 {
        return Err(format!(
            "E16: regret_max = {max} exceeds the 10x bound — some sweep cell picks a \
             catastrophically wrong plan"
        ));
    }
    let cold_wall = e18_cold_wall.ok_or("E18 is missing the `cold_wall_ms` metric")?;
    let warm_wall = e18_warm_wall.ok_or("E18 is missing the `warm_wall_ms` metric")?;
    if cold_wall < 0.0 || warm_wall < 0.0 {
        return Err(format!(
            "E18: negative wall-clock (cold {cold_wall}, warm {warm_wall})"
        ));
    }
    let hit_rate = e18_hit_rate.ok_or("E18 is missing the `warm_hit_rate` metric")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!(
            "E18: warm_hit_rate = {hit_rate} is outside [0, 1] — the buffer-pool \
             counters are broken"
        ));
    }
    let page_reads = e18_page_reads.ok_or("E18 is missing the `cold_page_reads` metric")?;
    if page_reads < 1.0 {
        return Err(format!(
            "E18: cold_page_reads = {page_reads} — a cold run that reads no pages \
             never touched the store"
        ));
    }
    let ta_ratio = e18_ta_ratio.ok_or("E18 is missing the `warm_ta_vs_mem` metric")?;
    if !ta_ratio.is_finite() || ta_ratio <= 0.0 {
        return Err(format!(
            "E18: warm_ta_vs_mem = {ta_ratio} — the warm-paged vs in-memory TA ratio \
             must be a positive finite number"
        ));
    }

    let cold_page_us =
        e18_cold_page_us.ok_or("E18 is missing the `cold_us_per_page_read` metric")?;
    if !(cold_page_us > 0.0 && cold_page_us <= E18_MAX_COLD_US_PER_PAGE) {
        return Err(format!(
            "E18: cold_us_per_page_read = {cold_page_us} is outside (0, \
             {E18_MAX_COLD_US_PER_PAGE}] µs — a page miss is back above half of what \
             it cost under the bit-at-a-time checksum; look at `store::format::crc32` first"
        ));
    }

    let nra_vs_ta = all_positive("E19", &E19_PER_ACCESS, &e19_per_access)?;
    if nra_vs_ta > E19_MAX_NRA_VS_TA {
        return Err(format!(
            "E19: nra_vs_ta_ns_per_access = {nra_vs_ta} exceeds {E19_MAX_NRA_VS_TA} — an \
             access under NRA costs that many times the CPU of one under TA, and the \
             planner prices accesses only; look at the per-round path of \
             `algorithms/threshold.rs` first"
        ));
    }

    let engine_vs_scalar = all_positive("E19", &E19_ENGINE, &e19_engine)?;
    if engine_vs_scalar > E19_MAX_ENGINE_VS_SCALAR {
        return Err(format!(
            "E19: engine_vs_scalar_many8 = {engine_vs_scalar} exceeds \
             {E19_MAX_ENGINE_VS_SCALAR} — `Engine::run` costs that many times the scalar \
             kernel on memory-speed lists; look at what `engine::EngineSource` does per \
             random access first (it should be one source lock and one call)"
        ));
    }

    let bind_vs_kernel = all_positive("E20", &E20_BIND, &e20_bind)?;
    if bind_vs_kernel > E20_MAX_BIND_VS_KERNEL {
        return Err(format!(
            "E20: bind_vs_kernel = {bind_vs_kernel} exceeds {E20_MAX_BIND_VS_KERNEL} — \
             `Catalog::source_for` costs that many colour kernels, so the middleware is \
             again spending more on wrapping a graded list than the subsystem spends \
             grading it; look for a second build or a hash table between \
             `Repository::source_for` and `BoundAtom` first"
        ));
    }
    all_positive("E21", &E21_SHARDING, &e21_sharding)?;
    let [speedup_2, _, partition_us] = e21_sharding.map(Option::unwrap_or_default);

    let corpus_speedup = e23_corpus_speedup.ok_or("E23 is missing the `corpus_speedup` metric")?;
    let drain_speedup = e23_drain_speedup.ok_or("E23 is missing the `drain_speedup` metric")?;
    for (name, v) in [
        ("corpus_speedup", corpus_speedup),
        ("drain_speedup", drain_speedup),
    ] {
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "E23: `{name}` = {v} — a pruned-vs-unpruned wall-clock ratio must be a \
                 positive finite number"
            ));
        }
    }
    for (name, v) in [
        (
            "corpus_skip_rate",
            e23_corpus_skip.ok_or("E23 is missing the `corpus_skip_rate` metric")?,
        ),
        (
            "page_skip_rate",
            e23_page_skip.ok_or("E23 is missing the `page_skip_rate` metric")?,
        ),
    ] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!(
                "E23: `{name}` = {v} is outside [0, 1] — the skip counters are broken"
            ));
        }
    }

    let mut summary = format!(
        "check-bench: {} experiments, E1–E23 all present and numeric",
        seen.len()
    );
    let _ = write!(
        summary,
        "; {ratio_count} optimality ratios ≥ 1 (min {min_ratio:.3}); \
         {regret_count} planner regrets (median {median:.3}, max {max:.3}); \
         E18 paged store: {page_reads:.0} cold page reads, warm hit rate {hit_rate:.3}, \
         {cold_page_us:.2} µs per cold page read; \
         E19 bookkeeping: an NRA access at {nra_vs_ta:.2}x a TA access, \
         the engine at {engine_vs_scalar:.2}x scalar TA; \
         E20 bind: {bind_vs_kernel:.2} kernels per atom; \
         E21 sharding: 2 shards at {speedup_2:.2}x serial, {partition_us:.0} µs to partition; \
         E23 pruning: corpus {corpus_speedup:.2}x, drain {drain_speedup:.2}x"
    );
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_E16: &str = "{\"regret_sel5_k5_r1\":1.0,\"regret_median\":1.05,\"regret_max\":1.3}";

    const GOOD_E18: &str = "{\"cold_wall_ms\":8.0,\"warm_wall_ms\":2.0,\
                            \"warm_hit_rate\":0.95,\"cold_page_reads\":64.0,\
                            \"warm_ta_vs_mem\":1.4,\"cold_us_per_page_read\":3.0}";

    const GOOD_E23: &str = "{\"corpus_speedup\":2.5,\"corpus_skip_rate\":0.8,\
                            \"drain_speedup\":15.0,\"page_skip_rate\":0.94}";

    const GOOD_E19: &str = "{\"ta_ns_per_access\":40.0,\"nra_ns_per_access\":90.0,\
                            \"ca_h10_ns_per_access\":370.0,\"nra_vs_ta_ns_per_access\":2.25,\
                            \"engine_vs_scalar_many8\":1.1}";

    const GOOD_E20: &str = "{\"kernel_us\":35.0,\"bind_us\":77.0,\"bind_vs_kernel\":2.2}";

    const GOOD_E21: &str = "{\"speedup_2\":0.3,\"cost_ratio_2\":1.33,\"partition_us\":450.0}";

    fn artifact_e21(
        ids: &[&str],
        e22_metrics: &str,
        e16_metrics: &str,
        e18_metrics: &str,
        e23_metrics: &str,
        e19_metrics: &str,
        [e20_metrics, e21_metrics]: [&str; 2],
    ) -> String {
        let entries: Vec<String> = ids
            .iter()
            .map(|id| {
                let metrics = match *id {
                    "E22" => e22_metrics,
                    "E16" => e16_metrics,
                    "E18" => e18_metrics,
                    "E19" => e19_metrics,
                    "E20" => e20_metrics,
                    "E21" => e21_metrics,
                    "E23" => e23_metrics,
                    _ => "{}",
                };
                format!(
                    "{{\"id\":\"{id}\",\"title\":\"t\",\"wall_ms\":1.0,\"sorted\":10,\
                     \"random\":2,\"worker_spawns\":0,\
                     \"metrics\":{metrics}}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"fmdb-bench-engine/v1\",\"quick\":true,\"experiments\":[{}]}}",
            entries.join(",")
        )
    }

    fn artifact_e19(
        ids: &[&str],
        e22_metrics: &str,
        e16_metrics: &str,
        e18_metrics: &str,
        e23_metrics: &str,
        e19_metrics: &str,
    ) -> String {
        artifact_e21(
            ids,
            e22_metrics,
            e16_metrics,
            e18_metrics,
            e23_metrics,
            e19_metrics,
            [GOOD_E20, GOOD_E21],
        )
    }

    /// A complete, acceptable artifact but for E20's and E21's metrics.
    fn artifact_bind_and_sharding(e20_metrics: &str, e21_metrics: &str) -> String {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        artifact_e21(
            &refs,
            GOOD_E22,
            GOOD_E16,
            GOOD_E18,
            GOOD_E23,
            GOOD_E19,
            [e20_metrics, e21_metrics],
        )
    }

    fn artifact_e23(
        ids: &[&str],
        e22_metrics: &str,
        e16_metrics: &str,
        e18_metrics: &str,
        e23_metrics: &str,
    ) -> String {
        artifact_e19(
            ids,
            e22_metrics,
            e16_metrics,
            e18_metrics,
            e23_metrics,
            GOOD_E19,
        )
    }

    fn artifact_full(
        ids: &[&str],
        e22_metrics: &str,
        e16_metrics: &str,
        e18_metrics: &str,
    ) -> String {
        artifact_e23(ids, e22_metrics, e16_metrics, e18_metrics, GOOD_E23)
    }

    fn artifact_with(ids: &[&str], e22_metrics: &str, e16_metrics: &str) -> String {
        artifact_full(ids, e22_metrics, e16_metrics, GOOD_E18)
    }

    fn artifact(ids: &[&str], e22_metrics: &str) -> String {
        artifact_with(ids, e22_metrics, GOOD_E16)
    }

    fn all_ids() -> Vec<String> {
        (1..=23).map(|i| format!("E{i}")).collect()
    }

    #[test]
    fn accepts_a_complete_artifact() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let doc = artifact(
            &refs,
            "{\"opt_ratio_ta_t0_r1\":1.25,\"opt_ratio_ca_t0_r1\":1.0}",
        );
        let summary = check(&doc).expect("valid artifact");
        assert!(summary.contains("23 experiments"), "{summary}");
        assert!(summary.contains("min 1.000"), "{summary}");
        assert!(summary.contains("median 1.050"), "{summary}");
        assert!(summary.contains("drain 15.00x"), "{summary}");
        assert!(summary.contains("NRA access at 2.25x"), "{summary}");
        assert!(summary.contains("engine at 1.10x scalar TA"), "{summary}");
        assert!(summary.contains("2.20 kernels per atom"), "{summary}");
        assert!(summary.contains("2 shards at 0.30x serial"), "{summary}");
    }

    #[test]
    fn rejects_missing_experiment() {
        let ids: Vec<String> = (1..=22).map(|i| format!("E{i}")).collect();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let err = check(&artifact(&refs, "{}")).unwrap_err();
        assert!(err.contains("E23 missing"), "{err}");
    }

    #[test]
    fn rejects_nan_measurements() {
        // NaN serializes as a bare token — invalid JSON, parser error.
        let doc = "{\"schema\":\"fmdb-bench-engine/v1\",\"quick\":true,\"experiments\":[\
                   {\"id\":\"E1\",\"wall_ms\":NaN,\"sorted\":1,\"random\":1}]}";
        assert!(check(doc).is_err());
    }

    #[test]
    fn rejects_sub_one_optimality_ratio() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let err = check(&artifact(&refs, "{\"opt_ratio_ta_t0_r1\":0.8}")).unwrap_err();
        assert!(err.contains("below 1"), "{err}");
    }

    #[test]
    fn rejects_e22_without_ratios() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let err = check(&artifact(&refs, "{}")).unwrap_err();
        assert!(err.contains("no `opt_ratio_*`"), "{err}");
    }

    const GOOD_E22: &str = "{\"opt_ratio_ta_t0_r1\":1.25}";

    #[test]
    fn rejects_e16_without_regret_cells() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let err = check(&artifact_with(&refs, GOOD_E22, "{}")).unwrap_err();
        assert!(err.contains("no per-cell `regret_*`"), "{err}");
    }

    #[test]
    fn rejects_sub_one_regret() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e16 = "{\"regret_sel5_k5_r1\":0.7,\"regret_median\":1.0,\"regret_max\":1.0}";
        let err = check(&artifact_with(&refs, GOOD_E22, e16)).unwrap_err();
        assert!(err.contains("below 1"), "{err}");
    }

    #[test]
    fn rejects_excessive_median_regret() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e16 = "{\"regret_sel5_k5_r1\":1.0,\"regret_median\":2.4,\"regret_max\":3.0}";
        let err = check(&artifact_with(&refs, GOOD_E22, e16)).unwrap_err();
        assert!(err.contains("regret_median"), "{err}");
    }

    #[test]
    fn rejects_excessive_max_regret() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e16 = "{\"regret_sel5_k5_r1\":1.0,\"regret_median\":1.1,\"regret_max\":12.0}";
        let err = check(&artifact_with(&refs, GOOD_E22, e16)).unwrap_err();
        assert!(err.contains("regret_max"), "{err}");
    }

    #[test]
    fn rejects_e16_missing_aggregates() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e16 = "{\"regret_sel5_k5_r1\":1.0,\"regret_max\":1.3}";
        let err = check(&artifact_with(&refs, GOOD_E22, e16)).unwrap_err();
        assert!(err.contains("regret_median"), "{err}");
    }

    #[test]
    fn rejects_e18_without_metrics() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let err = check(&artifact_full(&refs, GOOD_E22, GOOD_E16, "{}")).unwrap_err();
        assert!(err.contains("cold_wall_ms"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_hit_rate() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e18 = "{\"cold_wall_ms\":8.0,\"warm_wall_ms\":2.0,\
                    \"warm_hit_rate\":1.5,\"cold_page_reads\":64.0,\
                    \"warm_ta_vs_mem\":1.4}";
        let err = check(&artifact_full(&refs, GOOD_E22, GOOD_E16, e18)).unwrap_err();
        assert!(err.contains("warm_hit_rate"), "{err}");
    }

    #[test]
    fn rejects_zero_page_reads() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e18 = "{\"cold_wall_ms\":8.0,\"warm_wall_ms\":2.0,\
                    \"warm_hit_rate\":0.9,\"cold_page_reads\":0.0,\
                    \"warm_ta_vs_mem\":1.4}";
        let err = check(&artifact_full(&refs, GOOD_E22, GOOD_E16, e18)).unwrap_err();
        assert!(err.contains("cold_page_reads"), "{err}");
    }

    #[test]
    fn rejects_a_slow_or_missing_cold_page_read() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        for cold_page in ["", ",\"cold_us_per_page_read\":23.7"] {
            let e18 = format!(
                "{{\"cold_wall_ms\":8.0,\"warm_wall_ms\":2.0,\"warm_hit_rate\":0.9,\
                 \"cold_page_reads\":64.0,\"warm_ta_vs_mem\":1.4{cold_page}}}"
            );
            let err = check(&artifact_full(&refs, GOOD_E22, GOOD_E16, &e18)).unwrap_err();
            assert!(err.contains("cold_us_per_page_read"), "{err}");
        }
    }

    #[test]
    fn rejects_e18_without_warm_ta_ratio() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e18 = "{\"cold_wall_ms\":8.0,\"warm_wall_ms\":2.0,\
                    \"warm_hit_rate\":0.9,\"cold_page_reads\":64.0}";
        let err = check(&artifact_full(&refs, GOOD_E22, GOOD_E16, e18)).unwrap_err();
        assert!(err.contains("warm_ta_vs_mem"), "{err}");
    }

    #[test]
    fn rejects_nonpositive_warm_ta_ratio() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e18 = "{\"cold_wall_ms\":8.0,\"warm_wall_ms\":2.0,\
                    \"warm_hit_rate\":0.9,\"cold_page_reads\":64.0,\
                    \"warm_ta_vs_mem\":0.0}";
        let err = check(&artifact_full(&refs, GOOD_E22, GOOD_E16, e18)).unwrap_err();
        assert!(err.contains("warm_ta_vs_mem"), "{err}");
    }

    #[test]
    fn rejects_e19_without_its_per_access_costs() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let all = E19_PER_ACCESS.iter().chain(&E19_ENGINE);
        for missing in all.clone() {
            let e19: Vec<String> = all
                .clone()
                .filter(|name| *name != missing)
                .map(|name| format!("\"{name}\":2.0"))
                .collect();
            let e19 = format!("{{{}}}", e19.join(","));
            let doc = artifact_e19(&refs, GOOD_E22, GOOD_E16, GOOD_E18, GOOD_E23, &e19);
            let err = check(&doc).unwrap_err();
            assert!(err.contains(missing), "{err}");
        }
    }

    #[test]
    fn rejects_an_nra_access_far_dearer_than_a_ta_access() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        // What the artifact read while every round re-ranked every open
        // object.
        let e19 = "{\"ta_ns_per_access\":200.0,\"nra_ns_per_access\":14000.0,\
                    \"ca_h10_ns_per_access\":17000.0,\"nra_vs_ta_ns_per_access\":70.0}";
        let doc = artifact_e19(&refs, GOOD_E22, GOOD_E16, GOOD_E18, GOOD_E23, e19);
        let err = check(&doc).unwrap_err();
        assert!(err.contains("nra_vs_ta_ns_per_access = 70"), "{err}");
    }

    #[test]
    fn rejects_an_engine_far_dearer_than_its_kernel() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        // What the artifact would have read while every probe went
        // through the grade cache.
        let e19 = GOOD_E19.replace("many8\":1.1", "many8\":4.3");
        let doc = artifact_e19(&refs, GOOD_E22, GOOD_E16, GOOD_E18, GOOD_E23, &e19);
        let err = check(&doc).unwrap_err();
        assert!(err.contains("engine_vs_scalar_many8 = 4.3"), "{err}");
        // At the ceiling it passes.
        let e19 = GOOD_E19.replace("many8\":1.1", "many8\":2.0");
        check(&artifact_e19(
            &refs, GOOD_E22, GOOD_E16, GOOD_E18, GOOD_E23, &e19,
        ))
        .expect("2.0 is within the gate");
    }

    #[test]
    fn rejects_e20_without_its_bind_metrics() {
        for missing in E20_BIND {
            let e20: Vec<String> = E20_BIND
                .iter()
                .filter(|name| **name != missing)
                .map(|name| format!("\"{name}\":2.0"))
                .collect();
            let doc = artifact_bind_and_sharding(&format!("{{{}}}", e20.join(",")), GOOD_E21);
            let err = check(&doc).unwrap_err();
            assert!(err.contains("E20") && err.contains(missing), "{err}");
        }
    }

    #[test]
    fn rejects_a_bind_path_grown_back_around_its_kernel() {
        // What the artifact would have read while every atom was hashed
        // twice and sorted twice.
        let e20 = "{\"kernel_us\":35.0,\"bind_us\":250.0,\"bind_vs_kernel\":7.1}";
        let err = check(&artifact_bind_and_sharding(e20, GOOD_E21)).unwrap_err();
        assert!(err.contains("bind_vs_kernel = 7.1"), "{err}");
        // At the ceiling it passes.
        let e20 = "{\"kernel_us\":35.0,\"bind_us\":140.0,\"bind_vs_kernel\":4.0}";
        check(&artifact_bind_and_sharding(e20, GOOD_E21)).expect("4.0 is within the gate");
    }

    #[test]
    fn rejects_e21_without_its_sharding_metrics() {
        for missing in E21_SHARDING {
            let e21: Vec<String> = E21_SHARDING
                .iter()
                .filter(|name| **name != missing)
                .map(|name| format!("\"{name}\":0.5"))
                .collect();
            let doc = artifact_bind_and_sharding(GOOD_E20, &format!("{{{}}}", e21.join(",")));
            let err = check(&doc).unwrap_err();
            assert!(err.contains("E21") && err.contains(missing), "{err}");
        }
        // Present but zero: the timer or the counters broke.
        let e21 = "{\"speedup_2\":0.3,\"cost_ratio_2\":1.3,\"partition_us\":0.0}";
        let err = check(&artifact_bind_and_sharding(GOOD_E20, e21)).unwrap_err();
        assert!(err.contains("partition_us"), "{err}");
    }

    #[test]
    fn rejects_e23_without_metrics() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let err = check(&artifact_e23(&refs, GOOD_E22, GOOD_E16, GOOD_E18, "{}")).unwrap_err();
        assert!(err.contains("corpus_speedup"), "{err}");
    }

    #[test]
    fn rejects_nonpositive_pruning_speedup() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e23 = "{\"corpus_speedup\":2.5,\"corpus_skip_rate\":0.8,\
                    \"drain_speedup\":0.0,\"page_skip_rate\":0.94}";
        let err = check(&artifact_e23(&refs, GOOD_E22, GOOD_E16, GOOD_E18, e23)).unwrap_err();
        assert!(err.contains("drain_speedup"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_skip_rate() {
        let ids = all_ids();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let e23 = "{\"corpus_speedup\":2.5,\"corpus_skip_rate\":1.2,\
                    \"drain_speedup\":15.0,\"page_skip_rate\":0.94}";
        let err = check(&artifact_e23(&refs, GOOD_E22, GOOD_E16, GOOD_E18, e23)).unwrap_err();
        assert!(err.contains("corpus_skip_rate"), "{err}");
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = check("{\"schema\":\"other\",\"experiments\":[]}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse("{\"a\":[1,2.5,{\"b\":\"x\\ny\\u0041\"}],\"c\":null}").expect("parses");
        let a = v.get("a").expect("a");
        match a {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[2].get("b"), Some(&Json::Str("x\nyA".into())));
            }
            _ => panic!("a is an array"),
        }
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} junk").is_err());
    }
}
