//! `bench-diff` — the perf-regression gate over two bench artifacts.
//!
//! Compares an old and a new bench JSON document produced by the same
//! harness family (`localias-bench-experiment`, `-intra`, `-watch`,
//! `-scale`, or `-fuzz`) metric by metric: throughput, phase
//! and latency times, histogram percentiles, cache hit rates, and
//! false-positive rates. Every metric carries a direction — lower is
//! better for latencies, higher for throughput — and a relative change
//! past the threshold in the *worse* direction is a regression.
//!
//! Comparison is intersection-based: only metrics present in both
//! documents are compared (so a v5→v6 schema bump degrades to the
//! shared fields instead of erroring), but the two schemas must belong
//! to the same family — diffing a watch report against an experiment
//! sweep is a usage error, not a clean result. A metric whose old value
//! is zero and whose new value is worse counts as a 100% regression
//! (rates that were clean must stay clean); zero-to-zero is unchanged.
//!
//! The report renders as a human table ([`DiffReport::render_table`])
//! and as machine JSON (schema `localias-bench-diff/v1`,
//! [`DiffReport::to_json`]).

use crate::json::{self, Value};
use std::fmt::Write as _;

/// Which way a metric is allowed to move without being a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latencies, memory, error rates: growing is a regression.
    LowerIsBetter,
    /// Throughput, speedups, hit rates: shrinking is a regression.
    HigherIsBetter,
}

/// The default regression threshold, in percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// One metric compared across the two artifacts.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Dotted metric name (`modules_per_second`, `hist.analyze.module.p95_ns`, …).
    pub name: String,
    /// Value in the old artifact.
    pub old: f64,
    /// Value in the new artifact.
    pub new: f64,
    /// Which direction is worse.
    pub direction: Direction,
}

impl MetricDiff {
    /// Relative change in the *worse* direction, in percent: positive
    /// means the new artifact regressed, negative that it improved.
    /// An old value of zero compares exactly: unchanged if new is also
    /// zero, ±100% otherwise.
    pub fn delta_pct(&self) -> f64 {
        let worse = match self.direction {
            Direction::LowerIsBetter => self.new - self.old,
            Direction::HigherIsBetter => self.old - self.new,
        };
        if self.old == 0.0 {
            if worse == 0.0 {
                0.0
            } else {
                100.0_f64.copysign(worse)
            }
        } else {
            100.0 * worse / self.old.abs()
        }
    }

    /// Whether this metric regressed past `threshold_pct`.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.delta_pct() > threshold_pct
    }
}

/// The outcome of one bench-diff comparison.
#[derive(Debug)]
pub struct DiffReport {
    /// The shared schema family (e.g. `localias-bench-experiment`).
    pub family: String,
    /// The two artifacts' full schema strings.
    pub schemas: (String, String),
    /// Regression threshold in percent.
    pub threshold_pct: f64,
    /// Every compared metric, in extraction order.
    pub metrics: Vec<MetricDiff>,
    /// Metric names present in only one document (skipped).
    pub skipped: Vec<String>,
}

impl DiffReport {
    /// The metrics that regressed past the threshold.
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.metrics
            .iter()
            .filter(|m| m.regressed(self.threshold_pct))
            .collect()
    }

    /// Human-readable comparison table with a verdict line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench-diff: {} ({} vs {}), threshold {}%",
            self.family, self.schemas.0, self.schemas.1, self.threshold_pct
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:>14} {:>9}  verdict",
            "metric", "old", "new", "delta"
        );
        for m in &self.metrics {
            let delta = m.delta_pct();
            let verdict = if m.regressed(self.threshold_pct) {
                "REGRESSED"
            } else if delta < -self.threshold_pct {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<34} {:>14} {:>14} {:>+8.1}%  {}",
                m.name,
                fmt_value(m.old),
                fmt_value(m.new),
                delta,
                verdict
            );
        }
        for name in &self.skipped {
            let _ = writeln!(out, "{name:<34} (present in only one artifact — skipped)");
        }
        let regressions = self.regressions();
        if regressions.is_empty() {
            let _ = writeln!(
                out,
                "no regressions past {}% across {} metrics",
                self.threshold_pct,
                self.metrics.len()
            );
        } else {
            let _ = writeln!(
                out,
                "{} metric(s) regressed past {}%",
                regressions.len(),
                self.threshold_pct
            );
        }
        out
    }

    /// Machine-readable report (schema `localias-bench-diff/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"localias-bench-diff/v1\",\n");
        let _ = write!(
            out,
            "  \"family\": {},\n  \"old_schema\": {},\n  \"new_schema\": {},\n  \
             \"threshold_pct\": {},\n  \"regressions\": {},\n  \"metrics\": [",
            json_str(&self.family),
            json_str(&self.schemas.0),
            json_str(&self.schemas.1),
            fmt_json_f64(self.threshold_pct),
            self.regressions().len(),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"old\": {}, \"new\": {}, \"delta_pct\": {}, \
                 \"regressed\": {}}}",
                json_str(&m.name),
                fmt_json_f64(m.old),
                fmt_json_f64(m.new),
                fmt_json_f64(m.delta_pct()),
                m.regressed(self.threshold_pct),
            );
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"skipped\": [");
        for (i, s) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(s));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    Value::Str(s.to_string()).render()
}

fn fmt_json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Renders a metric value compactly: integers plainly, small floats
/// with enough precision to see the change.
fn fmt_value(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.6}")
    }
}

/// One extracted `(name, direction, value)` triple.
type Extracted = (String, Direction, f64);

fn get_f64(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

fn push(out: &mut Vec<Extracted>, name: &str, dir: Direction, v: Option<f64>) {
    if let Some(v) = v {
        out.push((name.to_string(), dir, v));
    }
}

/// The `hist` block's percentiles, one metric per sampled histogram.
/// Zero-sample histograms are skipped (their percentiles are shape
/// padding, not measurements).
fn extract_hists(doc: &Value, out: &mut Vec<Extracted>) {
    let Some(Value::Obj(pairs)) = doc.get("hist") else {
        return;
    };
    for (name, h) in pairs {
        if h.get("count").and_then(Value::as_u64).unwrap_or(0) == 0 {
            continue;
        }
        for pct in ["p50_ns", "p90_ns", "p95_ns", "p99_ns", "max_ns"] {
            push(
                out,
                &format!("hist.{name}.{pct}"),
                Direction::LowerIsBetter,
                h.get(pct).and_then(Value::as_f64),
            );
        }
    }
}

/// Experiment-family metrics (`localias-bench-experiment/v*`).
fn extract_experiment(doc: &Value) -> Vec<Extracted> {
    use Direction::*;
    let mut out = Vec::new();
    push(
        &mut out,
        "modules_per_second",
        HigherIsBetter,
        get_f64(doc, &["modules_per_second"]),
    );
    push(
        &mut out,
        "wall_seconds",
        LowerIsBetter,
        get_f64(doc, &["wall_seconds"]),
    );
    for phase in ["parse", "check", "confine"] {
        push(
            &mut out,
            &format!("phase_cpu_seconds.{phase}"),
            LowerIsBetter,
            get_f64(doc, &["phase_cpu_seconds", phase]),
        );
    }
    if let Some(cache) = doc.get("cache").filter(|c| !c.is_null()) {
        let hits = get_f64(cache, &["hits"]).unwrap_or(0.0);
        let misses = get_f64(cache, &["misses"]).unwrap_or(0.0);
        if hits + misses > 0.0 {
            out.push((
                "cache.hit_rate".to_string(),
                HigherIsBetter,
                hits / (hits + misses),
            ));
        }
        push(
            &mut out,
            "cache.load_seconds",
            LowerIsBetter,
            get_f64(cache, &["load_seconds"]),
        );
        push(
            &mut out,
            "cache.store_seconds",
            LowerIsBetter,
            get_f64(cache, &["store_seconds"]),
        );
    }
    extract_hists(doc, &mut out);
    out
}

/// Intra-family metrics (`localias-bench-intra/v*`).
fn extract_intra(doc: &Value) -> Vec<Extracted> {
    use Direction::*;
    let mut out = Vec::new();
    push(
        &mut out,
        "sequential_seconds",
        LowerIsBetter,
        get_f64(doc, &["sequential_seconds"]),
    );
    push(
        &mut out,
        "parallel_seconds",
        LowerIsBetter,
        get_f64(doc, &["parallel_seconds"]),
    );
    push(
        &mut out,
        "speedup",
        HigherIsBetter,
        get_f64(doc, &["speedup"]),
    );
    extract_hists(doc, &mut out);
    out
}

/// Watch-family metrics (`localias-bench-watch/v*`).
fn extract_watch(doc: &Value) -> Vec<Extracted> {
    use Direction::*;
    let mut out = Vec::new();
    push(
        &mut out,
        "cold.total_seconds",
        LowerIsBetter,
        get_f64(doc, &["cold", "total_seconds"]),
    );
    push(
        &mut out,
        "edit.mean_total_seconds",
        LowerIsBetter,
        get_f64(doc, &["edit", "mean_total_seconds"]),
    );
    push(
        &mut out,
        "edit.mean_check_seconds",
        LowerIsBetter,
        get_f64(doc, &["edit", "mean_check_seconds"]),
    );
    push(
        &mut out,
        "edit.check_speedup",
        HigherIsBetter,
        get_f64(doc, &["edit", "check_speedup"]),
    );
    push(
        &mut out,
        "edit.total_speedup",
        HigherIsBetter,
        get_f64(doc, &["edit", "total_speedup"]),
    );
    push(
        &mut out,
        "noop.module_hit_seconds",
        LowerIsBetter,
        get_f64(doc, &["noop", "module_hit_seconds"]),
    );
    extract_hists(doc, &mut out);
    out
}

/// Scale-family metrics (`localias-bench-scale/v*`), one pair per
/// (modules, partitions) grid point.
fn extract_scale(doc: &Value) -> Vec<Extracted> {
    use Direction::*;
    let mut out = Vec::new();
    if let Some(points) = doc.get("points").and_then(Value::as_arr) {
        for p in points {
            let (Some(modules), Some(parts)) = (
                p.get("modules").and_then(Value::as_u64),
                p.get("partitions").and_then(Value::as_u64),
            ) else {
                continue;
            };
            let key = format!("points.{modules}x{parts}");
            push(
                &mut out,
                &format!("{key}.modules_per_second"),
                HigherIsBetter,
                get_f64(p, &["modules_per_second"]),
            );
            push(
                &mut out,
                &format!("{key}.peak_rss_bytes"),
                LowerIsBetter,
                get_f64(p, &["peak_rss_bytes"]),
            );
        }
    }
    extract_hists(doc, &mut out);
    out
}

/// Fuzz-family metrics (`localias-bench-fuzz/v*`): throughput plus the
/// per-backend, per-mode false-positive rates.
fn extract_fuzz(doc: &Value) -> Vec<Extracted> {
    use Direction::*;
    let mut out = Vec::new();
    push(
        &mut out,
        "modules_per_sec",
        HigherIsBetter,
        get_f64(doc, &["modules_per_sec"]),
    );
    push(
        &mut out,
        "wall_seconds",
        LowerIsBetter,
        get_f64(doc, &["wall_seconds"]),
    );
    if let Some(rates) = doc.get("fp_rates").and_then(Value::as_arr) {
        for entry in rates {
            let Some(backend) = entry.get("backend").and_then(Value::as_str) else {
                continue;
            };
            let Some(Value::Obj(modes)) = entry.get("modes") else {
                continue;
            };
            for (mode, st) in modes {
                push(
                    &mut out,
                    &format!("fp_rate.{backend}.{mode}"),
                    LowerIsBetter,
                    get_f64(st, &["rate"]),
                );
            }
        }
    }
    extract_hists(doc, &mut out);
    out
}

/// Extracts the schema string and its family prefix (the part before
/// the `/vN` version suffix).
fn schema_of(doc: &Value, label: &str) -> Result<(String, String), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{label}: missing or non-string \"schema\" field"))?
        .to_string();
    let family = schema
        .split_once('/')
        .map(|(f, _)| f.to_string())
        .unwrap_or_else(|| schema.clone());
    Ok((schema, family))
}

fn extract(family: &str, doc: &Value) -> Result<Vec<Extracted>, String> {
    match family {
        "localias-bench-experiment" => Ok(extract_experiment(doc)),
        "localias-bench-intra" => Ok(extract_intra(doc)),
        "localias-bench-watch" => Ok(extract_watch(doc)),
        "localias-bench-scale" => Ok(extract_scale(doc)),
        "localias-bench-fuzz" => Ok(extract_fuzz(doc)),
        other => Err(format!(
            "unknown bench schema family {other:?} — bench-diff understands \
             experiment, intra, watch, scale, and fuzz artifacts"
        )),
    }
}

/// Compares two bench artifacts of the same schema family.
///
/// `threshold_pct` bounds how much any metric may move in its worse
/// direction; pass [`DEFAULT_THRESHOLD_PCT`] for the standard gate.
pub fn diff_benches(
    old_text: &str,
    new_text: &str,
    threshold_pct: f64,
) -> Result<DiffReport, String> {
    if threshold_pct.is_nan() || threshold_pct < 0.0 {
        return Err(format!(
            "threshold must be a non-negative percent, got {threshold_pct}"
        ));
    }
    let old_doc = json::parse(old_text).map_err(|e| format!("old artifact: {e}"))?;
    let new_doc = json::parse(new_text).map_err(|e| format!("new artifact: {e}"))?;
    let (old_schema, old_family) = schema_of(&old_doc, "old artifact")?;
    let (new_schema, new_family) = schema_of(&new_doc, "new artifact")?;
    if old_family != new_family {
        return Err(format!(
            "schema family mismatch: old is {old_schema:?}, new is {new_schema:?} — \
             bench-diff compares artifacts from the same harness"
        ));
    }
    let old_metrics = extract(&old_family, &old_doc)?;
    let new_metrics = extract(&new_family, &new_doc)?;

    let mut metrics = Vec::new();
    let mut skipped = Vec::new();
    for (name, direction, old) in &old_metrics {
        match new_metrics.iter().find(|(n, ..)| n == name) {
            Some(&(_, _, new)) => metrics.push(MetricDiff {
                name: name.clone(),
                old: *old,
                new,
                direction: *direction,
            }),
            None => skipped.push(format!("old:{name}")),
        }
    }
    for (name, ..) in &new_metrics {
        if !old_metrics.iter().any(|(n, ..)| n == name) {
            skipped.push(format!("new:{name}"));
        }
    }
    Ok(DiffReport {
        family: old_family,
        schemas: (old_schema, new_schema),
        threshold_pct,
        metrics,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment_doc(mps: f64, check: f64, p95: u64) -> String {
        format!(
            r#"{{
  "schema": "localias-bench-experiment/v6",
  "modules_per_second": {mps},
  "wall_seconds": 1.0,
  "phase_cpu_seconds": {{"parse": 0.5, "check": {check}, "confine": 0.25}},
  "cache": {{"hits": 580, "misses": 9, "load_seconds": 0.01, "store_seconds": 0.02}},
  "hist": {{
    "analyze.module": {{"count": 589, "sum_ns": 100, "min_ns": 1, "max_ns": 9000,
      "p50_ns": 100, "p90_ns": 200, "p95_ns": {p95}, "p99_ns": 400, "buckets": [[7,589]]}},
    "fuzz.execute": {{"count": 0, "sum_ns": 0, "min_ns": 0, "max_ns": 0,
      "p50_ns": 0, "p90_ns": 0, "p95_ns": 0, "p99_ns": 0, "buckets": []}}
  }}
}}"#
        )
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = experiment_doc(1000.0, 0.75, 300);
        let report = diff_benches(&doc, &doc, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.render_table());
        assert!(!report.metrics.is_empty());
        // Every delta is exactly zero on a self-compare.
        for m in &report.metrics {
            assert_eq!(m.delta_pct(), 0.0, "{}", m.name);
        }
        // Zero-sample histograms are not compared.
        assert!(report
            .metrics
            .iter()
            .all(|m| !m.name.contains("fuzz.execute")));
    }

    #[test]
    fn throughput_drop_past_threshold_regresses() {
        let old = experiment_doc(1000.0, 0.75, 300);
        let new = experiment_doc(800.0, 0.75, 300);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "{}", report.render_table());
        assert_eq!(regs[0].name, "modules_per_second");
        assert!((regs[0].delta_pct() - 20.0).abs() < 1e-9);

        // The same drop under a looser threshold passes.
        let relaxed = diff_benches(&old, &new, 25.0).unwrap();
        assert!(relaxed.regressions().is_empty());
    }

    #[test]
    fn latency_and_percentile_growth_regress() {
        let old = experiment_doc(1000.0, 0.75, 300);
        let new = experiment_doc(1000.0, 1.5, 600);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        let names: Vec<&str> = report
            .regressions()
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert!(names.contains(&"phase_cpu_seconds.check"), "{names:?}");
        assert!(names.contains(&"hist.analyze.module.p95_ns"), "{names:?}");
        // Throughput didn't move; latency improvements are not flagged.
        assert!(!names.contains(&"modules_per_second"), "{names:?}");
    }

    #[test]
    fn improvements_are_not_regressions() {
        let old = experiment_doc(1000.0, 1.5, 600);
        let new = experiment_doc(2000.0, 0.5, 200);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        assert!(report.regressions().is_empty(), "{}", report.render_table());
    }

    #[test]
    fn family_mismatch_is_an_error() {
        let exp = experiment_doc(1000.0, 0.75, 300);
        let intra = r#"{"schema": "localias-bench-intra/v3",
            "sequential_seconds": 1.0, "parallel_seconds": 0.5, "speedup": 2.0}"#;
        let err = diff_benches(&exp, intra, 10.0).unwrap_err();
        assert!(err.contains("schema family mismatch"), "{err}");
        // Same family, different version: compares the intersection.
        let v5 = exp.replace("experiment/v6", "experiment/v5");
        let report = diff_benches(&v5, &exp, 10.0).unwrap();
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn zero_baseline_rates_must_stay_zero() {
        let doc = |rate: f64| {
            format!(
                r#"{{"schema": "localias-bench-fuzz/v2", "modules_per_sec": 500.0,
                 "wall_seconds": 4.0,
                 "fp_rates": [{{"backend": "steensgaard",
                   "modes": {{"no_confine": {{"rate": {rate}}}}}}}]}}"#
            )
        };
        let clean = diff_benches(&doc(0.0), &doc(0.0), 10.0).unwrap();
        assert!(clean.regressions().is_empty());
        let dirty = diff_benches(&doc(0.0), &doc(0.25), 10.0).unwrap();
        let regs = dirty.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "fp_rate.steensgaard.no_confine");
    }

    #[test]
    fn report_json_is_machine_readable() {
        let old = experiment_doc(1000.0, 0.75, 300);
        let new = experiment_doc(800.0, 0.75, 300);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("localias-bench-diff/v1")
        );
        assert_eq!(doc.get("regressions").and_then(Value::as_u64), Some(1));
        let metrics = doc.get("metrics").unwrap().as_arr().unwrap();
        let mps = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("modules_per_second"))
            .unwrap();
        assert_eq!(mps.get("regressed"), Some(&Value::Bool(true)));
    }

    #[test]
    fn table_renders_verdicts() {
        let old = experiment_doc(1000.0, 0.75, 300);
        let new = experiment_doc(800.0, 0.75, 300);
        let report = diff_benches(&old, &new, 10.0).unwrap();
        let table = report.render_table();
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("modules_per_second"), "{table}");
        assert!(table.contains("1 metric(s) regressed past 10%"), "{table}");
    }
}
