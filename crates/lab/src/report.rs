//! Structured results: what a job *returns* instead of printing.
//!
//! Every figure/table job produces a [`JobResult`] — named tables, a flat
//! metrics map, free-text notes, and the [`ParetoPoint`]s it contributes
//! to the campaign-level accuracy-vs-cost frontier. The `alf-lab`
//! scheduler renders the same result twice:
//! [`JobResult::to_text`] for humans, [`JobResult::to_json`] (through
//! `alf_obs::JsonWriter`) for machines, written side by side as
//! `<out>/<job>.txt` and `<out>/<job>.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use alf_obs::JsonWriter;

use crate::Scale;

/// One fixed-width table artifact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (ragged rows are padded with empty cells on render).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Builds a table from string-ish parts.
    pub(crate) fn new(title: &str, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }

    /// Renders the fixed-width form (the old `print_table` body).
    pub(crate) fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        let line = |cells: &[String], out: &mut String| {
            let mut s = String::new();
            for (w, c) in widths.iter().zip(cells) {
                s.push_str(&format!("{c:<width$}  ", width = w));
            }
            out.push_str(s.trim_end());
            out.push('\n');
        };
        line(&self.headers, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// One (method, cost, accuracy) point a job contributes to the
/// consolidated Pareto report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Evaluation track (`cifar` or `imagenet`).
    pub track: String,
    /// Method label (`ALF`, `AMC`, `FPGM`, `ResNet-20`, …).
    pub method: String,
    /// Parameter count on the paper geometry.
    pub params: f64,
    /// Operation count (OPs) on the paper geometry.
    pub ops: f64,
    /// Measured top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Id of the job that measured the point.
    pub source: String,
}

/// Structured output of one results job.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobResult {
    /// Job id (`table2`, `fig2a`, `baseline:plain20`, …).
    pub job: String,
    /// Scale the job ran at.
    pub scale: &'static str,
    /// Rendered tables, in presentation order.
    pub tables: Vec<Table>,
    /// Flat machine-readable metrics.
    pub metrics: BTreeMap<String, f64>,
    /// Human commentary (the old trailing `println!`s).
    pub notes: Vec<String>,
    /// Contributions to the campaign Pareto frontier.
    pub pareto: Vec<ParetoPoint>,
}

impl JobResult {
    /// Empty result for a job at a scale.
    pub(crate) fn new(job: &str, scale: Scale) -> Self {
        Self {
            job: job.to_string(),
            scale: scale.label(),
            tables: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            pareto: Vec::new(),
        }
    }

    /// Appends a table.
    pub(crate) fn push_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Records a metric (overwrites on key collision).
    pub(crate) fn metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Appends a note line.
    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Appends a Pareto contribution, stamping this job as its source.
    pub(crate) fn pareto_point(
        &mut self,
        track: &str,
        method: &str,
        params: f64,
        ops: f64,
        acc: f64,
    ) {
        self.pareto.push(ParetoPoint {
            track: track.to_string(),
            method: method.to_string(),
            params,
            ops,
            accuracy: acc,
            source: self.job.clone(),
        });
    }

    /// Full human-readable rendering: header, tables, then notes.
    pub(crate) fn to_text(&self) -> String {
        let mut out = format!("{} ({} scale)\n", self.job, self.scale);
        for t in &self.tables {
            out.push_str(&t.to_text());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(n);
                out.push('\n');
            }
        }
        out
    }

    /// Machine-readable rendering (one JSON object).
    pub(crate) fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("job", &self.job);
        w.field_str("scale", self.scale);
        w.key("metrics");
        w.begin_object();
        for (k, v) in &self.metrics {
            w.field_f64(k, *v);
        }
        w.end_object();
        w.key("pareto");
        w.begin_array();
        for p in &self.pareto {
            w.begin_object();
            w.field_str("track", &p.track);
            w.field_str("method", &p.method);
            w.field_f64("params", p.params);
            w.field_f64("ops", p.ops);
            w.field_f64("accuracy", p.accuracy);
            w.field_str("source", &p.source);
            w.end_object();
        }
        w.end_array();
        w.key("tables");
        w.begin_array();
        for t in &self.tables {
            w.begin_object();
            w.field_str("title", &t.title);
            w.key("headers");
            w.begin_array();
            for h in &t.headers {
                w.value_str(h);
            }
            w.end_array();
            w.key("rows");
            w.begin_array();
            for row in &t.rows {
                w.begin_array();
                for cell in row {
                    w.value_str(cell);
                }
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("notes");
        w.begin_array();
        for n in &self.notes {
            w.value_str(n);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes the `<job>.txt` / `<job>.json` artifact pair under `dir`
    /// (created if missing). `:` in job ids becomes `_` so baseline jobs
    /// produce portable file names.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub(crate) fn write_artifacts(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let stem = self.job.replace(':', "_");
        let txt = dir.join(format!("{stem}.txt"));
        let json = dir.join(format!("{stem}.json"));
        std::fs::write(&txt, self.to_text())?;
        std::fs::write(&json, self.to_json())?;
        Ok((txt, json))
    }
}

/// Renders `frac ∈ [0, 1]` as a unicode bar of `width` cells.
pub(crate) fn hbar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

/// Formats a count in engineering notation: `1.23M`, `456.7k`, `12`.
pub(crate) fn eng(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobResult {
        let mut r = JobResult::new("table2", Scale::Smoke);
        r.push_table(Table::new(
            "t",
            &["a", "bb"],
            vec![vec!["1".into(), "2".into()]],
        ));
        r.metric("acc", 0.5);
        r.note("done");
        r.pareto_point("cifar", "ALF", 100.0, 200.0, 0.75);
        r
    }

    #[test]
    fn text_contains_tables_and_notes() {
        let text = sample().to_text();
        assert!(text.starts_with("table2 (smoke scale)"));
        assert!(text.contains("== t =="));
        assert!(text.contains("a  bb"));
        assert!(text.ends_with("done\n"));
    }

    #[test]
    fn json_is_structured() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"job\":\"table2\",\"scale\":\"smoke\""));
        assert!(json.contains("\"metrics\":{\"acc\":0.5}"));
        assert!(json.contains(
            "\"pareto\":[{\"track\":\"cifar\",\"method\":\"ALF\",\"params\":100,\"ops\":200,\
             \"accuracy\":0.75,\"source\":\"table2\"}]"
        ));
        assert!(json.contains("\"rows\":[[\"1\",\"2\"]]"));
    }

    #[test]
    fn artifacts_write_side_by_side() {
        let dir = std::env::temp_dir().join(format!("alf_lab_report_{}", std::process::id()));
        let mut r = sample();
        r.job = "baseline:plain20".into();
        let (txt, json) = r.write_artifacts(&dir).unwrap();
        assert!(txt.ends_with("baseline_plain20.txt"));
        assert!(json.ends_with("baseline_plain20.json"));
        assert!(txt.exists() && json.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eng_notation() {
        assert_eq!(eng(1_230_000.0), "1.23M");
        assert_eq!(eng(4_567.0), "4.6k");
        assert_eq!(eng(12.0), "12");
        assert_eq!(eng(2.5e9), "2.50G");
    }

    #[test]
    fn hbar_clamps() {
        assert_eq!(hbar(0.0, 4), "░░░░");
        assert_eq!(hbar(1.0, 4), "████");
        assert_eq!(hbar(2.0, 4), "████");
        assert_eq!(hbar(0.5, 4), "██░░");
    }
}
