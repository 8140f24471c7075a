//! The consolidated campaign report: job coverage + Pareto frontiers.
//!
//! Every completed job contributes [`ParetoPoint`]s (method, params, OPs,
//! accuracy) on its track; this module groups them per track, flags which
//! points sit on the params-vs-accuracy and OPs-vs-accuracy frontiers,
//! and renders one consolidated report — a text form next to a JSON form,
//! like every other artifact pair in the repo. The report also tables the
//! terminal state of *every* declared job (including cached and skipped
//! ones), so one file answers "which table/figure rows exist and where
//! did the numbers come from".

use std::collections::BTreeMap;

use crate::report::{ParetoPoint, Table};
use alf_obs::JsonWriter;

use crate::scheduler::{JobOutcome, JobStatus};

/// One point with its frontier flags.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FrontierPoint {
    /// The contributed point.
    pub point: ParetoPoint,
    /// On the (params, accuracy) frontier: no method has fewer-or-equal
    /// params *and* greater-or-equal accuracy with one strict.
    pub on_params_frontier: bool,
    /// On the (OPs, accuracy) frontier.
    pub on_ops_frontier: bool,
}

/// All points of one track, sorted by ascending params.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrackFrontier {
    /// Track name (`cifar`, `imagenet`).
    pub track: String,
    /// Flagged points.
    pub points: Vec<FrontierPoint>,
}

/// The campaign-level Pareto view.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ParetoReport {
    /// One frontier per track, track-name order.
    pub tracks: Vec<TrackFrontier>,
}

fn dominated(points: &[ParetoPoint], i: usize, cost: impl Fn(&ParetoPoint) -> f64) -> bool {
    let p = &points[i];
    points.iter().enumerate().any(|(j, q)| {
        j != i
            && cost(q) <= cost(p)
            && q.accuracy >= p.accuracy
            && (cost(q) < cost(p) || q.accuracy > p.accuracy)
    })
}

/// Groups `points` per track and flags both frontiers.
pub(crate) fn consolidate(points: &[ParetoPoint]) -> ParetoReport {
    let mut by_track: BTreeMap<&str, Vec<ParetoPoint>> = BTreeMap::new();
    for p in points {
        by_track.entry(&p.track).or_default().push(p.clone());
    }
    let tracks = by_track
        .into_iter()
        .map(|(track, mut pts)| {
            pts.sort_by(|a, b| {
                a.params
                    .partial_cmp(&b.params)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.method.cmp(&b.method))
            });
            let points = (0..pts.len())
                .map(|i| FrontierPoint {
                    on_params_frontier: !dominated(&pts, i, |p| p.params),
                    on_ops_frontier: !dominated(&pts, i, |p| p.ops),
                    point: pts[i].clone(),
                })
                .collect();
            TrackFrontier {
                track: track.to_string(),
                points,
            }
        })
        .collect();
    ParetoReport { tracks }
}

fn status_cell(status: &JobStatus) -> String {
    match status {
        JobStatus::Failed(e) => format!("failed: {e}"),
        JobStatus::Skipped { dep } => format!("skipped (dep {dep})"),
        other => other.label().to_string(),
    }
}

/// Renders the consolidated text report: the per-job coverage table, then
/// one frontier table per track.
pub(crate) fn report_text(
    scale: &str,
    outcomes: &[JobOutcome],
    train_counts: &BTreeMap<String, u64>,
    report: &ParetoReport,
) -> String {
    let mut out = format!("alf-lab campaign report ({scale} scale)\n");
    let rows = outcomes
        .iter()
        .map(|o| {
            vec![
                o.id.clone(),
                status_cell(&o.status),
                if o.secs > 0.0 {
                    format!("{:.2}", o.secs)
                } else {
                    "-".to_string()
                },
            ]
        })
        .collect();
    out.push_str(&Table::new("job coverage", &["job", "status", "secs"], rows).to_text());
    if !train_counts.is_empty() {
        let rows = train_counts
            .iter()
            .map(|(id, n)| vec![id.clone(), n.to_string()])
            .collect();
        out.push_str(&Table::new("baseline trainings", &["baseline", "count"], rows).to_text());
    }
    for t in &report.tracks {
        let rows = t
            .points
            .iter()
            .map(|fp| {
                vec![
                    fp.point.method.clone(),
                    format!("{:.0}", fp.point.params),
                    format!("{:.0}", fp.point.ops),
                    format!("{:.1}%", 100.0 * fp.point.accuracy),
                    if fp.on_params_frontier { "*" } else { "" }.to_string(),
                    if fp.on_ops_frontier { "*" } else { "" }.to_string(),
                    fp.point.source.clone(),
                ]
            })
            .collect();
        out.push_str(
            &Table::new(
                &format!("{} pareto ( * = on frontier )", t.track),
                &[
                    "method", "params", "ops", "accuracy", "p-front", "o-front", "source",
                ],
                rows,
            )
            .to_text(),
        );
    }
    out
}

/// Renders the consolidated JSON report. `all_terminal` states whether
/// every declared job reached a terminal state this run — the bit
/// `scripts/verify.sh` asserts on.
pub(crate) fn report_json(
    scale: &str,
    outcomes: &[JobOutcome],
    all_terminal: bool,
    train_counts: &BTreeMap<String, u64>,
    metrics: &BTreeMap<String, BTreeMap<String, f64>>,
    report: &ParetoReport,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("campaign", "alf-lab");
    w.field_str("scale", scale);
    w.field_bool("all_terminal", all_terminal);
    w.key("jobs");
    w.begin_array();
    for o in outcomes {
        w.begin_object();
        w.field_str("id", &o.id);
        w.field_str("status", o.status.label());
        if let JobStatus::Failed(e) = &o.status {
            w.field_str("error", e);
        }
        if let JobStatus::Skipped { dep } = &o.status {
            w.field_str("skipped_on", dep);
        }
        w.field_f64("secs", o.secs);
        if let Some(m) = metrics.get(&o.id) {
            w.key("metrics");
            w.begin_object();
            for (k, v) in m {
                w.field_f64(k, *v);
            }
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.key("baseline_trainings");
    w.begin_object();
    for (id, n) in train_counts {
        w.field_u64(id, *n);
    }
    w.end_object();
    w.key("pareto");
    w.begin_array();
    for t in &report.tracks {
        w.begin_object();
        w.field_str("track", &t.track);
        w.key("points");
        w.begin_array();
        for fp in &t.points {
            w.begin_object();
            w.field_str("method", &fp.point.method);
            w.field_f64("params", fp.point.params);
            w.field_f64("ops", fp.point.ops);
            w.field_f64("accuracy", fp.point.accuracy);
            w.field_bool("on_params_frontier", fp.on_params_frontier);
            w.field_bool("on_ops_frontier", fp.on_ops_frontier);
            w.field_str("source", &fp.point.source);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(track: &str, method: &str, params: f64, ops: f64, acc: f64) -> ParetoPoint {
        ParetoPoint {
            track: track.into(),
            method: method.into(),
            params,
            ops,
            accuracy: acc,
            source: "test".into(),
        }
    }

    #[test]
    fn frontier_flags_dominated_points() {
        let report = consolidate(&[
            point("cifar", "big", 100.0, 100.0, 0.9),
            point("cifar", "small", 50.0, 50.0, 0.8),
            point("cifar", "bad", 120.0, 120.0, 0.7), // dominated by both
            point("imagenet", "only", 10.0, 10.0, 0.5),
        ]);
        assert_eq!(report.tracks.len(), 2);
        let cifar = &report.tracks[0];
        assert_eq!(cifar.track, "cifar");
        let flags: BTreeMap<&str, (bool, bool)> = cifar
            .points
            .iter()
            .map(|fp| {
                (
                    fp.point.method.as_str(),
                    (fp.on_params_frontier, fp.on_ops_frontier),
                )
            })
            .collect();
        assert_eq!(flags["big"], (true, true));
        assert_eq!(flags["small"], (true, true));
        assert_eq!(flags["bad"], (false, false));
        // Sorted by ascending params.
        assert_eq!(cifar.points[0].point.method, "small");
        // A lone point is trivially on both frontiers.
        assert!(report.tracks[1].points[0].on_params_frontier);
    }

    #[test]
    fn report_renders_every_outcome_and_track() {
        let outcomes = vec![
            JobOutcome {
                id: "baseline:plain20".into(),
                status: JobStatus::Cached,
                secs: 0.0,
            },
            JobOutcome {
                id: "table2".into(),
                status: JobStatus::Completed,
                secs: 2.0,
            },
            JobOutcome {
                id: "fig3".into(),
                status: JobStatus::Skipped {
                    dep: "baseline:alf-plain20".into(),
                },
                secs: 0.0,
            },
        ];
        let mut counts = BTreeMap::new();
        counts.insert("baseline:plain20".to_string(), 1);
        let pr = consolidate(&[point("cifar", "ALF", 1.0, 1.0, 0.9)]);
        let text = report_text("smoke", &outcomes, &counts, &pr);
        for needle in ["job coverage", "table2", "skipped (dep", "cifar pareto"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        let mut metrics = BTreeMap::new();
        metrics.insert("table2".to_string(), {
            let mut m = BTreeMap::new();
            m.insert("acc".to_string(), 0.9);
            m
        });
        let json = report_json("smoke", &outcomes, true, &counts, &metrics, &pr);
        assert!(json.contains("\"all_terminal\":true"));
        assert!(json.contains("\"id\":\"table2\",\"status\":\"completed\""));
        assert!(json.contains("\"baseline_trainings\":{\"baseline:plain20\":1}"));
        assert!(json.contains("\"on_params_frontier\":true"));
    }
}
