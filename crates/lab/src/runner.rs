//! Campaign execution: grid → DAG → scheduler → manifest/events/report.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use alf_obs::{resolve_threads, EventLog, FileSink};

use crate::artifacts::ArtifactStore;
use crate::campaign::{CampaignError, JobRecord, ManifestFile, RecordStatus};
use crate::dag::{Dag, DagError, JobSpec};
use crate::jobs::{JobCtx, JobKind};
use crate::pareto;
use crate::report::ParetoPoint;
use crate::scheduler::{run_dag, JobOutcome, JobStatus, Progress};
use crate::Scale;

/// Anything a campaign can fail with.
#[derive(Debug)]
pub enum LabError {
    /// The grid (or a `--only` selection) is not a runnable DAG.
    Dag(DagError),
    /// Manifest problems, including the exactly-once violation.
    Campaign(CampaignError),
    /// Event-log or report I/O.
    Io(std::io::Error),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Dag(e) => write!(f, "{e}"),
            LabError::Campaign(e) => write!(f, "{e}"),
            LabError::Io(e) => write!(f, "campaign i/o: {e}"),
        }
    }
}

impl std::error::Error for LabError {}

impl From<DagError> for LabError {
    fn from(e: DagError) -> Self {
        LabError::Dag(e)
    }
}

impl From<CampaignError> for LabError {
    fn from(e: CampaignError) -> Self {
        LabError::Campaign(e)
    }
}

impl From<std::io::Error> for LabError {
    fn from(e: std::io::Error) -> Self {
        LabError::Io(e)
    }
}

/// How to run a campaign.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Experiment scale.
    pub scale: Scale,
    /// Explicit worker budget (`--jobs`); falls back to the host
    /// parallelism.
    pub jobs: Option<usize>,
    /// Artifact directory.
    pub out: PathBuf,
    /// Restrict to these job ids plus transitive dependencies.
    pub only: Option<Vec<String>>,
    /// Discard any existing manifest instead of resuming.
    pub fresh: bool,
    /// Abort the campaign after this many job completions (the
    /// kill-simulation switch `scripts/verify.sh` drives; the process
    /// then exits with code 70).
    pub abort_after: Option<usize>,
    /// Suppress per-job stdout lines (tests).
    pub quiet: bool,
}

impl CampaignOpts {
    /// Defaults: smoke scale, auto budget, `results/`, full grid.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            jobs: None,
            out: PathBuf::from("results"),
            only: None,
            fresh: false,
            abort_after: None,
            quiet: false,
        }
    }
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Terminal job records, declaration order.
    pub outcomes: Vec<JobOutcome>,
    /// Whether the abort switch stopped the campaign early.
    pub aborted: bool,
    /// Whether every declared job reached a terminal state.
    pub all_terminal: bool,
    /// Rendered consolidated report (also written next to the manifest).
    pub report: String,
    /// Path of the text report.
    pub report_txt: PathBuf,
    /// Path of the JSON report.
    pub report_json: PathBuf,
}

impl CampaignSummary {
    /// Whether any job failed or was skipped.
    pub fn has_failures(&self) -> bool {
        self.outcomes.iter().any(|o| !o.status.is_success())
    }
}

/// The full declared grid as a [`Dag`].
///
/// # Panics
///
/// Panics if the declared grid is not a DAG — a compile-time-adjacent
/// invariant guarded by tests, never an input condition.
pub(crate) fn grid_dag() -> Dag {
    let specs: Vec<JobSpec> = JobKind::grid()
        .into_iter()
        .map(|j| JobSpec {
            id: j.id().to_string(),
            deps: j.deps().into_iter().map(|d| d.id().to_string()).collect(),
            threads: j.threads(),
        })
        .collect();
    Dag::new(specs).expect("declared grid is a DAG")
}

fn manifest_path(out: &std::path::Path, scale: Scale) -> PathBuf {
    out.join(format!("campaign-{}.manifest", scale.label()))
}

fn events_path(out: &std::path::Path, scale: Scale) -> PathBuf {
    out.join(format!("campaign-{}.events.jsonl", scale.label()))
}

/// Runs (or resumes) a campaign — the whole story of an `alf-lab run`:
///
/// 1. build the declared grid as a [`Dag`] (optionally restricted to
///    `--only` selections plus their transitive dependencies);
/// 2. open (or resume) the campaign manifest and pre-mark completed jobs
///    as cached;
/// 3. dispatch under the worker budget (`--jobs`, else host cores),
///    streaming `job.*` lifecycle events into the campaign JSONL and
///    appending a manifest record the moment each job is terminal
///    (artifacts first, record second — a record implies its artifacts
///    exist);
/// 4. assert the exactly-once training invariant from the artifact-store
///    telemetry;
/// 5. consolidate every completed job's metrics and Pareto points —
///    cached ones included, straight from the manifest — into the
///    `pareto-<scale>.{txt,json}` report pair.
///
/// # Errors
///
/// [`LabError`] on an invalid selection, a manifest that belongs to a
/// different campaign, report I/O failures, or a broken exactly-once
/// invariant.
pub fn run_campaign(opts: &CampaignOpts) -> Result<CampaignSummary, LabError> {
    let full = grid_dag();
    let dag = match &opts.only {
        Some(ids) => full.restrict(ids)?,
        None => full,
    };
    let budget = resolve_threads(opts.jobs);
    std::fs::create_dir_all(&opts.out)?;

    let mut manifest = ManifestFile::load_or_create(
        &manifest_path(&opts.out, opts.scale),
        opts.scale.label(),
        &dag.fingerprint(),
        opts.fresh,
    )?;
    let cached = manifest.completed_ids();
    let cached_payloads = manifest.completed_payloads();
    let resumed = !manifest.records().is_empty();

    let ev_path = events_path(&opts.out, opts.scale);
    let sink: Box<dyn alf_obs::TelemetrySink> = if resumed && !opts.fresh {
        Box::new(FileSink::append(&ev_path)?)
    } else {
        Box::new(FileSink::create(&ev_path)?)
    };
    let mut log = EventLog::new(sink);
    log.set_scope("campaign", "alf-lab");
    log.set_scope("scale", opts.scale.label());
    if let Some(mut e) = log.event("campaign.start") {
        e.field_u64("budget", budget as u64);
        e.field_u64("jobs", dag.len() as u64);
        e.field_u64("cached", cached.len() as u64);
        e.field_bool("resumed", resumed);
    }

    // Baseline jobs lease up to 2 workers; the store trains under that cap.
    let store = ArtifactStore::with_threads(opts.scale, Some(2.clamp(1, budget)));
    let mut completions = 0usize;
    let say = |line: &str| {
        if !opts.quiet {
            println!("{line}");
        }
    };

    let summary = run_dag(
        &dag,
        budget,
        &cached,
        |spec: &JobSpec, lease: usize| {
            let job =
                JobKind::from_id(&spec.id).ok_or_else(|| format!("unknown job {}", spec.id))?;
            let ctx = JobCtx {
                store: &store,
                threads: Some(lease),
            };
            let result = job.run(&ctx).map_err(|e| e.to_string())?;
            result
                .write_artifacts(&opts.out)
                .map_err(|e| format!("artifacts for {}: {e}", spec.id))?;
            Ok(result)
        },
        |progress| {
            match progress {
                Progress::Started { spec, lease } => {
                    say(&format!("start  {} (lease {lease})", spec.id));
                    if let Some(mut e) = log.event("job.start") {
                        e.field_str("id", &spec.id);
                        e.field_u64("lease", lease as u64);
                    }
                }
                Progress::Finished {
                    id,
                    status,
                    secs,
                    result,
                } => {
                    say(&format!("finish {id}: {} ({secs:.2}s)", status.label()));
                    if let Some(mut e) = log.event("job.finish") {
                        e.field_str("id", id);
                        e.field_str("status", status.label());
                        e.field_f64("secs", secs);
                    }
                    let record_status = match status {
                        JobStatus::Completed => RecordStatus::Completed {
                            secs,
                            metrics: result.map(|r| r.metrics.clone()).unwrap_or_default(),
                            pareto: result.map(|r| r.pareto.clone()).unwrap_or_default(),
                        },
                        JobStatus::Failed(e) => RecordStatus::Failed { error: e.clone() },
                        JobStatus::Skipped { dep } => RecordStatus::Skipped { dep: dep.clone() },
                        JobStatus::Cached => unreachable!("cached jobs never reach the hook"),
                    };
                    // The artifact pair is already on disk (written inside
                    // the job closure), so committing the record here keeps
                    // "record implies artifacts" true under any kill point.
                    if let Err(e) = manifest.append(&JobRecord {
                        id: id.to_string(),
                        status: record_status,
                    }) {
                        eprintln!("warning: manifest append for {id} failed: {e}");
                    }
                    if matches!(status, JobStatus::Completed) {
                        completions += 1;
                        if opts.abort_after.is_some_and(|n| completions >= n) {
                            if let Some(mut e) = log.event("campaign.abort") {
                                e.field_u64("completions", completions as u64);
                            }
                            return false;
                        }
                    }
                }
            }
            true
        },
    );

    // Exactly-once: the artifact store counted every completed training.
    let counts = store.train_counts();
    if let Some(mut e) = log.event("campaign.trainings") {
        for (id, n) in &counts {
            e.field_u64(id, *n);
        }
    }
    if let Some((id, n)) = counts.iter().find(|(_, n)| **n != 1) {
        return Err(CampaignError::BaselineRetrained {
            id: id.clone(),
            count: *n,
        }
        .into());
    }

    // Consolidated report: live results where the job ran this time,
    // manifest payloads where it was cached.
    let mut metrics: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut points: Vec<ParetoPoint> = Vec::new();
    for (slot, job) in summary.results.iter().zip(dag.jobs()) {
        if let Some(r) = slot {
            metrics.insert(job.id.clone(), r.metrics.clone());
            points.extend(r.pareto.iter().cloned());
        } else if let Some((_, m, p)) = cached_payloads.get(&job.id) {
            metrics.insert(job.id.clone(), m.clone());
            points.extend(p.iter().cloned());
        }
    }
    let frontier = pareto::consolidate(&points);
    let all_terminal = summary.all_terminal(&dag);
    let text = pareto::report_text(opts.scale.label(), &summary.outcomes, &counts, &frontier);
    let json = pareto::report_json(
        opts.scale.label(),
        &summary.outcomes,
        all_terminal,
        &counts,
        &metrics,
        &frontier,
    );
    let report_txt = opts.out.join(format!("pareto-{}.txt", opts.scale.label()));
    let report_json = opts.out.join(format!("pareto-{}.json", opts.scale.label()));
    std::fs::write(&report_txt, &text)?;
    std::fs::write(&report_json, &json)?;
    if let Some(mut e) = log.event("campaign.finish") {
        e.field_bool("aborted", summary.aborted);
        e.field_bool("all_terminal", all_terminal);
        e.field_u64("terminal_jobs", summary.outcomes.len() as u64);
    }
    log.flush();

    let skipped: BTreeSet<&str> = summary
        .outcomes
        .iter()
        .filter(|o| !o.status.is_success())
        .map(|o| o.id.as_str())
        .collect();
    if !opts.quiet && !skipped.is_empty() {
        eprintln!("unsuccessful jobs: {skipped:?}");
    }

    Ok(CampaignSummary {
        outcomes: summary.outcomes,
        aborted: summary.aborted,
        all_terminal,
        report: text,
        report_txt,
        report_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dag_has_every_declared_job_and_is_schedulable() {
        let dag = grid_dag();
        assert_eq!(dag.len(), JobKind::grid().len());
        assert_eq!(dag.schedule_order().len(), dag.len());
        // Baselines must dispatch before their consumers.
        let pos: BTreeMap<&str, usize> = dag
            .schedule_order()
            .iter()
            .enumerate()
            .map(|(at, &j)| (dag.jobs()[j].id.as_str(), at))
            .collect();
        for job in dag.jobs() {
            for dep in &job.deps {
                assert!(pos[dep.as_str()] < pos[job.id.as_str()]);
            }
        }
    }

    #[test]
    fn restricting_to_headline_pulls_its_baselines() {
        let dag = grid_dag().restrict(&["headline".to_string()]).unwrap();
        let ids: Vec<&str> = dag.jobs().iter().map(|j| j.id.as_str()).collect();
        assert_eq!(
            ids,
            ["baseline:resnet20", "baseline:alf-resnet20", "headline"]
        );
    }
}
