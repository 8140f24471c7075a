//! Deterministic budgeted dispatch over a [`Dag`].
//!
//! The scheduler walks [`Dag::schedule_order`] *strictly in order*: job
//! `k` is dispatched only once every earlier job in the order has been
//! dispatched (or resolved without running — cached, skipped), its
//! dependencies are terminal, and its thread lease fits the remaining
//! budget. Completion timing therefore never reorders starts — the start
//! sequence of a campaign is a pure function of the grid and the cache
//! set, at any worker count. Jobs run on scoped threads and report back
//! over an mpsc channel; each holds a lease of
//! `spec.threads.clamp(1, budget)` workers while running.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Instant;

use crate::dag::{Dag, JobSpec};

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran and succeeded.
    Completed,
    /// Skipped because a prior campaign run already completed it.
    Cached,
    /// Ran and failed with this error.
    Failed(String),
    /// Never ran: the named dependency did not succeed.
    Skipped {
        /// The failed/skipped dependency.
        dep: String,
    },
}

impl JobStatus {
    /// Whether dependents may run on top of this state.
    pub(crate) fn is_success(&self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Cached)
    }

    /// Short machine label (`completed` / `cached` / `failed` / `skipped`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Cached => "cached",
            JobStatus::Failed(_) => "failed",
            JobStatus::Skipped { .. } => "skipped",
        }
    }
}

/// One job's terminal record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Wall-clock seconds spent running (0 when not run).
    pub secs: f64,
}

/// Lifecycle notification delivered to the progress hook, on the
/// scheduler thread. The hook returns `false` to request a graceful
/// abort: no further jobs start, in-flight jobs drain.
#[derive(Debug)]
pub enum Progress<'a, R> {
    /// A job is about to start under `lease` workers.
    Started {
        /// The dispatched job.
        spec: &'a JobSpec,
        /// Granted worker lease.
        lease: usize,
    },
    /// A job reached a terminal state (`result` is `Some` only for
    /// [`JobStatus::Completed`]).
    Finished {
        /// Job id.
        id: &'a str,
        /// Terminal state.
        status: &'a JobStatus,
        /// Wall-clock seconds (0 when the job never ran).
        secs: f64,
        /// The run result, for completed jobs.
        result: Option<&'a R>,
    },
}

/// What a [`run_dag`] call produced.
#[derive(Debug)]
pub struct RunSummary<R> {
    /// Terminal records in declaration order; jobs never reached (abort)
    /// are absent.
    pub outcomes: Vec<JobOutcome>,
    /// Run results aligned with [`Dag::jobs`] declaration order (`None`
    /// for cached/failed/skipped/unreached jobs).
    pub results: Vec<Option<R>>,
    /// Whether the hook requested an abort before the grid finished.
    pub aborted: bool,
}

impl<R> RunSummary<R> {
    /// Whether every declared job reached a terminal state.
    pub fn all_terminal(&self, dag: &Dag) -> bool {
        self.outcomes.len() == dag.len()
    }
}

/// Runs `dag` under a worker `budget`.
///
/// Jobs whose ids are in `cached` are pre-resolved as
/// [`JobStatus::Cached`] (their dependents treat them as successes);
/// everything else is dispatched in [`Dag::schedule_order`] through
/// `runner(spec, lease)` on a scoped thread. `hook` observes every start
/// and finish and may return `false` to abort gracefully.
pub fn run_dag<R, F, H>(
    dag: &Dag,
    budget: usize,
    cached: &BTreeSet<String>,
    runner: F,
    mut hook: H,
) -> RunSummary<R>
where
    R: Send,
    F: Fn(&JobSpec, usize) -> Result<R, String> + Sync,
    H: FnMut(Progress<'_, R>) -> bool,
{
    let n = dag.len();
    let budget = budget.max(1);
    let mut status: Vec<Option<JobStatus>> = dag
        .jobs()
        .iter()
        .map(|j| cached.contains(&j.id).then_some(JobStatus::Cached))
        .collect();
    let mut secs = vec![0.0f64; n];
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut leases = vec![0usize; n];
    let order = dag.schedule_order();
    let mut aborted = false;

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, f64, Result<R, String>)>();
        let runner = &runner;
        let mut pos = 0; // next schedule-order slot to dispatch
        let mut running = 0usize;
        let mut used = 0usize;
        loop {
            // Dispatch strictly in schedule order until the head job is
            // blocked (dependency still running) or the budget is full.
            while !aborted && pos < order.len() {
                let j = order[pos];
                if status[j].is_some() {
                    pos += 1; // cached (pre-resolved)
                    continue;
                }
                let spec = &dag.jobs()[j];
                let mut blocked = false;
                let mut skip_on = None;
                for dep in &spec.deps {
                    let d = dag.index_of(dep).expect("dag validated");
                    match &status[d] {
                        None => {
                            blocked = true;
                            break;
                        }
                        Some(st) if !st.is_success() => skip_on = Some(dep.clone()),
                        Some(_) => {}
                    }
                }
                if blocked {
                    break;
                }
                if let Some(dep) = skip_on {
                    let st = JobStatus::Skipped { dep };
                    if !hook(Progress::Finished {
                        id: &spec.id,
                        status: &st,
                        secs: 0.0,
                        result: None,
                    }) {
                        aborted = true;
                    }
                    status[j] = Some(st);
                    pos += 1;
                    continue;
                }
                let lease = spec.threads.clamp(1, budget);
                if used + lease > budget {
                    break;
                }
                if !hook(Progress::Started { spec, lease }) {
                    aborted = true;
                    break;
                }
                leases[j] = lease;
                used += lease;
                running += 1;
                pos += 1;
                let tx = tx.clone();
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let out = runner(spec, lease);
                    let _ = tx.send((j, t0.elapsed().as_secs_f64(), out));
                });
            }
            if running == 0 {
                // Nothing in flight: either the grid is drained or an
                // abort stopped dispatch. A blocked head with nothing
                // running is impossible — its dependency would be running.
                break;
            }
            let (j, dt, out) = rx.recv().expect("worker channel open");
            used -= leases[j];
            running -= 1;
            secs[j] = dt;
            let (st, payload) = match out {
                Ok(r) => (JobStatus::Completed, Some(r)),
                Err(e) => (JobStatus::Failed(e), None),
            };
            if !hook(Progress::Finished {
                id: &dag.jobs()[j].id,
                status: &st,
                secs: dt,
                result: payload.as_ref(),
            }) {
                aborted = true;
            }
            status[j] = Some(st);
            results[j] = payload;
        }
    });

    let outcomes = (0..n)
        .filter_map(|j| {
            status[j].clone().map(|st| JobOutcome {
                id: dag.jobs()[j].id.clone(),
                status: st,
                secs: secs[j],
            })
        })
        .collect();
    RunSummary {
        outcomes,
        results,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::JobSpec;
    use std::sync::Mutex;

    fn dag(specs: Vec<JobSpec>) -> Dag {
        Dag::new(specs).unwrap()
    }

    fn ok_runner(
        log: &Mutex<Vec<String>>,
    ) -> impl Fn(&JobSpec, usize) -> Result<usize, String> + Sync + '_ {
        move |spec, lease| {
            log.lock().unwrap().push(spec.id.clone());
            Ok(lease)
        }
    }

    #[test]
    fn start_order_matches_schedule_order_at_any_budget() {
        let specs = || {
            vec![
                JobSpec::new("b1", &[], 1),
                JobSpec::new("b2", &[], 1),
                JobSpec::new("c1", &["b1"], 1),
                JobSpec::new("c2", &["b2", "b1"], 1),
                JobSpec::new("c3", &["b2"], 1),
            ]
        };
        let mut reference: Option<Vec<String>> = None;
        for budget in [1usize, 2, 4, 16] {
            let d = dag(specs());
            let mut starts = Vec::new();
            let summary = run_dag(
                &d,
                budget,
                &BTreeSet::new(),
                |spec, _| Ok::<_, String>(spec.id.clone()),
                |p| {
                    if let Progress::Started { spec, .. } = p {
                        starts.push(spec.id.clone());
                    }
                    true
                },
            );
            assert!(summary.all_terminal(&d));
            assert!(!summary.aborted);
            match &reference {
                None => reference = Some(starts),
                Some(r) => assert_eq!(&starts, r, "budget {budget} reordered starts"),
            }
        }
        assert_eq!(reference.unwrap(), ["b1", "b2", "c1", "c2", "c3"]);
    }

    #[test]
    fn failed_dependency_skips_dependents_transitively() {
        let d = dag(vec![
            JobSpec::new("root", &[], 1),
            JobSpec::new("mid", &["root"], 1),
            JobSpec::new("leaf", &["mid"], 1),
            JobSpec::new("free", &[], 1),
        ]);
        let summary = run_dag(
            &d,
            2,
            &BTreeSet::new(),
            |spec, _| {
                if spec.id == "root" {
                    Err("boom".to_string())
                } else {
                    Ok(spec.id.clone())
                }
            },
            |_| true,
        );
        let by_id = |id: &str| {
            summary
                .outcomes
                .iter()
                .find(|o| o.id == id)
                .unwrap()
                .status
                .clone()
        };
        assert_eq!(by_id("root"), JobStatus::Failed("boom".into()));
        assert_eq!(by_id("mid"), JobStatus::Skipped { dep: "root".into() });
        assert_eq!(by_id("leaf"), JobStatus::Skipped { dep: "mid".into() });
        assert_eq!(by_id("free"), JobStatus::Completed);
        assert!(summary.all_terminal(&d));
    }

    #[test]
    fn cached_jobs_do_not_run_but_unblock_dependents() {
        let log = Mutex::new(Vec::new());
        let d = dag(vec![
            JobSpec::new("base", &[], 1),
            JobSpec::new("leaf", &["base"], 1),
        ]);
        let cached: BTreeSet<String> = ["base".to_string()].into();
        let summary = run_dag(&d, 2, &cached, ok_runner(&log), |_| true);
        assert_eq!(*log.lock().unwrap(), ["leaf"]);
        assert_eq!(summary.outcomes[0].status, JobStatus::Cached);
        assert_eq!(summary.outcomes[1].status, JobStatus::Completed);
    }

    #[test]
    fn leases_clamp_to_budget() {
        let d = dag(vec![JobSpec::new("greedy", &[], 64)]);
        let summary = run_dag(
            &d,
            3,
            &BTreeSet::new(),
            |_, lease| Ok::<_, String>(lease),
            |_| true,
        );
        assert_eq!(summary.results[0], Some(3));
    }

    #[test]
    fn hook_false_aborts_gracefully() {
        let d = dag(vec![
            JobSpec::new("a", &[], 1),
            JobSpec::new("b", &[], 1),
            JobSpec::new("c", &[], 1),
        ]);
        let mut finished = 0usize;
        let summary = run_dag(
            &d,
            1,
            &BTreeSet::new(),
            |spec, _| Ok::<_, String>(spec.id.clone()),
            |p| {
                if matches!(p, Progress::Finished { .. }) {
                    finished += 1;
                    return finished < 2;
                }
                true
            },
        );
        assert!(summary.aborted);
        assert_eq!(summary.outcomes.len(), 2); // a, b terminal; c unreached
        assert!(!summary.all_terminal(&d));
    }
}
