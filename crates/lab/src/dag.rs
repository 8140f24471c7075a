//! The campaign's job graph and its deterministic schedule order.
//!
//! A [`Dag`] is a validated list of [`JobSpec`]s: every dependency must
//! name a declared job, ids are unique, and the graph is acyclic (a cycle
//! is a typed [`DagError::Cycle`] carrying the offending path, not a
//! hang). Validation also precomputes [`Dag::schedule_order`] — a
//! topological order built by Kahn's algorithm with a min-heap on
//! *declaration index* as the tie-break. The scheduler dispatches
//! strictly in that order, which is what makes campaign start order
//! identical at any worker count: declaration order is the only tie-break
//! and it is data, not timing.

use std::collections::BTreeMap;

/// One schedulable job: a stable id, the ids it depends on, and the
/// thread lease its body wants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable id (manifest key, artifact stem, CLI selector).
    pub id: String,
    /// Ids of jobs that must complete successfully first.
    pub deps: Vec<String>,
    /// Workers the job's internal fan-out wants (clamped to the budget).
    pub threads: usize,
}

impl JobSpec {
    /// Builds a spec from string-ish parts.
    pub fn new(id: impl Into<String>, deps: &[&str], threads: usize) -> Self {
        Self {
            id: id.into(),
            deps: deps.iter().map(|d| (*d).to_string()).collect(),
            threads,
        }
    }
}

/// Why a job list does not form a runnable DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two jobs share an id.
    DuplicateId(String),
    /// A dependency names no declared job.
    UnknownDep {
        /// Job whose dependency list is bad.
        job: String,
        /// The undeclared dependency id.
        dep: String,
    },
    /// The graph contains a dependency cycle; the path lists the ids in
    /// cycle order (first id repeated at the end).
    Cycle(Vec<String>),
    /// A `--only` selector names no declared job.
    UnknownJob(String),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateId(id) => write!(f, "duplicate job id '{id}'"),
            DagError::UnknownDep { job, dep } => {
                write!(f, "job '{job}' depends on undeclared job '{dep}'")
            }
            DagError::Cycle(path) => write!(f, "dependency cycle: {}", path.join(" -> ")),
            DagError::UnknownJob(id) => write!(f, "unknown job '{id}'"),
        }
    }
}

impl std::error::Error for DagError {}

/// A validated job graph with a precomputed deterministic schedule order.
#[derive(Debug, Clone)]
pub struct Dag {
    jobs: Vec<JobSpec>,
    index: BTreeMap<String, usize>,
    order: Vec<usize>,
}

impl Dag {
    /// Validates `jobs` and precomputes the schedule order.
    ///
    /// # Errors
    ///
    /// [`DagError::DuplicateId`], [`DagError::UnknownDep`] or
    /// [`DagError::Cycle`] when the list is not a runnable DAG.
    pub fn new(jobs: Vec<JobSpec>) -> Result<Self, DagError> {
        let mut index = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            if index.insert(job.id.clone(), i).is_some() {
                return Err(DagError::DuplicateId(job.id.clone()));
            }
        }
        for job in &jobs {
            for dep in &job.deps {
                if !index.contains_key(dep) {
                    return Err(DagError::UnknownDep {
                        job: job.id.clone(),
                        dep: dep.clone(),
                    });
                }
            }
        }
        let order = schedule_order(&jobs, &index)?;
        Ok(Self { jobs, index, order })
    }

    /// The jobs, in declaration order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Declaration index of `id`, if declared.
    pub(crate) fn index_of(&self, id: &str) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Topological dispatch order (declaration indices): Kahn's algorithm
    /// with min-declaration-index tie-break, identical for every worker
    /// count.
    pub fn schedule_order(&self) -> &[usize] {
        &self.order
    }

    /// Stable fingerprint of the declared grid — job ids joined by `,`.
    /// The campaign manifest stores it so a resume against a *different*
    /// grid is a typed mismatch instead of silent corruption.
    pub(crate) fn fingerprint(&self) -> String {
        self.jobs
            .iter()
            .map(|j| j.id.as_str())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The sub-DAG of `wanted` plus every transitive dependency, in the
    /// original declaration order (so the schedule tie-break is unchanged
    /// under `--only`).
    ///
    /// # Errors
    ///
    /// [`DagError::UnknownJob`] when a selector names no declared job.
    pub(crate) fn restrict(&self, wanted: &[String]) -> Result<Dag, DagError> {
        let mut keep = vec![false; self.jobs.len()];
        let mut stack = Vec::new();
        for id in wanted {
            match self.index_of(id) {
                Some(i) => stack.push(i),
                None => return Err(DagError::UnknownJob(id.clone())),
            }
        }
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut keep[i], true) {
                continue;
            }
            for dep in &self.jobs[i].deps {
                stack.push(self.index[dep.as_str()]);
            }
        }
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, j)| j.clone())
            .collect();
        Dag::new(jobs)
    }
}

/// Kahn's algorithm with a min-heap keyed on declaration index. Returns
/// the dispatch order, or extracts a cycle when one exists.
fn schedule_order(
    jobs: &[JobSpec],
    index: &BTreeMap<String, usize>,
) -> Result<Vec<usize>, DagError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = jobs.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, job) in jobs.iter().enumerate() {
        for dep in &job.deps {
            let d = index[dep];
            indegree[i] += 1;
            dependents[d].push(i);
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indegree[i] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = ready.pop() {
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(Reverse(j));
            }
        }
    }
    if order.len() < n {
        return Err(DagError::Cycle(find_cycle(jobs, index, &indegree)));
    }
    Ok(order)
}

/// Walks the residual graph (nodes with leftover in-degree) following one
/// dependency per step until a node repeats, then returns the loop as
/// `a -> b -> ... -> a`.
fn find_cycle(
    jobs: &[JobSpec],
    index: &BTreeMap<String, usize>,
    indegree: &[usize],
) -> Vec<String> {
    let start = indegree
        .iter()
        .position(|&d| d > 0)
        .expect("cycle exists in residual graph");
    let mut seen_at = BTreeMap::new();
    let mut path = Vec::new();
    let mut cur = start;
    loop {
        if let Some(&first) = seen_at.get(&cur) {
            let mut cycle: Vec<String> = path[first..]
                .iter()
                .map(|&i: &usize| jobs[i].id.clone())
                .collect();
            cycle.push(jobs[cur].id.clone());
            return cycle;
        }
        seen_at.insert(cur, path.len());
        path.push(cur);
        cur = jobs[cur]
            .deps
            .iter()
            .map(|d| index[d])
            .find(|&d| indegree[d] > 0)
            .expect("residual node keeps a residual dependency");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str, deps: &[&str]) -> JobSpec {
        JobSpec::new(id, deps, 1)
    }

    #[test]
    fn schedule_order_is_topological_and_declaration_tiebroken() {
        let dag = Dag::new(vec![
            spec("c", &["a"]),
            spec("a", &[]),
            spec("b", &[]),
            spec("d", &["b", "c"]),
        ])
        .unwrap();
        // a (idx 1) and b (idx 2) start ready; a wins the tie, which
        // readies c (idx 0), and c's lower declaration index beats b.
        assert_eq!(dag.schedule_order(), &[1, 0, 2, 3]);
        assert_eq!(dag.fingerprint(), "c,a,b,d");
    }

    #[test]
    fn duplicate_and_unknown_are_typed() {
        assert_eq!(
            Dag::new(vec![spec("a", &[]), spec("a", &[])]).unwrap_err(),
            DagError::DuplicateId("a".into())
        );
        assert_eq!(
            Dag::new(vec![spec("a", &["ghost"])]).unwrap_err(),
            DagError::UnknownDep {
                job: "a".into(),
                dep: "ghost".into()
            }
        );
    }

    #[test]
    fn cycle_is_reported_with_its_path() {
        let err = Dag::new(vec![
            spec("a", &["c"]),
            spec("b", &["a"]),
            spec("c", &["b"]),
            spec("free", &[]),
        ])
        .unwrap_err();
        match err {
            DagError::Cycle(path) => {
                assert_eq!(path.first(), path.last());
                assert_eq!(path.len(), 4); // three nodes + repeated head
                for id in ["a", "b", "c"] {
                    assert!(path.contains(&id.to_string()), "{path:?} misses {id}");
                }
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn restrict_pulls_transitive_deps_and_keeps_declaration_order() {
        let dag = Dag::new(vec![
            spec("base", &[]),
            spec("mid", &["base"]),
            spec("leaf", &["mid"]),
            spec("other", &[]),
        ])
        .unwrap();
        let sub = dag.restrict(&["leaf".to_string()]).unwrap();
        let ids: Vec<&str> = sub.jobs().iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["base", "mid", "leaf"]);
        assert_eq!(
            dag.restrict(&["ghost".to_string()]).unwrap_err(),
            DagError::UnknownJob("ghost".into())
        );
    }
}
