//! The paper's results grid as typed, composable job functions.
//!
//! Each experiment body is a function from a [`JobCtx`] to a structured
//! [`JobResult`]. [`JobKind`] is the declarative grid: every job has a
//! stable id, an explicit dependency list ([`JobKind::deps`] — shared
//! `baseline:*` training jobs feed the tables, figures and ablations so
//! each reference trains exactly once), and a thread lease
//! ([`JobKind::threads`]) the `alf-lab` scheduler budgets with.

use alf_core::train::Evaluator;
use alf_core::{ConvShape, Result};
use alf_data::{Dataset, Split};

use crate::artifacts::{ArtifactStore, Baseline, BaselineKind};
use crate::report::{JobResult, Table};
use crate::Scale;

pub(crate) mod ablations;
pub(crate) mod figures;
pub(crate) mod tables;

/// Everything a job function may touch: the scale-pinned artifact store
/// and the thread lease the scheduler granted.
#[derive(Debug)]
pub(crate) struct JobCtx<'a> {
    /// Shared datasets and trained baselines.
    pub store: &'a ArtifactStore,
    /// Worker cap for this job's internal fan-out (`None`: host default).
    pub threads: Option<usize>,
}

impl<'a> JobCtx<'a> {
    /// The experiment scale.
    pub(crate) fn scale(&self) -> Scale {
        self.store.scale()
    }

    /// Evaluates accuracy under this job's thread lease.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub(crate) fn evaluate(
        &self,
        model: &alf_core::CnnModel,
        data: &Dataset,
        split: Split,
        batch: usize,
    ) -> Result<f32> {
        let mut eval = match self.threads {
            Some(n) => Evaluator::with_threads(n),
            None => Evaluator::new(),
        };
        eval.evaluate(model, data, split, batch)
    }
}

/// Every job of the declared results grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// Shared reference training (feeds the consumer jobs below).
    Baseline(BaselineKind),
    /// Fig. 2a — expansion-layer design-space exploration.
    Fig2a,
    /// Fig. 2b — autoencoder design-space exploration.
    Fig2b,
    /// Fig. 2c — pruning dynamics across `(lrae, t)` variants.
    Fig2c,
    /// Fig. 3 — per-layer energy/latency on the Eyeriss model.
    Fig3,
    /// Table II — pruned CNNs on synth-CIFAR.
    Table2,
    /// Table III — ImageNet-track benchmarking.
    Table3,
    /// Headline claims (params/OPs/latency/energy/accuracy).
    Headline,
    /// Per-layer pruning sensitivity vs ALF keep decisions.
    Sensitivity,
    /// Ablation A1 — straight-through estimator on/off.
    AblationSte,
    /// Ablation A2 — νprune schedule vs constant pressure.
    AblationNuprune,
    /// Ablation A3 — dataflow choice on the accelerator model.
    AblationDataflow,
    /// Ablation A4 — fused-layer scheduling of ALF blocks.
    AblationFusion,
    /// Ablation A5 — post-training quantization on deployed models.
    AblationQuant,
}

impl JobKind {
    /// The full grid in declaration order: baselines first, then every
    /// figure/table/ablation. Declaration order is the scheduler's
    /// deterministic tie-break, so this list *is* the campaign.
    pub(crate) fn grid() -> Vec<JobKind> {
        let mut jobs: Vec<JobKind> = BaselineKind::ALL
            .iter()
            .map(|&k| JobKind::Baseline(k))
            .collect();
        jobs.extend([
            JobKind::Fig2a,
            JobKind::Fig2b,
            JobKind::Fig2c,
            JobKind::Fig3,
            JobKind::Table2,
            JobKind::Table3,
            JobKind::Headline,
            JobKind::Sensitivity,
            JobKind::AblationSte,
            JobKind::AblationNuprune,
            JobKind::AblationDataflow,
            JobKind::AblationFusion,
            JobKind::AblationQuant,
        ]);
        jobs
    }

    /// Stable job id (manifest key, artifact file stem, CLI selector).
    pub(crate) fn id(self) -> &'static str {
        match self {
            JobKind::Baseline(k) => k.id(),
            JobKind::Fig2a => "fig2a",
            JobKind::Fig2b => "fig2b",
            JobKind::Fig2c => "fig2c",
            JobKind::Fig3 => "fig3",
            JobKind::Table2 => "table2",
            JobKind::Table3 => "table3",
            JobKind::Headline => "headline",
            JobKind::Sensitivity => "sensitivity",
            JobKind::AblationSte => "ablation_ste",
            JobKind::AblationNuprune => "ablation_nuprune",
            JobKind::AblationDataflow => "ablation_dataflow",
            JobKind::AblationFusion => "ablation_fusion",
            JobKind::AblationQuant => "ablation_quant",
        }
    }

    /// Looks a job up by its [`JobKind::id`].
    pub(crate) fn from_id(id: &str) -> Option<JobKind> {
        Self::grid().into_iter().find(|j| j.id() == id)
    }

    /// Explicit dependencies: the `baseline:*` jobs whose trained models
    /// this job consumes. The DAG edges are what make "each reference
    /// trains exactly once" structural rather than accidental.
    pub(crate) fn deps(self) -> Vec<JobKind> {
        use BaselineKind as B;
        let b = JobKind::Baseline;
        match self {
            JobKind::Baseline(_)
            | JobKind::Fig2a
            | JobKind::Fig2b
            | JobKind::AblationDataflow
            | JobKind::AblationFusion => Vec::new(),
            JobKind::Fig2c => vec![b(B::Plain20)],
            JobKind::Fig3 => vec![b(B::AlfPlain20), b(B::AlfResnet20)],
            JobKind::Table2 => vec![b(B::Plain20), b(B::Resnet20), b(B::AlfResnet20)],
            JobKind::Table3 => vec![b(B::ImagenetResnet18), b(B::ImagenetAlfResnet18)],
            JobKind::Headline => vec![b(B::Resnet20), b(B::AlfResnet20)],
            JobKind::Sensitivity => vec![b(B::Plain20), b(B::AlfPlain20)],
            JobKind::AblationSte | JobKind::AblationNuprune | JobKind::AblationQuant => {
                vec![b(B::AlfPlain20)]
            }
        }
    }

    /// Thread lease: how many workers the job's internal fan-out may use
    /// concurrently. Training-heavy jobs lease 2; geometry-only jobs 1.
    pub(crate) fn threads(self) -> usize {
        match self {
            JobKind::AblationDataflow | JobKind::AblationFusion => 1,
            _ => 2,
        }
    }

    /// Runs the job.
    ///
    /// # Errors
    ///
    /// Propagates model, training and mapping errors.
    pub(crate) fn run(self, ctx: &JobCtx<'_>) -> Result<JobResult> {
        match self {
            JobKind::Baseline(kind) => baseline_job(ctx, kind),
            JobKind::Fig2a => figures::fig2a(ctx),
            JobKind::Fig2b => figures::fig2b(ctx),
            JobKind::Fig2c => figures::fig2c(ctx),
            JobKind::Fig3 => figures::fig3(ctx),
            JobKind::Table2 => tables::table2(ctx),
            JobKind::Table3 => tables::table3(ctx),
            JobKind::Headline => tables::headline(ctx),
            JobKind::Sensitivity => tables::sensitivity(ctx),
            JobKind::AblationSte => ablations::ste(ctx),
            JobKind::AblationNuprune => ablations::nuprune(ctx),
            JobKind::AblationDataflow => ablations::dataflow(ctx),
            JobKind::AblationFusion => ablations::fusion(ctx),
            JobKind::AblationQuant => ablations::quant(ctx),
        }
    }
}

/// Adapts a hardware-mapper result into the workspace-wide tensor error
/// (the mapper's errors are configuration bugs, reported as such).
pub(crate) fn map_hw<T>(r: std::result::Result<T, alf_hwmodel::MapperError>) -> Result<T> {
    r.map_err(|e| alf_tensor::ShapeError::new("hwmodel", e.to_string()))
}

/// Maps measured keep *ratios* onto per-layer kept-filter counts of a
/// geometry (each clamped to `[1, c_out]`).
pub(crate) fn ratios_to_keeps(geometry: &[ConvShape], ratios: &[f32]) -> Vec<usize> {
    geometry
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let r = ratios.get(i).copied().unwrap_or(1.0);
            ((s.c_out as f32 * r).round() as usize).clamp(1, s.c_out)
        })
        .collect()
}

/// Training-curve table shared by the baseline jobs (full trace at smoke
/// scale, every 4th epoch at paper scale).
fn curve_table(baseline: &Baseline) -> Table {
    let step = (baseline.report.epochs.len() / 16).max(1);
    let rows: Vec<Vec<String>> = baseline
        .report
        .epochs
        .iter()
        .step_by(step)
        .map(|e| {
            vec![
                e.epoch.to_string(),
                format!("{:.3}", e.train_loss),
                format!("{:.1}%", 100.0 * e.train_accuracy),
                format!("{:.1}%", 100.0 * e.test_accuracy),
                format!("{:.0}%", 100.0 * e.remaining_filters),
            ]
        })
        .collect();
    Table::new(
        &format!("{} training curve", baseline.kind.label()),
        &["epoch", "loss", "train acc", "test acc", "filters"],
        rows,
    )
}

/// Body of every `baseline:*` job: train (or fetch) the reference, report
/// its curve and final metrics.
fn baseline_job(ctx: &JobCtx<'_>, kind: BaselineKind) -> Result<JobResult> {
    let baseline = ctx.store.baseline(kind)?;
    let mut result = JobResult::new(kind.id(), ctx.scale());
    result.push_table(curve_table(&baseline));
    result.metric(
        "final_accuracy",
        f64::from(baseline.report.final_accuracy()),
    );
    result.metric("best_accuracy", f64::from(baseline.report.best_accuracy()));
    result.metric(
        "remaining_filters",
        f64::from(baseline.report.final_remaining_filters()),
    );
    result.metric("epochs", baseline.report.epochs.len() as f64);
    result.note(format!(
        "canonical reference: every consumer job reuses this training via the artifact store \
         (model seed/trainer seed pinned; dataset seed {}).",
        if kind.is_imagenet() {
            crate::artifacts::IMAGENET_DATA_SEED
        } else {
            crate::artifacts::CIFAR_DATA_SEED
        }
    ));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_ids_are_unique_and_deps_are_in_grid() {
        let grid = JobKind::grid();
        let ids: std::collections::BTreeSet<&str> = grid.iter().map(|j| j.id()).collect();
        assert_eq!(ids.len(), grid.len());
        for job in &grid {
            for dep in job.deps() {
                assert!(
                    grid.contains(&dep),
                    "{} dep {} not in grid",
                    job.id(),
                    dep.id()
                );
                assert!(
                    matches!(dep, JobKind::Baseline(_)),
                    "non-baseline dependency"
                );
            }
            assert!(job.threads() >= 1);
            assert_eq!(JobKind::from_id(job.id()), Some(*job));
        }
    }

    #[test]
    fn baselines_precede_consumers_in_declaration_order() {
        let grid = JobKind::grid();
        let pos = |j: &JobKind| grid.iter().position(|g| g == j).unwrap();
        for job in &grid {
            for dep in job.deps() {
                assert!(pos(&dep) < pos(job));
            }
        }
    }

    #[test]
    fn ratios_map_onto_geometry() {
        let geo = vec![
            ConvShape::new("a", 3, 8, 3, 1, 16, 16),
            ConvShape::new("b", 8, 8, 3, 1, 16, 16),
        ];
        assert_eq!(ratios_to_keeps(&geo, &[0.5, 0.0]), vec![4, 1]);
        assert_eq!(ratios_to_keeps(&geo, &[2.0]), vec![8, 8]);
    }
}
