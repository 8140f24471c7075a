//! Ablation jobs A1–A5: STE, νprune schedule, dataflow, fusion, and
//! post-training quantization.

use alf_core::models::{geometry, plain20_alf};
use alf_core::train::AlfTrainer;
use alf_core::{deploy, quant, PruneSchedule, Result, TrainReport};
use alf_data::Split;
use alf_hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper, NetworkReport};

use super::{JobCtx, JobResult, Table};
use crate::artifacts::BaselineKind;
use crate::eng;

const BATCH: usize = 16;

/// A1 — is the straight-through estimator necessary? The STE-on arm *is*
/// the shared ALF Plain-20 baseline (identical seed/hyper); only the
/// chained-gradient arm trains here.
pub(crate) fn ste(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let cfg = crate::CifarConfig::at(ctx.scale());
    let data = ctx.store.cifar()?;
    let on = ctx.store.baseline(BaselineKind::AlfPlain20)?;

    // The chained-gradient arm: same canonical seed/hyper as the shared
    // baseline, only `ste` flipped.
    let mut block = cfg.block;
    block.ste = false;
    let model = plain20_alf(cfg.classes, cfg.width, block, 3)?;
    let mut trainer = AlfTrainer::new(model, cfg.hyper.clone(), 3)?;
    if let Some(n) = ctx.threads {
        trainer.set_eval_threads(n);
    }
    let off = trainer.run(&data, cfg.epochs)?;

    let row = |label: &str, report: &TrainReport| -> Vec<String> {
        vec![
            label.to_string(),
            format!("{:.1}%", 100.0 * report.final_accuracy()),
            format!(
                "{:.3}",
                report.epochs.last().map_or(f32::NAN, |e| e.train_loss)
            ),
            format!("{:.0}%", 100.0 * report.final_remaining_filters()),
        ]
    };
    let mut out = JobResult::new("ablation_ste", ctx.scale());
    out.push_table(Table::new(
        "STE ablation: ALF Plain-20, identical seeds/hyper-parameters",
        &[
            "task gradient",
            "test acc",
            "final train loss",
            "remaining filters",
        ],
        vec![
            row("STE (paper, Eq. 5)", &on.report),
            row("true chain gradient", &off),
        ],
    ));
    out.metric("ste_accuracy", f64::from(on.report.final_accuracy()));
    out.metric("chain_accuracy", f64::from(off.final_accuracy()));
    out.note(
        "expected: the STE run trains better — the chained gradient is mask-zeroised and \
         encoder-mixed.",
    );
    Ok(out)
}

/// A2 — the νprune schedule vs constant pruning pressure. The paper
/// schedule's arm is the shared ALF Plain-20 baseline; the near-constant
/// and early-cut-off variants train here under the same canonical seed.
pub(crate) fn nuprune(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let cfg = crate::CifarConfig::at(ctx.scale());
    let data = ctx.store.cifar()?;
    let paper = ctx.store.baseline(BaselineKind::AlfPlain20)?;

    let row = |label: &str, report: &TrainReport| -> Vec<String> {
        let trajectory: Vec<String> = report
            .epochs
            .iter()
            .step_by((report.epochs.len() / 6).max(1))
            .map(|e| format!("{:.0}", 100.0 * e.remaining_filters))
            .collect();
        vec![
            label.to_string(),
            trajectory.join("→"),
            format!("{:.0}%", 100.0 * report.final_remaining_filters()),
            format!("{:.1}%", 100.0 * report.final_accuracy()),
        ]
    };
    let mut rows = vec![row("paper schedule (m=8, prmax=0.85)", &paper.report)];
    let variants: [(&str, &str, PruneSchedule); 2] = [
        (
            "near-constant pressure (m=1, prmax=1.0)",
            "constant",
            PruneSchedule::new(1.0, 1.0),
        ),
        (
            "early cut-off (m=8, prmax=0.5)",
            "early_cutoff",
            PruneSchedule::new(8.0, 0.5),
        ),
    ];
    let mut out = JobResult::new("ablation_nuprune", ctx.scale());
    out.metric(
        "final_filters_paper",
        f64::from(paper.report.final_remaining_filters()),
    );
    for (label, key, schedule) in variants {
        let mut hyper = cfg.hyper.clone();
        hyper.prune_schedule = schedule;
        let model = plain20_alf(cfg.classes, cfg.width, cfg.block, 3)?;
        let mut trainer = AlfTrainer::new(model, hyper, 3)?;
        if let Some(n) = ctx.threads {
            trainer.set_eval_threads(n);
        }
        let report = trainer.run(&data, cfg.epochs)?;
        out.metric(
            &format!("final_filters_{key}"),
            f64::from(report.final_remaining_filters()),
        );
        rows.push(row(label, &report));
    }
    out.push_table(Table::new(
        "νprune ablation: remaining-filter trajectory (sampled epochs, %)",
        &["schedule", "trajectory", "final filters", "test acc"],
        rows,
    ));
    out.note(
        "expected: constant pressure keeps pruning past the target (more filters lost, lower \
         accuracy); an early cut-off stops pruning at ~50% zeros.",
    );
    Ok(out)
}

/// A3 — how much of Fig. 3's result depends on the row-stationary
/// dataflow? Geometry-only: re-maps vanilla Plain-20 under all three
/// dataflows.
pub(crate) fn dataflow(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let workloads: Vec<ConvWorkload> = geometry::plain20_layers(32)
        .iter()
        .map(|s| ConvWorkload::from_shape(s, BATCH))
        .collect();
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for dataflow in [
        Dataflow::RowStationary,
        Dataflow::WeightStationary,
        Dataflow::OutputStationary,
    ] {
        let mapper = Mapper::new(Accelerator::eyeriss(), dataflow);
        let report = super::map_hw(NetworkReport::evaluate(&mapper, &workloads))?;
        let rf: f64 = report.layers.iter().map(|l| l.energy_rf).sum();
        let gb: f64 = report.layers.iter().map(|l| l.energy_buffer).sum();
        let dram: f64 = report.layers.iter().map(|l| l.energy_dram).sum();
        rows.push(vec![
            dataflow.label().to_string(),
            eng(report.total_energy()),
            format!("{}/{}/{}", eng(rf), eng(gb), eng(dram)),
            eng(report.total_latency()),
        ]);
        reports.push((dataflow, report));
    }
    let mut out = JobResult::new("ablation_dataflow", ctx.scale());
    out.push_table(Table::new(
        "dataflow ablation: total energy and latency (Plain-20, batch 16, normalised units)",
        &["dataflow", "total energy", "RF/GB/DRAM", "latency"],
        rows,
    ));
    let best = reports
        .iter()
        .min_by(|a, b| a.1.total_energy().total_cmp(&b.1.total_energy()))
        .expect("non-empty");
    for (dataflow, report) in &reports {
        out.metric(
            &format!("energy_{}", dataflow.label().replace('-', "_")),
            report.total_energy(),
        );
    }
    out.note(format!(
        "minimum-energy dataflow: {} (Eyeriss implements row-stationary for this reason)",
        best.0
    ));
    Ok(out)
}

/// A4 — fused-layer scheduling of the ALF block's codependent
/// `code → expansion` pair (geometry-only, ≈40% remaining filters).
pub(crate) fn fusion(ctx: &JobCtx<'_>) -> Result<JobResult> {
    const REMAINING: f32 = 0.4;
    let layers = geometry::plain20_layers(32);
    let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);

    let pairs: Vec<(ConvWorkload, ConvWorkload)> = layers
        .iter()
        .map(|s| {
            let c_code = ((s.c_out as f32 * REMAINING).round() as usize).clamp(1, s.c_out);
            alf_hwmodel::alf_pair(s, c_code, BATCH)
        })
        .collect();
    let flat: Vec<ConvWorkload> = pairs
        .iter()
        .flat_map(|(c, e)| [c.clone(), e.clone()])
        .collect();
    let unfused = super::map_hw(NetworkReport::evaluate(&mapper, &flat))?.merged();
    let fused = super::map_hw(NetworkReport::evaluate_fused_pairs(&mapper, &pairs))?;
    let vanilla = super::map_hw(NetworkReport::evaluate(
        &mapper,
        &layers
            .iter()
            .map(|s| ConvWorkload::from_shape(s, BATCH))
            .collect::<Vec<_>>(),
    ))?;

    let rows: Vec<Vec<String>> = unfused
        .layers
        .iter()
        .zip(&fused.layers)
        .map(|(u, f)| {
            vec![
                u.name.to_uppercase(),
                eng(u.energy_dram),
                eng(f.energy_dram),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - f.energy_dram / u.energy_dram.max(1.0))
                ),
                eng(u.total_energy()),
                eng(f.total_energy()),
            ]
        })
        .collect();
    let mut out = JobResult::new("ablation_fusion", ctx.scale());
    out.push_table(Table::new(
        "fusion ablation: per-layer DRAM and total energy (Plain-20, 40% filters, batch 16)",
        &[
            "layer",
            "DRAM unfused",
            "DRAM fused",
            "DRAM cut",
            "E unfused",
            "E fused",
        ],
        rows,
    ));
    for (label, key, r) in [
        ("unfused (Fig. 3 schedule)", "unfused", &unfused),
        ("fused", "fused", &fused),
    ] {
        let (de, dl) = r.reduction_vs(&vanilla);
        out.metric(&format!("energy_{key}"), r.total_energy());
        out.note(format!(
            "{label}: total energy {} ({:+.0}% vs vanilla), latency {} ({:+.0}% vs vanilla)",
            eng(r.total_energy()),
            -de,
            eng(r.total_latency()),
            -dl
        ));
    }
    out.note(
        "expected: fusion removes the expansion layer's off-chip round trip, recovering the \
         paper's 'overhead eliminated' scenario — the early-layer DRAM penalty disappears.",
    );
    Ok(out)
}

/// A5 — post-training quantization composes with ALF: deploys the shared
/// ALF Plain-20 and fake-quantizes the deployed weights at 16/8/6/4/3
/// bits.
pub(crate) fn quant(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let data = ctx.store.cifar()?;
    let baseline = ctx.store.baseline(BaselineKind::AlfPlain20)?;
    let deployed = deploy::Pipeline::new().run(&baseline.model)?.model;
    let f32_acc = ctx.evaluate(&deployed, &data, Split::Test, 32)?;

    let mut out = JobResult::new("ablation_quant", ctx.scale());
    let mut rows = vec![vec![
        "f32 (reference)".to_string(),
        "—".into(),
        format!("{:.1}%", 100.0 * f32_acc),
        "—".into(),
    ]];
    for bits in [16u8, 8, 6, 4, 3] {
        let mut q_model = deployed.clone();
        let report = quant::fake_quantize_model(&mut q_model, bits)
            .map_err(|e| alf_tensor::ShapeError::new("quantize", e.to_string()))?;
        let acc = ctx.evaluate(&q_model, &data, Split::Test, 32)?;
        out.metric(&format!("accuracy_int{bits}"), f64::from(acc));
        rows.push(vec![
            format!("int{bits}"),
            eng(report.footprint_bytes() as f64),
            format!("{:.1}%", 100.0 * acc),
            format!("{:+.1} pts", 100.0 * (acc - f32_acc)),
        ]);
    }
    out.metric("accuracy_f32", f64::from(f32_acc));
    out.push_table(Table::new(
        "quantization of the deployed ALF model (weights only)",
        &["precision", "weight bytes", "accuracy", "Δacc vs f32"],
        rows,
    ));
    out.note(
        "expected: int8 is accuracy-neutral on top of ALF compression (the paper's \
         orthogonality claim); degradation appears only at very low bit-widths.",
    );
    Ok(out)
}
