//! Figure jobs: design-space explorations (Fig. 2a/2b), pruning dynamics
//! (Fig. 2c) and the Eyeriss energy/latency breakdown (Fig. 3).

use alf_core::explore::{explore_autoencoder, explore_expansion, ConfigResult, ExploreSetup};
use alf_core::models::{geometry, plain20_alf};
use alf_core::train::AlfTrainer;
use alf_core::Result;
use alf_hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper, NetworkReport};
use alf_nn::activation::ActivationKind;

use super::{JobCtx, JobResult, Table};
use crate::artifacts::BaselineKind;
use crate::{hbar, Scale};

const BATCH: usize = 16;

fn explore_table(title: &str, results: &[ConfigResult]) -> Table {
    let best = results
        .iter()
        .map(ConfigResult::mean)
        .fold(f32::NEG_INFINITY, f32::max) as f64;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let (lo, hi) = r.spread();
            vec![
                r.label.clone(),
                format!("{:.1}%", 100.0 * r.mean()),
                format!("[{:.1}, {:.1}]", 100.0 * lo, 100.0 * hi),
                hbar(f64::from(r.mean()) / best.max(1e-9), 30),
            ]
        })
        .collect();
    Table::new(title, &["config", "mean acc", "spread", "bar"], rows)
}

fn winner(results: &[ConfigResult]) -> &ConfigResult {
    results
        .iter()
        .max_by(|a, b| a.mean().total_cmp(&b.mean()))
        .expect("non-empty results")
}

/// Fig. 2a — expansion-layer design-space exploration:
/// `[Wexp,init | σinter | BNinter]` accuracy for Plain-20 ALF blocks.
pub(crate) fn fig2a(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let setup = match ctx.scale() {
        Scale::Smoke => ExploreSetup::smoke(),
        Scale::Paper => ExploreSetup::paper(),
    };
    let results = explore_expansion(&setup)?;
    let mut out = JobResult::new("fig2a", ctx.scale());
    out.push_table(explore_table(
        "Fig. 2a: accuracy by [Wexp,init | σinter | BNinter]",
        &results,
    ));
    let win = winner(&results);
    out.metric("best_accuracy", f64::from(win.mean()));
    out.metric("configs", results.len() as f64);
    out.note(format!(
        "winner: {}  (paper selects xavier init; BNinter showed no perceivable advantage)",
        win.label
    ));
    Ok(out)
}

/// Fig. 2b — autoencoder design-space exploration: `[Wae,init | σae]`
/// accuracy for both `σinter = none` and `σinter = ReLU` series.
pub(crate) fn fig2b(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let setup = match ctx.scale() {
        Scale::Smoke => ExploreSetup::smoke(),
        Scale::Paper => ExploreSetup::paper(),
    };
    let mut out = JobResult::new("fig2b", ctx.scale());
    for sigma_inter in [ActivationKind::Identity, ActivationKind::Relu] {
        let results = explore_autoencoder(&setup, sigma_inter)?;
        out.push_table(explore_table(
            &format!("Fig. 2b: accuracy by [Wae,init | σae], σinter = {sigma_inter}"),
            &results,
        ));
        let win = winner(&results);
        out.metric(
            &format!("best_accuracy_{}", sigma_inter.to_string().to_lowercase()),
            f64::from(win.mean()),
        );
        out.note(format!(
            "series σinter = {sigma_inter} winner: {}",
            win.label
        ));
    }
    out.note("paper finding: xavier|tanh with σinter = none wins — compare above.");
    Ok(out)
}

/// Fig. 2c — pruning dynamics over training epochs for five ALF variants
/// differing in `lrae` and clip threshold `t`, against the uncompressed
/// Plain-20 (the shared `baseline:plain20` artifact).
pub(crate) fn fig2c(ctx: &JobCtx<'_>) -> Result<JobResult> {
    let cfg = crate::CifarConfig::at(ctx.scale());
    let data = ctx.store.cifar()?;
    let vanilla = ctx.store.baseline(BaselineKind::Plain20)?;

    // The five (lrae, t) variants of the paper, rescaled at smoke scale so
    // the dynamics complete within the shortened schedule (same ordering).
    let (lr_hi, lr_mid, lr_lo) = match ctx.scale() {
        Scale::Smoke => (5e-2, 2e-2, 5e-3),
        Scale::Paper => (1e-3, 1e-4, 1e-5),
    };
    let (t_hi, t_mid, t_lo) = match ctx.scale() {
        Scale::Smoke => (5e-2, 2e-2, 1e-2),
        Scale::Paper => (5e-4, 1e-4, 5e-5),
    };
    let variants: Vec<(String, f64, f64)> = vec![
        (format!("lr={lr_hi:.0e},t={t_lo:.0e}"), lr_hi, t_lo),
        (format!("lr={lr_hi:.0e},t={t_mid:.0e}"), lr_hi, t_mid),
        (format!("lr={lr_hi:.0e},t={t_hi:.0e}"), lr_hi, t_hi),
        (format!("lr={lr_mid:.0e},t={t_mid:.0e}"), lr_mid, t_mid),
        (format!("lr={lr_lo:.0e},t={t_mid:.0e}"), lr_lo, t_mid),
    ];

    let mut out = JobResult::new("fig2c", ctx.scale());
    let mut summary_rows = Vec::new();
    for (label, lr, t) in &variants {
        let mut block = cfg.block;
        block.threshold = *t as f32;
        let mut hyper = cfg.hyper.clone();
        hyper.ae_lr = *lr as f32;
        let model = plain20_alf(cfg.classes, cfg.width, block, 7)?;
        let mut trainer = AlfTrainer::new(model, hyper, 7)?;
        if let Some(n) = ctx.threads {
            trainer.set_eval_threads(n);
        }
        let report = trainer.run(&data, cfg.epochs)?;
        let rows: Vec<Vec<String>> = report
            .epochs
            .iter()
            .map(|e| {
                vec![
                    e.epoch.to_string(),
                    format!("{:.1}", 100.0 * e.remaining_filters),
                    format!("{:.1}", 100.0 * e.test_accuracy),
                ]
            })
            .collect();
        out.push_table(Table::new(
            &format!("ALF({label}) dynamics"),
            &["epoch", "remaining-filters%", "test-acc%"],
            rows,
        ));
        summary_rows.push(vec![
            label.clone(),
            format!("{:.1}%", 100.0 * report.final_remaining_filters()),
            format!("{:.1}%", 100.0 * report.final_accuracy()),
        ]);
    }
    summary_rows.push(vec![
        "Plain-20 (uncompressed)".into(),
        "100.0%".into(),
        format!("{:.1}%", 100.0 * vanilla.report.final_accuracy()),
    ]);
    out.push_table(Table::new(
        "Fig. 2c summary: final remaining filters and accuracy",
        &["variant", "remaining filters", "accuracy"],
        summary_rows,
    ));
    out.metric(
        "vanilla_accuracy",
        f64::from(vanilla.report.final_accuracy()),
    );
    out.note(
        "paper trends to check: higher t ⇒ fewer filters; lower lrae ⇒ more filters; \
         paper keeps lr=1e-3, t=1e-4 as the trade-off.",
    );
    Ok(out)
}

/// Fig. 3 — per-layer energy breakdown (RF / buffer / DRAM) and
/// normalised latency of vanilla vs ALF-compressed Plain-20/ResNet-20 on
/// the Eyeriss model, batch 16. Consumes the two shared ALF baselines
/// instead of retraining them.
pub(crate) fn fig3(ctx: &JobCtx<'_>) -> Result<JobResult> {
    use crate::eng;
    let plain_ratios = ctx.store.baseline(BaselineKind::AlfPlain20)?.ratios.clone();
    let resnet_ratios = ctx
        .store
        .baseline(BaselineKind::AlfResnet20)?
        .ratios
        .clone();

    // Map the measured ratios onto the paper's width-16 / 32×32 geometry.
    let paper_geometry = geometry::plain20_layers(32);
    let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);

    let vanilla_workloads: Vec<ConvWorkload> = paper_geometry
        .iter()
        .map(|s| ConvWorkload::from_shape(s, BATCH))
        .collect();
    let vanilla = super::map_hw(NetworkReport::evaluate(&mapper, &vanilla_workloads))?;

    let alf_report = |ratios: &[f32]| -> Result<NetworkReport> {
        let workloads = alf_hwmodel::alf_network(&paper_geometry, ratios, BATCH);
        Ok(super::map_hw(NetworkReport::evaluate(&mapper, &workloads))?.merged())
    };
    let alf_plain = alf_report(&plain_ratios)?;
    let alf_resnet = alf_report(&resnet_ratios)?;

    let rows: Vec<Vec<String>> = vanilla
        .layers
        .iter()
        .zip(&alf_plain.layers)
        .zip(&alf_resnet.layers)
        .map(|((v, ap), ar)| {
            vec![
                v.name.to_uppercase(),
                format!(
                    "{}/{}/{}",
                    eng(v.energy_rf),
                    eng(v.energy_buffer),
                    eng(v.energy_dram)
                ),
                format!(
                    "{}/{}/{}",
                    eng(ap.energy_rf),
                    eng(ap.energy_buffer),
                    eng(ap.energy_dram)
                ),
                format!(
                    "{}/{}/{}",
                    eng(ar.energy_rf),
                    eng(ar.energy_buffer),
                    eng(ar.energy_dram)
                ),
                eng(v.latency_cycles),
                eng(ap.latency_cycles),
                eng(ar.latency_cycles),
                format!("{:.0}%", 100.0 * ap.utilization),
            ]
        })
        .collect();
    let mut out = JobResult::new("fig3", ctx.scale());
    out.push_table(Table::new(
        "Fig. 3: per-layer energy (RF/GB/DRAM) and latency, batch 16",
        &[
            "layer",
            "vanilla E",
            "ALF-Plain E",
            "ALF-ResNet E",
            "van lat",
            "ALF-P lat",
            "ALF-R lat",
            "ALF-P util",
        ],
        rows,
    ));

    for (label, key, report) in [
        ("ALF-Plain-20", "plain", &alf_plain),
        ("ALF-ResNet-20", "resnet", &alf_resnet),
    ] {
        let (de, dl) = report.reduction_vs(&vanilla);
        out.metric(&format!("energy_reduction_{key}"), de);
        out.metric(&format!("latency_reduction_{key}"), dl);
        out.note(format!(
            "{label}: total energy change {:+.0}% (paper: −29%), total latency change {:+.0}% \
             (paper: −41%)",
            -de, -dl
        ));
    }
    let anomalies: Vec<&str> = vanilla
        .layers
        .iter()
        .zip(&alf_plain.layers)
        .filter(|(v, a)| a.latency_cycles > v.latency_cycles)
        .map(|(v, _)| v.name.as_str())
        .collect();
    out.metric("latency_anomalies", anomalies.len() as f64);
    if anomalies.is_empty() {
        out.note("no per-layer latency anomaly at this compression profile");
    } else {
        out.note(format!(
            "latency anomalies (compressed slower than vanilla, cf. the paper's conv312): {}",
            anomalies.join(", ")
        ));
    }
    Ok(out)
}
