//! Configuration-space exploration (paper §IV-A, Fig. 2a/2b).
//!
//! Setup 1 varies the expansion layer: `[Wexp,init | σinter | BNinter]`.
//! Setup 2 varies the autoencoder: `[Wae,init | σae]` for each `σinter`.
//! In both setups the pruning mask is disabled (the paper disables it
//! explicitly in Setup 2 and tunes it only afterwards in Setup 3), so the
//! measured accuracy isolates the configuration under study.

use alf_nn::activation::ActivationKind;
use alf_tensor::init::Init;

use crate::block::AlfBlockConfig;
use crate::models::plain20_alf;
use crate::train::{AlfHyper, AlfTrainer};
use crate::Result;

/// Shared experimental setup for the exploration runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSetup {
    /// Dataset seed.
    pub data_seed: u64,
    /// Square image side.
    pub image_size: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Training samples.
    pub train_size: usize,
    /// Test samples.
    pub test_size: usize,
    /// Epochs per run.
    pub epochs: usize,
    /// Independent repeats per configuration (paper: "at least twice").
    pub repeats: usize,
    /// Stem width of the Plain-20 model.
    pub width: usize,
    /// Task/AE hyper-parameters.
    pub hyper: AlfHyper,
}

impl ExploreSetup {
    /// A fast smoke-scale setup (a few seconds per configuration).
    pub fn smoke() -> Self {
        Self {
            data_seed: 11,
            image_size: 12,
            num_classes: 4,
            train_size: 128,
            test_size: 48,
            epochs: 10,
            repeats: 2,
            width: 6,
            hyper: AlfHyper {
                task_lr: 0.05,
                batch_size: 16,
                lr_schedule: alf_nn::LrSchedule::Constant,
                ..AlfHyper::default()
            },
        }
    }

    /// A paper-scale setup (minutes per configuration on a laptop): full
    /// 32×32 ten-class data and a width-16 Plain-20.
    pub fn paper() -> Self {
        Self {
            data_seed: 11,
            image_size: 32,
            num_classes: 10,
            train_size: 2000,
            test_size: 500,
            epochs: 12,
            repeats: 2,
            width: 16,
            hyper: AlfHyper::default(),
        }
    }

    fn dataset(&self) -> Result<alf_data::Dataset> {
        alf_data::SynthVision::cifar_like(self.data_seed)
            .with_image_size(self.image_size)
            .with_max_shift(if self.image_size >= 16 { 2 } else { 1 })
            .with_num_classes(self.num_classes)
            .with_train_size(self.train_size)
            .with_test_size(self.test_size)
            .build()
    }

    fn run_config(&self, label: &str, config: AlfBlockConfig) -> Result<ConfigResult> {
        let data = self.dataset()?;
        let mut accuracies = Vec::with_capacity(self.repeats);
        for rep in 0..self.repeats {
            let seed = 1000 + rep as u64 * 31;
            let model = plain20_alf(self.num_classes, self.width, config, seed)?;
            let mut trainer = AlfTrainer::new(model, self.hyper.clone(), seed)?;
            let report = trainer.run(&data, self.epochs)?;
            accuracies.push(report.final_accuracy());
        }
        Ok(ConfigResult::new(label, accuracies))
    }

    /// Runs a batch of labelled configurations, fanning them out across
    /// scoped threads (each configuration trains independently). Results
    /// come back in input order.
    fn run_configs(&self, configs: Vec<(String, AlfBlockConfig)>) -> Result<Vec<ConfigResult>> {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(configs.len())
            .max(1);
        let chunk = configs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for group in configs.chunks(chunk) {
                handles.push(scope.spawn(move || -> Result<Vec<ConfigResult>> {
                    group
                        .iter()
                        .map(|(label, config)| self.run_config(label, *config))
                        .collect()
                }));
            }
            let mut out = Vec::with_capacity(configs.len());
            for h in handles {
                out.extend(h.join().expect("exploration thread panicked")?);
            }
            Ok(out)
        })
    }
}

/// Accuracy of one explored configuration across repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Configuration label in the paper's bar notation, e.g.
    /// `xavier|relu|bn`.
    pub label: String,
    /// Final test accuracy of each repeat.
    pub accuracies: Vec<f32>,
}

impl ConfigResult {
    /// Creates a result.
    pub fn new(label: impl Into<String>, accuracies: Vec<f32>) -> Self {
        Self {
            label: label.into(),
            accuracies,
        }
    }

    /// Mean accuracy across repeats.
    pub fn mean(&self) -> f32 {
        if self.accuracies.is_empty() {
            return 0.0;
        }
        self.accuracies.iter().sum::<f32>() / self.accuracies.len() as f32
    }

    /// Min–max spread across repeats (the paper's bar stretching).
    pub fn spread(&self) -> (f32, f32) {
        let lo = self
            .accuracies
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        let hi = self
            .accuracies
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        (lo, hi)
    }
}

/// Setup 1 (Fig. 2a): explores `[Wexp,init | σinter | BNinter]` over the
/// paper's six configurations.
///
/// # Errors
///
/// Propagates model/training shape errors.
pub fn explore_expansion(setup: &ExploreSetup) -> Result<Vec<ConfigResult>> {
    let combos: [(Init, ActivationKind, bool); 6] = [
        (Init::He, ActivationKind::Identity, false),
        (Init::Xavier, ActivationKind::Identity, false),
        (Init::He, ActivationKind::Relu, false),
        (Init::Xavier, ActivationKind::Relu, false),
        (Init::He, ActivationKind::Relu, true),
        (Init::Xavier, ActivationKind::Relu, true),
    ];
    let configs: Vec<(String, AlfBlockConfig)> = combos
        .into_iter()
        .map(|(exp_init, sigma_inter, inter_bn)| {
            let config = AlfBlockConfig {
                exp_init,
                sigma_inter,
                inter_bn,
                mask_enabled: false,
                ..AlfBlockConfig::paper_default()
            };
            let label = format!(
                "{}|{}|{}",
                exp_init.label(),
                if sigma_inter == ActivationKind::Identity {
                    "nc"
                } else {
                    sigma_inter.label()
                },
                if inter_bn { "bn" } else { "nc" }
            );
            (label, config)
        })
        .collect();
    setup.run_configs(configs)
}

/// Setup 2 (Fig. 2b): explores `[Wae,init | σae]` for a given `σinter`
/// (the paper plots both `σinter = none` and `σinter = ReLU` series).
///
/// # Errors
///
/// Propagates model/training shape errors.
pub fn explore_autoencoder(
    setup: &ExploreSetup,
    sigma_inter: ActivationKind,
) -> Result<Vec<ConfigResult>> {
    let mut configs = Vec::new();
    for sigma_ae in [
        ActivationKind::Tanh,
        ActivationKind::Sigmoid,
        ActivationKind::Relu,
    ] {
        for ae_init in [Init::Rand, Init::He, Init::Xavier] {
            let config = AlfBlockConfig {
                ae_init,
                sigma_ae,
                sigma_inter,
                mask_enabled: false,
                ..AlfBlockConfig::paper_default()
            };
            configs.push((format!("{}|{}", ae_init.label(), sigma_ae.label()), config));
        }
    }
    setup.run_configs(configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_result_statistics() {
        let r = ConfigResult::new("x", vec![0.8, 0.9]);
        assert!((r.mean() - 0.85).abs() < 1e-6);
        assert_eq!(r.spread(), (0.8, 0.9));
        assert_eq!(ConfigResult::new("e", vec![]).mean(), 0.0);
    }

    #[test]
    fn expansion_exploration_produces_six_labeled_configs() {
        let mut setup = ExploreSetup::smoke();
        setup.epochs = 1;
        setup.repeats = 1;
        setup.train_size = 32;
        setup.test_size = 16;
        let results = explore_expansion(&setup).unwrap();
        assert_eq!(results.len(), 6);
        assert_eq!(results[0].label, "he|nc|nc");
        assert_eq!(results[5].label, "xavier|relu|bn");
        for r in &results {
            assert_eq!(r.accuracies.len(), 1);
            assert!((0.0..=1.0).contains(&r.accuracies[0]));
        }
    }

    #[test]
    fn autoencoder_exploration_produces_nine_configs() {
        let mut setup = ExploreSetup::smoke();
        setup.epochs = 1;
        setup.repeats = 1;
        setup.train_size = 32;
        setup.test_size = 16;
        let results = explore_autoencoder(&setup, ActivationKind::Identity).unwrap();
        assert_eq!(results.len(), 9);
        assert_eq!(results[0].label, "rand|tanh");
        assert_eq!(results[8].label, "xavier|relu");
    }
}
