//! AMC-style learned compression policy (He et al., ECCV 2018).
//!
//! AMC exposes layer-wise pruning as a reinforcement-learning problem: an
//! agent proposes per-layer sparsities and is rewarded by an engineered
//! accuracy/efficiency trade-off. The original uses DDPG; this
//! reproduction keeps the role (a *learned* policy with a hand-crafted
//! reward, cf. Table I) but optimises the policy with the cross-entropy
//! method (CEM) — a derivative-free policy search that is deterministic
//! under our seeded RNG and tractable on CPU. Candidates are applied with
//! magnitude ranking (as AMC does for its structured variant) and scored
//! *without* fine-tuning at intermediate stages, matching the paper's
//! description of AMC's fast exploration.

use alf_core::train::evaluate;
use alf_core::{CnnModel, NetworkCost};
use alf_data::{Dataset, Split};
use alf_tensor::rng::Rng;

use crate::api::chained_cost;
use crate::Result;

/// Hyper-parameters of the CEM policy search.
#[derive(Debug, Clone, PartialEq)]
pub struct AmcConfig {
    /// Candidates sampled per iteration.
    pub population: usize,
    /// Elite candidates kept for the distribution update.
    pub elites: usize,
    /// CEM iterations.
    pub iterations: usize,
    /// Lower bound on per-layer keep ratio.
    pub min_keep: f32,
    /// Target compressed-OPs fraction of the baseline (e.g. `0.5` = half
    /// the operations).
    pub ops_target: f32,
    /// Penalty weight on exceeding the OPs target.
    pub ops_penalty: f32,
    /// Evaluation batch size.
    pub eval_batch: usize,
}

impl Default for AmcConfig {
    fn default() -> Self {
        Self {
            population: 12,
            elites: 3,
            iterations: 5,
            min_keep: 0.2,
            ops_target: 0.5,
            ops_penalty: 2.0,
            eval_batch: 64,
        }
    }
}

/// Outcome of an AMC search.
#[derive(Debug, Clone, PartialEq)]
pub struct AmcOutcome {
    /// Best per-layer keep ratios found.
    pub keep_ratios: Vec<f32>,
    /// Per-layer `(name, kept, total)` under the best ratios.
    pub layer_keep: Vec<(String, usize, usize)>,
    /// Compressed cost (chained accounting).
    pub cost: NetworkCost,
    /// Accuracy of the pruned (not fine-tuned) model.
    pub accuracy: f32,
    /// Best reward per CEM iteration (monotonically non-decreasing).
    pub reward_history: Vec<f32>,
}

/// The CEM-based compression agent.
///
/// # Example
///
/// ```no_run
/// use alf_baselines::{AmcAgent, AmcConfig};
/// use alf_core::models::plain20;
/// use alf_data::SynthVision;
///
/// # fn main() -> alf_baselines::Result<()> {
/// let data = SynthVision::cifar_like(0).with_train_size(128).build()?;
/// let model = plain20(10, 8)?;
/// let mut agent = AmcAgent::new(AmcConfig::default(), 42);
/// let outcome = agent.search(&model, &data)?;
/// println!("kept {:?} of OPs", outcome.cost);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AmcAgent {
    config: AmcConfig,
    rng: Rng,
}

impl AmcAgent {
    /// Creates an agent.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (zero population/elites, elites
    /// exceeding population, `min_keep` outside `(0, 1]`).
    pub fn new(config: AmcConfig, seed: u64) -> Self {
        assert!(config.population > 0 && config.elites > 0);
        assert!(config.elites <= config.population);
        assert!(config.min_keep > 0.0 && config.min_keep <= 1.0);
        Self {
            config,
            rng: Rng::new(seed ^ 0x0a3c_0000),
        }
    }

    /// Applies per-layer keep ratios to a clone of `model` (magnitude
    /// ranking, channel silencing) and reports the per-layer keeps.
    fn apply(model: &CnnModel, ratios: &[f32]) -> (CnnModel, Vec<(String, usize, usize)>) {
        let mut pruned = model.clone();
        let report = crate::api::apply_keep_ratios(&mut pruned, ratios);
        (pruned, report)
    }

    fn reward(
        &self,
        model: &CnnModel,
        data: &Dataset,
        ratios: &[f32],
        baseline_ops: f64,
    ) -> Result<(f32, f32, NetworkCost)> {
        let (pruned, report) = Self::apply(model, ratios);
        let shapes = pruned.conv_shapes(data.image_dims()[1], data.image_dims()[2]);
        let keep: Vec<usize> = report.iter().map(|(_, k, _)| *k).collect();
        let cost = chained_cost(&shapes, &keep);
        let accuracy = evaluate(&pruned, data, Split::Test, self.config.eval_batch)?;
        let ops_ratio = cost.ops() as f64 / baseline_ops;
        let penalty =
            self.config.ops_penalty * (ops_ratio - self.config.ops_target as f64).max(0.0) as f32;
        Ok((accuracy - penalty, accuracy, cost))
    }

    /// Runs the CEM search over per-layer keep ratios.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from model evaluation.
    pub fn search(&mut self, model: &CnnModel, data: &Dataset) -> Result<AmcOutcome> {
        let [_, h, w] = data.image_dims();
        let shapes = model.conv_shapes(h, w);
        let n_layers = shapes.len();
        let baseline_ops = NetworkCost::of_layers(&shapes).ops() as f64;
        let mut mu = vec![0.7f32; n_layers];
        let mut sigma = vec![0.25f32; n_layers];
        let mut best: Option<(f32, Vec<f32>)> = None;
        let mut history = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            let mut scored: Vec<(f32, Vec<f32>)> = Vec::with_capacity(self.config.population);
            for _ in 0..self.config.population {
                let candidate: Vec<f32> = mu
                    .iter()
                    .zip(&sigma)
                    .map(|(&m, &s)| self.rng.normal_with(m, s).clamp(self.config.min_keep, 1.0))
                    .collect();
                let (r, _, _) = self.reward(model, data, &candidate, baseline_ops)?;
                scored.push((r, candidate));
            }
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            let elites = &scored[..self.config.elites];
            for (d, layer_mu) in mu.iter_mut().enumerate() {
                let mean: f32 = elites.iter().map(|(_, c)| c[d]).sum::<f32>() / elites.len() as f32;
                let var: f32 = elites
                    .iter()
                    .map(|(_, c)| (c[d] - mean) * (c[d] - mean))
                    .sum::<f32>()
                    / elites.len() as f32;
                *layer_mu = mean;
                sigma[d] = (var.sqrt()).max(0.02); // keep exploring
            }
            if best.as_ref().is_none_or(|(r, _)| scored[0].0 > *r) {
                best = Some(scored[0].clone());
            }
            history.push(best.as_ref().map(|(r, _)| *r).unwrap_or(f32::NEG_INFINITY));
        }
        let (_, best_ratios) = best.expect("at least one CEM iteration");
        let (_, accuracy, cost) = self.reward(model, data, &best_ratios, baseline_ops)?;
        let (_, layer_keep) = Self::apply(model, &best_ratios);
        Ok(AmcOutcome {
            keep_ratios: best_ratios,
            layer_keep,
            cost,
            accuracy,
            reward_history: history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::models::plain20;
    use alf_data::SynthVision;

    fn tiny_data() -> Dataset {
        SynthVision::cifar_like(3)
            .with_image_size(12)
            .with_max_shift(1)
            .with_num_classes(4)
            .with_train_size(32)
            .with_test_size(24)
            .build()
            .unwrap()
    }

    fn tiny_config() -> AmcConfig {
        AmcConfig {
            population: 4,
            elites: 2,
            iterations: 2,
            eval_batch: 12,
            ..AmcConfig::default()
        }
    }

    #[test]
    fn search_is_deterministic() {
        let data = tiny_data();
        let model = plain20(4, 4).unwrap();
        let a = AmcAgent::new(tiny_config(), 7)
            .search(&model, &data)
            .unwrap();
        let b = AmcAgent::new(tiny_config(), 7)
            .search(&model, &data)
            .unwrap();
        assert_eq!(a.keep_ratios, b.keep_ratios);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn reward_history_is_monotone() {
        let data = tiny_data();
        let model = plain20(4, 4).unwrap();
        let out = AmcAgent::new(tiny_config(), 9)
            .search(&model, &data)
            .unwrap();
        assert_eq!(out.reward_history.len(), 2);
        assert!(out.reward_history[1] >= out.reward_history[0]);
    }

    #[test]
    fn outcome_respects_bounds_and_costs() {
        let data = tiny_data();
        let model = plain20(4, 4).unwrap();
        let out = AmcAgent::new(tiny_config(), 11)
            .search(&model, &data)
            .unwrap();
        assert_eq!(out.keep_ratios.len(), 19);
        assert!(out.keep_ratios.iter().all(|r| (0.2..=1.0).contains(r)));
        let baseline = NetworkCost::of_layers(&model.conv_shapes(12, 12));
        assert!(out.cost.ops() <= baseline.ops());
        assert!((0.0..=1.0).contains(&out.accuracy));
        assert_eq!(out.layer_keep.len(), 19);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_config() {
        AmcAgent::new(
            AmcConfig {
                elites: 5,
                population: 4,
                ..AmcConfig::default()
            },
            0,
        );
    }
}
