//! Stochastic gradient descent with momentum, L2 weight decay and
//! learning-rate schedules.
//!
//! Both players of the ALF game use this optimizer: the *task optimizer*
//! (momentum + weight decay, stepped LR) and the per-block *autoencoder
//! optimizers* (plain SGD at `lrae`, per the paper §III-B).

use alf_tensor::Tensor;

use crate::layer::Param;

/// Learning-rate schedule evaluated per epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply by `gamma` every `every` epochs.
    Step {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Cosine annealing from the base LR to `floor` over `total` epochs.
    Cosine {
        /// Total schedule horizon in epochs.
        total: usize,
        /// Final learning rate.
        floor: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `epoch` (0-based) given the base rate.
    pub fn lr_at(&self, base: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::Step { every, gamma } => base * gamma.powi((epoch / every.max(1)) as i32),
            LrSchedule::Cosine { total, floor } => {
                if total == 0 {
                    return base;
                }
                let t = (epoch.min(total)) as f32 / total as f32;
                floor + 0.5 * (base - floor) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// SGD with momentum and L2 weight decay.
///
/// Velocity buffers are lazily created per parameter *slot* (visit order),
/// so the optimizer must always be driven over the same model structure —
/// which holds for every model in this workspace.
///
/// # Example
///
/// ```
/// use alf_nn::{optim::Sgd, Param};
/// use alf_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2]), false);
/// p.grad = Tensor::full(&[2], 0.5);
/// let mut sgd = Sgd::new(0.1, 0.0, 0.0);
/// sgd.update(&mut p);
/// assert_eq!(p.value.data(), &[0.95, 0.95]);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocities: Vec<Tensor>,
    cursor: usize,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics on negative hyper-parameters.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr >= 0.0 && momentum >= 0.0 && weight_decay >= 0.0);
        Self {
            lr,
            momentum,
            weight_decay,
            velocities: Vec::new(),
            cursor: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr >= 0.0);
        self.lr = lr;
    }

    /// Starts a new optimizer step: resets the parameter cursor so the
    /// subsequent [`Sgd::update`] calls re-associate with their velocity
    /// slots.
    pub(crate) fn begin_step(&mut self) {
        self.cursor = 0;
    }

    /// The momentum (velocity) buffers in parameter-visit order — the
    /// optimizer state a trainer checkpoint must carry for a resumed run
    /// to continue the same trajectory. Empty before the first step.
    pub fn velocities(&self) -> &[Tensor] {
        &self.velocities
    }

    /// Replaces the momentum buffers (restoring from a checkpoint).
    ///
    /// An empty vector resets the optimizer to a fresh state; buffers are
    /// then lazily re-created on the next step. Shapes are re-validated
    /// against their parameters on the next [`Sgd::update`], which panics
    /// on mismatch — checkpoint loaders should validate against the model
    /// before calling this (see `alf_core::checkpoint::load_trainer`).
    pub fn set_velocities(&mut self, velocities: Vec<Tensor>) {
        self.velocities = velocities;
        self.cursor = 0;
    }

    /// Applies one SGD update to a parameter and advances the cursor.
    ///
    /// With momentum `μ`, decay `λ` and learning rate `η`:
    /// `v ← μ·v + g + λ·w` (if the param opts into decay), `w ← w − η·v`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter shape changed between steps.
    pub fn update(&mut self, param: &mut Param) {
        let slot = self.cursor;
        self.cursor += 1;
        if self.velocities.len() <= slot {
            self.velocities.push(Tensor::zeros(param.value.dims()));
        }
        let vel = &mut self.velocities[slot];
        assert_eq!(
            vel.dims(),
            param.value.dims(),
            "parameter shape changed between optimizer steps"
        );
        let decay = if param.decay { self.weight_decay } else { 0.0 };
        let (vd, gd, wd) = (vel.data_mut(), param.grad.data(), param.value.data_mut());
        for i in 0..wd.len() {
            let g = gd[i] + decay * wd[i];
            vd[i] = self.momentum * vd[i] + g;
            wd[i] -= self.lr * vd[i];
        }
    }

    /// [`Sgd::update`] with the gradient supplied externally instead of
    /// read from `param.grad` — the gradient-accumulation entry point used
    /// by the data-parallel engine, whose reduced gradient lives in one
    /// flat buffer rather than in the model's per-parameter `grad` fields.
    ///
    /// Performs bit-for-bit the same arithmetic as [`Sgd::update`], so a
    /// flat step over a layer is bitwise interchangeable with a regular
    /// one given equal gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not match the parameter's length, or if the
    /// parameter shape changed between steps.
    pub(crate) fn update_from(&mut self, param: &mut Param, grad: &[f32]) {
        let slot = self.cursor;
        self.cursor += 1;
        if self.velocities.len() <= slot {
            self.velocities.push(Tensor::zeros(param.value.dims()));
        }
        let vel = &mut self.velocities[slot];
        assert_eq!(
            vel.dims(),
            param.value.dims(),
            "parameter shape changed between optimizer steps"
        );
        assert_eq!(grad.len(), param.value.len(), "gradient length mismatch");
        let decay = if param.decay { self.weight_decay } else { 0.0 };
        let (vd, wd) = (vel.data_mut(), param.value.data_mut());
        for i in 0..wd.len() {
            let g = grad[i] + decay * wd[i];
            vd[i] = self.momentum * vd[i] + g;
            wd[i] -= self.lr * vd[i];
        }
    }

    /// Convenience: runs a full step over a layer — `begin_step`, visit all
    /// params, update each.
    pub fn step_layer(&mut self, layer: &mut dyn crate::Layer) {
        self.begin_step();
        layer.visit_params(&mut |p| self.update(p));
    }

    /// Runs a full step over a layer with gradients taken from `flat` — the
    /// concatenation of every parameter's gradient in visit order (the
    /// layout produced by flattening `visit_params_ref` grads, and by the
    /// data-parallel all-reduce).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is not exactly the total parameter count.
    pub fn step_layer_from_flat(&mut self, layer: &mut dyn crate::Layer, flat: &[f32]) {
        self.begin_step();
        let mut offset = 0usize;
        layer.visit_params(&mut |p| {
            let n = p.value.len();
            assert!(
                offset + n <= flat.len(),
                "flat gradient too short: {} < {}",
                flat.len(),
                offset + n
            );
            self.update_from(p, &flat[offset..offset + n]);
            offset += n;
        });
        assert_eq!(
            offset,
            flat.len(),
            "flat gradient longer than the layer's parameters"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Param;

    fn param_with_grad(value: f32, grad: f32, decay: bool) -> Param {
        let mut p = Param::new(Tensor::full(&[1], value), decay);
        p.grad = Tensor::full(&[1], grad);
        p
    }

    #[test]
    fn plain_sgd_descends() {
        let mut p = param_with_grad(1.0, 1.0, false);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.begin_step();
        opt.update(&mut p);
        assert!((p.value.data()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param_with_grad(0.0, 1.0, false);
        let mut opt = Sgd::new(1.0, 0.9, 0.0);
        for _ in 0..2 {
            opt.begin_step();
            p.grad = Tensor::full(&[1], 1.0);
            opt.update(&mut p);
        }
        // Step 1: v=1, w=-1. Step 2: v=1.9, w=-2.9.
        assert!((p.value.data()[0] + 2.9).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_respects_param_flag() {
        let mut decayed = param_with_grad(1.0, 0.0, true);
        let mut plain = param_with_grad(1.0, 0.0, false);
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        opt.begin_step();
        opt.update(&mut decayed);
        opt.update(&mut plain);
        assert!((decayed.value.data()[0] - 0.95).abs() < 1e-6);
        assert_eq!(plain.value.data()[0], 1.0);
    }

    #[test]
    fn velocity_slots_follow_visit_order() {
        let mut a = param_with_grad(0.0, 1.0, false);
        let mut b = param_with_grad(0.0, -1.0, false);
        let mut opt = Sgd::new(1.0, 0.9, 0.0);
        for _ in 0..2 {
            opt.begin_step();
            a.grad = Tensor::full(&[1], 1.0);
            b.grad = Tensor::full(&[1], -1.0);
            opt.update(&mut a);
            opt.update(&mut b);
        }
        // Symmetric trajectories prove the slots didn't cross.
        assert!((a.value.data()[0] + b.value.data()[0]).abs() < 1e-6);
    }

    #[test]
    fn flat_step_is_bitwise_identical_to_regular_step() {
        use crate::linear::Linear;
        use crate::Layer;
        use alf_tensor::init::Init;
        use alf_tensor::rng::Rng;
        let mut rng = Rng::new(3);
        let mut a = Linear::new(4, 3, Init::Rand, &mut rng);
        let mut b = a.clone();
        // Fill grads with distinct values and capture the flat layout.
        let mut flat = Vec::new();
        let mut i = 0f32;
        a.visit_params(&mut |p| {
            for g in p.grad.data_mut() {
                *g = (i * 0.37).sin();
                i += 1.0;
            }
            flat.extend_from_slice(p.grad.data());
        });
        let mut opt_a = Sgd::new(0.1, 0.9, 1e-2);
        let mut opt_b = opt_a.clone();
        // Two steps so momentum buffers participate.
        for _ in 0..2 {
            opt_a.step_layer(&mut a);
            opt_b.step_layer_from_flat(&mut b, &flat);
        }
        let mut wa = Vec::new();
        a.visit_params_ref(&mut |p| wa.extend_from_slice(p.value.data()));
        let mut wb = Vec::new();
        b.visit_params_ref(&mut |p| wb.extend_from_slice(p.value.data()));
        assert_eq!(wa, wb);
        // Velocities agree too (the checkpointable optimizer state).
        assert_eq!(opt_a.velocities(), opt_b.velocities());
    }

    #[test]
    fn velocities_round_trip_resumes_the_trajectory() {
        let mut p_full = param_with_grad(1.0, 1.0, false);
        let mut opt_full = Sgd::new(0.1, 0.9, 0.0);
        // Reference: three consecutive steps.
        for _ in 0..3 {
            p_full.grad = Tensor::full(&[1], 1.0);
            opt_full.begin_step();
            opt_full.update(&mut p_full);
        }
        // Interrupted: one step, save velocities + weights, restore into a
        // fresh optimizer, run the remaining two steps.
        let mut p = param_with_grad(1.0, 1.0, false);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.begin_step();
        opt.update(&mut p);
        let saved = opt.velocities().to_vec();
        let mut resumed = Sgd::new(0.1, 0.9, 0.0);
        resumed.set_velocities(saved);
        for _ in 0..2 {
            p.grad = Tensor::full(&[1], 1.0);
            resumed.begin_step();
            resumed.update(&mut p);
        }
        assert_eq!(p.value.data(), p_full.value.data());
        assert_eq!(resumed.velocities(), opt_full.velocities());
    }

    #[test]
    #[should_panic(expected = "flat gradient")]
    fn flat_step_rejects_wrong_length() {
        use crate::linear::Linear;
        use alf_tensor::init::Init;
        use alf_tensor::rng::Rng;
        let mut fc = Linear::new(2, 2, Init::Rand, &mut Rng::new(0));
        Sgd::new(0.1, 0.0, 0.0).step_layer_from_flat(&mut fc, &[0.0; 3]);
    }

    #[test]
    fn quadratic_converges() {
        // minimise 0.5·(w − 3)²
        let mut p = Param::new(Tensor::zeros(&[1]), false);
        let mut opt = Sgd::new(0.2, 0.5, 0.0);
        for _ in 0..100 {
            p.grad = Tensor::full(&[1], p.value.data()[0] - 3.0);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn step_schedule_decays() {
        let s = LrSchedule::Step {
            every: 10,
            gamma: 0.1,
        };
        assert_eq!(s.lr_at(1.0, 0), 1.0);
        assert!((s.lr_at(1.0, 10) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(1.0, 25) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let s = LrSchedule::Cosine {
            total: 100,
            floor: 0.01,
        };
        assert!((s.lr_at(1.0, 0) - 1.0).abs() < 1e-6);
        assert!((s.lr_at(1.0, 100) - 0.01).abs() < 1e-6);
        assert!((s.lr_at(1.0, 200) - 0.01).abs() < 1e-6); // clamped
    }

    #[test]
    fn constant_schedule() {
        assert_eq!(LrSchedule::Constant.lr_at(0.3, 57), 0.3);
    }
}
