//! The lowered form a serving replica runs, and the one place that
//! lowers a model into it.
//!
//! A model version is lowered once, on the thread that asks for it — the
//! server at start and on every accepted swap — and each worker gets a
//! copy of the result. Workers never lower.

use alf_core::deploy::{Pipeline, QuantSpec};
use alf_core::model::CnnModel;
use alf_core::qmodel::QuantizedModel;
use alf_nn::layer::Layer;
use alf_nn::RunCtx;
use alf_tensor::Tensor;

use crate::server::Precision;

/// The numeric form a replica runs: the deployed f32 model with the eval
/// context it runs on, or the fused int8 engine, which owns its context.
#[derive(Debug, Clone)]
pub(crate) enum Engine {
    F32(CnnModel, RunCtx),
    Int8(Box<QuantizedModel>),
}

impl Engine {
    /// Lowers `model` to the form `precision` names: a copy for
    /// [`Precision::F32`]; batch-norm folding and int8 quantization
    /// calibrated on the carried batch for [`Precision::Int8`].
    ///
    /// # Errors
    ///
    /// Why the int8 lowering rejected the model (unsupported form, bad
    /// calibration batch, non-finite weights).
    pub(crate) fn lower(
        model: &CnnModel,
        precision: &Precision,
    ) -> std::result::Result<Self, String> {
        #[cfg(test)]
        LOWERINGS
            .lock()
            .expect("lowering log poisoned")
            .push(std::thread::current().id());
        match precision {
            Precision::F32 => Ok(Self::F32(model.clone(), RunCtx::eval())),
            Precision::Int8(calib) => {
                let deployed = Pipeline::new()
                    .fold_bn(true)
                    .quantize(QuantSpec::int8(calib.clone()))
                    .run(model)
                    .map_err(|e| format!("int8 lowering failed: {e}"))?;
                Ok(Self::Int8(Box::new(
                    deployed.quantized.expect("quantize(..) produces an engine"),
                )))
            }
        }
    }

    pub(crate) fn forward(&mut self, batch: &Tensor) -> alf_core::Result<Tensor> {
        match self {
            Self::F32(model, ctx) => model.forward(batch, ctx),
            Self::Int8(q) => q.forward(batch),
        }
    }

    pub(crate) fn ctx(&self) -> &RunCtx {
        match self {
            Self::F32(_, ctx) => ctx,
            Self::Int8(q) => q.ctx(),
        }
    }

    pub(crate) fn ctx_mut(&mut self) -> &mut RunCtx {
        match self {
            Self::F32(_, ctx) => ctx,
            Self::Int8(q) => q.ctx_mut(),
        }
    }
}

/// The thread of every [`Engine::lower`] call, in order, so a test can
/// tell who lowers and how often.
#[cfg(test)]
pub(crate) static LOWERINGS: std::sync::Mutex<Vec<std::thread::ThreadId>> =
    std::sync::Mutex::new(Vec::new());

/// [`Engine::lower`] calls made on `thread` so far.
#[cfg(test)]
pub(crate) fn lowerings_on(thread: std::thread::ThreadId) -> usize {
    let log = LOWERINGS.lock().expect("lowering log poisoned");
    log.iter().filter(|&&t| t == thread).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Replica;
    use alf_core::models::plain20;

    /// One top-1 rule: with the classifier forced to emit `[NaN, 1, 3, 0]`
    /// for every input, the f32 replica, the int8 replica, the int8
    /// engine's own `predict`, `Tensor::argmax` and the training accuracy
    /// count all answer class 2 — a leading NaN is skipped, not chosen.
    #[test]
    fn a_leading_nan_logit_is_skipped_by_every_top1() {
        let mut model = plain20(4, 4).unwrap();
        let Some(alf_core::model::Unit::Classifier(fc)) = model.units_mut().last_mut() else {
            panic!("plain20 ends in its classifier");
        };
        // Weight (visited first) zeroed, bias = the forced logits.
        fc.visit_params(&mut |p| match p.value.dims() {
            [4] => p.value = Tensor::from_vec(vec![f32::NAN, 1.0, 3.0, 0.0], &[4]).unwrap(),
            _ => p.value.fill_zero(),
        });

        let imgs: Vec<Tensor> = (0..2)
            .map(|n| Tensor::from_fn(&[3, 12, 12], |i| ((i + n) % 7) as f32 * 0.1))
            .collect();
        let refs: Vec<&Tensor> = imgs.iter().collect();
        let calib = Tensor::from_fn(&[2, 3, 12, 12], |i| (i % 5) as f32 * 0.1);
        let int8 = Precision::Int8(calib.clone());
        let mut f32_replica = Replica::new(model.clone(), [3, 12, 12]).unwrap();
        let mut int8_replica = Replica::with_precision(model.clone(), [3, 12, 12], &int8).unwrap();
        for replica in [&mut f32_replica, &mut int8_replica] {
            for p in replica.run_batch(&refs).unwrap() {
                assert!(p.logits.data()[0].is_nan());
                assert_eq!((p.class, p.logits.argmax()), (2, 2));
            }
        }
        let Ok(Engine::Int8(mut engine)) = Engine::lower(&model, &int8) else {
            panic!("int8 lowering yields the int8 engine");
        };
        assert_eq!(engine.predict(&calib).unwrap(), vec![2, 2]);
        let logits = engine.forward(&calib).unwrap();
        assert_eq!(alf_nn::loss::correct_count(&logits, &[2, 2]).unwrap(), 2);
    }

    #[test]
    fn int8_replica_serves_and_mostly_agrees_with_f32() {
        let mut rng = alf_tensor::rng::Rng::new(3);
        let calib = Tensor::randn(&[4, 3, 12, 12], alf_tensor::init::Init::Rand, &mut rng);
        let model = plain20(4, 4).unwrap();
        let mut q =
            Replica::with_precision(model.clone(), [3, 12, 12], &Precision::Int8(calib)).unwrap();
        assert_eq!(q.classes(), 4);
        let mut f = Replica::new(model, [3, 12, 12]).unwrap();
        let mut rng = alf_tensor::rng::Rng::new(4);
        let imgs: Vec<Tensor> = (0..16)
            .map(|_| Tensor::randn(&[3, 12, 12], alf_tensor::init::Init::Rand, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = imgs.iter().collect();
        let qp = q.run_batch(&refs).unwrap();
        let fp = f.run_batch(&refs).unwrap();
        let agree = qp
            .iter()
            .zip(&fp)
            .filter(|(a, b)| a.class == b.class)
            .count();
        assert!(agree * 10 >= refs.len() * 9, "{agree}/{}", refs.len());
    }
}
