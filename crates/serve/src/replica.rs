//! A worker-owned `(model, execution context)` pair — the compute half of
//! the serving engine, usable (and testable) without any threads.
//!
//! Mirrors the replica pattern of `alf_core::train::Evaluator`: each
//! worker keeps a long-lived model clone plus its own [`RunCtx`], so the
//! arena warms once and every later batch reuses the same scratch memory.
//! The batch staging buffer is recovered from the input tensor after each
//! forward (`Tensor::into_vec`), so steady-state serving performs no
//! per-batch staging allocation either.

use alf_core::checkpoint;
use alf_core::deploy::{Pipeline, QuantSpec};
use alf_core::model::CnnModel;
use alf_core::qmodel::QuantizedModel;
use alf_nn::layer::Layer;
use alf_nn::RunCtx;
use alf_tensor::Tensor;

use crate::server::Precision;
use crate::{Result, ServeError};

/// One classification answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Index of the highest logit (first on ties).
    pub class: usize,
    /// Raw logits, shape `[num_classes]`.
    pub logits: Tensor,
}

/// A long-lived model replica with its own eval-mode execution context.
///
/// # Example
///
/// ```
/// use alf_core::models::plain20;
/// use alf_serve::Replica;
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_serve::Result<()> {
/// let model = plain20(4, 4).expect("model");
/// let mut replica = Replica::new(model, [3, 12, 12])?;
/// let images = [Tensor::zeros(&[3, 12, 12]), Tensor::ones(&[3, 12, 12])];
/// let refs: Vec<&Tensor> = images.iter().collect();
/// let predictions = replica.run_batch(&refs)?;
/// assert_eq!(predictions.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Replica {
    model: CnnModel,
    /// The fused int8 engine, when this replica serves
    /// [`Precision::Int8`]; rebuilt after every checkpoint swap.
    quant: Option<QuantizedModel>,
    /// Calibration batch retained for those rebuilds.
    calib: Option<Tensor>,
    ctx: RunCtx,
    staging: Vec<f32>,
    image_dims: [usize; 3],
    classes: usize,
}

impl Replica {
    /// Builds an f32 replica serving `[C, H, W]` images, probing the model
    /// with one zero image to validate the geometry and learn the class
    /// count.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the dimensions are zero, the model
    /// rejects them, or its output is not `[1, classes]` logits.
    pub fn new(model: CnnModel, image_dims: [usize; 3]) -> Result<Self> {
        Self::with_precision(model, image_dims, &Precision::F32)
    }

    /// Like [`Replica::new`], but for an explicit numeric form. For
    /// [`Precision::Int8`] the model is lowered through
    /// `deploy::Pipeline` (BN folding + int8 quantization calibrated on
    /// the carried batch) and batches run on the fused int8 engine; the
    /// f32 model is kept for checkpoint swaps.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] additionally when the int8 lowering
    /// rejects the model (unsupported form, bad calibration batch).
    pub fn with_precision(
        model: CnnModel,
        image_dims: [usize; 3],
        precision: &Precision,
    ) -> Result<Self> {
        let [c, h, w] = image_dims;
        if c == 0 || h == 0 || w == 0 {
            return Err(ServeError::BadRequest(format!(
                "image dims must be non-zero, got {image_dims:?}"
            )));
        }
        let (quant, calib) = match precision {
            Precision::F32 => (None, None),
            Precision::Int8(calib) => (Some(Self::lower_int8(&model, calib)?), Some(calib.clone())),
        };
        let mut replica = Self {
            model,
            quant,
            calib,
            ctx: RunCtx::eval(),
            staging: Vec::new(),
            image_dims,
            classes: 0,
        };
        let probe = Tensor::zeros(&[1, c, h, w]);
        let logits = replica.forward(&probe).map_err(|e| {
            ServeError::BadRequest(format!("model rejects [1, {c}, {h}, {w}] inputs: {e}"))
        })?;
        if logits.dims().len() != 2 || logits.dims()[0] != 1 || logits.dims()[1] == 0 {
            return Err(ServeError::BadRequest(format!(
                "model produced {:?} for a single image; expected [1, classes] logits",
                logits.dims()
            )));
        }
        replica.classes = logits.dims()[1];
        Ok(replica)
    }

    /// Runs the deploy pipeline that turns the f32 model into the fused
    /// int8 engine.
    fn lower_int8(model: &CnnModel, calib: &Tensor) -> Result<QuantizedModel> {
        let deployed = Pipeline::new()
            .fold_bn(true)
            .quantize(QuantSpec::int8(calib.clone()))
            .run(model)
            .map_err(|e| ServeError::BadRequest(format!("int8 lowering failed: {e}")))?;
        Ok(deployed.quantized.expect("quantize(..) produces an engine"))
    }

    /// One batched forward through whichever engine this replica runs.
    fn forward(&mut self, batch: &Tensor) -> alf_core::Result<Tensor> {
        match &mut self.quant {
            Some(q) => q.forward(batch),
            None => self.model.forward(batch, &mut self.ctx),
        }
    }

    /// The `[C, H, W]` geometry this replica serves.
    pub fn image_dims(&self) -> [usize; 3] {
        self.image_dims
    }

    /// Number of output classes (learned from the probe forward).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The served model (the f32 form, even for int8 replicas).
    pub fn model(&self) -> &CnnModel {
        &self.model
    }

    /// The execution context (arena + profiler) of the engine that runs
    /// this replica's batches: the int8 engine's own for an int8 replica.
    pub fn ctx(&self) -> &RunCtx {
        match &self.quant {
            Some(q) => q.ctx(),
            None => &self.ctx,
        }
    }

    /// Mutable context access — used by the server's freeze/thaw hooks and
    /// by tests asserting the zero-allocation steady state.
    pub fn ctx_mut(&mut self) -> &mut RunCtx {
        match &mut self.quant {
            Some(q) => q.ctx_mut(),
            None => &mut self.ctx,
        }
    }

    /// Grows the arena and layer caches to their steady state by running
    /// zero batches at `max_batch` and at 1. After this, any batch size in
    /// `1..=max_batch` reuses existing capacity — which is what lets the
    /// server freeze worker arenas under load.
    ///
    /// # Errors
    ///
    /// Propagates forward failures as [`ServeError::Internal`].
    pub fn prewarm(&mut self, max_batch: usize) -> Result<()> {
        let [c, h, w] = self.image_dims;
        for b in [max_batch.max(1), 1] {
            let x = Tensor::zeros(&[b, c, h, w]);
            self.forward(&x)
                .map_err(|e| ServeError::Internal(format!("prewarm forward failed: {e}")))?;
        }
        Ok(())
    }

    /// Forwards `images` (each `[C, H, W]`) as one `[B, C, H, W]` batch
    /// and returns one [`Prediction`] per image, in order.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on a geometry mismatch,
    /// [`ServeError::Internal`] when the forward itself fails.
    pub fn run_batch(&mut self, images: &[&Tensor]) -> Result<Vec<Prediction>> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let [c, h, w] = self.image_dims;
        let mut staged = std::mem::take(&mut self.staging);
        staged.clear();
        staged.reserve(images.len() * c * h * w);
        for img in images {
            if img.dims() != self.image_dims {
                self.staging = staged;
                return Err(ServeError::BadRequest(format!(
                    "expected {:?} image, got {:?}",
                    self.image_dims,
                    img.dims()
                )));
            }
            staged.extend_from_slice(img.data());
        }
        let batch = Tensor::from_vec(staged, &[images.len(), c, h, w])
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        let logits = match self.forward(&batch) {
            Ok(l) => l,
            Err(e) => {
                self.staging = batch.into_vec();
                return Err(ServeError::Internal(format!("batch forward failed: {e}")));
            }
        };
        self.staging = batch.into_vec();
        let k = self.classes;
        let data = logits.data();
        let predictions = (0..images.len())
            .map(|i| {
                let row = &data[i * k..(i + 1) * k];
                Prediction {
                    class: alf_tensor::argmax(row),
                    logits: Tensor::from_vec(row.to_vec(), &[k]).expect("row matches [k]"),
                }
            })
            .collect();
        Ok(predictions)
    }

    /// Replaces the replica's weights from a checkpoint blob. Called by
    /// the server between batches, so in-flight requests never observe a
    /// half-swapped model.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadCheckpoint`] when the blob is malformed or its
    /// state structure mismatches the model (the model is left untouched),
    /// or when the swapped weights cannot be re-lowered to int8.
    pub(crate) fn load_checkpoint(&mut self, blob: &[u8]) -> Result<()> {
        checkpoint::load(&mut self.model, blob)
            .map_err(|e| ServeError::BadCheckpoint(e.to_string()))?;
        if let (Some(calib), Some(old)) = (&self.calib, &mut self.quant) {
            // Int8 replicas re-run the lowering so the served engine
            // tracks the new weights; the warm (possibly frozen) arena and
            // its allocation count move over to the new engine.
            let mut new = Self::lower_int8(&self.model, calib)
                .map_err(|e| ServeError::BadCheckpoint(e.to_string()))?;
            std::mem::swap(new.ctx_mut(), old.ctx_mut());
            *old = new;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::models::plain20;

    fn replica() -> Replica {
        Replica::new(plain20(4, 4).unwrap(), [3, 12, 12]).unwrap()
    }

    #[test]
    fn probe_learns_class_count() {
        let r = replica();
        assert_eq!(r.classes(), 4);
        assert_eq!(r.image_dims(), [3, 12, 12]);
    }

    #[test]
    fn zero_dims_are_rejected() {
        let err = Replica::new(plain20(4, 4).unwrap(), [3, 0, 12]).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
    }

    #[test]
    fn batch_matches_single_image_forwards() {
        let mut r = replica();
        let a = Tensor::from_fn(&[3, 12, 12], |i| (i % 7) as f32 * 0.1);
        let b = Tensor::from_fn(&[3, 12, 12], |i| (i % 5) as f32 * -0.2);
        let batched = r.run_batch(&[&a, &b]).unwrap();
        let solo_a = r.run_batch(&[&a]).unwrap().remove(0);
        let solo_b = r.run_batch(&[&b]).unwrap().remove(0);
        assert_eq!(batched[0], solo_a);
        assert_eq!(batched[1], solo_b);
        assert_eq!(batched[0].logits.dims(), &[4]);
    }

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
        let mut f32_replica = Replica::new(model.clone(), [3, 12, 12]).unwrap();
        let mut int8_replica =
            Replica::with_precision(model.clone(), [3, 12, 12], &Precision::Int8(calib.clone()))
                .unwrap();
        for replica in [&mut f32_replica, &mut int8_replica] {
            for p in replica.run_batch(&refs).unwrap() {
                assert!(p.logits.data()[0].is_nan());
                assert_eq!((p.class, p.logits.argmax()), (2, 2));
            }
        }
        let mut engine = Pipeline::new()
            .fold_bn(true)
            .quantize(QuantSpec::int8(calib.clone()))
            .run(&model)
            .unwrap()
            .quantized
            .unwrap();
        assert_eq!(engine.predict(&calib).unwrap(), vec![2, 2]);
        let logits = engine.forward(&calib).unwrap();
        assert_eq!(alf_nn::loss::correct_count(&logits, &[2, 2]).unwrap(), 2);
    }

    #[test]
    fn wrong_geometry_is_a_bad_request() {
        let mut r = replica();
        let img = Tensor::zeros(&[3, 8, 8]);
        assert!(matches!(
            r.run_batch(&[&img]),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn prewarm_makes_batches_allocation_free() {
        let mut r = replica();
        r.prewarm(4).unwrap();
        let imgs: Vec<Tensor> = (0..4).map(|_| Tensor::zeros(&[3, 12, 12])).collect();
        let refs: Vec<&Tensor> = imgs.iter().collect();
        // One settling batch, then freeze: every later batch size must
        // reuse existing arena capacity.
        r.run_batch(&refs).unwrap();
        let events = r.ctx().ws.alloc_events();
        r.ctx_mut().ws.freeze();
        for n in [4usize, 1, 2, 3] {
            r.run_batch(&refs[..n]).unwrap();
        }
        r.ctx_mut().ws.thaw();
        assert_eq!(r.ctx().ws.alloc_events(), events);
    }

    fn int8_replica() -> Replica {
        let mut rng = alf_tensor::rng::Rng::new(3);
        let calib = Tensor::randn(&[4, 3, 12, 12], alf_tensor::init::Init::Rand, &mut rng);
        Replica::with_precision(plain20(4, 4).unwrap(), [3, 12, 12], &Precision::Int8(calib))
            .unwrap()
    }

    #[test]
    fn int8_replica_serves_and_mostly_agrees_with_f32() {
        let mut q = int8_replica();
        assert!(q.quant.is_some());
        assert_eq!(q.classes(), 4);
        let mut f = replica();
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

    #[test]
    fn int8_replica_rebuilds_engine_on_checkpoint_swap() {
        let mut r = int8_replica();
        let img = Tensor::from_fn(&[3, 12, 12], |i| (i % 11) as f32 * 0.05);
        let before = r.run_batch(&[&img]).unwrap().remove(0);
        let mut other = plain20(4, 4).unwrap();
        other.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v += 0.05;
            }
        });
        let blob = alf_core::checkpoint::save(&other);
        r.load_checkpoint(&blob).unwrap();
        assert!(r.quant.is_some());
        let after = r.run_batch(&[&img]).unwrap().remove(0);
        assert_ne!(before.logits, after.logits);
    }

    #[test]
    fn load_checkpoint_swaps_weights() {
        let mut r = replica();
        let img = Tensor::from_fn(&[3, 12, 12], |i| (i % 11) as f32 * 0.05);
        let before = r.run_batch(&[&img]).unwrap().remove(0);
        // `plain20` is deterministic, so nudge the weights to get a model
        // with the same architecture but different function.
        let mut other = plain20(4, 4).unwrap();
        other.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v += 0.05;
            }
        });
        let blob = alf_core::checkpoint::save(&other);
        r.load_checkpoint(&blob).unwrap();
        let after = r.run_batch(&[&img]).unwrap().remove(0);
        assert_ne!(before.logits, after.logits);
        // A mismatched blob is rejected and leaves the weights alone.
        let wide = plain20(4, 8).unwrap();
        let bad = alf_core::checkpoint::save(&wide);
        assert!(matches!(
            r.load_checkpoint(&bad),
            Err(ServeError::BadCheckpoint(_))
        ));
        let unchanged = r.run_batch(&[&img]).unwrap().remove(0);
        assert_eq!(after.logits, unchanged.logits);
    }
}
