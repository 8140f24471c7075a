//! A worker-owned lowered engine with its execution context — the
//! compute half of the serving engine, usable (and testable) without any
//! threads.
//!
//! A model is lowered into an `Engine` once per version, on the thread
//! that asks for it: the server does it at start and on every accepted
//! swap, then hands each worker a copy. A replica only runs what it is
//! given; its arena warms once and every later batch — and every later
//! engine, see `Replica::install` — reuses the same scratch memory.
//! The batch staging buffer is recovered from the input tensor after each
//! forward (`Tensor::into_vec`), so steady-state serving performs no
//! per-batch staging allocation either.

use alf_core::model::CnnModel;
use alf_nn::RunCtx;
use alf_tensor::Tensor;

use crate::engine::Engine;
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

/// A long-lived replica of one lowered engine with its own eval-mode
/// execution context.
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
    engine: Engine,
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

    /// Like [`Replica::new`], but for an explicit numeric form: the model
    /// is lowered once, here, to the engine [`Precision`] names, and every
    /// batch runs on that engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] additionally when the int8 lowering
    /// rejects the model.
    pub fn with_precision(
        model: CnnModel,
        image_dims: [usize; 3],
        precision: &Precision,
    ) -> Result<Self> {
        let engine = Engine::lower(&model, precision).map_err(ServeError::BadRequest)?;
        Self::from_engine(engine, image_dims)
    }

    /// A replica running `engine` on `[C, H, W]` images, validated by one
    /// zero-image probe forward that also learns the class count.
    pub(crate) fn from_engine(engine: Engine, image_dims: [usize; 3]) -> Result<Self> {
        let [c, h, w] = image_dims;
        if c == 0 || h == 0 || w == 0 {
            return Err(ServeError::BadRequest(format!(
                "image dims must be non-zero, got {image_dims:?}"
            )));
        }
        let mut replica = Self {
            engine,
            staging: Vec::new(),
            image_dims,
            classes: 0,
        };
        let probe = Tensor::zeros(&[1, c, h, w]);
        let logits = replica.engine.forward(&probe).map_err(|e| {
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

    /// Runs a copy of `engine` from the next batch on. Called by the
    /// server between batches, so in-flight requests never observe a
    /// half-swapped model. The warm (possibly frozen) arena and its
    /// allocation count move over to the new engine.
    pub(crate) fn install(&mut self, engine: &Engine) {
        let mut next = engine.clone();
        std::mem::swap(next.ctx_mut(), self.engine.ctx_mut());
        self.engine = next;
    }

    /// The `[C, H, W]` geometry this replica serves.
    pub fn image_dims(&self) -> [usize; 3] {
        self.image_dims
    }

    /// Number of output classes (learned from the probe forward).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The execution context (arena + profiler) of the engine that runs
    /// this replica's batches: the int8 engine's own for an int8 replica.
    pub fn ctx(&self) -> &RunCtx {
        self.engine.ctx()
    }

    /// Mutable context access — used by the server's freeze/thaw hooks and
    /// by tests asserting the zero-allocation steady state.
    pub fn ctx_mut(&mut self) -> &mut RunCtx {
        self.engine.ctx_mut()
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
            self.engine
                .forward(&x)
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
        let logits = match self.engine.forward(&batch) {
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
}
