//! Lookup-based CNN (Bagherinezhad et al., CVPR 2017) — the weight-sharing
//! baseline the paper calls closest to ALF.
//!
//! LCNN learns a small *dictionary* of filters per layer; each original
//! filter is expressed as a sparse combination of dictionary entries. At
//! inference the input is convolved with the dictionary once and the
//! layer's outputs are cheap linear lookups into those results. This
//! module implements the 1-sparse variant: k-means over the filter set
//! gives the dictionary, and every filter maps to its nearest entry with a
//! least-squares scale.

use alf_core::model::ConvKind;
use alf_core::{CnnModel, ConvShape, NetworkCost};
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::Result;

/// A layer compressed into dictionary + lookup form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LcnnLayer {
    /// Dictionary filters `[d, Ci, K, K]` (flattened rows internally).
    pub dictionary: Vec<Vec<f32>>,
    /// For each original filter: the dictionary index it looks up.
    pub assignments: Vec<usize>,
    /// Per-filter scale applied to the looked-up dictionary response.
    pub scales: Vec<f32>,
}

impl LcnnLayer {
    /// Learns a dictionary of `dict_size` entries for a conv weight
    /// `[Co, Ci, K, K]` via seeded k-means (10 Lloyd iterations), then
    /// assigns each filter to its nearest entry with an optimal scale.
    ///
    /// # Errors
    ///
    /// Returns an error when `dict_size` is zero or exceeds the filter
    /// count, or the weight is not rank 4.
    pub(crate) fn learn(w: &Tensor, dict_size: usize, rng: &mut Rng) -> Result<Self> {
        if w.shape().rank() != 4 {
            return Err(ShapeError::new(
                "lcnn",
                format!("expected rank-4 weight, got {}", w.shape()),
            ));
        }
        let co = w.dims()[0];
        if dict_size == 0 || dict_size > co {
            return Err(ShapeError::new(
                "lcnn",
                format!("dict size {dict_size} invalid for {co} filters"),
            ));
        }
        let fan = w.len() / co;
        let filters: Vec<Vec<f32>> = (0..co)
            .map(|j| w.data()[j * fan..(j + 1) * fan].to_vec())
            .collect();
        // k-means++ style seeding: random distinct starting filters.
        let mut order: Vec<usize> = (0..co).collect();
        rng.shuffle(&mut order);
        let mut dictionary: Vec<Vec<f32>> = order[..dict_size]
            .iter()
            .map(|&j| filters[j].clone())
            .collect();
        let mut assignments = vec![0usize; co];
        for _ in 0..10 {
            // Assign.
            for (j, f) in filters.iter().enumerate() {
                assignments[j] = nearest(f, &dictionary);
            }
            // Update.
            for (d, entry) in dictionary.iter_mut().enumerate() {
                let members: Vec<&Vec<f32>> = filters
                    .iter()
                    .zip(&assignments)
                    .filter_map(|(f, &a)| (a == d).then_some(f))
                    .collect();
                if members.is_empty() {
                    continue;
                }
                for (i, e) in entry.iter_mut().enumerate() {
                    *e = members.iter().map(|m| m[i]).sum::<f32>() / members.len() as f32;
                }
            }
        }
        for (j, f) in filters.iter().enumerate() {
            assignments[j] = nearest(f, &dictionary);
        }
        // Least-squares scale per filter: argmin_s ||f − s·d|| = <f,d>/<d,d>.
        let scales: Vec<f32> = filters
            .iter()
            .zip(&assignments)
            .map(|(f, &a)| {
                let d = &dictionary[a];
                let dd: f32 = d.iter().map(|x| x * x).sum();
                if dd == 0.0 {
                    0.0
                } else {
                    f.iter().zip(d).map(|(&a, &b)| a * b).sum::<f32>() / dd
                }
            })
            .collect();
        Ok(Self {
            dictionary,
            assignments,
            scales,
        })
    }

    /// Reconstructs the approximated weight tensor (`filter_j ≈
    /// scale_j · dict[assign_j]`).
    ///
    /// # Errors
    ///
    /// Returns an error when `dims` is inconsistent with the layer.
    pub fn reconstruct(&self, dims: &[usize]) -> Result<Tensor> {
        let co = self.assignments.len();
        if dims.len() != 4 || dims[0] != co {
            return Err(ShapeError::new(
                "lcnn reconstruct",
                format!("dims {dims:?} inconsistent with {co} filters"),
            ));
        }
        let fan: usize = dims[1] * dims[2] * dims[3];
        let mut data = Vec::with_capacity(co * fan);
        for (j, &a) in self.assignments.iter().enumerate() {
            let s = self.scales[j];
            data.extend(self.dictionary[a].iter().map(|&v| s * v));
        }
        Tensor::from_vec(data, dims)
    }

    /// Mean squared reconstruction error versus the original weights.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    #[cfg(test)]
    fn reconstruction_error(&self, w: &Tensor) -> Result<f32> {
        let rec = self.reconstruct(w.dims())?;
        Ok(alf_nn::loss::mse_loss(&rec, w)?.0)
    }

    /// Deployed parameter count: dictionary entries plus one
    /// (index, scale) pair per filter (indices counted as one word each).
    pub fn params(&self, fan: usize) -> u64 {
        (self.dictionary.len() * fan + 2 * self.assignments.len()) as u64
    }

    /// Deployed MACs for a layer of geometry `shape`: one convolution with
    /// the dictionary plus a 1-sparse scaled lookup per output channel and
    /// pixel.
    pub fn macs(&self, shape: &ConvShape) -> u64 {
        let hw = (shape.h_out * shape.w_out) as u64;
        let dict_conv =
            (shape.c_in * shape.kernel * shape.kernel * self.dictionary.len()) as u64 * hw;
        let lookup = self.assignments.len() as u64 * hw;
        dict_conv + lookup
    }
}

fn nearest(f: &[f32], dictionary: &[Vec<f32>]) -> usize {
    let mut best = (0usize, f32::INFINITY);
    for (d, entry) in dictionary.iter().enumerate() {
        let dist: f32 = f.iter().zip(entry).map(|(&a, &b)| (a - b) * (a - b)).sum();
        if dist < best.1 {
            best = (d, dist);
        }
    }
    best.0
}

/// Applies LCNN to every standard conv of a model: learns a per-layer
/// dictionary of `⌈dict_ratio·Co⌉` entries and replaces the weights with
/// their reconstruction. Returns the deployed cost.
///
/// # Errors
///
/// Propagates shape errors.
///
/// # Panics
///
/// Panics if `dict_ratio` is outside `(0, 1]`.
pub fn compress_model(
    model: &mut CnnModel,
    dict_ratio: f32,
    h: usize,
    w: usize,
    seed: u64,
) -> Result<NetworkCost> {
    assert!(
        dict_ratio > 0.0 && dict_ratio <= 1.0,
        "dict_ratio {dict_ratio} ∉ (0,1]"
    );
    let shapes = model.conv_shapes(h, w);
    let mut rng = Rng::new(seed ^ 0x1c55);
    let mut cost = NetworkCost::default();
    for (cu, shape) in model.conv_units_mut().into_iter().zip(&shapes) {
        let ConvKind::Standard(conv) = cu.conv_mut() else {
            continue;
        };
        let co = conv.c_out();
        let dict = ((co as f32 * dict_ratio).ceil() as usize).clamp(1, co);
        let layer = LcnnLayer::learn(conv.weight(), dict, &mut rng)?;
        let rec = layer.reconstruct(conv.weight().dims())?;
        let fan = shape.c_in * shape.kernel * shape.kernel;
        cost.params += layer.params(fan);
        cost.macs += layer.macs(shape);
        conv.set_weight(rec)?;
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::models::plain20;
    use alf_tensor::init::Init;

    fn weight(seed: u64) -> Tensor {
        Tensor::randn(&[8, 2, 3, 3], Init::He, &mut Rng::new(seed))
    }

    #[test]
    fn full_dictionary_reconstructs_exactly() {
        let w = weight(0);
        let layer = LcnnLayer::learn(&w, 8, &mut Rng::new(1)).unwrap();
        let err = layer.reconstruction_error(&w).unwrap();
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn smaller_dictionary_increases_error_monotonically_ish() {
        let w = weight(2);
        let e8 = LcnnLayer::learn(&w, 8, &mut Rng::new(3))
            .unwrap()
            .reconstruction_error(&w)
            .unwrap();
        let e2 = LcnnLayer::learn(&w, 2, &mut Rng::new(3))
            .unwrap()
            .reconstruction_error(&w)
            .unwrap();
        assert!(e2 > e8);
    }

    #[test]
    fn duplicate_filters_compress_losslessly() {
        // 8 filters that are all scaled copies of 2 prototypes → a 2-entry
        // dictionary suffices.
        let mut w = Tensor::zeros(&[8, 1, 2, 2]);
        for j in 0..8 {
            let proto = if j % 2 == 0 {
                [1.0, 2.0, 3.0, 4.0]
            } else {
                [-1.0, 0.5, 0.0, 2.0]
            };
            let scale = 1.0 + j as f32 * 0.5;
            for (i, &p) in proto.iter().enumerate() {
                w.data_mut()[j * 4 + i] = scale * p;
            }
        }
        // k-means on scaled copies won't always find the perfect split from
        // any seed; try a few.
        let best = (0..5)
            .map(|s| {
                LcnnLayer::learn(&w, 4, &mut Rng::new(s))
                    .unwrap()
                    .reconstruction_error(&w)
                    .unwrap()
            })
            .fold(f32::INFINITY, f32::min);
        assert!(best < 0.5, "err {best}");
    }

    #[test]
    fn learn_validates_inputs() {
        let w = weight(4);
        assert!(LcnnLayer::learn(&w, 0, &mut Rng::new(0)).is_err());
        assert!(LcnnLayer::learn(&w, 9, &mut Rng::new(0)).is_err());
        assert!(LcnnLayer::learn(&Tensor::zeros(&[4]), 1, &mut Rng::new(0)).is_err());
    }

    #[test]
    fn cost_accounting_shrinks_with_dictionary() {
        let shape = ConvShape::new("l", 16, 64, 3, 1, 16, 16);
        let w = Tensor::randn(&[64, 16, 3, 3], Init::He, &mut Rng::new(5));
        let small = LcnnLayer::learn(&w, 8, &mut Rng::new(6)).unwrap();
        let large = LcnnLayer::learn(&w, 32, &mut Rng::new(6)).unwrap();
        assert!(small.macs(&shape) < large.macs(&shape));
        assert!(small.macs(&shape) < shape.macs());
        assert!(small.params(16 * 9) < shape.params());
    }

    #[test]
    fn model_level_compression_runs_and_reports_cost() {
        let mut model = plain20(4, 4).unwrap();
        let baseline = NetworkCost::of_layers(&model.conv_shapes(16, 16));
        let cost = compress_model(&mut model, 0.25, 16, 16, 9).unwrap();
        assert!(cost.macs < baseline.macs);
        // The model still runs.
        use alf_nn::{Layer, RunCtx};
        let y = model
            .forward(&Tensor::zeros(&[1, 3, 16, 16]), &mut RunCtx::eval())
            .unwrap();
        assert_eq!(y.dims(), &[1, 4]);
    }
}
