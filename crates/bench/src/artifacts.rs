//! Shared training artifacts: each reference model trains exactly once.
//!
//! The results grid keeps re-using the same handful of trained
//! references — the vanilla Plain-20/ResNet-20, their ALF counterparts,
//! and the synth-ImageNet ResNet-18 pair. The [`ArtifactStore`] pins one
//! canonical `(dataset, model seed, trainer seed)` triple per
//! [`BaselineKind`] and caches the trained result, so the `alf-lab` DAG
//! runs each `baseline:*` job once, after which every consumer job hits
//! the cache — asserted end-to-end through
//! [`ArtifactStore::train_counts`].
//!
//! Training is deterministic for a given triple (see
//! `alf_core::train::train_seeded`), so a cached artifact is bitwise what
//! a fresh training would produce.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use alf_core::models::{plain20, plain20_alf, resnet18_small, resnet20, resnet20_alf, ConvStyle};
use alf_core::train::{train_seeded, TrainReport};
use alf_core::{CnnModel, Result};
use alf_data::Dataset;

use crate::{CifarConfig, ImagenetConfig, Scale};

/// Seed of the canonical synth-CIFAR dataset every CIFAR-track job shares.
pub const CIFAR_DATA_SEED: u64 = 42;
/// Seed of the canonical synth-ImageNet dataset.
pub const IMAGENET_DATA_SEED: u64 = 77;

/// The shared trained references of the results grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Vanilla Plain-20 on synth-CIFAR.
    Plain20,
    /// Vanilla ResNet-20 on synth-CIFAR.
    Resnet20,
    /// ALF Plain-20 on synth-CIFAR (paper-default block/schedule).
    AlfPlain20,
    /// ALF ResNet-20 on synth-CIFAR.
    AlfResnet20,
    /// Vanilla ResNet-18-small on synth-ImageNet.
    ImagenetResnet18,
    /// ALF ResNet-18-small on synth-ImageNet.
    ImagenetAlfResnet18,
}

impl BaselineKind {
    /// Every baseline, in canonical (job-declaration) order.
    pub const ALL: [BaselineKind; 6] = [
        BaselineKind::Plain20,
        BaselineKind::Resnet20,
        BaselineKind::AlfPlain20,
        BaselineKind::AlfResnet20,
        BaselineKind::ImagenetResnet18,
        BaselineKind::ImagenetAlfResnet18,
    ];

    /// Stable id, doubling as the DAG job id.
    pub fn id(self) -> &'static str {
        match self {
            BaselineKind::Plain20 => "baseline:plain20",
            BaselineKind::Resnet20 => "baseline:resnet20",
            BaselineKind::AlfPlain20 => "baseline:alf-plain20",
            BaselineKind::AlfResnet20 => "baseline:alf-resnet20",
            BaselineKind::ImagenetResnet18 => "baseline:imagenet-resnet18",
            BaselineKind::ImagenetAlfResnet18 => "baseline:imagenet-alf-resnet18",
        }
    }

    /// Human label for report rows.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Plain20 => "Plain-20",
            BaselineKind::Resnet20 => "ResNet-20",
            BaselineKind::AlfPlain20 => "ALF Plain-20",
            BaselineKind::AlfResnet20 => "ALF ResNet-20",
            BaselineKind::ImagenetResnet18 => "ResNet-18",
            BaselineKind::ImagenetAlfResnet18 => "ALF ResNet-18",
        }
    }

    /// Canonical model/trainer seed: distinct per kind, fixed forever so
    /// cached artifacts and fresh trainings agree.
    fn seed(self) -> u64 {
        match self {
            BaselineKind::Plain20 => 1,
            BaselineKind::Resnet20 => 2,
            BaselineKind::AlfPlain20 => 3,
            BaselineKind::AlfResnet20 => 4,
            BaselineKind::ImagenetResnet18 => 5,
            BaselineKind::ImagenetAlfResnet18 => 6,
        }
    }

    /// Whether the baseline trains on the ImageNet track.
    pub fn is_imagenet(self) -> bool {
        matches!(
            self,
            BaselineKind::ImagenetResnet18 | BaselineKind::ImagenetAlfResnet18
        )
    }
}

/// One trained shared reference.
#[derive(Debug)]
pub struct Baseline {
    /// Which reference this is.
    pub kind: BaselineKind,
    /// The trained model.
    pub model: CnnModel,
    /// Full per-epoch training trace.
    pub report: TrainReport,
    /// Per-ALF-block keep ratios (empty for vanilla models).
    pub ratios: Vec<f32>,
}

/// Scale-pinned cache of datasets and trained baselines.
pub struct ArtifactStore {
    scale: Scale,
    /// Evaluator fan-out cap passed to every baseline training (the
    /// baseline jobs' thread lease); `None` keeps the host default.
    threads: Option<usize>,
    cifar: Mutex<Option<Arc<Dataset>>>,
    imagenet: Mutex<Option<Arc<Dataset>>>,
    /// One slot per [`BaselineKind::ALL`] entry. Each slot's lock is held
    /// *through* training, so concurrent requests for the same kind (a
    /// resumed campaign whose consumers outran their skipped baseline
    /// jobs) serialise on the slot and the second caller hits the cache —
    /// exactly-once training is structural, not scheduling luck.
    baselines: [Mutex<Option<Arc<Baseline>>>; BaselineKind::ALL.len()],
    /// Completed trainings per baseline id — the telemetry the campaign
    /// asserts "each reference trained exactly once" with.
    trainings: Mutex<BTreeMap<String, u64>>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("scale", &self.scale)
            .finish_non_exhaustive()
    }
}

impl ArtifactStore {
    /// Empty store for a scale, training with the host-default thread
    /// budget.
    pub fn new(scale: Scale) -> Self {
        Self::with_threads(scale, None)
    }

    /// Empty store whose baseline trainings are capped at `threads`
    /// evaluator workers (the lease a campaign scheduler grants its
    /// `baseline:*` jobs).
    pub fn with_threads(scale: Scale, threads: Option<usize>) -> Self {
        Self {
            scale,
            threads,
            cifar: Mutex::new(None),
            imagenet: Mutex::new(None),
            baselines: std::array::from_fn(|_| Mutex::new(None)),
            trainings: Mutex::new(BTreeMap::new()),
        }
    }

    /// The store's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The canonical synth-CIFAR dataset (built once).
    ///
    /// # Errors
    ///
    /// Propagates dataset construction errors.
    pub fn cifar(&self) -> Result<Arc<Dataset>> {
        let mut slot = self.cifar.lock().expect("artifact store poisoned");
        if let Some(d) = slot.as_ref() {
            return Ok(Arc::clone(d));
        }
        let d = Arc::new(CifarConfig::at(self.scale).dataset(CIFAR_DATA_SEED)?);
        *slot = Some(Arc::clone(&d));
        Ok(d)
    }

    /// The canonical synth-ImageNet dataset (built once).
    ///
    /// # Errors
    ///
    /// Propagates dataset construction errors.
    pub fn imagenet(&self) -> Result<Arc<Dataset>> {
        let mut slot = self.imagenet.lock().expect("artifact store poisoned");
        if let Some(d) = slot.as_ref() {
            return Ok(Arc::clone(d));
        }
        let d = Arc::new(ImagenetConfig::at(self.scale).dataset(IMAGENET_DATA_SEED)?);
        *slot = Some(Arc::clone(&d));
        Ok(d)
    }

    /// The trained reference of `kind`, training it on a cache miss.
    ///
    /// Only the slot of `kind` is locked during training, so baseline
    /// jobs for *different* kinds train concurrently under the DAG
    /// scheduler, while a second caller for the *same* kind waits and then
    /// reads the cache.
    ///
    /// # Errors
    ///
    /// Propagates model construction and training errors.
    pub fn baseline(&self, kind: BaselineKind) -> Result<Arc<Baseline>> {
        let idx = BaselineKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in ALL");
        let mut slot = self.baselines[idx].lock().expect("artifact store poisoned");
        if let Some(b) = slot.as_ref() {
            return Ok(Arc::clone(b));
        }
        let trained = Arc::new(self.train(kind)?);
        *self
            .trainings
            .lock()
            .expect("artifact store poisoned")
            .entry(kind.id().to_string())
            .or_insert(0) += 1;
        *slot = Some(Arc::clone(&trained));
        Ok(trained)
    }

    /// Completed trainings per baseline id (empty entries absent).
    pub fn train_counts(&self) -> BTreeMap<String, u64> {
        self.trainings
            .lock()
            .expect("artifact store poisoned")
            .clone()
    }

    fn train(&self, kind: BaselineKind) -> Result<Baseline> {
        let (data, hyper, epochs, classes, width, block) = if kind.is_imagenet() {
            let cfg = ImagenetConfig::at(self.scale);
            (
                self.imagenet()?,
                cfg.hyper,
                cfg.epochs,
                cfg.classes,
                cfg.width,
                cfg.block,
            )
        } else {
            let cfg = CifarConfig::at(self.scale);
            (
                self.cifar()?,
                cfg.hyper,
                cfg.epochs,
                cfg.classes,
                cfg.width,
                cfg.block,
            )
        };
        let seed = kind.seed();
        let model = match kind {
            BaselineKind::Plain20 => plain20(classes, width)?,
            BaselineKind::Resnet20 => resnet20(classes, width)?,
            BaselineKind::AlfPlain20 => plain20_alf(classes, width, block, seed)?,
            BaselineKind::AlfResnet20 => resnet20_alf(classes, width, block, seed)?,
            BaselineKind::ImagenetResnet18 => {
                resnet18_small(classes, width, ConvStyle::Standard, seed)?
            }
            BaselineKind::ImagenetAlfResnet18 => {
                resnet18_small(classes, width, ConvStyle::Alf(block), seed)?
            }
        };
        let (model, report) = train_seeded(model, &hyper, seed, &data, epochs, self.threads)?;
        let ratios = model.filter_keep_ratios();
        Ok(Baseline {
            kind,
            model,
            report,
            ratios,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_stable() {
        let ids: std::collections::BTreeSet<&str> =
            BaselineKind::ALL.iter().map(|k| k.id()).collect();
        assert_eq!(ids.len(), BaselineKind::ALL.len());
        assert!(ids.iter().all(|id| id.starts_with("baseline:")));
    }

    #[test]
    fn store_caches_datasets() {
        let store = ArtifactStore::new(Scale::Smoke);
        let a = store.cifar().unwrap();
        let b = store.cifar().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(store.train_counts().is_empty());
    }
}
