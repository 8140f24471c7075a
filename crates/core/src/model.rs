//! CNN models whose convolutions are either standard layers or ALF blocks.
//!
//! The paper trains Plain-20/ResNet-20/ResNet-18 where every convolution is
//! replaced by an ALF block. [`CnnModel`] is a small structured container
//! (not a general graph) supporting exactly the topologies in the model
//! zoo: conv units, residual basic-blocks with parameter-free padded
//! shortcuts (He et al.'s option A, so Params match the paper's 0.27 M),
//! pooling and a linear classifier.

use alf_nn::activation::{Activation, ActivationKind};
use alf_nn::conv::Conv2d;
use alf_nn::layer::Layer;
use alf_nn::linear::Linear;
use alf_nn::norm::BatchNorm2d;
use alf_nn::pool::{GlobalAvgPool, MaxPool2d};
use alf_nn::{Pass, RunCtx};
use alf_tensor::{ShapeError, Tensor};

use crate::block::AlfBlock;
use crate::metrics::ConvShape;
use crate::Result;

/// A convolution that is either a standard layer, an ALF block, or a
/// deployed (stripped) ALF pair.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // models hold few of these; boxing would obscure the API
pub enum ConvKind {
    /// Plain convolution (vanilla baseline models).
    Standard(Conv2d),
    /// ALF block (code conv + expansion) in training form.
    Alf(AlfBlock),
    /// Deployed ALF block: the zero code filters and the matching
    /// expansion input channels have been stripped (paper §III-C).
    Deployed {
        /// Code convolution with only the surviving `Ccode` filters.
        code: Conv2d,
        /// 1×1 expansion back to the original channel count.
        expansion: Conv2d,
    },
}

impl ConvKind {
    /// Input channels.
    pub fn c_in(&self) -> usize {
        match self {
            ConvKind::Standard(c) => c.c_in(),
            ConvKind::Alf(b) => b.c_in(),
            ConvKind::Deployed { code, .. } => code.c_in(),
        }
    }

    /// Output channels (after expansion for ALF blocks).
    pub fn c_out(&self) -> usize {
        match self {
            ConvKind::Standard(c) => c.c_out(),
            ConvKind::Alf(b) => b.c_out(),
            ConvKind::Deployed { expansion, .. } => expansion.c_out(),
        }
    }

    /// Retained code filters, if this is an ALF-style convolution.
    pub fn c_code(&self) -> Option<usize> {
        match self {
            ConvKind::Standard(_) => None,
            ConvKind::Alf(b) => Some(b.active_filters()),
            ConvKind::Deployed { code, .. } => Some(code.c_out()),
        }
    }

    /// Convolution geometry (of the main/code conv).
    pub fn spec(&self) -> alf_tensor::ops::Conv2dSpec {
        match self {
            ConvKind::Standard(c) => c.spec(),
            ConvKind::Alf(b) => b.conv_spec(),
            ConvKind::Deployed { code, .. } => code.spec(),
        }
    }
}

impl Layer for ConvKind {
    fn forward(&mut self, x: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        match self {
            ConvKind::Standard(c) => c.forward(x, ctx),
            ConvKind::Alf(b) => b.forward(x, ctx),
            ConvKind::Deployed { code, expansion } => {
                let h = code.forward(x, ctx)?;
                expansion.forward(&h, ctx)
            }
        }
    }

    fn backward(&mut self, g: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        match self {
            ConvKind::Standard(c) => c.backward(g, ctx),
            ConvKind::Alf(b) => b.backward(g, ctx),
            ConvKind::Deployed { code, expansion } => {
                let g = expansion.backward(g, ctx)?;
                code.backward(&g, ctx)
            }
        }
    }

    fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
        match self {
            ConvKind::Standard(c) => visit(c),
            ConvKind::Alf(b) => visit(b),
            ConvKind::Deployed { code, expansion } => {
                visit(code);
                visit(expansion);
            }
        }
    }

    fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
        match self {
            ConvKind::Standard(c) => visit(c),
            ConvKind::Alf(b) => visit(b),
            ConvKind::Deployed { code, expansion } => {
                visit(code);
                visit(expansion);
            }
        }
    }
}

/// Named conv → BN → (optional) activation unit.
///
/// The batch-norm layer is optional: training-form units always carry
/// one, but BN folding at deploy time (`deploy::Pipeline`) pushes the
/// normalisation into the conv's weight and bias and removes the layer,
/// leaving a pure conv(→act) unit.
#[derive(Debug, Clone)]
pub struct ConvUnit {
    name: String,
    conv: ConvKind,
    bn: Option<BatchNorm2d>,
    act: Option<Activation>,
}

impl ConvUnit {
    /// Creates a unit; `act = None` omits the trailing activation (used by
    /// the second conv of a residual block, which activates after the add).
    pub fn new(name: impl Into<String>, conv: ConvKind, act: Option<ActivationKind>) -> Self {
        let bn = BatchNorm2d::new(conv.c_out());
        Self {
            name: name.into(),
            conv,
            bn: Some(bn),
            act: act.map(Activation::new),
        }
    }

    /// Unit name (the paper's `convXYZ` notation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped convolution.
    pub fn conv(&self) -> &ConvKind {
        &self.conv
    }

    /// Mutable access to the wrapped convolution.
    pub fn conv_mut(&mut self) -> &mut ConvKind {
        &mut self.conv
    }

    /// The unit's batch-norm layer; `None` once folded away at deploy.
    pub fn bn(&self) -> Option<&BatchNorm2d> {
        self.bn.as_ref()
    }

    /// Mutable access to the unit's batch-norm layer, when present.
    pub fn bn_mut(&mut self) -> Option<&mut BatchNorm2d> {
        self.bn.as_mut()
    }

    /// Removes and returns the batch-norm layer. The unit then runs
    /// conv(→act) only; the caller (BN folding in `deploy`) is
    /// responsible for having absorbed γ/β/μ/σ² into the conv first.
    pub fn take_bn(&mut self) -> Option<BatchNorm2d> {
        self.bn.take()
    }

    /// The trailing activation kind, if the unit has one.
    pub fn activation(&self) -> Option<ActivationKind> {
        self.act.as_ref().map(Activation::kind)
    }

    /// Silences a set of output channels: zeroes the convolution filters
    /// (standard convs only) and the BN scale/shift, making the channel
    /// output exactly zero — functionally equivalent to removing the
    /// filter while keeping tensor shapes intact. Used by the structured
    /// pruning baselines.
    ///
    /// # Panics
    ///
    /// Panics if any channel index is out of range.
    pub fn zero_output_channels(&mut self, channels: &[usize]) {
        let c_out = self.conv.c_out();
        for &ch in channels {
            assert!(ch < c_out, "channel {ch} out of range ({c_out})");
            if let ConvKind::Standard(conv) = &mut self.conv {
                let w = conv.weight_mut();
                let fan = w.len() / c_out;
                for v in &mut w.data_mut()[ch * fan..(ch + 1) * fan] {
                    *v = 0.0;
                }
            }
            if let Some(bn) = &mut self.bn {
                bn.scale_mut().data_mut()[ch] = 0.0;
                bn.shift_mut().data_mut()[ch] = 0.0;
            }
        }
    }
}

impl Layer for ConvUnit {
    fn forward(&mut self, x: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        // The unit scopes itself so profiles report the paper's `convXYZ`
        // names rather than anonymous conv/BN/act fragments.
        let token = ctx.scope_start();
        let run = |this: &mut Self, ctx: &mut RunCtx| -> Result<Tensor> {
            let mut h = this.conv.forward(x, ctx)?;
            if let Some(bn) = &mut this.bn {
                h = bn.forward(&h, ctx)?;
            }
            if let Some(act) = &mut this.act {
                h = act.forward(&h, ctx)?;
            }
            Ok(h)
        };
        let out = run(self, ctx);
        ctx.scope_end(token, &self.name, Pass::Forward);
        out
    }

    fn backward(&mut self, g: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let token = ctx.scope_start();
        let run = |this: &mut Self, ctx: &mut RunCtx| -> Result<Tensor> {
            let mut g = g.clone();
            if let Some(act) = &mut this.act {
                g = act.backward(&g, ctx)?;
            }
            if let Some(bn) = &mut this.bn {
                g = bn.backward(&g, ctx)?;
            }
            this.conv.backward(&g, ctx)
        };
        let out = run(self, ctx);
        ctx.scope_end(token, &self.name, Pass::Backward);
        out
    }

    fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
        visit(&self.conv);
        if let Some(bn) = &self.bn {
            visit(bn);
        }
    }

    fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
        visit(&mut self.conv);
        if let Some(bn) = &mut self.bn {
            visit(bn);
        }
    }
}

/// Parameter-free shortcut for strided residual stages: subsample spatially
/// by the stride and zero-pad the channel dimension (He et al. option A).
#[derive(Debug, Clone)]
pub struct PadShortcut {
    stride: usize,
    c_out: usize,
    input_dims: Option<[usize; 4]>,
}

impl PadShortcut {
    /// Creates a shortcut producing `c_out` channels at `1/stride` spatial
    /// resolution.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: usize, c_out: usize) -> Self {
        assert!(stride > 0);
        Self {
            stride,
            c_out,
            input_dims: None,
        }
    }
}

impl Layer for PadShortcut {
    fn forward(&mut self, x: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let (n, c, h, w) = match x.dims() {
            &[n, c, h, w] => (n, c, h, w),
            _ => {
                return Err(ShapeError::new(
                    "pad_shortcut",
                    format!("expected rank 4, got {}", x.shape()),
                ))
            }
        };
        if c > self.c_out {
            return Err(ShapeError::new(
                "pad_shortcut",
                format!("cannot shrink channels {c} → {}", self.c_out),
            ));
        }
        let (ho, wo) = (h.div_ceil(self.stride), w.div_ceil(self.stride));
        let mut out = Tensor::zeros(&[n, self.c_out, ho, wo]);
        for b in 0..n {
            for ch in 0..c {
                for y in 0..ho {
                    for xw in 0..wo {
                        *out.at_mut(&[b, ch, y, xw]) =
                            x.at(&[b, ch, y * self.stride, xw * self.stride]);
                    }
                }
            }
        }
        ctx.count_bytes(4 * (x.len() + out.len()) as u64);
        ctx.mode().cache(&mut self.input_dims, || [n, c, h, w]);
        Ok(out)
    }

    fn backward(&mut self, g: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let [n, c, h, w] = self
            .input_dims
            .ok_or_else(|| ShapeError::new("pad_shortcut", "backward called before forward"))?;
        let mut out = Tensor::zeros(&[n, c, h, w]);
        let (ho, wo) = (h.div_ceil(self.stride), w.div_ceil(self.stride));
        for b in 0..n {
            for ch in 0..c {
                for y in 0..ho {
                    for xw in 0..wo {
                        *out.at_mut(&[b, ch, y * self.stride, xw * self.stride]) =
                            g.at(&[b, ch, y, xw]);
                    }
                }
            }
        }
        ctx.count_bytes(4 * (g.len() + out.len()) as u64);
        Ok(out)
    }
}

/// Residual basic block: `relu(bn2(conv2(relu(bn1(conv1 x)))) + shortcut)`.
#[derive(Debug, Clone)]
pub struct ResidualUnit {
    a: ConvUnit,
    b: ConvUnit,
    shortcut: Option<PadShortcut>,
    final_act: Activation,
    cached_skip: Option<Tensor>,
}

impl ResidualUnit {
    /// First conv unit (conv → BN → ReLU).
    pub fn a(&self) -> &ConvUnit {
        &self.a
    }

    /// Second conv unit (conv → BN, activation after the add).
    pub fn b(&self) -> &ConvUnit {
        &self.b
    }

    /// Creates a basic block from its two conv units; `shortcut` is `None`
    /// for identity skips.
    pub fn new(a: ConvUnit, b: ConvUnit, shortcut: Option<PadShortcut>) -> Self {
        Self {
            a,
            b,
            shortcut,
            final_act: Activation::new(ActivationKind::Relu),
            cached_skip: None,
        }
    }
}

impl Layer for ResidualUnit {
    fn forward(&mut self, x: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let skip = match &mut self.shortcut {
            Some(s) => s.forward(x, ctx)?,
            None => x.clone(),
        };
        let h = self.a.forward(x, ctx)?;
        let h = self.b.forward(&h, ctx)?;
        let sum = h.add(&skip)?;
        ctx.mode().cache(&mut self.cached_skip, || skip);
        self.final_act.forward(&sum, ctx)
    }

    fn backward(&mut self, g: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let g = self.final_act.backward(g, ctx)?;
        // The add fans the gradient out to both branches.
        let g_skip = match &mut self.shortcut {
            Some(s) => s.backward(&g, ctx)?,
            None => g.clone(),
        };
        let g_main = self.b.backward(&g, ctx)?;
        let g_main = self.a.backward(&g_main, ctx)?;
        g_main.add(&g_skip)
    }

    fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
        visit(&self.a);
        visit(&self.b);
    }

    fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
        visit(&mut self.a);
        visit(&mut self.b);
    }
}

/// One structural element of a [`CnnModel`].
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // models hold few of these; boxing would obscure the API
pub enum Unit {
    /// conv → BN → activation.
    Conv(ConvUnit),
    /// Residual basic block.
    Residual(ResidualUnit),
    /// Max pooling (ImageNet-geometry stems).
    MaxPool(MaxPool2d),
    /// Global average pooling (`[n,c,h,w] → [n,c]`).
    GlobalPool(GlobalAvgPool),
    /// Final linear classifier.
    Classifier(Linear),
}

impl Unit {
    /// The single place that maps a `Unit` variant to its inner [`Layer`],
    /// plus a profiling label for the anonymous (un-named) units. Named
    /// units — everything built from [`ConvUnit`]s — scope themselves, so
    /// they return `None` here.
    fn inner_mut(&mut self) -> (&mut dyn Layer, Option<&'static str>) {
        match self {
            Unit::Conv(cu) => (cu, None),
            Unit::Residual(r) => (r, None),
            Unit::MaxPool(mp) => (mp, Some("maxpool")),
            Unit::GlobalPool(gp) => (gp, Some("global_pool")),
            Unit::Classifier(fc) => (fc, Some("fc")),
        }
    }

    /// Shared-borrow counterpart of [`Unit::inner_mut`] for the read-only
    /// visitors.
    fn inner(&self) -> &dyn Layer {
        match self {
            Unit::Conv(cu) => cu,
            Unit::Residual(r) => r,
            Unit::MaxPool(mp) => mp,
            Unit::GlobalPool(gp) => gp,
            Unit::Classifier(fc) => fc,
        }
    }

    /// The unit's conv units in execution order (a residual block
    /// contributes `a` then `b`) — with [`Unit::conv_units_mut`] the one
    /// conv-unit walk every model-level listing derives from.
    fn conv_units(&self) -> impl Iterator<Item = &ConvUnit> + '_ {
        let (first, second) = match self {
            Unit::Conv(cu) => (Some(cu), None),
            Unit::Residual(r) => (Some(&r.a), Some(&r.b)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Mutable counterpart of [`Unit::conv_units`], same order.
    fn conv_units_mut(&mut self) -> impl Iterator<Item = &mut ConvUnit> + '_ {
        let (first, second) = match self {
            Unit::Conv(cu) => (Some(cu), None),
            Unit::Residual(r) => (Some(&mut r.a), Some(&mut r.b)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }
}

impl Layer for Unit {
    fn forward(&mut self, x: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let (layer, label) = self.inner_mut();
        match label {
            Some(name) => {
                let token = ctx.scope_start();
                let out = layer.forward(x, ctx);
                ctx.scope_end(token, name, Pass::Forward);
                out
            }
            None => layer.forward(x, ctx),
        }
    }

    fn backward(&mut self, g: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let (layer, label) = self.inner_mut();
        match label {
            Some(name) => {
                let token = ctx.scope_start();
                let out = layer.backward(g, ctx);
                ctx.scope_end(token, name, Pass::Backward);
                out
            }
            None => layer.backward(g, ctx),
        }
    }

    fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
        visit(self.inner());
    }

    fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
        visit(self.inner_mut().0);
    }
}

/// A CNN assembled from [`Unit`]s, trained by the two-player loop in
/// [`crate::train`].
///
/// # Example
///
/// ```
/// use alf_core::models::plain20;
/// use alf_nn::{Layer, RunCtx};
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_core::Result<()> {
/// let mut ctx = RunCtx::eval();
/// let mut model = plain20(10, 8)?;
/// let logits = model.forward(&Tensor::zeros(&[2, 3, 32, 32]), &mut ctx)?;
/// assert_eq!(logits.dims(), &[2, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CnnModel {
    name: String,
    units: Vec<Unit>,
    num_classes: usize,
}

impl CnnModel {
    /// Assembles a model from units.
    ///
    /// # Errors
    ///
    /// Returns an error when the unit list has no classifier.
    pub fn from_units(
        name: impl Into<String>,
        units: Vec<Unit>,
        num_classes: usize,
    ) -> Result<Self> {
        if !units.iter().any(|u| matches!(u, Unit::Classifier(_))) {
            return Err(ShapeError::new("cnn model", "no classifier unit"));
        }
        Ok(Self {
            name: name.into(),
            units,
            num_classes,
        })
    }

    /// Model name (e.g. `plain20`, `alf-resnet20`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The structural units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Mutable access to the structural units (used by deployment).
    pub fn units_mut(&mut self) -> &mut [Unit] {
        &mut self.units
    }

    /// All convolutions in [`CnnModel::conv_units`] order.
    pub fn conv_kinds(&self) -> Vec<&ConvKind> {
        self.conv_units().into_iter().map(ConvUnit::conv).collect()
    }

    /// Renames the model (deployment marks compressed models).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// All conv units in execution order (residual blocks contribute
    /// `a`, `b`). Every per-convolution listing of the model —
    /// [`conv_kinds`](CnnModel::conv_kinds),
    /// [`alf_blocks`](CnnModel::alf_blocks),
    /// [`filter_stats`](CnnModel::filter_stats),
    /// [`conv_shapes`](CnnModel::conv_shapes) — is this walk, filtered or
    /// mapped, so they are index-parallel by construction.
    pub fn conv_units(&self) -> Vec<&ConvUnit> {
        self.units.iter().flat_map(Unit::conv_units).collect()
    }

    /// [`CnnModel::conv_units`], mutably. Used by deployment and the
    /// pruning baselines for model surgery.
    pub fn conv_units_mut(&mut self) -> Vec<&mut ConvUnit> {
        self.units
            .iter_mut()
            .flat_map(Unit::conv_units_mut)
            .collect()
    }

    /// All ALF blocks in network order (read-only) — the hook telemetry
    /// consumers use to size per-block signal arrays.
    pub fn alf_blocks(&self) -> Vec<&AlfBlock> {
        self.conv_units()
            .into_iter()
            .filter_map(|cu| match cu.conv() {
                ConvKind::Alf(b) => Some(b),
                _ => None,
            })
            .collect()
    }

    /// Per-parameter live-row descriptors for the model's flat parameter
    /// walk, in [`CnnModel::visit_params`] order.
    ///
    /// Entry `i` is `Some(rows)` when flat parameter `i` is an ALF
    /// block's raw filter bank whose gated STE guarantees pruned rows of
    /// the gradient are **exactly zero** (`config.ste` with the mask
    /// enabled): `rows` then lists the surviving original-filter indices
    /// — the block's [`ActiveRows`](alf_tensor::ops::ActiveRows) over
    /// code rows mapped through its kept-channel table — against the raw
    /// bank's full row count. Every other parameter (and every block
    /// without that guarantee) is `None`. This is the descriptor table
    /// the `alf-dist` sparse gradient codec keys its row elision off;
    /// losslessness relies precisely on the exact-zero guarantee pinned
    /// by `block::tests::gated_ste_discards_pruned_rows_in_both_modes`.
    pub fn param_active_rows(&self) -> Vec<Option<alf_tensor::ops::ActiveRows>> {
        // Map each ALF block's raw weight tensor to its descriptor by
        // data-pointer identity, then walk the flat parameter order.
        let mut by_ptr: Vec<(*const f32, alf_tensor::ops::ActiveRows)> = Vec::new();
        for block in self.alf_blocks() {
            let config = block.config();
            let ae = block.autoencoder();
            if !(config.ste && ae.mask_enabled()) {
                continue;
            }
            let rows = ae.active_rows();
            let kept = ae.kept_channels();
            let total = block.raw_weight().dims()[0];
            let mapped: Vec<usize> = rows.indices().iter().map(|&i| kept[i]).collect();
            // kept_channels is strictly increasing, so the mapped list
            // is a valid descriptor over the raw bank's rows.
            let Ok(desc) = alf_tensor::ops::ActiveRows::from_indices(mapped, total) else {
                continue;
            };
            by_ptr.push((block.raw_weight().data().as_ptr(), desc));
        }
        let mut out = Vec::new();
        self.visit_params_ref(&mut |p| {
            let ptr = p.value.data().as_ptr();
            out.push(
                by_ptr
                    .iter()
                    .find(|(w, _)| std::ptr::eq(*w, ptr))
                    .map(|(_, d)| d.clone()),
            );
        });
        out
    }

    /// All ALF blocks in network order, mutably — the hook the
    /// autoencoder player uses.
    pub fn alf_blocks_mut(&mut self) -> Vec<&mut AlfBlock> {
        self.conv_units_mut()
            .into_iter()
            .filter_map(|cu| match cu.conv_mut() {
                ConvKind::Alf(b) => Some(b),
                _ => None,
            })
            .collect()
    }

    /// Toggles the occupancy-aware execution paths on every ALF block (see
    /// [`AlfBlock::set_sparse_execution`]). Purely a performance switch —
    /// results are bitwise identical either way; benchmarks use `false` as
    /// the dense reference.
    pub fn set_sparse_execution(&mut self, on: bool) {
        for b in self.alf_blocks_mut() {
            b.set_sparse_execution(on);
        }
    }

    /// Runs [`AlfBlock::compact_if_below`] on every ALF block, physically
    /// shrinking blocks whose live occupancy fell strictly below
    /// `occupancy`. Returns how many blocks compacted.
    ///
    /// # Errors
    ///
    /// Propagates gather shape errors from the blocks (cannot happen for
    /// models built by the zoo constructors).
    pub fn compact_blocks_below(&mut self, occupancy: f32) -> Result<usize> {
        let mut n = 0;
        for b in self.alf_blocks_mut() {
            if b.compact_if_below(occupancy)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// `(name, active, total)` filter statistics for every ALF block.
    pub fn filter_stats(&self) -> Vec<(String, usize, usize)> {
        self.conv_units()
            .into_iter()
            .filter_map(|cu| match cu.conv() {
                ConvKind::Alf(b) => {
                    Some((cu.name().to_string(), b.active_filters(), b.total_filters()))
                }
                _ => None,
            })
            .collect()
    }

    /// Per-ALF-block keep ratio `active / total`, in [`filter_stats`]
    /// order — the form every results job maps onto the paper geometry.
    ///
    /// [`filter_stats`]: CnnModel::filter_stats
    pub fn filter_keep_ratios(&self) -> Vec<f32> {
        self.filter_stats()
            .iter()
            .map(|(_, active, total)| *active as f32 / (*total).max(1) as f32)
            .collect()
    }

    /// Fraction of code filters still active across all ALF blocks
    /// (1.0 for a fully dense model).
    pub fn remaining_filter_fraction(&self) -> f32 {
        let stats = self.filter_stats();
        let (active, total) = stats
            .iter()
            .fold((0usize, 0usize), |(a, t), s| (a + s.1, t + s.2));
        if total == 0 {
            1.0
        } else {
            active as f32 / total as f32
        }
    }

    /// Every conv unit with its geometry for an input of `h × w` pixels,
    /// in [`CnnModel::conv_units`] order: the spatial size is threaded
    /// through the convolutions and max-pools in between.
    pub(crate) fn conv_geometry(&self, mut h: usize, mut w: usize) -> Vec<(&ConvUnit, ConvShape)> {
        let mut out = Vec::new();
        for unit in &self.units {
            for cu in unit.conv_units() {
                let spec = cu.conv().spec();
                (h, w) = spec.output_hw(h, w);
                let (c_in, c_out) = (cu.conv().c_in(), cu.conv().c_out());
                let shape = ConvShape::new(cu.name(), c_in, c_out, spec.kernel, spec.stride, h, w);
                out.push((cu, shape));
            }
            if let Unit::MaxPool(mp) = unit {
                h /= mp.window();
                w /= mp.window();
            }
        }
        out
    }

    /// Geometry of every convolution for an input of `h × w` pixels, in
    /// execution order (the input to Params/OPs accounting and the
    /// accelerator model).
    pub fn conv_shapes(&self, h: usize, w: usize) -> Vec<ConvShape> {
        let geometry = self.conv_geometry(h, w);
        geometry.into_iter().map(|(_, shape)| shape).collect()
    }
}

impl Layer for CnnModel {
    fn forward(&mut self, input: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let mut x = input.clone();
        for unit in &mut self.units {
            x = unit.forward(&x, ctx)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor, ctx: &mut RunCtx) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for unit in self.units.iter_mut().rev() {
            g = unit.backward(&g, ctx)?;
        }
        Ok(g)
    }

    fn children(&self, visit: &mut dyn FnMut(&dyn Layer)) {
        for unit in &self.units {
            visit(unit);
        }
    }

    fn children_mut(&mut self, visit: &mut dyn FnMut(&mut dyn Layer)) {
        for unit in &mut self.units {
            visit(unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;

    #[test]
    fn pad_shortcut_subsamples_and_pads() {
        let mut ctx = RunCtx::train();
        let mut s = PadShortcut::new(2, 4);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32);
        let y = s.forward(&x, &mut ctx).unwrap();
        assert_eq!(y.dims(), &[1, 4, 2, 2]);
        assert_eq!(y.at(&[0, 0, 0, 0]), x.at(&[0, 0, 0, 0]));
        assert_eq!(y.at(&[0, 0, 1, 1]), x.at(&[0, 0, 2, 2]));
        assert_eq!(y.at(&[0, 3, 1, 1]), 0.0); // padded channel
    }

    #[test]
    fn pad_shortcut_backward_is_adjoint() {
        let mut rng = Rng::new(0);
        let mut ctx = RunCtx::train();
        let mut s = PadShortcut::new(2, 4);
        let x = Tensor::randn(&[2, 2, 4, 4], Init::Rand, &mut rng);
        let y = s.forward(&x, &mut ctx).unwrap();
        let g = Tensor::randn(y.dims(), Init::Rand, &mut rng);
        let gx = s.backward(&g, &mut ctx).unwrap();
        let lhs = y.dot(&g).unwrap();
        let rhs = x.dot(&gx).unwrap();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn pad_shortcut_rejects_shrinking() {
        let mut ctx = RunCtx::eval();
        let mut s = PadShortcut::new(1, 2);
        assert!(s.forward(&Tensor::zeros(&[1, 4, 2, 2]), &mut ctx).is_err());
        assert!(s.forward(&Tensor::zeros(&[4, 2, 2]), &mut ctx).is_err());
    }

    #[test]
    fn model_requires_classifier() {
        assert!(CnnModel::from_units("m", vec![], 2).is_err());
    }

    #[test]
    fn param_active_rows_tracks_masks_in_flat_order() {
        let mut model = crate::models::plain20_alf(
            4,
            8,
            crate::block::AlfBlockConfig {
                threshold: 0.05,
                ..crate::block::AlfBlockConfig::paper_default()
            },
            11,
        )
        .unwrap();
        // Fresh masks: every block fully live, every W descriptor is_all.
        let descs = model.param_active_rows();
        let mut param_lens = Vec::new();
        model.visit_params_ref(&mut |p| param_lens.push(p.value.len()));
        assert_eq!(descs.len(), param_lens.len());
        let blocks = model.alf_blocks().len();
        assert_eq!(descs.iter().filter(|d| d.is_some()).count(), blocks);
        for d in descs.iter().flatten() {
            assert!(d.is_all());
        }
        // Prune two channels of the first block: its descriptor (and only
        // its) loses exactly those original rows.
        {
            let mut bs = model.alf_blocks_mut();
            bs[0].autoencoder_mut().set_mask_value(1, 0.01);
            bs[0].autoencoder_mut().set_mask_value(3, 0.0);
        }
        let descs = model.param_active_rows();
        let pruned: Vec<_> = descs.iter().flatten().filter(|d| !d.is_all()).collect();
        assert_eq!(pruned.len(), 1);
        let d = pruned[0];
        assert_eq!(d.total(), d.len() + 2);
        assert!(!d.indices().contains(&1));
        assert!(!d.indices().contains(&3));
        // Descriptors sit at W-sized parameter slots.
        for (desc, len) in descs.iter().zip(&param_lens) {
            if let Some(d) = desc {
                assert_eq!(len % d.total(), 0, "W length divisible by row count");
            }
        }
    }

    #[test]
    fn residual_unit_round_trip() {
        let mut rng = Rng::new(1);
        let mk_conv = |c_in: usize, c_out: usize, stride: usize, rng: &mut Rng| {
            ConvKind::Standard(Conv2d::new(c_in, c_out, 3, stride, 1, false, Init::He, rng))
        };
        let mut r = ResidualUnit::new(
            ConvUnit::new("a", mk_conv(4, 8, 2, &mut rng), Some(ActivationKind::Relu)),
            ConvUnit::new("b", mk_conv(8, 8, 1, &mut rng), None),
            Some(PadShortcut::new(2, 8)),
        );
        let x = Tensor::randn(&[2, 4, 8, 8], Init::Rand, &mut rng);
        let mut ctx = RunCtx::train();
        let y = r.forward(&x, &mut ctx).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        let gx = r.backward(&y, &mut ctx).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert!(gx.data().iter().all(|v| v.is_finite()));
    }
}
