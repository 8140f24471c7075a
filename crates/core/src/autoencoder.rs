//! The sparse weight autoencoder of the ALF block (paper §III-A).
//!
//! For a convolution with weights `W ∈ R^{Co×Ci×K×K}` (flattened per filter
//! to a matrix `Wmat ∈ R^{Co×F}`, `F = Ci·K²`) the autoencoder computes
//!
//! ```text
//! W̃code = Wencᵀ · Wmat              (encoder mixes the Co filters)
//! Wcode  = σae(W̃code ⊙ Mprune)      (mask gates code filters, Eq. 3)
//! Wrec   = σae(Wdecᵀ · Wcode)       (decoder reconstructs, Eq. 4)
//! ```
//!
//! with `Mprune = Clip(M, t) = 1{|m| > t}·m` applied row-wise. Training
//! minimises `Lae = Lrec + νprune·Lprune` where `Lrec = MSE(Wmat, Wrec)`
//! and `Lprune = 1/Co·Σ|m|`; the clip is bypassed with the straight-through
//! estimator when differentiating w.r.t. `M` (Eq. 6).
//!
//! `Ccode` starts at `Co`; compression materialises at deployment when the
//! zero code filters are stripped (see [`crate::deploy`]), or mid-training
//! through [`WeightAutoencoder::compact`], which physically drops code
//! channels whose mask entries are clipped so `Ccode < Co` for the rest of
//! the run. [`WeightAutoencoder::kept_channels`] records which of the
//! original `Co` code channels each current row corresponds to.
//!
//! # Sparsity-aware step
//!
//! Once the mask prunes channels, the corresponding rows of `Wcode` are
//! exactly zero whenever `σae(0) == 0` (tanh / ReLU / identity — not
//! sigmoid). [`WeightAutoencoder::step_in`] then skips those rows in the
//! two reconstruction GEMMs: the decode `Wdecᵀ·Wcode` elides the dead `k`
//! slices and the decoder gradient `Wcode·gYᵀ` elides the dead rows. Both
//! elisions are bitwise-invisible (see `alf_tensor::ops::gemm`), so the
//! sparse and dense paths produce identical parameters. The encoder-side
//! GEMMs are *not* skipped: the mask gradient (Eq. 6's STE) needs `Z` and
//! `g_code` on clipped rows so those channels can recover.

use alf_nn::activation::ActivationKind;
use alf_nn::ste;
use alf_tensor::init::Init;
use alf_tensor::ops::{
    auto_threads, gemm_active_k_into, gemm_active_rows_into, matmul, matmul_at, matmul_at_ws,
    matmul_bt_ws, matmul_ws, with_thread_workspace, ActiveRows, Workspace,
};
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::Result;

/// Statistics of one autoencoder optimisation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AeStats {
    /// Reconstruction loss `Lrec = MSE(W, Wrec)`.
    pub l_rec: f32,
    /// Mask regulariser `Lprune = 1/Co·Σ|m|`.
    pub l_prune: f32,
    /// Pressure weight `νprune` used for this step.
    pub nu_prune: f32,
    /// Zero fraction `θ` of the mask *after* the step.
    pub zero_fraction: f32,
}

/// Sparse autoencoder over a convolution's filter bank.
///
/// # Example
///
/// ```
/// use alf_core::WeightAutoencoder;
/// use alf_nn::activation::ActivationKind;
/// use alf_tensor::{init::Init, rng::Rng, Tensor};
///
/// # fn main() -> alf_core::Result<()> {
/// let mut rng = Rng::new(0);
/// let ae = WeightAutoencoder::new(3, 8, 3, Init::Xavier, ActivationKind::Tanh, 1e-4, &mut rng);
/// let w = Tensor::randn(&[8, 3, 3, 3], Init::He, &mut rng);
/// let code = ae.code(&w)?;
/// assert_eq!(code.dims(), w.dims()); // Ccode = Co during training
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WeightAutoencoder {
    enc: Tensor,  // [Co, Ccode]
    dec: Tensor,  // [Ccode, Co]
    mask: Tensor, // [Ccode]
    threshold: f32,
    sigma: ActivationKind,
    mask_enabled: bool,
    c_out: usize,
    c_code: usize,
    // kept[i] = index in the ORIGINAL Co-channel code space of current code
    // row i. Identity until `compact` removes channels; the block's STE uses
    // it to keep routing each code row's gradient onto the same raw filter
    // it mapped to before compaction.
    kept: Vec<usize>,
    // Opt-out for the sparse GEMM paths in `step_in` (A/B comparisons and
    // the dense reference in benches). Never affects results — only whether
    // zero rows are elided or multiplied.
    sparse_exec: bool,
    fan: usize, // F = Ci·K²
}

impl WeightAutoencoder {
    /// Creates an autoencoder for a `[c_out, c_in, kernel, kernel]` weight.
    ///
    /// `Ccode` starts equal to `c_out` (paper §III-C); the mask `M` is
    /// initialised to ones so every filter is initially active.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero or `threshold` is negative.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        init: Init,
        sigma: ActivationKind,
        threshold: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && kernel > 0,
            "zero-sized autoencoder"
        );
        assert!(threshold >= 0.0, "negative clip threshold");
        Self {
            enc: Tensor::randn(&[c_out, c_out], init, rng),
            dec: Tensor::randn(&[c_out, c_out], init, rng),
            mask: Tensor::ones(&[c_out]),
            threshold,
            sigma,
            mask_enabled: true,
            c_out,
            c_code: c_out,
            kept: (0..c_out).collect(),
            sparse_exec: true,
            fan: c_in * kernel * kernel,
        }
    }

    /// Disables the pruning mask (the paper's Setup 2, Fig. 2b): the code
    /// is `σae(Wencᵀ·W)` with no gating, so no filters are ever pruned.
    pub fn without_mask(mut self) -> Self {
        self.mask_enabled = false;
        self
    }

    /// The clip threshold `t`.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The autoencoder activation `σae`.
    pub fn sigma(&self) -> ActivationKind {
        self.sigma
    }

    /// Whether the pruning mask is active.
    pub fn mask_enabled(&self) -> bool {
        self.mask_enabled
    }

    /// Current code channel count `Ccode` (equals `Co` until
    /// [`WeightAutoencoder::compact`] removes channels).
    pub fn c_code(&self) -> usize {
        self.c_code
    }

    /// Output channel count `Co` of the wrapped convolution.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// For each current code row, the index of the original code channel it
    /// corresponds to (identity before any compaction).
    pub fn kept_channels(&self) -> &[usize] {
        &self.kept
    }

    /// Enables or disables the zero-row elision in [`Self::step_in`].
    /// Purely a performance switch — results are bitwise identical either
    /// way.
    pub fn set_sparse_exec(&mut self, on: bool) {
        self.sparse_exec = on;
    }

    /// Whether the sparse step paths may legally engage: requires the mask
    /// (clipped entries are what zeroes code rows) and `σae(0) == 0`, since
    /// a pruned channel's code row is `σae(z·0)` elementwise — exactly zero
    /// for tanh/ReLU/identity but `0.5` for sigmoid, where eliding it would
    /// change results.
    pub fn sparse_eligible(&self) -> bool {
        self.sparse_exec && self.mask_enabled && self.sigma.apply(0.0) == 0.0
    }

    /// Raw mask values `M`.
    pub fn mask(&self) -> &Tensor {
        &self.mask
    }

    /// Overwrites one mask entry — useful for experiments that force a
    /// channel into (or out of) the clip dead-zone.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn set_mask_value(&mut self, channel: usize, value: f32) {
        self.mask.data_mut()[channel] = value;
    }

    /// Visits the autoencoder's persistent state (`Wenc`, `Wdec`, `M`) in
    /// a stable order — the checkpointing hook.
    pub fn visit_state(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        visitor(&mut self.enc);
        visitor(&mut self.dec);
        visitor(&mut self.mask);
    }

    /// Read-only counterpart of [`WeightAutoencoder::visit_state`] — same
    /// tensors, same order, through `&self`.
    pub fn visit_state_ref(&self, visitor: &mut dyn FnMut(&Tensor)) {
        visitor(&self.enc);
        visitor(&self.dec);
        visitor(&self.mask);
    }

    /// Clipped mask `Mprune = 1{|m| > t}·m` (all-ones when the mask is
    /// disabled). Length `Ccode`.
    pub fn pruned_mask(&self) -> Tensor {
        if self.mask_enabled {
            ste::clip_tensor(&self.mask, self.threshold)
        } else {
            Tensor::ones(&[self.c_code])
        }
    }

    /// Zero fraction `θ = Ccode,zero / Co` of the clipped mask, counted
    /// against the *original* channel budget: channels physically removed
    /// by [`Self::compact`] stay in the numerator, so θ is continuous
    /// across a compaction and the prune schedule sees the same pressure
    /// signal either way.
    pub fn zero_fraction(&self) -> f32 {
        let removed = self.c_out - self.c_code;
        if self.mask_enabled {
            let clipped = self
                .mask
                .data()
                .iter()
                .filter(|m| m.abs() <= self.threshold)
                .count();
            (removed + clipped) as f32 / self.c_out as f32
        } else {
            removed as f32 / self.c_out as f32
        }
    }

    /// Indices of code filters that survive the clip (the channels kept at
    /// deployment), relative to the *current* `Ccode` rows.
    pub fn active_channels(&self) -> Vec<usize> {
        let pm = self.pruned_mask();
        pm.data()
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| (m != 0.0).then_some(i))
            .collect()
    }

    /// [`ActiveRows`] descriptor over the current `Ccode` code rows — the
    /// object the block caches and the GEMM entry points consume. All-rows
    /// when the mask is disabled.
    pub fn active_rows(&self) -> ActiveRows {
        if self.mask_enabled {
            ActiveRows::from_clipped_mask(self.mask.data(), self.threshold)
        } else {
            ActiveRows::full(self.c_code)
        }
    }

    fn check_weight(&self, w: &Tensor) -> Result<()> {
        if w.shape().rank() != 4 || w.dims()[0] != self.c_out || w.len() != self.c_out * self.fan {
            return Err(ShapeError::new(
                "weight autoencoder",
                format!(
                    "weight {} incompatible with Co={} F={}",
                    w.shape(),
                    self.c_out,
                    self.fan
                ),
            ));
        }
        Ok(())
    }

    fn check_code(&self, code: &Tensor) -> Result<()> {
        if code.shape().rank() != 4
            || code.dims()[0] != self.c_code
            || code.len() != self.c_code * self.fan
        {
            return Err(ShapeError::new(
                "weight autoencoder",
                format!(
                    "code {} incompatible with Ccode={} F={}",
                    code.shape(),
                    self.c_code,
                    self.fan
                ),
            ));
        }
        Ok(())
    }

    /// Computes the code `Wcode = σae((Wencᵀ·W) ⊙ Mprune)` in convolution
    /// layout `[Ccode, Ci, K, K]` (Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns an error when `w` does not match the configured geometry.
    pub fn code(&self, w: &Tensor) -> Result<Tensor> {
        self.check_weight(w)?;
        let wmat = w.reshape(&[self.c_out, self.fan])?;
        let mut z = matmul_at(&self.enc, &wmat)?; // [Ccode, F]
        let pm = self.pruned_mask();
        for j in 0..self.c_code {
            let m = pm.data()[j];
            for v in &mut z.data_mut()[j * self.fan..(j + 1) * self.fan] {
                *v = self.sigma.apply(*v * m);
            }
        }
        z.reshape(&[self.c_code, w.dims()[1], w.dims()[2], w.dims()[3]])
    }

    /// Reconstructs `Wrec = σae(Wdecᵀ·Wcode)` in convolution layout
    /// (Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns an error when `code` does not match the configured geometry.
    pub fn reconstruct(&self, code: &Tensor) -> Result<Tensor> {
        self.check_code(code)?;
        let cmat = code.reshape(&[self.c_code, self.fan])?;
        let y = matmul_at(&self.dec, &cmat)?; // [Co, F]
        self.sigma.apply_tensor(&y).reshape(&[
            self.c_out,
            code.dims()[1],
            code.dims()[2],
            code.dims()[3],
        ])
    }

    /// Back-projects a task gradient on the code through the *true* chain
    /// (no straight-through estimator): `gW = Wenc · (g ⊙ σae′(code) ⊙
    /// Mprune)` — the gradient Eq. 5 deliberately avoids. Used by the STE
    /// ablation to demonstrate why the paper substitutes it.
    ///
    /// `w` is in convolution layout `[Co, Ci, K, K]`; `g_code` in code
    /// layout `[Ccode, Ci, K, K]`.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes mismatch the configured geometry.
    pub fn backproject_task_grad(&self, w: &Tensor, g_code: &Tensor) -> Result<Tensor> {
        self.check_weight(w)?;
        self.check_code(g_code)?;
        let cc = self.c_code;
        let fan = self.fan;
        let wmat = w.reshape(&[self.c_out, fan])?;
        let z = matmul_at(&self.enc, &wmat)?;
        let pm = self.pruned_mask();
        // g_z = g_code ⊙ σ′(σ(z·m)) ⊙ m, row-wise.
        let gmat = g_code.reshape(&[cc, fan])?;
        let mut g_z = gmat.clone();
        for j in 0..cc {
            let m = pm.data()[j];
            for (v, &zv) in g_z.data_mut()[j * fan..(j + 1) * fan]
                .iter_mut()
                .zip(&z.data()[j * fan..(j + 1) * fan])
            {
                let code = self.sigma.apply(zv * m);
                *v *= self.sigma.derivative_from_output(code) * m;
            }
        }
        // gW = Wenc · g_z : [Co, Ccode]·[Ccode, F] → [Co, F].
        let gw = matmul(&self.enc, &g_z)?;
        gw.reshape(w.dims())
    }

    /// One SGD step of the autoencoder player: minimises
    /// `Lae = Lrec + νprune·Lprune` w.r.t. `Wenc`, `Wdec` and `M`
    /// (the clip handled by the straight-through estimator, Eq. 6).
    ///
    /// `w` — the *current* raw filters of the convolution (not updated
    /// here; that is the task player's job). Returns the step statistics.
    ///
    /// # Errors
    ///
    /// Returns an error when `w` does not match the configured geometry.
    pub fn step(&mut self, w: &Tensor, lr: f32, nu_prune: f32) -> Result<AeStats> {
        with_thread_workspace(|ws| self.step_in(w, lr, nu_prune, ws))
    }

    /// [`Self::step`] with GEMM packing scratch drawn from a caller-supplied
    /// arena — the path [`crate::AlfBlock`] uses so the autoencoder player
    /// shares the training run's single [`Workspace`].
    ///
    /// # Errors
    ///
    /// Returns an error when `w` does not match the configured geometry.
    #[allow(clippy::needless_range_loop)] // `j` addresses several row-parallel buffers
    pub fn step_in(
        &mut self,
        w: &Tensor,
        lr: f32,
        nu_prune: f32,
        ws: &mut Workspace,
    ) -> Result<AeStats> {
        self.check_weight(w)?;
        let co = self.c_out;
        let cc = self.c_code;
        let fan = self.fan;
        let wmat = w.reshape(&[co, fan])?;

        // Channels the clip currently keeps. When the sparse path is
        // eligible (mask on, σae(0) == 0, not opted out) the pruned rows of
        // `code` are exactly zero, so the two reconstruction GEMMs below
        // elide them — bitwise-invisibly (see `alf_tensor::ops::gemm`).
        let live = self.sparse_eligible().then(|| self.active_rows());

        // ---- forward --------------------------------------------------
        let z = matmul_at_ws(&self.enc, &wmat, ws)?; // [Ccode, F]
        let pm = self.pruned_mask();
        // Zm = Z ⊙ mprune (row-wise), Wcode = σae(Zm)
        let mut code = z.clone();
        for j in 0..cc {
            let m = pm.data()[j];
            for v in &mut code.data_mut()[j * fan..(j + 1) * fan] {
                *v = self.sigma.apply(*v * m);
            }
        }
        // Y = Wdecᵀ·Wcode : pruned code rows are dead k-slices of this
        // product — skip packing them instead of multiplying zeros.
        let y = match &live {
            Some(rows) if !rows.is_all() => {
                let mut y = Tensor::zeros(&[co, fan]);
                gemm_active_k_into(
                    y.data_mut(),
                    self.dec.data(),
                    true,
                    code.data(),
                    co,
                    cc,
                    fan,
                    rows,
                    ws,
                    auto_threads(co, rows.len(), fan),
                );
                y
            }
            _ => matmul_at_ws(&self.dec, &code, ws)?,
        };
        let rec = self.sigma.apply_tensor(&y);

        let (l_rec, g_rec) = alf_nn::loss::mse_loss(&rec, &wmat)?;
        let l_prune = if cc == co {
            self.mask.mean_abs()
        } else {
            // Channels removed by compaction sit at exactly zero in the
            // conceptual length-Co mask, so Lprune keeps its 1/Co scale.
            self.mask.data().iter().map(|v| v.abs()).sum::<f32>() / co as f32
        };

        // ---- backward -------------------------------------------------
        // dL/dY = g_rec ⊙ σae'(rec)
        let g_y = g_rec.zip_map(&rec, |g, r| g * self.sigma.derivative_from_output(r))?;
        // Y = Wdecᵀ·Wcode ⇒ dL/dWdec = Wcode·g_yᵀ : [Ccode, Co]. Pruned
        // code rows are zero rows of the A operand, so their g_dec rows
        // come out exactly zero — declared sparsity, no scan needed.
        let g_dec = match &live {
            Some(rows) if !rows.is_all() => {
                let mut g = Tensor::zeros(&[cc, co]);
                gemm_active_rows_into(
                    g.data_mut(),
                    code.data(),
                    g_y.data(),
                    true,
                    cc,
                    fan,
                    co,
                    rows,
                    ws,
                    auto_threads(rows.len(), fan, co),
                );
                g
            }
            _ => matmul_bt_ws(&code, &g_y, ws)?,
        };
        // dL/dWcode = Wdec·g_y : [Ccode, F]. Deliberately NOT skipped:
        // clipped rows feed the mask gradient below, which is how pruned
        // channels recover (Eq. 6's STE).
        let g_code = matmul_ws(&self.dec, &g_y, ws)?;
        // dL/dZm = g_code ⊙ σae'(code)
        let g_zm = g_code.zip_map(&code, |g, c| g * self.sigma.derivative_from_output(c))?;
        // dL/dZ (for the encoder path) = g_zm ⊙ mprune, row-wise;
        // dL/dmprune[j] = Σ_f g_zm[j,f]·Z[j,f].
        let mut g_z = g_zm.clone();
        let mut g_mask = vec![0.0f32; cc];
        for j in 0..cc {
            let m = pm.data()[j];
            let row_zm = &g_zm.data()[j * fan..(j + 1) * fan];
            let row_z = &z.data()[j * fan..(j + 1) * fan];
            g_mask[j] = row_zm.iter().zip(row_z).map(|(&a, &b)| a * b).sum();
            for v in &mut g_z.data_mut()[j * fan..(j + 1) * fan] {
                *v *= m;
            }
        }
        // Z = Wencᵀ·Wmat ⇒ dL/dWenc = Wmat·g_zᵀ : [Co, Ccode]
        let g_enc = matmul_bt_ws(&wmat, &g_z, ws)?;

        // ---- update ---------------------------------------------------
        self.enc.axpy(-lr, &g_enc)?;
        self.dec.axpy(-lr, &g_dec)?;
        if self.mask_enabled {
            // STE through the clip (Eq. 6) + L1 pressure (νprune·sign/Co).
            // `l1_subgradient` divides by the current mask length Ccode;
            // rescale to the paper's 1/Co so compaction does not change the
            // per-entry pressure (the factor is exactly 1.0 before any
            // compaction, which multiplies bitwise-invisibly).
            let l1 = ste::l1_subgradient(&self.mask);
            let rescale = cc as f32 / co as f32;
            for j in 0..cc {
                let g = g_mask[j] + nu_prune * rescale * l1.data()[j];
                self.mask.data_mut()[j] -= lr * g;
            }
        }

        Ok(AeStats {
            l_rec,
            l_prune,
            nu_prune,
            zero_fraction: self.zero_fraction(),
        })
    }

    /// Physically removes code channels, keeping exactly the rows of
    /// `keep`: gathers the encoder's columns, the decoder's rows and the
    /// mask entries, shrinking `Ccode` to `keep.len()` and composing
    /// [`Self::kept_channels`]. Surviving channels' parameters are moved,
    /// not recomputed, so the code rows they produce — and the
    /// reconstruction, whose dropped `k` terms were exact-zero products —
    /// stay bitwise identical to before the compaction.
    ///
    /// # Errors
    ///
    /// Returns an error when `keep` does not span the current `Ccode` rows
    /// or is empty (a block must keep at least one filter).
    pub fn compact(&mut self, keep: &ActiveRows) -> Result<()> {
        if keep.total() != self.c_code {
            return Err(ShapeError::new(
                "autoencoder compact",
                format!(
                    "descriptor covers {} rows but Ccode={}",
                    keep.total(),
                    self.c_code
                ),
            ));
        }
        if keep.is_empty() {
            return Err(ShapeError::new(
                "autoencoder compact",
                "refusing to compact to zero code channels".to_string(),
            ));
        }
        let idx = keep.indices();
        let live = idx.len();
        let co = self.c_out;
        let cc = self.c_code;
        // Encoder columns: enc'[r, i] = enc[r, idx[i]].
        let mut enc = vec![0.0f32; co * live];
        for r in 0..co {
            for (i, &s) in idx.iter().enumerate() {
                enc[r * live + i] = self.enc.data()[r * cc + s];
            }
        }
        // Decoder rows: dec'[i, ·] = dec[idx[i], ·].
        let mut dec = vec![0.0f32; live * co];
        for (i, &s) in idx.iter().enumerate() {
            dec[i * co..(i + 1) * co].copy_from_slice(&self.dec.data()[s * co..(s + 1) * co]);
        }
        let mask: Vec<f32> = idx.iter().map(|&s| self.mask.data()[s]).collect();
        self.enc = Tensor::from_vec(enc, &[co, live])?;
        self.dec = Tensor::from_vec(dec, &[live, co])?;
        self.mask = Tensor::from_vec(mask, &[live])?;
        self.kept = idx.iter().map(|&s| self.kept[s]).collect();
        self.c_code = live;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_nn::gradcheck;

    fn ae(seed: u64, sigma: ActivationKind) -> WeightAutoencoder {
        WeightAutoencoder::new(2, 4, 3, Init::Xavier, sigma, 1e-4, &mut Rng::new(seed))
    }

    fn weight(seed: u64) -> Tensor {
        Tensor::randn(&[4, 2, 3, 3], Init::He, &mut Rng::new(seed))
    }

    #[test]
    fn code_has_weight_shape_during_training() {
        let a = ae(0, ActivationKind::Tanh);
        let w = weight(1);
        let code = a.code(&w).unwrap();
        assert_eq!(code.dims(), w.dims());
    }

    #[test]
    fn masked_channels_are_zero_in_code() {
        let mut a = ae(2, ActivationKind::Tanh);
        a.mask.data_mut()[1] = 0.0; // below threshold ⇒ clipped
        a.mask.data_mut()[3] = 5e-5;
        let code = a.code(&weight(3)).unwrap();
        let fan = 18;
        assert!(code.data()[fan..2 * fan].iter().all(|&v| v == 0.0));
        assert!(code.data()[3 * fan..4 * fan].iter().all(|&v| v == 0.0));
        assert!(code.data()[..fan].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn zero_fraction_and_active_channels_agree() {
        let mut a = ae(4, ActivationKind::Tanh);
        a.mask.data_mut()[0] = 0.0;
        assert_eq!(a.zero_fraction(), 0.25);
        assert_eq!(a.active_channels(), vec![1, 2, 3]);
    }

    #[test]
    fn without_mask_disables_gating() {
        let mut a = ae(5, ActivationKind::Tanh).without_mask();
        a.mask.data_mut()[0] = 0.0;
        assert_eq!(a.zero_fraction(), 0.0);
        assert_eq!(a.active_channels().len(), 4);
        let code = a.code(&weight(6)).unwrap();
        assert!(code.data()[..18].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn rejects_mismatched_weight() {
        let a = ae(7, ActivationKind::Tanh);
        assert!(a.code(&Tensor::zeros(&[4, 2, 5, 5])).is_err());
        assert!(a.code(&Tensor::zeros(&[3, 2, 3, 3])).is_err());
        assert!(a.reconstruct(&Tensor::zeros(&[8])).is_err());
    }

    #[test]
    fn reconstruction_loss_decreases_under_training() {
        // With νprune = 0 the autoencoder is a plain reconstruction problem;
        // Lrec must drop substantially.
        let mut a = ae(8, ActivationKind::Tanh);
        let w = weight(9).scale(0.5); // keep inside tanh's invertible range
        let first = a.step(&w, 0.0, 0.0).unwrap().l_rec;
        let mut last = first;
        for _ in 0..1500 {
            last = a.step(&w, 0.05, 0.0).unwrap().l_rec;
        }
        assert!(
            last < 0.35 * first,
            "Lrec should shrink: first {first}, last {last}"
        );
    }

    #[test]
    fn prune_pressure_drives_mask_to_zero() {
        // The SGD step on |m| oscillates around zero with amplitude
        // lr·ν/Co, so the clip threshold must exceed that amplitude for the
        // channel to stay in the dead zone — the same lr/t interplay the
        // paper's Setup 3 explores.
        let mut a = WeightAutoencoder::new(
            2,
            4,
            3,
            Init::Xavier,
            ActivationKind::Tanh,
            0.05,
            &mut Rng::new(10),
        );
        let w = weight(11);
        for _ in 0..3000 {
            a.step(&w, 3e-3, 1.0).unwrap();
        }
        assert!(
            a.zero_fraction() > 0.0,
            "sustained pressure should clip some channels (mask: {:?})",
            a.mask.data()
        );
    }

    #[test]
    fn no_pressure_keeps_all_channels() {
        let mut a = ae(12, ActivationKind::Tanh);
        let w = weight(13);
        for _ in 0..200 {
            a.step(&w, 0.01, 0.0).unwrap();
        }
        // Reconstruction alone has no reason to kill channels outright.
        assert_eq!(a.zero_fraction(), 0.0);
    }

    /// Flattens (enc, dec, mask) into one vector so a single gradcheck can
    /// cover all three parameter groups.
    fn gradcheck_packed(sigma: ActivationKind) {
        let base = ae(14, sigma);
        let w = weight(15);
        let nu = 0.3;
        let co = 4;
        let pack = |a: &WeightAutoencoder| {
            let mut v = a.enc.data().to_vec();
            v.extend_from_slice(a.dec.data());
            v.extend_from_slice(a.mask.data());
            Tensor::from_vec(v, &[co * co * 2 + co]).unwrap()
        };
        let unpack = |t: &Tensor| {
            let mut a = base.clone();
            let d = t.data();
            a.enc = Tensor::from_vec(d[..co * co].to_vec(), &[co, co]).unwrap();
            a.dec = Tensor::from_vec(d[co * co..2 * co * co].to_vec(), &[co, co]).unwrap();
            a.mask = Tensor::from_vec(d[2 * co * co..].to_vec(), &[co]).unwrap();
            a
        };
        let packed = pack(&base);
        let (analytic, numeric) = gradcheck::input_gradients(
            &packed,
            |p| {
                let a = unpack(p);
                let code = a.code(&w)?;
                let rec = a.reconstruct(&code)?;
                let wmat = w.reshape(&[co, 18])?;
                let rmat = rec.reshape(&[co, 18])?;
                let (l_rec, _) = alf_nn::loss::mse_loss(&rmat, &wmat)?;
                Ok(l_rec + nu * a.mask.mean_abs())
            },
            |p| {
                let mut a = unpack(p);
                // Recover the gradient from the SGD update at lr = 1.
                let before = pack(&a);
                a.step(&w, 1.0, nu)?;
                let after = pack(&a);
                before.sub(&after)
            },
        )
        .unwrap();
        gradcheck::assert_close(&analytic, &numeric, 3e-2);
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        gradcheck_packed(ActivationKind::Tanh);
    }

    #[test]
    fn gradients_match_finite_differences_sigmoid() {
        gradcheck_packed(ActivationKind::Sigmoid);
    }

    #[test]
    fn clipped_channel_still_receives_gradient_via_ste() {
        // A mask entry inside the dead zone would get zero gradient from the
        // true derivative of the clip; the STE lets it keep learning so the
        // channel can recover (paper §III-A).
        let mut a = ae(16, ActivationKind::Tanh);
        a.mask.data_mut()[2] = 1e-5; // clipped (t = 1e-4)
        let before = a.mask.data()[2];
        a.step(&weight(17), 0.1, 0.0).unwrap();
        assert_ne!(a.mask.data()[2], before, "STE must update clipped entries");
    }

    #[test]
    fn backproject_matches_finite_differences() {
        // The no-STE chain gradient must be the true derivative of
        // 0.5·‖code(W)‖² w.r.t. W (for that loss, g_code = code).
        let base = ae(20, ActivationKind::Tanh);
        let w0 = weight(21).scale(0.5);
        let (analytic, numeric) = gradcheck::input_gradients(
            &w0,
            |w| Ok(0.5 * base.code(w)?.sq_norm()),
            |w| {
                let code = base.code(w)?;
                base.backproject_task_grad(w, &code)
            },
        )
        .unwrap();
        gradcheck::assert_close(&analytic, &numeric, 3e-2);
    }

    #[test]
    fn sparse_step_is_bitwise_identical_to_dense() {
        // The ISSUE's core guarantee: eliding pruned code rows from the
        // reconstruction GEMMs must not change a single bit of the updated
        // parameters.
        let mut sparse = ae(30, ActivationKind::Tanh);
        sparse.set_mask_value(1, 0.0);
        sparse.set_mask_value(3, 5e-5); // inside the dead zone (t = 1e-4)
        let mut dense = sparse.clone();
        dense.set_sparse_exec(false);
        assert!(sparse.sparse_eligible());
        assert!(!dense.sparse_eligible());
        let w = weight(31);
        for _ in 0..5 {
            sparse.step(&w, 0.05, 0.5).unwrap();
            dense.step(&w, 0.05, 0.5).unwrap();
        }
        assert_eq!(sparse.enc.data(), dense.enc.data());
        assert_eq!(sparse.dec.data(), dense.dec.data());
        assert_eq!(sparse.mask.data(), dense.mask.data());
    }

    #[test]
    fn sigmoid_activation_disables_sparse_path() {
        // σae(0) = 0.5 for sigmoid: pruned code rows are NOT zero, so the
        // elision must refuse to engage.
        let a = ae(32, ActivationKind::Sigmoid);
        assert!(!a.sparse_eligible());
        assert!(ae(33, ActivationKind::Tanh).sparse_eligible());
        assert!(!ae(34, ActivationKind::Tanh)
            .without_mask()
            .sparse_eligible());
    }

    #[test]
    fn compact_preserves_surviving_code_and_reconstruction() {
        let mut a = ae(35, ActivationKind::Tanh);
        a.set_mask_value(0, 0.0);
        a.set_mask_value(2, -3e-5);
        let w = weight(36);
        let code_full = a.code(&w).unwrap();
        let rec_full = a.reconstruct(&code_full).unwrap();

        let keep = a.active_rows();
        assert_eq!(keep.indices(), &[1, 3]);
        a.compact(&keep).unwrap();
        assert_eq!(a.c_code(), 2);
        assert_eq!(a.kept_channels(), &[1, 3]);

        let code = a.code(&w).unwrap();
        assert_eq!(code.dims(), &[2, 2, 3, 3]);
        let fan = 18;
        for (i, &s) in [1usize, 3].iter().enumerate() {
            assert_eq!(
                &code.data()[i * fan..(i + 1) * fan],
                &code_full.data()[s * fan..(s + 1) * fan],
                "compacted code row {i} must be original row {s} bitwise"
            );
        }
        // The dropped reconstruction terms were exact-zero products, so the
        // reconstruction is bitwise unchanged too.
        let rec = a.reconstruct(&code).unwrap();
        assert_eq!(rec.data(), rec_full.data());
        // Removed channels stay in the zero-fraction numerator.
        assert_eq!(a.zero_fraction(), 0.5);
        assert_eq!(a.active_channels(), vec![0, 1]);
    }

    #[test]
    fn compact_composes_kept_map_across_rounds() {
        let mut a = ae(37, ActivationKind::Tanh);
        a.set_mask_value(0, 0.0);
        a.compact(&a.active_rows()).unwrap();
        assert_eq!(a.kept_channels(), &[1, 2, 3]);
        a.set_mask_value(1, 0.0); // current row 1 = original channel 2
        a.compact(&a.active_rows()).unwrap();
        assert_eq!(a.kept_channels(), &[1, 3]);
        assert_eq!(a.zero_fraction(), 0.5);
    }

    #[test]
    fn compact_rejects_empty_or_mismatched_descriptor() {
        let mut a = ae(38, ActivationKind::Tanh);
        let empty = ActiveRows::from_mask(&[0.0; 4]);
        assert!(a.compact(&empty).is_err());
        let wrong = ActiveRows::full(3);
        assert!(a.compact(&wrong).is_err());
        // Still intact after the rejected calls.
        assert_eq!(a.c_code(), 4);
        assert!(a.code(&weight(39)).is_ok());
    }

    #[test]
    fn compacted_autoencoder_still_trains() {
        let mut a = ae(40, ActivationKind::Tanh);
        a.set_mask_value(2, 0.0);
        a.compact(&a.active_rows()).unwrap();
        let w = weight(41).scale(0.5);
        let first = a.step(&w, 0.0, 0.0).unwrap().l_rec;
        let mut last = first;
        for _ in 0..1500 {
            last = a.step(&w, 0.05, 0.0).unwrap().l_rec;
        }
        // A 3-channel code reconstructing 4 filters is rank-limited, so the
        // loss has a floor — but training must still make clear progress.
        assert!(
            last < 0.75 * first,
            "compacted Lrec should shrink: first {first}, last {last}"
        );
    }

    #[test]
    fn backproject_zeroes_gradient_of_clipped_channels() {
        // §III-B's argument: without the STE, clipped mask entries zeroise
        // the gradient flowing back to W through those code channels.
        let mut a = ae(22, ActivationKind::Tanh);
        for j in 0..4 {
            a.set_mask_value(j, 0.0); // everything clipped
        }
        let w = weight(23);
        let g_code = Tensor::ones(w.dims());
        let g_w = a.backproject_task_grad(&w, &g_code).unwrap();
        assert_eq!(
            g_w.sq_norm(),
            0.0,
            "fully-clipped mask must kill the chain gradient"
        );
    }
}
