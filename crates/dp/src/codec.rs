//! Dense and sparse encodings of a flat task gradient.
//!
//! A gradient encodes as one tensor-segment sequence in the model's
//! flat `visit_params` order. Each segment is self-describing:
//!
//! ```text
//! segment := 0u8 | f32 value*                            (dense)
//!          | 1u8 | u32 live | u32 nruns
//!            | (u32 start, u32 len)*                     (row runs)
//!            | f32 row-payload*                          (live rows only)
//! ```
//!
//! The sparse form is keyed off each ALF block's `ActiveRows`
//! descriptor ([`alf_core::CnnModel::param_active_rows`]): the gated
//! STE zeroes pruned filter rows of the weight gradient *exactly*, so
//! eliding them is lossless — the decoder zero-fills and scatters the
//! live rows back, reproducing the dense bits. The encoder still
//! verifies the elided rows are bit-zero (falling back to dense if
//! not), so losslessness never rests on an invariant going stale.
//!
//! Per tensor, the encoder takes whichever form is smaller
//! (`density cutover`): a fully-live tensor always goes dense, and as
//! mask occupancy falls the weight segments — the bulk of the gradient
//! — shrink proportionally, which is what makes the encoded size strictly
//! decrease across an occupancy sweep.
//!
//! Nothing in the workspace sends a gradient anywhere: the facade
//! re-exports this module as `alf::dist` only for the repo benchmark's
//! `dist.*` probes, which time it and count its bytes.

use alf_core::CnnModel;
use alf_nn::layer::Layer;
use alf_tensor::ops::ActiveRows;
use alf_tensor::ShapeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::Result;

const MODE_DENSE: u8 = 0;
const MODE_SPARSE: u8 = 1;

/// The flat gradient's tensor-segment geometry: `(rows, row_len)` per
/// parameter in `visit_params` order. Both ends derive it from their
/// (identical) model, so it is never encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradLayout {
    tensors: Vec<(usize, usize)>,
    total_len: usize,
}

impl GradLayout {
    /// Reads the layout off a model: each parameter contributes its
    /// leading-dimension row count and row length.
    pub fn of_model(model: &CnnModel) -> Self {
        let mut tensors = Vec::new();
        let mut total_len = 0usize;
        model.visit_params_ref(&mut |p| {
            let len = p.value.len();
            let rows = match p.value.dims().first() {
                Some(&r) if r > 0 && len % r == 0 => r,
                _ => 1,
            };
            tensors.push((rows, len / rows));
            total_len += len;
        });
        Self { tensors, total_len }
    }
}

/// What one [`encode_grad`] call did, for the `dist.*` counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EncodeStats {
    /// Segments that took the sparse row form.
    pub sparse_tensors: usize,
    /// Segments that took the dense form.
    pub dense_tensors: usize,
    /// Segments whose descriptor promised zero rows that weren't
    /// bit-zero, forcing the dense fallback. Always 0 while the gated
    /// STE holds its exact-zero guarantee.
    pub fallbacks: usize,
}

/// Encodes `grad` into `out`, choosing per tensor between the dense and
/// sparse forms. `sparse[i]` is the live-row descriptor for tensor `i`
/// (`None` ⇒ dense), as produced by
/// [`alf_core::CnnModel::param_active_rows`].
///
/// # Panics
///
/// Panics when `grad` or `sparse` disagree with `layout` — those are
/// programming errors, not properties of the encoded bytes.
pub fn encode_grad(
    grad: &[f32],
    layout: &GradLayout,
    sparse: &[Option<ActiveRows>],
    out: &mut BytesMut,
) -> EncodeStats {
    assert_eq!(grad.len(), layout.total_len, "grad/layout length mismatch");
    assert_eq!(
        sparse.len(),
        layout.tensors.len(),
        "descriptor/layout tensor-count mismatch"
    );
    let mut stats = EncodeStats::default();
    let mut off = 0usize;
    for ((rows, row_len), desc) in layout.tensors.iter().zip(sparse) {
        let seg = &grad[off..off + rows * row_len];
        off += rows * row_len;
        let taken = desc
            .as_ref()
            .filter(|d| d.total() == *rows && !d.is_all())
            .and_then(|d| try_encode_sparse(seg, *row_len, d, out));
        match taken {
            Some(()) => stats.sparse_tensors += 1,
            None => {
                if desc
                    .as_ref()
                    .is_some_and(|d| d.total() == *rows && !d.is_all())
                {
                    // A descriptor applied but a "pruned" row carried
                    // nonzero bits — dense keeps the encoding lossless.
                    stats.fallbacks += 1;
                }
                out.put_u8(MODE_DENSE);
                for &g in seg {
                    out.put_f32_le(g);
                }
                stats.dense_tensors += 1;
            }
        }
    }
    stats
}

/// Writes the sparse form of `seg` if it is both smaller than dense and
/// provably lossless (all elided rows bit-zero); otherwise writes
/// nothing and returns `None`.
fn try_encode_sparse(
    seg: &[f32],
    row_len: usize,
    desc: &ActiveRows,
    out: &mut BytesMut,
) -> Option<()> {
    let runs = desc.runs();
    let live = desc.len();
    let sparse_bytes = 1 + 8 + 8 * runs.len() + 4 * live * row_len;
    let dense_bytes = 1 + 4 * desc.total() * row_len;
    if sparse_bytes >= dense_bytes {
        return None;
    }
    // Losslessness check: every elided row must be exactly +0.0 bits.
    let mut next_live = desc.indices().iter().copied().peekable();
    for row in 0..desc.total() {
        if next_live.peek() == Some(&row) {
            next_live.next();
            continue;
        }
        let r = &seg[row * row_len..(row + 1) * row_len];
        if r.iter().any(|g| g.to_bits() != 0) {
            return None;
        }
    }
    out.put_u8(MODE_SPARSE);
    out.put_u32_le(live as u32);
    out.put_u32_le(runs.len() as u32);
    for &(start, len) in &runs {
        out.put_u32_le(start as u32);
        out.put_u32_le(len as u32);
    }
    for &row in desc.indices() {
        for &g in &seg[row * row_len..(row + 1) * row_len] {
            out.put_f32_le(g);
        }
    }
    Some(())
}

/// Decodes a gradient encoded by [`encode_grad`] back to its dense flat
/// form. Self-describing: needs only the layout, not the encoder's
/// descriptors.
///
/// # Errors
///
/// A `decode_grad` [`ShapeError`] when the byte stream is truncated or the
/// sparse row structure is invalid for the layout.
pub fn decode_grad(bytes: &[u8], layout: &GradLayout) -> Result<Vec<f32>> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let mut out = vec![0.0f32; layout.total_len];
    let mut off = 0usize;
    for &(rows, row_len) in &layout.tensors {
        let seg_len = rows * row_len;
        let seg = &mut out[off..off + seg_len];
        off += seg_len;
        let mode = take_u8(&mut buf)?;
        match mode {
            MODE_DENSE => {
                need(&buf, 4 * seg_len, "dense segment")?;
                for slot in seg.iter_mut() {
                    *slot = buf.get_f32_le();
                }
            }
            MODE_SPARSE => {
                need(&buf, 8, "sparse segment header")?;
                let live = buf.get_u32_le() as usize;
                let nruns = buf.get_u32_le() as usize;
                need(&buf, 8 * nruns, "sparse run table")?;
                let mut expanded = 0usize;
                let mut prev_end = 0usize;
                let mut run_list = Vec::with_capacity(nruns);
                for i in 0..nruns {
                    let start = buf.get_u32_le() as usize;
                    let len = buf.get_u32_le() as usize;
                    if len == 0 || (i > 0 && start <= prev_end) || start + len > rows {
                        return Err(corrupt(format!(
                            "sparse run {i} ({start},{len}) invalid for {rows} rows"
                        )));
                    }
                    // Runs must be maximal-disjoint and increasing; a
                    // run touching the previous one would be the same
                    // bytes as one merged run, so reject ambiguity.
                    prev_end = start + len;
                    expanded += len;
                    run_list.push((start, len));
                }
                if expanded != live {
                    return Err(corrupt(format!(
                        "sparse run table covers {expanded} rows, header says {live}"
                    )));
                }
                need(&buf, 4 * live * row_len, "sparse row payload")?;
                for (start, len) in run_list {
                    for row in start..start + len {
                        for slot in seg[row * row_len..(row + 1) * row_len].iter_mut() {
                            *slot = buf.get_f32_le();
                        }
                    }
                }
            }
            other => return Err(corrupt(format!("unknown gradient segment mode {other}"))),
        }
    }
    if buf.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after gradient",
            buf.remaining()
        )));
    }
    Ok(out)
}

fn corrupt(detail: String) -> ShapeError {
    ShapeError::new("decode_grad", detail)
}

fn take_u8(buf: &mut Bytes) -> Result<u8> {
    need(buf, 1, "segment mode byte")?;
    Ok(buf.get_u8())
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(corrupt(format!(
            "gradient truncated: need {n} bytes for {what}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_of(tensors: &[(usize, usize)]) -> GradLayout {
        GradLayout {
            tensors: tensors.to_vec(),
            total_len: tensors.iter().map(|(r, l)| r * l).sum(),
        }
    }

    #[test]
    fn dense_round_trip_is_bitwise() {
        let layout = layout_of(&[(3, 4), (1, 5)]);
        let grad: Vec<f32> = (0..17).map(|i| (i as f32 * 0.37).sin() * 1e-3).collect();
        let mut wire = BytesMut::new();
        let stats = encode_grad(&grad, &layout, &[None, None], &mut wire);
        assert_eq!(stats.dense_tensors, 2);
        assert_eq!(stats.sparse_tensors, 0);
        let back = decode_grad(&wire.freeze().to_vec(), &layout).unwrap();
        assert!(grad
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn sparse_round_trip_elides_zero_rows_bitwise() {
        // 8 rows of 16, rows {0,1,5} live — the rest exactly zero.
        let layout = layout_of(&[(8, 16)]);
        let mut grad = vec![0.0f32; 128];
        for &row in &[0usize, 1, 5] {
            for c in 0..16 {
                grad[row * 16 + c] = (row * 16 + c) as f32 * 0.01 - 0.3;
            }
        }
        let desc = ActiveRows::from_indices(vec![0, 1, 5], 8).unwrap();
        let mut wire = BytesMut::new();
        let stats = encode_grad(&grad, &layout, &[Some(desc)], &mut wire);
        assert_eq!(stats.sparse_tensors, 1);
        assert_eq!(stats.fallbacks, 0);
        // 1 + 8 + 2 runs * 8 + 3*16*4 = 217 < dense 513.
        let wire = wire.freeze().to_vec();
        assert_eq!(wire.len(), 217);
        let back = decode_grad(&wire, &layout).unwrap();
        assert!(grad
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn nonzero_pruned_row_falls_back_to_dense() {
        let layout = layout_of(&[(4, 2)]);
        let mut grad = vec![0.0f32; 8];
        grad[0] = 1.0;
        grad[7] = -0.0; // bit pattern 0x8000_0000: NOT exactly zero
        let desc = ActiveRows::from_indices(vec![0], 4).unwrap();
        let mut wire = BytesMut::new();
        let stats = encode_grad(&grad, &layout, &[Some(desc)], &mut wire);
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.dense_tensors, 1);
        let back = decode_grad(&wire.freeze().to_vec(), &layout).unwrap();
        assert!(grad
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn fully_live_descriptor_takes_the_dense_form() {
        let layout = layout_of(&[(4, 4)]);
        let grad: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut wire = BytesMut::new();
        let stats = encode_grad(&grad, &layout, &[Some(ActiveRows::full(4))], &mut wire);
        assert_eq!(stats.dense_tensors, 1);
        assert_eq!(
            stats.fallbacks, 0,
            "is_all is the dense path, not a fallback"
        );
    }

    #[test]
    fn bytes_shrink_as_occupancy_falls() {
        let layout = layout_of(&[(32, 27)]);
        let grad = vec![1.0f32; 32 * 27];
        let mut sizes = Vec::new();
        for live in [32usize, 22, 13] {
            let desc = ActiveRows::from_indices((0..live).collect(), 32).unwrap();
            let mut g = vec![0.0f32; 32 * 27];
            g[..live * 27].copy_from_slice(&grad[..live * 27]);
            let mut wire = BytesMut::new();
            encode_grad(&g, &layout, &[Some(desc)], &mut wire);
            sizes.push(wire.len());
        }
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2], "{sizes:?}");
    }

    #[test]
    fn corrupt_streams_are_typed_errors() {
        let layout = layout_of(&[(2, 2)]);
        // Truncated dense payload.
        let err = decode_grad(&[MODE_DENSE, 0, 0], &layout).unwrap_err();
        assert!(err.op() == "decode_grad", "{err}");
        // Unknown mode.
        let err = decode_grad(&[7], &layout).unwrap_err();
        assert!(err.op() == "decode_grad", "{err}");
        // Sparse run past the row count.
        let mut wire = BytesMut::new();
        wire.put_u8(MODE_SPARSE);
        wire.put_u32_le(1);
        wire.put_u32_le(1);
        wire.put_u32_le(5); // start 5 of 2 rows
        wire.put_u32_le(1);
        wire.put_slice(&[0; 8]);
        let err = decode_grad(&wire.freeze().to_vec(), &layout).unwrap_err();
        assert!(err.op() == "decode_grad", "{err}");
    }

    #[test]
    fn layout_reads_model_geometry() {
        let model = alf_core::models::plain20_alf(
            4,
            4,
            alf_core::block::AlfBlockConfig::paper_default(),
            3,
        )
        .unwrap();
        let layout = GradLayout::of_model(&model);
        let descs = model.param_active_rows();
        assert_eq!(layout.tensors.len(), descs.len());
        let mut expected = 0usize;
        model.visit_params_ref(&mut |p| expected += p.value.len());
        assert_eq!(layout.total_len, expected);
    }
}
