//! The checkpoint decoder on hostile bytes: arbitrary blobs, and
//! truncations and single-byte flips of valid v1 and v2 blobs. `load` and
//! `load_trainer` must return rather than panic, and a load that fails
//! must leave the model's state bitwise as it was.

use alf_core::block::AlfBlockConfig;
use alf_core::checkpoint::{self, TrainerState};
use alf_core::models::plain20_alf;
use alf_core::{CnnModel, PruneSchedule};
use alf_nn::layer::Layer;
use alf_tensor::Tensor;
use proptest::collection::vec;
use proptest::prelude::*;

fn model(seed: u64) -> CnnModel {
    plain20_alf(4, 4, AlfBlockConfig::paper_default(), seed).unwrap()
}

fn state_bits(model: &CnnModel) -> Vec<u32> {
    let mut out = Vec::new();
    model.visit_state_ref(&mut |t: &Tensor| out.extend(t.data().iter().map(|v| v.to_bits())));
    out
}

/// A valid v1 (`v2 == false`) or v2 blob of a model other than the one
/// the blobs are loaded into, so a partial load would show in its bits.
fn valid_blob(v2: bool) -> Vec<u8> {
    let source = model(1);
    if !v2 {
        return checkpoint::save(&source).to_vec();
    }
    let mut momentum = Vec::new();
    source.visit_params_ref(&mut |p| momentum.push(Tensor::full(p.value.dims(), 0.25)));
    let state = TrainerState {
        momentum,
        schedule: PruneSchedule::new(6.0, 0.7),
        epoch: 2,
        step: 5,
        data_seed: 9,
    };
    checkpoint::save_trainer(&source, &state).to_vec()
}

/// Runs both loaders on `blob`, each on a fresh copy of `target`.
fn check_loaders(target: &CnnModel, blob: &[u8]) -> Result<(), TestCaseError> {
    let before = state_bits(target);
    let mut m = target.clone();
    if checkpoint::load(&mut m, blob).is_err() {
        prop_assert!(state_bits(&m) == before, "a failed load changed the model");
    }
    let mut m = target.clone();
    if checkpoint::load_trainer(&mut m, blob).is_err() {
        prop_assert!(
            state_bits(&m) == before,
            "a failed load_trainer changed the model"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare or behind either magic (so the counted
    /// sections are reached, not only the magic check).
    #[test]
    fn arbitrary_bytes_never_panic(words in vec(0u16..256, 0..160), magic in 0usize..3) {
        let mut blob = [&b""[..], b"ALFCKPT1", b"ALFCKPT2"][magic].to_vec();
        blob.extend(words.iter().map(|&w| w as u8));
        check_loaders(&model(2), &blob)?;
    }

    /// Every prefix length is equally likely; a truncated blob must fail.
    #[test]
    fn truncated_blobs_fail_cleanly(v2 in 0usize..2, cut in 0.0f64..1.0) {
        let blob = valid_blob(v2 == 1);
        let cut = (cut * blob.len() as f64) as usize;
        let target = model(2);
        check_loaders(&target, &blob[..cut])?;
        prop_assert!(checkpoint::load(&mut target.clone(), &blob[..cut]).is_err());
    }

    /// One byte xor-ed with a nonzero mask: anywhere in the blob, or in
    /// its first 64 bytes, where the counts, ranks and dims sit.
    #[test]
    fn single_byte_flips_never_panic(
        v2 in 0usize..2,
        head in 0usize..2,
        at in 0.0f64..1.0,
        mask in 1u16..256,
    ) {
        let mut blob = valid_blob(v2 == 1);
        let span = if head == 1 { 64 } else { blob.len() };
        let i = (at * span as f64) as usize;
        blob[i] ^= mask as u8;
        check_loaders(&model(2), &blob)?;
    }
}
