//! Integration tests for the `alf-serve` subsystem: the deployment
//! round-trip (`deploy::Pipeline` → `checkpoint::save` → `load` → serve) must be
//! bitwise-faithful to the training-form network, and the server must
//! survive concurrent load with a hot swap and a graceful shutdown
//! without losing requests or allocating in steady state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use alf::core::block::AlfBlockConfig;
use alf::core::deploy::QuantSpec;
use alf::core::model::CnnModel;
use alf::core::models::plain20_alf;
use alf::core::{checkpoint, deploy};
use alf::nn::{Layer, RunCtx};
use alf::serve::{Pending, ServeConfig, ServeError, Server};
use alf::tensor::init::Init;
use alf::tensor::rng::Rng;
use alf::tensor::Tensor;

const CLASSES: usize = 4;
const IMAGE: usize = 12;

/// A Plain-20 ALF model with 60% of every block's code filters clipped to
/// exact zero, so the deployment pipeline has structure to strip.
fn pruned_model(seed: u64) -> CnnModel {
    let mut model =
        plain20_alf(CLASSES, 4, AlfBlockConfig::paper_default(), seed).expect("build model");
    for block in model.alf_blocks_mut() {
        let co = block.autoencoder().mask().len();
        let keep = (co * 2 / 5).max(1);
        for j in keep..co {
            block.autoencoder_mut().set_mask_value(j, 0.0);
        }
    }
    model
}

fn image(rng: &mut Rng) -> Tensor {
    Tensor::randn(&[3, IMAGE, IMAGE], Init::Rand, rng)
}

fn serve_config(workers: usize, max_batch: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch,
        queue_depth,
        ..ServeConfig::new(3, IMAGE, IMAGE)
    }
}

/// `compress` → `checkpoint::save` → `load` into a fresh deployed model →
/// serve: the logits coming back from the server are bitwise-identical to
/// the training-form network's eval-mode `forward`.
#[test]
fn deployment_roundtrip_serves_bitwise_identical_logits() {
    let mut train_form = pruned_model(17);
    let deployed = deploy::Pipeline::new()
        .run(&train_form)
        .expect("compress")
        .model;
    let blob = checkpoint::save(&deployed);

    // A *fresh* deployed model, deliberately perturbed so the test can
    // only pass if `checkpoint::load` actually restores the weights.
    let mut fresh = deploy::Pipeline::new()
        .run(&train_form)
        .expect("compress fresh")
        .model;
    fresh.visit_params(&mut |p| {
        for v in p.value.data_mut() {
            *v += 0.25;
        }
    });
    checkpoint::load(&mut fresh, &blob).expect("load checkpoint");

    // max_batch = 1 keeps every request in its own batch so the serving
    // path sees exactly the `[1, C, H, W]` geometry of the reference.
    let server = Server::start(&fresh, serve_config(1, 1, 8)).expect("start server");
    let mut ctx = RunCtx::eval();
    let mut rng = Rng::new(5);
    for _ in 0..6 {
        let x = image(&mut rng);
        let batched = Tensor::from_vec(x.data().to_vec(), &[1, 3, IMAGE, IMAGE]).unwrap();
        let reference = train_form.forward(&batched, &mut ctx).expect("reference");
        assert_eq!(reference.dims(), &[1, CLASSES]);

        let prediction = server.submit(x).expect("submit").wait().expect("answer");
        assert_eq!(prediction.logits.dims(), &[CLASSES]);
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(prediction.logits.data()),
            bits(reference.data()),
            "served logits differ from training-form eval forward"
        );
        let expected_class = reference
            .data()
            .iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |(bi, bv), (j, &v)| {
                if v > bv {
                    (j, v)
                } else {
                    (bi, bv)
                }
            })
            .0;
        assert_eq!(prediction.class, expected_class);
    }
    server.shutdown();
}

/// Concurrent producers + one hot swap + one graceful shutdown: every
/// submitted request is either answered or explicitly rejected, and the
/// steady-state serving path performs zero arena allocations per batch
/// under a frozen arena (same assertion style as tests/profiling.rs).
#[test]
fn serving_under_load_loses_nothing_and_stays_allocation_free() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 60;

    let model = pruned_model(23);
    let mut swapped = model.clone();
    swapped.visit_params(&mut |p| {
        for v in p.value.data_mut() {
            *v += 0.1;
        }
    });

    let server = Server::start(&model, serve_config(2, 4, 64)).expect("start server");
    let mut rng = Rng::new(9);
    let pool: Vec<Tensor> = (0..16).map(|_| image(&mut rng)).collect();

    // Warm both workers across every batch size, then freeze: any further
    // arena growth trips a debug assertion inside the workspace, and we
    // additionally assert the summed event counter stays put.
    for wave in 0..3 {
        let pendings: Vec<Pending> = (0..16)
            .map(|i| {
                server
                    .submit(pool[(wave + i) % pool.len()].clone())
                    .unwrap()
            })
            .collect();
        for p in pendings {
            p.wait().expect("warm request");
        }
    }
    server.freeze_arenas(true);
    let settle: Vec<Pending> = (0..16)
        .map(|i| server.submit(pool[i % pool.len()].clone()).unwrap())
        .collect();
    for p in settle {
        p.wait().expect("settle request");
    }
    let warm_completed: u64 = 4 * 16;
    let events_frozen = server.arena_alloc_events();

    let answered = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let shut_out = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..PRODUCERS {
            let server = &server;
            let pool = &pool;
            let (answered, overloaded, shut_out) = (&answered, &overloaded, &shut_out);
            scope.spawn(move || {
                let mut pendings = Vec::new();
                for i in 0..PER_PRODUCER {
                    match server.submit(pool[(t * 31 + i) % pool.len()].clone()) {
                        Ok(pending) => pendings.push(pending),
                        Err(ServeError::Overloaded { .. }) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::ShuttingDown) => {
                            shut_out.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                    std::thread::sleep(Duration::from_micros(300));
                }
                for pending in pendings {
                    pending.wait().expect("accepted request must be answered");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // While the producers run: one hot swap, then a graceful shutdown
        // that drains whatever is still queued.
        std::thread::sleep(Duration::from_millis(5));
        server.swap_model(&swapped).expect("hot swap");
        std::thread::sleep(Duration::from_millis(5));
        server.shutdown();
    });

    // Nothing lost: every submission was answered or explicitly rejected.
    let answered = answered.load(Ordering::Relaxed);
    let overloaded = overloaded.load(Ordering::Relaxed);
    let shut_out = shut_out.load(Ordering::Relaxed);
    assert_eq!(
        answered + overloaded + shut_out,
        (PRODUCERS * PER_PRODUCER) as u64,
        "request accounting does not add up"
    );
    assert!(answered > 0, "no request was served under load");

    let stats = server.stats();
    assert_eq!(stats.submitted, warm_completed + answered);
    assert_eq!(stats.completed, warm_completed + answered);
    assert_eq!(stats.rejected_overloaded, overloaded);
    assert_eq!(stats.rejected_shutdown, shut_out);
    assert_eq!(stats.swaps, 1);

    // Zero allocations per batch across the whole frozen window — warm-up
    // settle, concurrent load, hot swap, and drain included.
    assert_eq!(
        server.arena_alloc_events(),
        events_frozen,
        "steady-state serving grew a worker arena"
    );

    // Post-shutdown submissions are typed rejections, not hangs.
    let mut rng = Rng::new(11);
    match server.submit(image(&mut rng)) {
        Err(ServeError::ShuttingDown) => {}
        Err(e) => panic!("expected ShuttingDown after shutdown, got {e}"),
        Ok(_) => panic!("server accepted a request after shutdown"),
    }
}

/// `Precision::Int8` through the public server: the int8-lowered replica
/// answers every request with a valid class, and its predictions track
/// the f32 deployment's on the overwhelming majority of inputs.
#[test]
fn int8_precision_serves_and_tracks_the_f32_deployment() {
    let train_form = pruned_model(23);
    let deployed = deploy::Pipeline::new()
        .run(&train_form)
        .expect("deploy")
        .model;
    let mut rng = Rng::new(11);
    let calib = Tensor::randn(&[8, 3, IMAGE, IMAGE], Init::Rand, &mut rng);
    let cfg = ServeConfig {
        precision: alf::serve::Precision::Int8(calib),
        ..serve_config(2, 4, 32)
    };
    let server = Server::start(&deployed, cfg).expect("start int8 server");

    let mut f32_model = deployed.clone();
    let mut ctx = RunCtx::eval();
    let (mut agree, total) = (0usize, 32usize);
    for _ in 0..total {
        let img = image(&mut rng);
        let batched = img.reshape(&[1, 3, IMAGE, IMAGE]).expect("batch of one");
        let logits = f32_model.forward(&batched, &mut ctx).expect("f32 forward");
        let f32_class = logits
            .data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let prediction = server.submit(img).expect("submit").wait().expect("answer");
        assert!(prediction.class < CLASSES);
        agree += usize::from(prediction.class == f32_class);
    }
    server.shutdown();
    assert!(
        agree * 10 >= total * 9,
        "int8 agreed with f32 on only {agree}/{total} predictions"
    );
}

/// A request's answer must not depend on its batch-mates: work-conserving
/// batch formation puts an image in whatever batch is forming. Both
/// inference engines run every convolution over the whole batch at once,
/// so an 8-image forward must give, bit for bit, the logits of the eight
/// single-image forwards — int8 (`QuantizedModel::forward`) and f32 eval.
#[test]
fn batched_logits_are_bitwise_the_single_image_logits() {
    let mut rng = Rng::new(29);
    let calib = Tensor::randn(&[8, 3, IMAGE, IMAGE], Init::Rand, &mut rng);
    let out = deploy::Pipeline::new()
        .fold_bn(true)
        .quantize(QuantSpec::int8(calib))
        .run(&pruned_model(31))
        .expect("deploy");
    let (mut f32_model, mut int8) = (out.model, out.quantized.expect("int8 engine"));
    let mut ctx = RunCtx::eval();
    let batch = Tensor::randn(&[8, 3, IMAGE, IMAGE], Init::Rand, &mut rng);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

    let int8_batched = bits(&int8.forward(&batch).expect("int8 batch"));
    let f32_batched = bits(&f32_model.forward(&batch, &mut ctx).expect("f32 batch"));
    let per_image = 3 * IMAGE * IMAGE;
    for (i, img) in batch.data().chunks_exact(per_image).enumerate() {
        let one = Tensor::from_vec(img.to_vec(), &[1, 3, IMAGE, IMAGE]).unwrap();
        let row = i * CLASSES..(i + 1) * CLASSES;
        assert_eq!(
            bits(&int8.forward(&one).expect("int8 single")),
            int8_batched[row.clone()],
            "int8 image {i}"
        );
        assert_eq!(
            bits(&f32_model.forward(&one, &mut ctx).expect("f32 single")),
            f32_batched[row],
            "f32 image {i}"
        );
    }
}
