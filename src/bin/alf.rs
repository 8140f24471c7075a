//! `alf` — command-line driver for the ALF reproduction.
//!
//! Subcommands:
//!
//! * `train`  — train a model on a synthetic dataset and save a checkpoint.
//! * `eval`   — evaluate a checkpoint's accuracy.
//! * `deploy` — strip a trained ALF checkpoint and report compression.
//! * `hwmap`  — map a model geometry onto the Eyeriss-like accelerator.
//! * `serve`  — serve a model over HTTP (`alf::net` front end): predict,
//!   hot checkpoint swap, `/metrics`.
//! * `lab`    — run the paper's full results grid as one resumable
//!   campaign (delegates to `alf-lab`; see `alf lab help`).
//!
//! Run `alf help` (or `alf <subcommand> --help`, `-h`) for the option
//! list. An option the subcommand does not
//! read, or one given twice, is an error: the usage text is printed and
//! nothing runs.

use std::process::ExitCode;

use alf::core::block::AlfBlockConfig;
use alf::core::models::{geometry, plain20, plain20_alf, resnet20, resnet20_alf};
use alf::core::train::{evaluate, AlfHyper, AlfTrainer};
use alf::core::{checkpoint, deploy, CnnModel, NetworkCost};
use alf::data::{Dataset, Split, SynthVision};
use alf::hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper, NetworkReport};

/// Options every subcommand that builds the synthetic dataset reads.
const DATA_OPTIONS: &[&str] = &[
    "data-seed",
    "classes",
    "image-size",
    "train-size",
    "test-size",
];
/// Options every subcommand that builds a model reads.
const MODEL_OPTIONS: &[&str] = &["model", "width", "threshold", "seed"];

/// One subcommand: its body and the option groups it reads.
type Command = (
    fn(&Args) -> Result<(), String>,
    &'static [&'static [&'static str]],
);

fn command(name: &str) -> Option<Command> {
    Some(match name {
        "train" => (
            cmd_train,
            &[
                DATA_OPTIONS,
                MODEL_OPTIONS,
                &["out", "epochs", "task-lr", "ae-lr", "ae-steps", "batch"],
            ],
        ),
        "eval" => (cmd_eval, &[DATA_OPTIONS, MODEL_OPTIONS, &["ckpt"]]),
        "deploy" => (cmd_deploy, &[DATA_OPTIONS, MODEL_OPTIONS, &["ckpt"]]),
        "summary" => (cmd_summary, &[DATA_OPTIONS, MODEL_OPTIONS, &["ckpt"]]),
        "hwmap" => (
            cmd_hwmap,
            &[&["width", "image-size", "batch", "remaining", "dataflow"]],
        ),
        "serve" => (
            cmd_serve,
            &[
                DATA_OPTIONS,
                MODEL_OPTIONS,
                &["ckpt", "addr", "name", "threads", "max-conns"],
            ],
        ),
        _ => return None,
    })
}

/// Minimal `--key value` argument parser that accepts only the options
/// its subcommand reads, each at most once, plus `--help` / `-h`.
struct Args {
    items: Vec<(String, String)>,
    accepted: &'static [&'static [&'static str]],
}

impl Args {
    /// The options in `argv`, or `None` when one of them asks for help.
    fn parse(
        argv: &[String],
        accepted: &'static [&'static [&'static str]],
    ) -> Result<Option<Self>, String> {
        let mut items = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if argv[i] == "--help" || argv[i] == "-h" {
                return Ok(None);
            }
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got '{}'", argv[i]))?;
            if !accepted.iter().any(|group| group.contains(&key)) {
                return Err(format!("unknown option --{key}"));
            }
            if items.iter().any(|(k, _)| k == key) {
                return Err(format!("--{key} given twice"));
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            items.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Some(Self { items, accepted }))
    }

    fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.accepted.iter().any(|group| group.contains(&key)),
            "--{key} is read but not accepted"
        );
        self.items
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
        }
    }
}

fn usage() -> &'static str {
    "usage: alf <train|eval|deploy|summary|hwmap|serve|lab> [options]\n\
     \n\
     data options:  --data-seed N --classes N --image-size N\n\
     \u{20}               --train-size N --test-size N\n\
     model options: --width N --threshold F --seed N\n\
     \n\
     alf train  --model plain20|resnet20|plain20-alf|resnet20-alf --out FILE\n\
     \u{20}          [--epochs N] [--task-lr F] [--ae-lr F] [--ae-steps N]\n\
     \u{20}          [--batch N] [model options] [data options]\n\
     alf eval   --model M --ckpt FILE [model options] [data options]\n\
     alf deploy --model plain20-alf|resnet20-alf --ckpt FILE [model options]\n\
     \u{20}          [data options]\n\
     alf summary [--model M] [--ckpt FILE] [model options] [data options]\n\
     alf hwmap  [--width N] [--image-size N] [--batch N] [--dataflow rs|ws|os]\n\
     \u{20}          [--remaining F]\n\
     alf serve  [--addr HOST:PORT] [--model M] [--ckpt FILE] [model options]\n\
     \u{20}          [--name NAME] [--threads N] [--max-conns N] [data options]\n\
     alf lab    <run|list|help> [lab options]   resumable results campaign"
}

fn build_model(
    name: &str,
    classes: usize,
    width: usize,
    threshold: f32,
    seed: u64,
) -> Result<CnnModel, String> {
    let block = AlfBlockConfig {
        threshold,
        ..AlfBlockConfig::paper_default()
    };
    let model = match name {
        "plain20" => plain20(classes, width),
        "resnet20" => resnet20(classes, width),
        "plain20-alf" => plain20_alf(classes, width, block, seed),
        "resnet20-alf" => resnet20_alf(classes, width, block, seed),
        other => return Err(format!("unknown model '{other}'")),
    };
    model.map_err(|e| e.to_string())
}

fn build_data(args: &Args) -> Result<Dataset, String> {
    SynthVision::cifar_like(args.num("data-seed", 7u64)?)
        .with_num_classes(args.num("classes", 4usize)?)
        .with_image_size(args.num("image-size", 16usize)?)
        .with_max_shift(1)
        .with_train_size(args.num("train-size", 256usize)?)
        .with_test_size(args.num("test-size", 96usize)?)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let model_name = args.get_or("model", "plain20-alf");
    let width = args.num("width", 8usize)?;
    let seed = args.num("seed", 1u64)?;
    let data = build_data(args)?;
    let mut model = build_model(
        &model_name,
        data.num_classes(),
        width,
        args.num("threshold", 2e-2f32)?,
        seed,
    )?;
    let hyper = AlfHyper {
        task_lr: args.num("task-lr", 0.05f32)?,
        batch_size: args.num("batch", 16usize)?,
        ae_lr: args.num("ae-lr", 5e-2f32)?,
        ae_steps_per_batch: args.num("ae-steps", 8usize)?,
        ..AlfHyper::default()
    };
    let epochs = args.num("epochs", 16usize)?;
    let mut trainer = AlfTrainer::new(model, hyper, seed).map_err(|e| e.to_string())?;
    for _ in 0..epochs {
        let s = trainer.run_epoch(&data).map_err(|e| e.to_string())?;
        println!(
            "epoch {:>3}: loss {:.3}  train {:.1}%  test {:.1}%  filters {:.0}%",
            s.epoch,
            s.train_loss,
            100.0 * s.train_accuracy,
            100.0 * s.test_accuracy,
            100.0 * s.remaining_filters
        );
    }
    model = trainer.into_model();
    let out = args.get("out").ok_or("--out FILE is required for train")?;
    let blob = checkpoint::save(&model);
    std::fs::write(out, &blob).map_err(|e| format!("writing {out}: {e}"))?;
    println!("saved checkpoint to {out} ({} bytes)", blob.len());
    Ok(())
}

fn load_ckpt(args: &Args, data: &Dataset) -> Result<CnnModel, String> {
    let model_name = args.get_or("model", "plain20-alf");
    let width = args.num("width", 8usize)?;
    let mut model = build_model(
        &model_name,
        data.num_classes(),
        width,
        args.num("threshold", 2e-2f32)?,
        args.num("seed", 1u64)?,
    )?;
    let path = args.get("ckpt").ok_or("--ckpt FILE is required")?;
    let blob = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    checkpoint::load(&mut model, &blob).map_err(|e| e.to_string())?;
    Ok(model)
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let data = build_data(args)?;
    let model = load_ckpt(args, &data)?;
    let acc = evaluate(&model, &data, Split::Test, 32).map_err(|e| e.to_string())?;
    println!("test accuracy: {:.2}%", 100.0 * acc);
    Ok(())
}

fn cmd_deploy(args: &Args) -> Result<(), String> {
    let data = build_data(args)?;
    let model = load_ckpt(args, &data)?;
    let deployed = deploy::Pipeline::new()
        .run(&model)
        .map_err(|e| e.to_string())?
        .model;
    let [_, h, w] = data.image_dims();
    let dense = NetworkCost::of_layers(&model.conv_shapes(h, w));
    let compressed = deploy::cost(&deployed, h, w);
    let (dp, dm) = compressed.reduction_vs(&dense);
    println!("layer            kept  total");
    for info in deploy::conv_report(&deployed, h, w) {
        if let Some(c) = info.c_code {
            println!("{:<16} {:>4}  {:>5}", info.shape.name, c, info.shape.c_out);
        }
    }
    println!(
        "\ndeployed: {} params ({:+.0}% vs dense), {} MACs ({:+.0}% vs dense)",
        compressed.params, -dp, compressed.macs, -dm
    );
    let acc = evaluate(&deployed, &data, Split::Test, 32).map_err(|e| e.to_string())?;
    println!("deployed test accuracy: {:.2}%", 100.0 * acc);
    Ok(())
}

fn cmd_summary(args: &Args) -> Result<(), String> {
    let data = build_data(args)?;
    let mut model = match args.get("ckpt") {
        Some(_) => load_ckpt(args, &data)?,
        None => build_model(
            &args.get_or("model", "plain20-alf"),
            data.num_classes(),
            args.num("width", 8usize)?,
            args.num("threshold", 2e-2f32)?,
            args.num("seed", 1u64)?,
        )?,
    };
    let [_, h, w] = data.image_dims();
    print!(
        "{}",
        alf::core::summary::summarize(&mut model, h, w).to_text()
    );
    Ok(())
}

fn cmd_hwmap(args: &Args) -> Result<(), String> {
    let width = args.num("width", 16usize)?;
    let side = args.num("image-size", 32usize)?;
    let batch = args.num("batch", 16usize)?;
    let remaining: f32 = args.num("remaining", 1.0f32)?;
    let dataflow = match args.get_or("dataflow", "rs").as_str() {
        "rs" => Dataflow::RowStationary,
        "ws" => Dataflow::WeightStationary,
        "os" => Dataflow::OutputStationary,
        other => return Err(format!("unknown dataflow '{other}'")),
    };
    let mapper = Mapper::new(Accelerator::eyeriss(), dataflow);
    let layers = geometry::plain20_layers_width(side, width);
    let workloads: Vec<ConvWorkload> = if remaining >= 1.0 {
        layers
            .iter()
            .map(|s| ConvWorkload::from_shape(s, batch))
            .collect()
    } else {
        layers
            .iter()
            .flat_map(|s| {
                let c = ((s.c_out as f32 * remaining).round() as usize).clamp(1, s.c_out);
                [
                    ConvWorkload::from_shape(
                        &alf::core::ConvShape::new(
                            format!("{}+code", s.name),
                            s.c_in,
                            c,
                            s.kernel,
                            s.stride,
                            s.h_out,
                            s.w_out,
                        ),
                        batch,
                    ),
                    ConvWorkload::from_shape(
                        &alf::core::ConvShape::new(
                            format!("{}+exp", s.name),
                            c,
                            s.c_out,
                            1,
                            1,
                            s.h_out,
                            s.w_out,
                        ),
                        batch,
                    ),
                ]
            })
            .collect()
    };
    let report = NetworkReport::evaluate(&mapper, &workloads)
        .map_err(|e| e.to_string())?
        .merged();
    println!("layer        RF          buffer      DRAM        latency     util");
    for l in &report.layers {
        println!(
            "{:<12} {:<11.3e} {:<11.3e} {:<11.3e} {:<11.3e} {:.0}%",
            l.name,
            l.energy_rf,
            l.energy_buffer,
            l.energy_dram,
            l.latency_cycles,
            100.0 * l.utilization
        );
    }
    println!(
        "\ntotal energy {:.3e}, total latency {:.3e} ({dataflow}, batch {batch})",
        report.total_energy(),
        report.total_latency()
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use alf::net::{ModelSpec, NetConfig, NetServer};
    use alf::obs::metrics::MetricsRegistry;
    use alf::serve::ServeConfig;

    let data = build_data(args)?;
    let model_name = args.get_or("model", "plain20-alf");
    let model = match args.get("ckpt") {
        Some(_) => load_ckpt(args, &data)?,
        None => build_model(
            &model_name,
            data.num_classes(),
            args.num("width", 8usize)?,
            args.num("threshold", 2e-2f32)?,
            args.num("seed", 1u64)?,
        )?,
    };
    let [c, h, w] = data.image_dims();
    let name = args.get_or("name", &model_name);
    let spec = ModelSpec {
        name: name.clone(),
        model,
        serve: ServeConfig::new(c, h, w),
    };
    let cfg = NetConfig {
        max_connections: args.num("max-conns", 256usize)?,
        threads: args
            .get("threads")
            .map(|_| args.num("threads", 1))
            .transpose()?,
        ..NetConfig::new(&args.get_or("addr", "127.0.0.1:8080"))
    };
    let server =
        NetServer::start(vec![spec], cfg, MetricsRegistry::new()).map_err(|e| e.to_string())?;
    println!("serving '{name}' on http://{}", server.addr());
    println!("  POST /v1/models/{name}/predict     raw little-endian f32 body ({c}x{h}x{w})");
    println!("  POST /v1/models/{name}/checkpoint  hot-swap weights");
    println!("  GET  /metrics | /healthz | /v1/models");
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if cmd == "lab" {
        // `lab` owns its argv surface (scale flags, --only, --fresh, …).
        let code = alf::lab::cli_main(&argv[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    if cmd == "help" || cmd == "--help" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match command(cmd) {
        Some((run, accepted)) => match Args::parse(&argv[1..], accepted) {
            Ok(Some(args)) => run(&args),
            Ok(None) => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            Err(e) => Err(e),
        },
        None => Err(format!("unknown subcommand '{cmd}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
