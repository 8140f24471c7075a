//! Hardware evaluation: maps a CNN onto the Eyeriss-like accelerator model
//! and prints the per-layer energy breakdown, latency and PE utilisation —
//! the methodology behind the paper's Fig. 3.
//!
//! Run with: `cargo run --release --example hardware_eval`

use alf::core::models::geometry;
use alf::core::ConvShape;
use alf::hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper, NetworkReport};

fn main() -> alf::Result<()> {
    let accelerator = Accelerator::eyeriss();
    println!(
        "accelerator: {} ({}x{} PEs, {} RF words/PE, {} KiB buffer)",
        accelerator.name,
        accelerator.pe_rows,
        accelerator.pe_cols,
        accelerator.rf_words_per_pe,
        accelerator.global_buffer_words * accelerator.word_bytes / 1024,
    );
    let mapper = Mapper::new(accelerator, Dataflow::RowStationary);

    // Vanilla Plain-20 at the paper geometry, batch 16.
    let layers = geometry::plain20_layers(32);
    let workloads: Vec<ConvWorkload> = layers
        .iter()
        .map(|s| ConvWorkload::from_shape(s, 16))
        .collect();
    let report = NetworkReport::evaluate(&mapper, &workloads)?;
    println!(
        "\n{:<10}{:>12}{:>12}{:>12}{:>12}{:>8}",
        "layer", "RF", "buffer", "DRAM", "latency", "util"
    );
    for l in &report.layers {
        println!(
            "{:<10}{:>12.3e}{:>12.3e}{:>12.3e}{:>12.3e}{:>7.0}%",
            l.name,
            l.energy_rf,
            l.energy_buffer,
            l.energy_dram,
            l.latency_cycles,
            100.0 * l.utilization
        );
    }
    println!(
        "\ntotal energy {:.3e} (RF-normalised), total latency {:.3e} cycles",
        report.total_energy(),
        report.total_latency()
    );

    // What-if: compress conv321 to 40% of its filters (an ALF block).
    let target = &layers[9];
    let c_code = (target.c_out as f32 * 0.4).round() as usize;
    let code = ConvWorkload::from_shape(
        &ConvShape::new(
            "conv321+code",
            target.c_in,
            c_code,
            target.kernel,
            target.stride,
            target.h_out,
            target.w_out,
        ),
        16,
    );
    let expansion = ConvWorkload::from_shape(
        &ConvShape::new(
            "conv321+exp",
            c_code,
            target.c_out,
            1,
            1,
            target.h_out,
            target.w_out,
        ),
        16,
    );
    let alf_layer = NetworkReport::evaluate(&mapper, &[code, expansion])?.merged();
    let vanilla_layer = &report.layers[9];
    println!(
        "\nwhat-if, conv321 at 40% filters: energy {:.3e} → {:.3e}, latency {:.3e} → {:.3e}",
        vanilla_layer.total_energy(),
        alf_layer.layers[0].total_energy(),
        vanilla_layer.latency_cycles,
        alf_layer.layers[0].latency_cycles
    );
    Ok(())
}
