//! Per-layer and per-network evaluation reports (the data behind Fig. 3).

use crate::mapper::{Mapper, MapperError};
use crate::workload::ConvWorkload;

/// Evaluated cost of one layer on the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// MACs executed (whole batch).
    pub macs: u64,
    /// Register-file energy (normalised units).
    pub energy_rf: f64,
    /// Global-buffer energy.
    pub energy_buffer: f64,
    /// DRAM energy.
    pub energy_dram: f64,
    /// Normalised latency in cycles.
    pub latency_cycles: f64,
    /// PE utilisation of the chosen mapping.
    pub utilization: f64,
}

impl LayerReport {
    /// Total energy across memory levels.
    pub fn total_energy(&self) -> f64 {
        self.energy_rf + self.energy_buffer + self.energy_dram
    }
}

/// Aggregate report over a network's layers.
///
/// Multi-part layers (an ALF block's code conv + expansion) can be merged
/// into a single display row with [`NetworkReport::merged`] so the output
/// lines up with the paper's per-layer figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkReport {
    /// Per-layer reports, in execution order.
    pub layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Evaluates a sequence of workloads with the given mapper.
    ///
    /// # Errors
    ///
    /// Returns the first mapping failure.
    pub fn evaluate(mapper: &Mapper, workloads: &[ConvWorkload]) -> Result<Self, MapperError> {
        let mut layers = Vec::with_capacity(workloads.len());
        for w in workloads {
            let r = mapper.search(w)?;
            layers.push(LayerReport {
                name: w.name.clone(),
                macs: w.macs(),
                energy_rf: r.cost.energy_rf,
                energy_buffer: r.cost.energy_buffer,
                energy_dram: r.cost.energy_dram,
                latency_cycles: r.cost.latency_cycles,
                utilization: r.cost.utilization,
            });
        }
        Ok(Self { layers })
    }

    /// Total energy of the network.
    pub fn total_energy(&self) -> f64 {
        self.layers.iter().map(LayerReport::total_energy).sum()
    }

    /// Total latency (layers execute sequentially).
    pub fn total_latency(&self) -> f64 {
        self.layers.iter().map(|l| l.latency_cycles).sum()
    }

    /// Merges layers sharing a display name prefix (everything before an
    /// optional `'+'` suffix separator) into combined rows — used to fold
    /// an ALF block's `convXYZ+code` / `convXYZ+exp` pair into `convXYZ`.
    pub fn merged(&self) -> NetworkReport {
        let mut out: Vec<LayerReport> = Vec::new();
        for l in &self.layers {
            let key = l.name.split('+').next().unwrap_or(&l.name).to_string();
            match out.last_mut() {
                Some(prev) if prev.name == key => {
                    prev.macs += l.macs;
                    prev.energy_rf += l.energy_rf;
                    prev.energy_buffer += l.energy_buffer;
                    prev.energy_dram += l.energy_dram;
                    prev.latency_cycles += l.latency_cycles;
                    // Utilisation of the pair: MAC-weighted mean.
                    let w_prev = (prev.macs - l.macs) as f64;
                    let w_new = l.macs as f64;
                    prev.utilization = (prev.utilization * w_prev + l.utilization * w_new)
                        / (w_prev + w_new).max(1.0);
                }
                _ => out.push(LayerReport {
                    name: key,
                    ..l.clone()
                }),
            }
        }
        NetworkReport { layers: out }
    }

    /// Evaluates an ALF block's `code → expansion` pair with *fused-layer
    /// scheduling* (Alwani et al., MICRO 2016 — the optimisation the paper
    /// points to for eliminating the expansion layer's DRAM overhead): the
    /// intermediate feature map `Ã` stays in the global buffer instead of
    /// round-tripping through DRAM.
    ///
    /// Concretely, the code conv's output DRAM writes and the expansion's
    /// input DRAM reads are re-priced as global-buffer accesses. The pair
    /// is returned as a single merged [`LayerReport`] named after the code
    /// layer's prefix.
    ///
    /// # Errors
    ///
    /// Returns the first mapping failure.
    pub fn evaluate_fused_pairs(
        mapper: &Mapper,
        pairs: &[(ConvWorkload, ConvWorkload)],
    ) -> Result<Self, MapperError> {
        let energy = mapper.accelerator().energy;
        let mut layers = Vec::with_capacity(pairs.len());
        for (code, expansion) in pairs {
            let rc = mapper.search(code)?;
            let re = mapper.search(expansion)?;
            // Words that no longer cross DRAM: the intermediate map once on
            // the way out (code) and once on the way in (expansion input,
            // re-fetched per expansion m-pass in the unfused schedule; the
            // fused schedule reads it from the buffer instead).
            let moved = code.output_words() as f64 + expansion.input_words() as f64;
            let dram = (rc.cost.dram_accesses + re.cost.dram_accesses - moved).max(0.0);
            let buffer = rc.cost.buffer_accesses + re.cost.buffer_accesses + moved;
            let name = code
                .name
                .split('+')
                .next()
                .unwrap_or(&code.name)
                .to_string();
            let macs = code.macs() + expansion.macs();
            // The two stages still execute sequentially.
            let compute = rc.cost.latency_cycles + re.cost.latency_cycles;
            let dram_cycles = dram / mapper.accelerator().dram_words_per_cycle;
            layers.push(LayerReport {
                name,
                macs,
                energy_rf: rc.cost.energy_rf + re.cost.energy_rf,
                energy_buffer: buffer * energy.buffer,
                energy_dram: dram * energy.dram,
                latency_cycles: compute.max(dram_cycles),
                utilization: (rc.cost.utilization * code.macs() as f64
                    + re.cost.utilization * expansion.macs() as f64)
                    / macs.max(1) as f64,
            });
        }
        Ok(Self { layers })
    }

    /// Renders the report as CSV (`layer,macs,energy_rf,energy_buffer,
    /// energy_dram,energy_total,latency_cycles,utilization`), one row per
    /// layer plus a trailing `TOTAL` row — convenient for external
    /// plotting of Fig. 3-style charts.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "layer,macs,energy_rf,energy_buffer,energy_dram,energy_total,latency_cycles,utilization\n",
        );
        for l in &self.layers {
            out.push_str(&format!(
                "{},{},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{:.4}\n",
                l.name,
                l.macs,
                l.energy_rf,
                l.energy_buffer,
                l.energy_dram,
                l.total_energy(),
                l.latency_cycles,
                l.utilization
            ));
        }
        out.push_str(&format!(
            "TOTAL,{},,,,{:.6e},{:.6e},\n",
            self.layers.iter().map(|l| l.macs).sum::<u64>(),
            self.total_energy(),
            self.total_latency()
        ));
        out
    }

    /// Relative energy and latency reduction versus a baseline report, in
    /// percent (positive = this report is cheaper).
    pub fn reduction_vs(&self, baseline: &NetworkReport) -> (f64, f64) {
        let pct = |ours: f64, base: f64| {
            if base == 0.0 {
                0.0
            } else {
                100.0 * (1.0 - ours / base)
            }
        };
        (
            pct(self.total_energy(), baseline.total_energy()),
            pct(self.total_latency(), baseline.total_latency()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Accelerator;
    use crate::dataflow::Dataflow;
    use alf_core::ConvShape;

    fn report_of(layers: &[(&str, usize, usize)]) -> NetworkReport {
        let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);
        let workloads: Vec<ConvWorkload> = layers
            .iter()
            .map(|(name, ci, co)| {
                ConvWorkload::from_shape(&ConvShape::new(*name, *ci, *co, 3, 1, 16, 16), 16)
            })
            .collect();
        NetworkReport::evaluate(&mapper, &workloads).unwrap()
    }

    #[test]
    fn totals_sum_layers() {
        let r = report_of(&[("a", 16, 16), ("b", 16, 32)]);
        assert_eq!(r.layers.len(), 2);
        let sum: f64 = r.layers.iter().map(|l| l.total_energy()).sum();
        assert!((r.total_energy() - sum).abs() < 1e-9);
        assert!(r.total_latency() > 0.0);
    }

    #[test]
    fn merged_folds_plus_suffixed_rows() {
        let r = report_of(&[
            ("conv211+code", 16, 8),
            ("conv211+exp", 8, 16),
            ("conv212+code", 16, 16),
        ]);
        let m = r.merged();
        assert_eq!(m.layers.len(), 2);
        assert_eq!(m.layers[0].name, "conv211");
        assert_eq!(m.layers[0].macs, r.layers[0].macs + r.layers[1].macs);
        assert!(
            (m.layers[0].total_energy() - r.layers[0].total_energy() - r.layers[1].total_energy())
                .abs()
                < 1e-9
        );
        assert_eq!(m.layers[1].name, "conv212");
    }

    #[test]
    fn reduction_vs_baseline() {
        let base = report_of(&[("a", 16, 16)]);
        let smaller = report_of(&[("a", 16, 8)]);
        let (de, dl) = smaller.reduction_vs(&base);
        assert!(de > 0.0, "energy reduction {de}");
        assert!(dl >= 0.0, "latency reduction {dl}");
        // Self-comparison is zero.
        let (z1, z2) = base.reduction_vs(&base);
        assert!(z1.abs() < 1e-9 && z2.abs() < 1e-9);
    }

    #[test]
    fn csv_has_one_row_per_layer_plus_total() {
        let r = report_of(&[("a", 16, 16), ("b", 16, 32)]);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + 2 + 1);
        assert!(lines[0].starts_with("layer,macs,"));
        assert!(lines[1].starts_with("a,"));
        assert!(lines[3].starts_with("TOTAL,"));
        // Every data row has the full column count.
        assert!(lines[1].split(',').count() == 8);
    }

    #[test]
    fn fused_pairs_trade_dram_for_buffer() {
        let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);
        let code =
            ConvWorkload::from_shape(&ConvShape::new("conv211+code", 16, 6, 3, 1, 32, 32), 16);
        let exp = ConvWorkload::from_shape(&ConvShape::new("conv211+exp", 6, 16, 1, 1, 32, 32), 16);
        let unfused = NetworkReport::evaluate(&mapper, &[code.clone(), exp.clone()])
            .unwrap()
            .merged();
        let fused = NetworkReport::evaluate_fused_pairs(&mapper, &[(code, exp)]).unwrap();
        assert_eq!(fused.layers.len(), 1);
        assert_eq!(fused.layers[0].name, "conv211");
        let u = &unfused.layers[0];
        let f = &fused.layers[0];
        assert!(f.energy_dram < u.energy_dram, "fusion must cut DRAM energy");
        assert!(
            f.energy_buffer > u.energy_buffer,
            "…by moving traffic to the buffer"
        );
        assert_eq!(f.energy_rf, u.energy_rf, "RF traffic unchanged");
        assert!(
            f.total_energy() < u.total_energy(),
            "buffer accesses are 33× cheaper than DRAM, so fusion wins overall"
        );
        assert_eq!(f.macs, u.macs);
    }

    #[test]
    fn deeper_layers_are_rf_dominated() {
        // The paper observes high RF contribution in deep layers (small
        // spatial, many channels) thanks to the row-stationary reuse.
        let r = report_of(&[("deep", 64, 64)]);
        let l = &r.layers[0];
        assert!(
            l.energy_rf > l.energy_dram,
            "rf {} vs dram {}",
            l.energy_rf,
            l.energy_dram
        );
    }
}
