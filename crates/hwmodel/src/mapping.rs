//! Mapping of a convolution onto the accelerator and its analytical cost.

use crate::arch::Accelerator;
use crate::dataflow::Dataflow;
use crate::workload::ConvWorkload;

/// A two-level tiling plus spatial unrolling.
///
/// * `e_rows` — output rows processed per pixel pass (temporal tile of
///   `Ho`).
/// * `m_tile` — output channels resident per global-buffer pass.
/// * `c_tile` — input channels resident in the global buffer at once.
/// * `m_spatial` — filters unrolled vertically across the PE array.
/// * `c_spatial` — input channels unrolled horizontally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Output rows per pixel pass.
    pub e_rows: usize,
    /// Output channels per global-buffer pass.
    pub m_tile: usize,
    /// Input channels resident in the global buffer.
    pub c_tile: usize,
    /// Vertical (filter) spatial unrolling.
    pub m_spatial: usize,
    /// Horizontal (channel) spatial unrolling.
    pub c_spatial: usize,
}

/// Evaluated cost of a mapping: access counts per level, energy breakdown,
/// latency and PE utilisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingCost {
    /// Register-file accesses.
    pub rf_accesses: f64,
    /// Global-buffer accesses (inputs + partial sums; weights bypass it).
    pub buffer_accesses: f64,
    /// DRAM accesses (inputs + weights + outputs).
    pub dram_accesses: f64,
    /// Energy at the register-file level (normalised units).
    pub energy_rf: f64,
    /// Energy at the global-buffer level.
    pub energy_buffer: f64,
    /// Energy at the DRAM level.
    pub energy_dram: f64,
    /// Execution latency in cycles, normalised to the register bandwidth.
    pub latency_cycles: f64,
    /// Fraction of PEs doing useful work.
    pub utilization: f64,
}

impl MappingCost {
    /// Total energy across all levels.
    pub fn total_energy(&self) -> f64 {
        self.energy_rf + self.energy_buffer + self.energy_dram
    }
}

impl Mapping {
    /// Number of PEs this mapping occupies under `dataflow`.
    pub fn active_pes(&self, acc: &Accelerator, dataflow: Dataflow, w: &ConvWorkload) -> usize {
        match dataflow {
            Dataflow::RowStationary => {
                let rows = w.kernel * self.m_spatial;
                let cols = self.e_rows.min(acc.pe_cols) * self.c_spatial;
                rows.min(acc.pe_rows) * cols.min(acc.pe_cols)
            }
            Dataflow::WeightStationary => {
                self.m_spatial.min(acc.pe_rows) * self.c_spatial.min(acc.pe_cols)
            }
            Dataflow::OutputStationary => {
                let rows = self.e_rows.min(acc.pe_rows);
                let cols = w.w_out.min(acc.pe_cols);
                rows * cols
            }
        }
    }

    /// Checks spatial and capacity legality of the mapping.
    pub fn is_legal(&self, acc: &Accelerator, dataflow: Dataflow, w: &ConvWorkload) -> bool {
        if self.e_rows == 0
            || self.m_tile == 0
            || self.c_tile == 0
            || self.m_spatial == 0
            || self.c_spatial == 0
            || self.e_rows > w.h_out
            || self.m_tile > w.c_out
            || self.c_tile > w.c_in
            || self.m_spatial > self.m_tile
            || self.c_spatial > self.c_tile
        {
            return false;
        }
        // Spatial fit.
        match dataflow {
            Dataflow::RowStationary => {
                if w.kernel * self.m_spatial > acc.pe_rows {
                    return false;
                }
                if self.e_rows.min(acc.pe_cols) * self.c_spatial > acc.pe_cols {
                    return false;
                }
            }
            Dataflow::WeightStationary => {
                if self.m_spatial > acc.pe_rows || self.c_spatial > acc.pe_cols {
                    return false;
                }
            }
            Dataflow::OutputStationary => {
                if self.e_rows > acc.pe_rows {
                    return false;
                }
            }
        }
        // Register-file fit: one channel's filter rows for the PE's share
        // of filters, one input row, one partial-sum row segment.
        let m_rf = self.m_tile.div_ceil(self.m_spatial);
        let rf_words = m_rf * w.kernel + w.kernel + m_rf * w.w_out.min(16);
        if rf_words > acc.rf_words_per_pe {
            return false;
        }
        // Global-buffer fit: one input tile plus one output tile (weights
        // bypass the buffer). Sized for a single batch element; the batch
        // is streamed.
        let in_rows = self.e_rows * w.stride + w.kernel - w.stride;
        let input_tile = self.c_tile * in_rows * w.w_in();
        let output_tile = self.m_tile * self.e_rows * w.w_out;
        input_tile + output_tile <= acc.global_buffer_words
    }

    /// Evaluates the mapping, returning `None` when it is illegal.
    ///
    /// Access counting follows the Timeloop rule: accesses at a level equal
    /// total MACs divided by the reuse provided below that level. Weights
    /// bypass the global buffer (the paper's Eyeriss configuration), so
    /// weight traffic appears only at the DRAM and RF levels.
    pub fn evaluate(
        &self,
        acc: &Accelerator,
        dataflow: Dataflow,
        w: &ConvWorkload,
    ) -> Option<MappingCost> {
        if !self.is_legal(acc, dataflow, w) {
            return None;
        }
        let macs = w.macs() as f64;
        let input_words = w.input_words() as f64;
        let weight_words = w.weight_words() as f64;
        let output_words = w.output_words() as f64;
        let m_passes = w.c_out.div_ceil(self.m_tile) as f64;
        let pixel_passes = w.h_out.div_ceil(self.e_rows) as f64;
        let psum_groups = w.c_in.div_ceil(self.c_spatial) as f64;

        let (gb_in, gb_ps, dram_in, dram_w, dram_out) = match dataflow {
            Dataflow::RowStationary => {
                // Inputs: K× sliding reuse inside the PE, multicast to
                // m_spatial vertical replicas.
                let gb_in = macs / (w.kernel as f64 * self.m_spatial as f64);
                // Psums: cross into the buffer once per channel group.
                let gb_ps = output_words * (2.0 * psum_groups - 1.0);
                // Inputs re-fetched once per output-channel pass; weights
                // re-streamed per pixel pass (they bypass the buffer);
                // outputs written once.
                (
                    gb_in,
                    gb_ps,
                    input_words * m_passes,
                    weight_words * pixel_passes,
                    output_words,
                )
            }
            Dataflow::WeightStationary => {
                // No convolutional input reuse in the RF; multicast only.
                let gb_in = macs / self.m_spatial as f64;
                // Psums leave the array after each spatial accumulation.
                let gb_ps = 2.0 * macs / self.c_spatial as f64;
                (
                    gb_in,
                    gb_ps,
                    input_words * m_passes,
                    weight_words, // pinned: fetched once
                    output_words,
                )
            }
            Dataflow::OutputStationary => {
                // Sliding-window reuse only.
                let gb_in = macs / w.kernel as f64;
                // Psums stationary: written out once.
                let gb_ps = output_words;
                let spatial = self.active_pes(acc, dataflow, w).max(1) as f64;
                // Weights bypass the buffer and have no RF residency here:
                // re-streamed per use, amortised only by spatial sharing.
                (
                    gb_in,
                    gb_ps,
                    input_words * m_passes,
                    macs / spatial,
                    output_words,
                )
            }
        };

        let rf = macs * dataflow.rf_accesses_per_mac();
        let buffer = gb_in + gb_ps;
        let dram = dram_in + dram_w + dram_out;
        let active = self.active_pes(acc, dataflow, w).max(1);
        let compute_cycles = macs / active as f64;
        let dram_cycles = dram / acc.dram_words_per_cycle;
        Some(MappingCost {
            rf_accesses: rf,
            buffer_accesses: buffer,
            dram_accesses: dram,
            energy_rf: rf * acc.energy.rf,
            energy_buffer: buffer * acc.energy.buffer,
            energy_dram: dram * acc.energy.dram,
            latency_cycles: compute_cycles.max(dram_cycles),
            utilization: active as f64 / acc.pe_count() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::ConvShape;

    fn acc() -> Accelerator {
        Accelerator::eyeriss()
    }

    fn conv() -> ConvWorkload {
        ConvWorkload::from_shape(&ConvShape::new("c", 16, 16, 3, 1, 32, 32), 16)
    }

    fn legal_mapping() -> Mapping {
        Mapping {
            e_rows: 8,
            m_tile: 16,
            c_tile: 16,
            m_spatial: 4,
            c_spatial: 2,
        }
    }

    #[test]
    fn legal_mapping_evaluates() {
        let m = legal_mapping();
        assert!(m.is_legal(&acc(), Dataflow::RowStationary, &conv()));
        let cost = m
            .evaluate(&acc(), Dataflow::RowStationary, &conv())
            .unwrap();
        assert!(cost.total_energy() > 0.0);
        assert!(cost.latency_cycles > 0.0);
        assert!((0.0..=1.0).contains(&cost.utilization));
    }

    #[test]
    fn rf_energy_tracks_macs() {
        let m = legal_mapping();
        let cost = m
            .evaluate(&acc(), Dataflow::RowStationary, &conv())
            .unwrap();
        assert_eq!(cost.rf_accesses, conv().macs() as f64 * 3.0);
        assert_eq!(cost.energy_rf, cost.rf_accesses);
    }

    #[test]
    fn illegal_when_spatial_overflows() {
        let mut m = legal_mapping();
        m.m_spatial = 8; // 8 × K(3) = 24 > 16 rows
        assert!(!m.is_legal(&acc(), Dataflow::RowStationary, &conv()));
        assert!(m
            .evaluate(&acc(), Dataflow::RowStationary, &conv())
            .is_none());
    }

    #[test]
    fn illegal_when_rf_overflows() {
        let w = ConvWorkload::from_shape(&ConvShape::new("big", 64, 256, 3, 1, 16, 16), 1);
        let m = Mapping {
            e_rows: 4,
            m_tile: 256,
            c_tile: 64,
            m_spatial: 1, // 256 filters in one PE ⇒ RF overflow
            c_spatial: 1,
        };
        assert!(!m.is_legal(&acc(), Dataflow::RowStationary, &w));
    }

    #[test]
    fn illegal_when_gb_overflows() {
        let w = ConvWorkload::from_shape(&ConvShape::new("wide", 512, 16, 3, 1, 64, 64), 1);
        let m = Mapping {
            e_rows: 64,
            m_tile: 16,
            c_tile: 512, // 512 × 66 × 66 words ≫ 64 Ki-words
            m_spatial: 4,
            c_spatial: 1,
        };
        assert!(!m.is_legal(&acc(), Dataflow::RowStationary, &w));
    }

    #[test]
    fn fewer_m_passes_means_less_input_dram() {
        let w = conv();
        let small = Mapping {
            m_tile: 4,
            ..legal_mapping()
        };
        let large = legal_mapping();
        let cs = small.evaluate(&acc(), Dataflow::RowStationary, &w).unwrap();
        let cl = large.evaluate(&acc(), Dataflow::RowStationary, &w).unwrap();
        assert!(cl.dram_accesses < cs.dram_accesses);
    }

    #[test]
    fn weight_stationary_fetches_weights_once() {
        let w = conv();
        let m = Mapping {
            e_rows: 8,
            m_tile: 16,
            c_tile: 16,
            m_spatial: 8,
            c_spatial: 8,
        };
        let cost = m.evaluate(&acc(), Dataflow::WeightStationary, &w).unwrap();
        // DRAM = inputs (1 m-pass) + weights (once) + outputs.
        let expected = (w.input_words() + w.weight_words() + w.output_words()) as f64;
        assert!((cost.dram_accesses - expected).abs() < 1.0);
    }

    #[test]
    fn output_stationary_pays_for_weight_streaming() {
        let w = conv();
        let m_os = Mapping {
            e_rows: 16,
            m_tile: 4,
            c_tile: 16,
            m_spatial: 1,
            c_spatial: 1,
        };
        let m_rs = legal_mapping();
        let os = m_os
            .evaluate(&acc(), Dataflow::OutputStationary, &w)
            .unwrap();
        let rs = m_rs.evaluate(&acc(), Dataflow::RowStationary, &w).unwrap();
        assert!(os.dram_accesses > rs.dram_accesses);
    }

    #[test]
    fn utilization_drops_for_tiny_layers() {
        // The conv312-style anomaly: few output rows + small channel counts
        // leave most of the array idle.
        let tiny = ConvWorkload::from_shape(&ConvShape::new("tiny", 4, 4, 3, 1, 4, 4), 16);
        let m = Mapping {
            e_rows: 4,
            m_tile: 4,
            c_tile: 4,
            m_spatial: 1,
            c_spatial: 1,
        };
        let cost = m.evaluate(&acc(), Dataflow::RowStationary, &tiny).unwrap();
        assert!(cost.utilization < 0.1, "utilization {}", cost.utilization);
    }
}
