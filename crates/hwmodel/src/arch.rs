//! Accelerator hardware description.

/// Energy cost of one access at each memory level, normalised to a single
/// register-file read (= 1.0).
///
/// The defaults follow the relative costs published with Eyeriss
/// (Chen et al., ISCA 2016): register file 1×, inter-PE/global buffer 6×,
/// off-chip DRAM 200× — the same normalisation the paper uses for Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// Register-file access (the normalisation unit).
    pub rf: f64,
    /// Global (on-chip) buffer access.
    pub buffer: f64,
    /// Off-chip DRAM access.
    pub dram: f64,
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self {
            rf: 1.0,
            buffer: 6.0,
            dram: 200.0,
        }
    }
}

/// An Eyeriss-like spatial accelerator.
///
/// # Example
///
/// ```
/// use alf_hwmodel::Accelerator;
///
/// let acc = Accelerator::eyeriss();
/// assert_eq!(acc.pe_count(), 256);
/// assert_eq!(acc.global_buffer_words, 65536); // 128 KiB of 16-bit words
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    /// Human-readable name.
    pub name: String,
    /// PE array rows.
    pub pe_rows: usize,
    /// PE array columns.
    pub pe_cols: usize,
    /// Register-file capacity per PE, in words (all three datatype RFs
    /// combined — 220 for Eyeriss).
    pub rf_words_per_pe: usize,
    /// Global buffer capacity in words (inputs + outputs only; weights
    /// bypass the buffer, as in the paper's configuration).
    pub global_buffer_words: usize,
    /// Word width in bytes (16-bit ⇒ 2).
    pub word_bytes: usize,
    /// DRAM bandwidth in words per cycle. Latency figures are normalised
    /// to the 2 byte/cycle register bandwidth (1 word = 1 unit); a 64-bit
    /// DRAM interface then moves 4 words per normalised cycle, which keeps
    /// well-mapped layers compute-bound, as on the real Eyeriss.
    pub dram_words_per_cycle: f64,
    /// Per-access energy table.
    pub energy: EnergyTable,
}

impl Accelerator {
    /// The Eyeriss configuration used in the paper's experiments: 16×16
    /// PEs, 220-word register files, 128 KiB global buffer, 16-bit words,
    /// a 4-word/cycle DRAM interface (normalised to the 2 byte/cycle
    /// register bandwidth).
    pub fn eyeriss() -> Self {
        Self {
            name: "eyeriss".into(),
            pe_rows: 16,
            pe_cols: 16,
            rf_words_per_pe: 220,
            global_buffer_words: 128 * 1024 / 2,
            word_bytes: 2,
            dram_words_per_cycle: 4.0,
            energy: EnergyTable::default(),
        }
    }

    /// The same Eyeriss silicon reinterpreted for 8-bit words, as the
    /// int8 deployment path sees it: halving the word width doubles the
    /// *word* capacity of the register files and the global buffer and
    /// doubles the words the 64-bit DRAM interface moves per normalised
    /// cycle. Per-access energies keep the 16-bit normalisation — the
    /// published relative table does not resolve datatype width, and the
    /// latency comparison (what the int8 benchmarks validate against) is
    /// unaffected by that choice.
    pub fn eyeriss_int8() -> Self {
        Self {
            name: "eyeriss-int8".into(),
            rf_words_per_pe: 440,
            global_buffer_words: 128 * 1024,
            word_bytes: 1,
            dram_words_per_cycle: 8.0,
            ..Self::eyeriss()
        }
    }

    /// Total number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when any capacity or dimension is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.pe_rows == 0 || self.pe_cols == 0 {
            return Err("PE array has zero dimension".into());
        }
        if self.rf_words_per_pe == 0 {
            return Err("register file has zero capacity".into());
        }
        if self.global_buffer_words == 0 {
            return Err("global buffer has zero capacity".into());
        }
        if self.dram_words_per_cycle <= 0.0 {
            return Err("DRAM bandwidth must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eyeriss_matches_paper_configuration() {
        let acc = Accelerator::eyeriss();
        assert_eq!(acc.pe_rows, 16);
        assert_eq!(acc.pe_cols, 16);
        assert_eq!(acc.rf_words_per_pe, 220);
        assert_eq!(acc.global_buffer_words, 65536);
        assert_eq!(acc.word_bytes, 2);
        assert!(acc.validate().is_ok());
    }

    #[test]
    fn energy_table_is_eyeriss_relative() {
        let e = EnergyTable::default();
        assert_eq!(e.rf, 1.0);
        assert!(e.buffer > e.rf);
        assert!(e.dram > 10.0 * e.buffer);
    }

    #[test]
    fn validate_catches_degenerate_configs() {
        let mut acc = Accelerator::eyeriss();
        acc.pe_rows = 0;
        assert!(acc.validate().is_err());
        let mut acc = Accelerator::eyeriss();
        acc.rf_words_per_pe = 0;
        assert!(acc.validate().is_err());
        let mut acc = Accelerator::eyeriss();
        acc.global_buffer_words = 0;
        assert!(acc.validate().is_err());
        let mut acc = Accelerator::eyeriss();
        acc.dram_words_per_cycle = 0.0;
        assert!(acc.validate().is_err());
    }
}
