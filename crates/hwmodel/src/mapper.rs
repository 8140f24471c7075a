//! Exhaustive mapping search with an iteration budget.
//!
//! The paper's Timeloop setup uses "an exhaustive method with a timeout of
//! 100 K iterations"; this mapper enumerates the legal tiling space
//! deterministically (divisor grids per loop dimension), evaluates each
//! candidate, and keeps the minimum-energy mapping, stopping early if the
//! budget is exhausted.

use std::fmt;

use crate::arch::Accelerator;
use crate::dataflow::Dataflow;
use crate::mapping::{Mapping, MappingCost};
use crate::workload::ConvWorkload;

/// Error returned when no legal mapping exists for a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapperError {
    workload: String,
    reason: String,
}

impl fmt::Display for MapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot map {}: {}", self.workload, self.reason)
    }
}

impl std::error::Error for MapperError {}

/// Result of a mapping search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// The minimum-energy mapping found.
    pub mapping: Mapping,
    /// Its evaluated cost.
    pub cost: MappingCost,
    /// Candidates examined (≤ the iteration budget).
    pub iterations: usize,
}

/// Deterministic exhaustive mapper.
///
/// # Example
///
/// ```
/// use alf_core::ConvShape;
/// use alf_hwmodel::{Accelerator, ConvWorkload, Dataflow, Mapper};
///
/// # fn main() -> Result<(), alf_hwmodel::MapperError> {
/// let mapper = Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary);
/// let layer = ConvWorkload::from_shape(&ConvShape::new("conv1", 3, 16, 3, 1, 32, 32), 16);
/// let result = mapper.search(&layer)?;
/// assert!(result.cost.total_energy() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mapper {
    accelerator: Accelerator,
    dataflow: Dataflow,
    iteration_budget: usize,
}

impl Mapper {
    /// Creates a mapper with the paper's 100 K-iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if the accelerator description is invalid.
    pub fn new(accelerator: Accelerator, dataflow: Dataflow) -> Self {
        accelerator
            .validate()
            .expect("invalid accelerator description");
        Self {
            accelerator,
            dataflow,
            iteration_budget: 100_000,
        }
    }

    /// The accelerator being mapped to.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// The dataflow in use.
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// Finds the minimum-energy legal mapping for a layer.
    ///
    /// Ties are broken toward lower latency, then toward the earlier
    /// candidate in enumeration order, so results are fully deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`MapperError`] when the workload is malformed or no legal
    /// mapping exists within the budget.
    pub fn search(&self, workload: &ConvWorkload) -> Result<SearchResult, MapperError> {
        workload.validate().map_err(|reason| MapperError {
            workload: workload.name.clone(),
            reason,
        })?;
        let mut best: Option<(Mapping, MappingCost)> = None;
        let mut iterations = 0usize;
        let max_m_spatial = (self.accelerator.pe_rows / workload.kernel.max(1)).max(1);
        let max_c_spatial = self.accelerator.pe_cols;
        // Larger tiles mean fewer DRAM passes and are usually better; visit
        // them first so the best mapping lands well within the budget.
        let mut e_candidates = tile_candidates(workload.h_out);
        e_candidates.reverse();
        let mut m_candidates = tile_candidates(workload.c_out);
        m_candidates.reverse();
        let mut c_candidates = tile_candidates(workload.c_in);
        c_candidates.reverse();
        'outer: for &e_rows in &e_candidates {
            for &m_tile in &m_candidates {
                for &c_tile in &c_candidates {
                    for m_spatial in 1..=m_tile.min(max_m_spatial) {
                        for c_spatial in 1..=c_tile.min(max_c_spatial) {
                            iterations += 1;
                            if iterations > self.iteration_budget {
                                break 'outer;
                            }
                            let mapping = Mapping {
                                e_rows,
                                m_tile,
                                c_tile,
                                m_spatial,
                                c_spatial,
                            };
                            let Some(cost) =
                                mapping.evaluate(&self.accelerator, self.dataflow, workload)
                            else {
                                continue;
                            };
                            let better = match &best {
                                None => true,
                                Some((_, b)) => {
                                    cost.total_energy() < b.total_energy()
                                        || (cost.total_energy() == b.total_energy()
                                            && cost.latency_cycles < b.latency_cycles)
                                }
                            };
                            if better {
                                best = Some((mapping, cost));
                            }
                        }
                    }
                }
            }
        }
        match best {
            Some((mapping, cost)) => Ok(SearchResult {
                mapping,
                cost,
                iterations: iterations.min(self.iteration_budget),
            }),
            None => Err(MapperError {
                workload: workload.name.clone(),
                reason: "no legal mapping in search space".into(),
            }),
        }
    }
}

/// All divisors of `n`, ascending.
fn divisors(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for d in 1..=n {
        if d * d > n {
            break;
        }
        if n.is_multiple_of(d) {
            out.push(d);
            if d != n / d {
                out.push(n / d);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Tiling candidates for a loop bound `n`: its divisors plus every ceiling
/// partition `⌈n/k⌉`. Divisor-only grids map prime bounds (e.g. a layer
/// pruned to 13 filters) terribly; ceiling partitions give near-balanced
/// imperfect tilings, as Timeloop's mapper allows.
fn tile_candidates(n: usize) -> Vec<usize> {
    let mut out = divisors(n);
    for k in 1..=n {
        out.push(n.div_ceil(k));
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::ConvShape;

    fn mapper() -> Mapper {
        Mapper::new(Accelerator::eyeriss(), Dataflow::RowStationary)
    }

    fn layer(ci: usize, co: usize, k: usize, s: usize, side: usize) -> ConvWorkload {
        ConvWorkload::from_shape(&ConvShape::new("l", ci, co, k, s, side, side), 16)
    }

    #[test]
    fn divisors_are_complete_and_sorted() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(7), vec![1, 7]);
        assert_eq!(divisors(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn search_is_deterministic() {
        let m = mapper();
        let l = layer(16, 32, 3, 1, 16);
        let a = m.search(&l).unwrap();
        let b = m.search(&l).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn best_mapping_beats_arbitrary_legal_mapping() {
        let m = mapper();
        let l = layer(16, 16, 3, 1, 32);
        let best = m.search(&l).unwrap();
        let naive = Mapping {
            e_rows: 1,
            m_tile: 1,
            c_tile: 1,
            m_spatial: 1,
            c_spatial: 1,
        };
        let naive_cost = naive
            .evaluate(m.accelerator(), Dataflow::RowStationary, &l)
            .unwrap();
        assert!(best.cost.total_energy() <= naive_cost.total_energy());
    }

    #[test]
    fn all_fig3_layer_shapes_are_mappable() {
        let m = mapper();
        for shape in alf_core::models::geometry::plain20_layers(32) {
            let w = ConvWorkload::from_shape(&shape, 16);
            let r = m.search(&w).unwrap_or_else(|e| panic!("{e}"));
            assert!(r.cost.total_energy() > 0.0, "{}", shape.name);
        }
    }

    #[test]
    fn pointwise_expansion_layers_are_mappable() {
        let m = mapper();
        let r = m.search(&layer(14, 16, 1, 1, 32)).unwrap();
        assert!(r.cost.utilization > 0.0);
    }

    #[test]
    fn prime_filter_counts_map_efficiently() {
        // A layer pruned to a prime filter count must not fall back to a
        // degenerate m_tile = 1 mapping (the divisor-only failure mode).
        let m = mapper();
        let pruned = m.search(&layer(32, 13, 3, 1, 16)).unwrap();
        let full = m.search(&layer(32, 32, 3, 1, 16)).unwrap();
        assert!(
            pruned.cost.total_energy() < full.cost.total_energy(),
            "13-filter layer should cost less than the 32-filter layer: {} vs {}",
            pruned.cost.total_energy(),
            full.cost.total_energy()
        );
        assert!(pruned.mapping.m_tile > 1);
    }

    #[test]
    fn tile_candidates_cover_ceil_partitions() {
        let c = tile_candidates(13);
        // divisors {1, 13} plus ceilings {7, 5, 4, 3, 2}.
        for v in [1, 2, 3, 4, 5, 7, 13] {
            assert!(c.contains(&v), "{v} missing from {c:?}");
        }
        assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted+dedup");
    }

    #[test]
    fn compressed_layer_has_lower_energy() {
        // ALF shrinks Co; energy must shrink too (fewer MACs dominate RF).
        let m = mapper();
        let full = m.search(&layer(16, 16, 3, 1, 32)).unwrap();
        let pruned = m.search(&layer(16, 6, 3, 1, 32)).unwrap();
        assert!(pruned.cost.total_energy() < full.cost.total_energy());
    }

    #[test]
    fn rejects_malformed_workload() {
        let mut w = layer(1, 1, 1, 1, 1);
        w.c_out = 0;
        assert!(mapper().search(&w).is_err());
    }

    #[test]
    fn other_dataflows_search_too() {
        for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            let m = Mapper::new(Accelerator::eyeriss(), df);
            let r = m.search(&layer(16, 16, 3, 1, 16)).unwrap();
            assert!(r.cost.total_energy() > 0.0, "{df}");
        }
    }
}
