//! Deterministic analytical model of an Eyeriss-like CNN accelerator with a
//! Timeloop-style mapping search.
//!
//! The paper validates ALF on "an accurate, deterministic hardware-model":
//! Timeloop configured to replicate the Eyeriss accelerator (16×16 PE
//! array, 220-word register files per PE, 128 KiB global buffer, 16-bit
//! datatypes, weights bypassing the global buffer, row-stationary
//! dataflow). This crate rebuilds that methodology from scratch:
//!
//! * [`arch::Accelerator`] — the hardware description (array geometry,
//!   buffer capacities, per-access energy table normalised to one register
//!   file read, register bandwidth for latency normalisation).
//! * [`workload::ConvWorkload`] — one convolution layer's loop bounds.
//! * [`dataflow::Dataflow`] — row-stationary (Eyeriss), weight-stationary
//!   and output-stationary reuse patterns (the latter two for ablations).
//! * [`mapping::Mapping`] — a two-level tiling (DRAM → global buffer →
//!   PE/RF) plus the spatial unrolling onto the array.
//! * [`mapper::Mapper`] — exhaustive search over legal mappings (bounded by
//!   an iteration budget, like the paper's 100 K-iteration timeout) that
//!   minimises energy.
//! * [`report`] — per-layer and per-network energy breakdowns
//!   (RF / global buffer / DRAM) and normalised latency, the quantities
//!   plotted in the paper's Fig. 3.
//!
//! Access counting follows Timeloop's principle: a datum's accesses at a
//! memory level equal the total MACs divided by the reuse the levels below
//! it provide. The exact reuse factors per dataflow are documented on
//! [`dataflow::Dataflow`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod dataflow;
pub mod mapper;
pub mod mapping;
pub mod report;
pub mod workload;

pub use arch::Accelerator;
pub use dataflow::Dataflow;
pub use mapper::{Mapper, MapperError};
pub use report::NetworkReport;
pub use workload::{alf_network, alf_pair, ConvWorkload};
