//! # lacc — the Locality-Aware Adaptive Cache Coherence protocol, end to end
//!
//! Facade crate re-exporting the whole workspace: the protocol
//! ([`lacc_core`]), the multicore simulator ([`lacc_sim`]), the Table-2
//! workload suite ([`lacc_workloads`]), the substrates
//! ([`lacc_cache`], [`lacc_network`], [`lacc_dram`], [`lacc_energy`]) and
//! the experiment harness ([`lacc_experiments`]).
//!
//! This crate also hosts the repository-level `examples/` and `tests/`
//! directories.
//!
//! # Quickstart
//!
//! ```
//! use lacc::prelude::*;
//!
//! // Run the streamcluster stand-in on a small machine at two PCTs and
//! // compare energy: the adaptive protocol (PCT = 4) wins.
//! let run = |pct| {
//!     let cfg = SystemConfig::small_for_tests(8).with_pct(pct);
//!     let workload = Benchmark::Streamcluster.build(8, 0.05);
//!     Simulator::new(cfg, workload).unwrap().run()
//! };
//! let baseline = run(1);
//! let adaptive = run(4);
//! assert!(adaptive.energy.total() < baseline.energy.total());
//! ```

pub use lacc_cache as cache;
pub use lacc_core as core;
pub use lacc_dram as dram;
pub use lacc_energy as energy;
pub use lacc_experiments as experiments;
pub use lacc_model as model;
pub use lacc_network as network;
pub use lacc_sim as sim;
pub use lacc_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use lacc_core::classifier::{RemovalReason, RequestHints, SharerMode};
    pub use lacc_core::home::{AccessKind, DirectoryEntry, Grant, HomeRequest};
    pub use lacc_core::rnuca::RegionClass;
    pub use lacc_core::DirectoryKind;
    pub use lacc_model::config::{ClassifierConfig, MechanismKind, TrackingKind};
    pub use lacc_model::{Addr, CoreId, Error, LineAddr, MissClass, SystemConfig, TraceError};
    pub use lacc_sim::ltf::{self, LtfHeader, LtfSummary};
    pub use lacc_sim::trace::default_instr_base;
    pub use lacc_sim::{
        RegionDecl, SimOptions, SimReport, Simulator, TraceBuilder, TraceOp, VecTrace, Workload,
    };
    pub use lacc_workloads::{Benchmark, Phases, Region};
}
