//! # lacc-sim — the multicore simulator substrate
//!
//! A deterministic discrete-event simulator of the Table-1 machine (the
//! Graphite-methodology stand-in; see DESIGN.md): 64 in-order cores at
//! 1 GHz, private L1s, a distributed shared L2 with integrated directories
//! running the locality-aware adaptive coherence protocol from
//! [`lacc_core`], an electrical 2-D mesh with link contention and broadcast
//! support, and bandwidth-limited DRAM controllers.
//!
//! The simulator is *functional*: stores write real values, loads return
//! them, and a [`monitor::CoherenceMonitor`] asserts on every read that the
//! protocol delivered the serialized value (§4.1's correctness argument,
//! made mechanical).
//!
//! # Examples
//!
//! ```
//! use lacc_model::{Addr, SystemConfig};
//! use lacc_sim::trace::{default_instr_base, TraceOp, VecTrace, Workload};
//! use lacc_sim::Simulator;
//!
//! // Two cores ping a value through a shared line.
//! let w = Workload {
//!     name: "doc".into(),
//!     traces: vec![
//!         VecTrace::new(vec![
//!             TraceOp::Store { addr: Addr::new(0x1000), value: 42 },
//!             TraceOp::Barrier { id: 0 },
//!         ]),
//!         VecTrace::new(vec![
//!             TraceOp::Barrier { id: 0 },
//!             TraceOp::Load { addr: Addr::new(0x1000) },
//!         ]),
//!     ],
//!     regions: vec![],
//!     instr_lines: 0,
//!     instr_base: default_instr_base(),
//! };
//! let sim = Simulator::new(SystemConfig::small_for_tests(2), w)?;
//! let report = sim.run();
//! assert!(report.monitor.violations == 0);
//! assert!(report.completion_time > 0);
//! # Ok::<(), lacc_model::ConfigError>(())
//! ```

pub mod engine;
pub mod ltf;
pub mod monitor;
pub mod msg;
pub mod report;
pub mod sync;
pub mod trace;

pub use engine::explore::FaultInjection;
pub use engine::{SimOptions, Simulator};
pub use monitor::CoherenceMonitor;
pub use report::{ProtocolStats, SimReport};
pub use trace::{RegionDecl, TraceBuilder, TraceOp, VecTrace, Workload};
