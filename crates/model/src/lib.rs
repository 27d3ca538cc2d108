//! Common vocabulary types for the `lacc` workspace.
//!
//! This crate defines the identifiers, address arithmetic, architectural
//! configuration (Table 1 of the paper) and statistics containers shared by
//! every other crate in the reproduction of *The Locality-Aware Adaptive
//! Cache Coherence Protocol* (Kurian, Khan, Devadas — ISCA 2013).
//!
//! Nothing in this crate simulates anything: it is the pure data layer, so
//! that the cache, network, DRAM, energy, protocol and simulator crates can
//! interoperate without depending on one another.
//!
//! # Examples
//!
//! ```
//! use lacc_model::config::SystemConfig;
//!
//! // The 64-core configuration of Table 1.
//! let cfg = SystemConfig::isca13_64core();
//! assert_eq!(cfg.num_cores, 64);
//! assert_eq!(cfg.classifier.pct, 4);
//! cfg.validate().expect("Table 1 parameters are self-consistent");
//! ```

pub mod addr;
pub mod collections;
pub mod config;
pub mod coreset;
pub mod error;
pub mod ids;
pub mod stats;
pub mod time;

pub use addr::{Addr, LineAddr, PageAddr};
pub use collections::{FxBuildHasher, FxHashMap, LineMap};
pub use config::{
    CacheConfig, ClassifierConfig, DirectoryKind, MechanismKind, SystemConfig, TrackingKind,
};
pub use coreset::{CoreSet, MAX_CORES};
pub use error::{ConfigError, Error, TraceError};
pub use ids::{CoreId, MemCtrlId};
pub use stats::{
    CompletionBreakdown, EnergyBreakdown, LatencyAnnotation, MissClass, MissStats,
    UtilizationHistogram,
};
pub use time::Cycle;
