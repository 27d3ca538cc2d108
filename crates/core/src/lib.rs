//! # lacc-core — the Locality-Aware Adaptive Cache Coherence protocol
//!
//! This crate implements the primary contribution of Kurian, Khan &
//! Devadas, *The Locality-Aware Adaptive Cache Coherence Protocol* (ISCA
//! 2013): a directory protocol that profiles the spatio-temporal locality
//! of every (cache line, core) pair at runtime and serves low-locality
//! misses as cheap **word accesses at the shared L2** instead of moving
//! whole cache lines into the private L1s.
//!
//! The pieces, bottom-up:
//!
//! * [`mesi`] — MESI line states and the directory's state summary;
//! * [`sharer`] — ACKwise_p sharer tracking (§3.1), one type for an
//!   entry's sharers, an invalidation round and the acks a home awaits;
//!   a full map runs as ACKwise_n;
//! * [`classifier`] — private/remote modes, utilization counters, the
//!   Timestamp check (§3.2), RAT levels (§3.3), Limited_k tracking (§3.4;
//!   Complete runs as Limited_n) and the one-way variant (§3.7), under a
//!   machine-wide [`ClassifierPolicy`];
//! * [`l1`] — the private L1 with the Figure-5 tag extensions;
//! * [`home`] — the directory-entry decision kernel tying the above
//!   together; every entry of a machine shares one [`DirectoryPolicy`];
//! * [`miss_class`] — the five-way miss taxonomy of §4.4;
//! * [`rnuca`] — Reactive-NUCA placement of the shared L2;
//! * [`overheads`] — the §3.6 storage arithmetic.
//!
//! Everything here is *pure state machine*: no clocks, queues or network.
//! The `lacc-sim` crate supplies timing; this separation is what lets the
//! test suite drive the protocol through exhaustive and property-based
//! scenarios.
//!
//! # Examples
//!
//! A complete private→remote→private round trip for one line:
//!
//! ```
//! use lacc_core::classifier::{RemovalReason, RequestHints, SharerMode};
//! use lacc_core::home::{AccessKind, DirectoryEntry, Grant, HomeRequest};
//! use lacc_core::DirectoryKind;
//! use lacc_model::config::ClassifierConfig;
//! use lacc_model::CoreId;
//!
//! let mut entry = DirectoryEntry::new(
//!     DirectoryKind::ackwise4(),
//!     &ClassifierConfig::isca13_default(), // PCT = 4
//!     64,
//! );
//! let core = CoreId::new(7);
//! let hints = RequestHints { set_min_last_access: 0, set_has_invalid: true };
//!
//! // First read: private copy (all cores start private).
//! let d = entry.begin_request(
//!     &HomeRequest { core, kind: AccessKind::Read, hints, instruction: false },
//!     0,
//! );
//! assert_eq!(d.grant, Grant::LineExclusive);
//! entry.complete_grant(core, d.grant);
//!
//! // Evicted after a single use: utilization 1 < PCT, demoted to remote.
//! let mode = entry.sharer_response(core, 1, RemovalReason::Eviction);
//! assert_eq!(mode, Some(SharerMode::Remote));
//!
//! // The next read is served as a word access at the shared L2.
//! let d = entry.begin_request(
//!     &HomeRequest { core, kind: AccessKind::Read, hints, instruction: false },
//!     10,
//! );
//! assert_eq!(d.grant, Grant::WordRead);
//! ```

pub mod classifier;
pub mod home;
pub mod l1;
pub mod mesi;
pub mod miss_class;
pub mod overheads;
pub mod rnuca;
pub mod sharer;

pub use classifier::{
    ClassifierPolicy, ClassifyOutcome, LocalityClassifier, RemovalReason, RequestHints, SharerMode,
};
pub use home::{AccessKind, DirectoryEntry, DirectoryPolicy, Grant, HomeDecision, HomeRequest};
pub use l1::{EvictedL1Line, L1Cache, L1Line, StoreOutcome};
pub use mesi::{DirState, MesiState};
pub use miss_class::MissClassifier;
pub use overheads::{storage_report, StorageReport};
pub use rnuca::{RegionClass, Rnuca};
pub use sharer::SharerTracker;

// Re-exported so protocol code can name the directory kind without
// depending on `lacc-model` directly.
pub use lacc_model::config::DirectoryKind;
