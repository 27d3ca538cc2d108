//! Set-associative cache substrate for the `lacc` workspace.
//!
//! This crate provides the *mechanical* cache structures — a generic
//! set-associative tag/metadata array with exact LRU replacement, and a
//! cache-line data container — on top of which `lacc-core` builds the
//! paper's protocol-specific L1 and L2 organizations (utilization counters,
//! last-access timestamps, MESI state, integrated directory).
//!
//! The split keeps this crate free of coherence concepts: it can be reused
//! for any blocking cache model.
//!
//! # Examples
//!
//! ```
//! use lacc_cache::SetAssocCache;
//! use lacc_model::LineAddr;
//!
//! // 2 sets x 2 ways; metadata is a simple access counter here.
//! let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2);
//! c.insert(LineAddr::new(0), 1);
//! c.insert(LineAddr::new(2), 1); // same set (even lines)
//! assert!(c.contains(LineAddr::new(0)));
//!
//! // A third line in the same set evicts the least recently used.
//! let out = c.insert(LineAddr::new(4), 1);
//! assert_eq!(out.evicted.unwrap().0, LineAddr::new(0));
//! ```

pub mod data;
pub mod set_assoc;
pub mod slab;

pub use data::LineData;
pub use set_assoc::{InsertOutcome, SetAssocCache};
pub use slab::{DataRef, DataSlab, SlabStats};
