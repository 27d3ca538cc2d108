//! LACC Trace Format (LTF): durable, replayable trace files.
//!
//! LTF is the simulator's one trace representation, in memory and on
//! disk. Every per-core trace is a [`VecTrace`](crate::VecTrace) holding
//! an LTF v2 op stream: the synthetic generators encode ops as they
//! produce them, and a replayed file's traces decode in place from the
//! file's bytes. A `.ltf` file makes a [`Workload`](crate::Workload)
//! durable — the reproducible input artifact that trace-driven evaluation
//! (the paper's Graphite methodology) and protocol-verification workflows
//! both rely on. The full specification also lives in `docs/LTF.md`.
//!
//! Op streams are delta-compressed (module [`v2`]): signed-zigzag line
//! deltas, region-relative bases, run-length compute and single-byte
//! immediate tags, at about 2.5 bytes per op on the synthetic suite.
//! Writing a workload copies its streams' bytes, re-encoding only the
//! first access of a stream encoded against another base line (module
//! [`writer`]). The reader loads each file once into an owned buffer,
//! and every per-core cursor decodes in place from it (module
//! [`reader`]).
//!
//! # Format specification (container)
//!
//! All multi-byte integers are **varints** (LEB128: 7 value bits per byte,
//! high bit = continuation, little-endian groups, at most 10 bytes) except
//! the core offset table, whose entries are fixed-width `u64`
//! little-endian so the writer can backpatch them after streaming.
//!
//! ```text
//! file      := magic version flags name header regions offsets stream*
//! magic     := "LACCLTF1"                      ; 8 bytes
//! version   := varint                          ; 2
//! flags     := varint                          ; reserved, must be 0
//! name      := varint(len) byte{len}           ; UTF-8 workload name
//! header    := varint(num_cores)
//!              varint(instr_lines)             ; instruction footprint
//!              varint(instr_base)              ; text-segment line number
//! regions   := varint(count) region{count}
//! region    := varint(first_line) varint(lines) class
//! class     := 0x00                            ; Shared
//!            | 0x01                            ; Instruction
//!            | 0x02 varint(core)               ; PrivateTo(core)
//! offsets   := u64le{num_cores}                ; absolute stream offsets
//! stream    := v2-stream                       ; one per core, module v2
//! ```
//!
//! Decoding is total: every malformed input — wrong magic, any version
//! other than 2, truncation anywhere (including mid-op), over-long
//! varints, undefined opcodes or class tags, offsets outside the file,
//! streams that do not exactly tile the bytes after the offset table —
//! returns a typed [`TraceError`](lacc_model::TraceError) instead of
//! panicking. [`read_workload`] validates the entire file in one pass
//! before handing out per-core sources, so replay itself cannot trip over
//! corruption.
//!
//! # Examples
//!
//! ```
//! use lacc_sim::ltf;
//! use lacc_sim::trace::{default_instr_base, TraceOp, VecTrace, Workload};
//! use lacc_model::Addr;
//!
//! let w = Workload {
//!     name: "doc".into(),
//!     traces: vec![VecTrace::new(vec![
//!         TraceOp::Store { addr: Addr::new(0x40), value: 7 },
//!         TraceOp::Compute(3),
//!     ])],
//!     regions: vec![],
//!     instr_lines: 4,
//!     instr_base: default_instr_base(),
//! };
//! let bytes = ltf::workload_to_ltf_bytes_v2(w)?;
//! let mut replayed = ltf::workload_from_bytes(bytes)?;
//! assert_eq!(replayed.name, "doc");
//! let mut ops = Vec::new();
//! assert_eq!(replayed.traces[0].next_ops(&mut ops, 100), 2);
//! assert_eq!(ops[1], TraceOp::Compute(3));
//! # Ok::<(), lacc_model::TraceError>(())
//! ```

pub mod reader;
pub mod v2;
pub mod varint;
pub mod writer;

pub use reader::{read_header_bytes, read_workload, workload_from_bytes, LtfHeader};
pub use writer::{workload_to_ltf_bytes_v2, write_workload_v2, LtfSummary};

/// The 8-byte file magic ("LACCLTF" + format generation).
pub const MAGIC: [u8; 8] = *b"LACCLTF1";

/// The format version: delta-compressed op streams (see [`v2`]). Readers
/// reject every other version.
pub const VERSION: u64 = 2;

/// Region-class tag for `RegionClass::Shared`.
pub const CLASS_SHARED: u8 = 0x00;
/// Region-class tag for `RegionClass::Instruction`.
pub const CLASS_INSTRUCTION: u8 = 0x01;
/// Region-class tag for `RegionClass::PrivateTo(core)`.
pub const CLASS_PRIVATE: u8 = 0x02;

/// Decoder limit: cores are 16-bit ids, so a header claiming more is
/// corrupt rather than merely large.
pub const MAX_CORES: u64 = 1 << 16;
/// Decoder limit on the workload-name length in bytes.
pub const MAX_NAME_LEN: u64 = 4096;
/// Decoder limit on the region-declaration count.
pub const MAX_REGIONS: u64 = 1 << 20;

/// The [`TraceError::Corrupt`](lacc_model::TraceError::Corrupt) reason
/// for streams that leave a gap, overlap or run past one another: the
/// first must start where the offset table ends, each must end where the
/// next starts, and the last at the end of the file.
pub(crate) const STREAMS_DO_NOT_TILE: &str = "core streams do not tile the stream area";
