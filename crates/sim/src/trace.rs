//! Trace interface between workload generators and the simulator.
//!
//! Each core executes a per-core instruction/memory trace (the Graphite
//! methodology: functional streams with timing models). A [`TraceOp`] is
//! one unit of work; a [`VecTrace`] holds a core's ops LTF-encoded and
//! decodes them in order. A [`Workload`] bundles one trace per core with
//! the R-NUCA region declarations (the placement oracle, see DESIGN.md)
//! and the instruction-footprint parameters.

use std::ops::Range;
use std::sync::Arc;

use lacc_core::rnuca::RegionClass;
use lacc_model::{Addr, LineAddr, TraceError};

use crate::ltf::v2::{V2Decoder, V2Encoder, OP2_END};
use crate::ltf::STREAMS_DO_NOT_TILE;

/// One trace operation for an in-order core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceOp {
    /// Execute `n` non-memory instructions (1 cycle each, fetched from the
    /// instruction footprint).
    Compute(u32),
    /// Load one 64-bit word.
    Load {
        /// Byte address (word-aligned).
        addr: Addr,
    },
    /// Store one 64-bit word.
    Store {
        /// Byte address (word-aligned).
        addr: Addr,
        /// The value written (functional simulation).
        value: u64,
    },
    /// Wait until every participating core reaches barrier `id`.
    Barrier {
        /// Barrier identifier (reusable across phases).
        id: u32,
    },
    /// Acquire lock `id` (queueing if held).
    Acquire {
        /// Lock identifier.
        id: u32,
    },
    /// Release lock `id`.
    Release {
        /// Lock identifier.
        id: u32,
    },
}

/// One core's trace: its ops held LTF-encoded in memory, with a decode
/// cursor.
///
/// Generated and replayed traces are the same type. A generated trace
/// ([`VecTrace::new`], [`TraceBuilder`]) owns its encoded stream; the
/// traces of a replayed LTF file ([`crate::ltf::read_workload`]) share the
/// file's bytes and each decode its own stream in place. Either way the
/// stream is an LTF v2 op stream (module [`crate::ltf::v2`], at about
/// 2.7 bytes per op on the synthetic suite, against 24 for a
/// [`TraceOp`]), so a trace costs memory in proportion to its encoded
/// length, and writing it to a file ([`crate::ltf::write_workload_v2`])
/// copies the bytes instead of re-encoding them.
///
/// Ops come out one per call to [`next_op`](Self::next_op), decoded in
/// place by [`V2Decoder::next`], the one decode walk in the workspace;
/// the engine pulls each op a core executes straight from here.
///
/// The stream is valid by construction (encoded here) or validated when
/// its file is opened, so decoding cannot fail. Cloning a trace shares
/// its bytes and copies the cursor. A trace is `Send`: the experiment
/// harness moves whole simulations across worker threads
/// (`lacc_experiments::Cli::run_jobs`).
#[derive(Clone)]
pub struct VecTrace {
    /// The buffer holding the stream: the trace's own bytes, or a whole
    /// LTF image shared by every core of a replayed workload.
    buf: Arc<Vec<u8>>,
    /// `buf[start..end]` is the stream, end marker included.
    start: usize,
    end: usize,
    /// The line the stream's first address delta is relative to.
    base_line: u64,
    /// Ops in the whole stream.
    ops: u64,
    pos: usize,
    dec: V2Decoder,
    finished: bool,
}

/// Why decoding cannot fail: the bytes were encoded here or validated
/// when their file was opened, and nothing can change them since.
const VALID: &str = "a trace's stream is valid: encoded in memory or validated at open";

impl VecTrace {
    /// Encodes a vector of operations.
    #[must_use]
    pub fn new(ops: Vec<TraceOp>) -> Self {
        let mut builder = TraceBuilder::new();
        for op in ops {
            builder.push(op);
        }
        builder.finish()
    }

    /// Opens the stream occupying `buf[stream]`, whose first address
    /// delta is relative to `base_line`: decodes it to its end marker
    /// once (catching every malformation, and an end marker that is not
    /// the range's last byte), then starts the cursor at its first op.
    pub(crate) fn open(
        buf: Arc<Vec<u8>>,
        stream: Range<usize>,
        base_line: u64,
    ) -> Result<Self, TraceError> {
        let mut dec = V2Decoder::new(base_line);
        let (mut pos, mut ops) = (stream.start, 0);
        while dec.next(&buf, &mut pos)?.is_some() {
            ops += 1;
        }
        if pos != stream.end {
            return Err(TraceError::Corrupt { what: STREAMS_DO_NOT_TILE });
        }
        Ok(VecTrace {
            buf,
            start: stream.start,
            end: pos,
            base_line,
            ops,
            pos: stream.start,
            dec: V2Decoder::new(base_line),
            finished: false,
        })
    }

    /// The encoded stream, end marker included, from its first op
    /// whatever the cursor has consumed.
    pub(crate) fn stream(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// The line the stream's first address delta is relative to.
    pub(crate) fn base_line(&self) -> u64 {
        self.base_line
    }

    /// Ops in the whole stream, consumed or not.
    pub(crate) fn total_ops(&self) -> u64 {
        self.ops
    }

    /// The next operation, or `None` when the core's work is done (and
    /// on every later call).
    #[inline]
    pub fn next_op(&mut self) -> Option<TraceOp> {
        if self.finished {
            return None;
        }
        let op = self.dec.next(&self.buf, &mut self.pos).expect(VALID);
        self.finished = op.is_none();
        op
    }

    /// Appends up to `max` further operations to `out`, returning how
    /// many were appended. Appending fewer than `max` means the stream
    /// ended (and stays ended: later calls return 0), so consumers detect
    /// exhaustion without a separate probe. A plain loop over
    /// [`next_op`](Self::next_op), for callers that drain a trace in
    /// chunks.
    pub fn next_ops(&mut self, out: &mut Vec<TraceOp>, max: usize) -> usize {
        let mut appended = 0;
        while appended < max {
            let Some(op) = self.next_op() else { break };
            out.push(op);
            appended += 1;
        }
        appended
    }
}

impl std::fmt::Debug for VecTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VecTrace")
            .field("ops", &self.ops)
            .field("bytes", &(self.end - self.start))
            .field("consumed_bytes", &(self.pos - self.start))
            .finish()
    }
}

/// Encodes one core's ops as they are produced, then yields the
/// [`VecTrace`] (what the workload generators build with).
///
/// The stream's deltas start from line 0; writing it to a file against
/// another base line re-encodes only its first access
/// ([`crate::ltf::write_workload_v2`]).
#[derive(Debug)]
pub struct TraceBuilder {
    enc: V2Encoder,
    bytes: Vec<u8>,
    ops: u64,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        TraceBuilder { enc: V2Encoder::new(0), bytes: Vec::new(), ops: 0 }
    }

    /// Appends `op`.
    #[inline]
    pub fn push(&mut self, op: TraceOp) {
        self.enc.push(op, &mut self.bytes);
        self.ops += 1;
    }

    /// Ends the stream and returns it as a trace whose cursor is at the
    /// first op.
    #[must_use]
    pub fn finish(mut self) -> VecTrace {
        self.enc.finish(&mut self.bytes);
        self.bytes.push(OP2_END);
        self.bytes.shrink_to_fit();
        let end = self.bytes.len();
        VecTrace {
            buf: Arc::new(self.bytes),
            start: 0,
            end,
            base_line: 0,
            ops: self.ops,
            pos: 0,
            dec: V2Decoder::new(0),
            finished: false,
        }
    }
}

/// Declares the R-NUCA class of an address region (the oracle that stands
/// in for the paper's OS page-table classification).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionDecl {
    /// First line of the region.
    pub first_line: LineAddr,
    /// Length in lines.
    pub lines: u64,
    /// R-NUCA class.
    pub class: RegionClass,
}

/// A complete multi-threaded workload: one trace per core plus placement
/// metadata.
pub struct Workload {
    /// Workload name (used in reports).
    pub name: String,
    /// One trace per core, indexed by core id. Cores beyond the vector's
    /// length idle.
    pub traces: Vec<VecTrace>,
    /// R-NUCA oracle declarations.
    pub regions: Vec<RegionDecl>,
    /// Instruction footprint per core, in cache lines (walked cyclically;
    /// 8 instructions per 64-byte line).
    pub instr_lines: u64,
    /// First line of the (shared, replicated-per-cluster) text segment.
    pub instr_base: LineAddr,
}

impl Workload {
    /// Number of cores that actually execute a trace.
    #[must_use]
    pub fn active_cores(&self) -> usize {
        self.traces.len()
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("cores", &self.traces.len())
            .field("regions", &self.regions.len())
            .field("instr_lines", &self.instr_lines)
            .finish()
    }
}

/// The default text-segment base: high in the 48-bit space so it never
/// collides with generator-assigned data regions.
#[must_use]
pub fn default_instr_base() -> LineAddr {
    LineAddr::new(0x7000_0000_0000 >> 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_trace_yields_in_order() {
        let mut t = VecTrace::new(vec![
            TraceOp::Compute(3),
            TraceOp::Load { addr: Addr::new(64) },
            TraceOp::Barrier { id: 0 },
        ]);
        assert_eq!(t.next_op(), Some(TraceOp::Compute(3)));
        assert_eq!(t.next_op(), Some(TraceOp::Load { addr: Addr::new(64) }));
        assert_eq!(t.next_op(), Some(TraceOp::Barrier { id: 0 }));
        assert_eq!(t.next_op(), None);
        assert_eq!(t.next_op(), None, "exhausted traces stay exhausted");
    }

    #[test]
    fn next_ops_batches_and_signals_exhaustion() {
        let ops =
            vec![TraceOp::Compute(1), TraceOp::Compute(2), TraceOp::Load { addr: Addr::new(64) }];
        let mut t = VecTrace::new(ops.clone());
        let mut out = Vec::new();
        assert_eq!(t.next_ops(&mut out, 2), 2, "full batch while ops remain");
        assert_eq!(t.next_ops(&mut out, 2), 1, "short batch at end of stream");
        assert_eq!(out, ops);
        assert_eq!(t.next_ops(&mut out, 2), 0, "exhausted traces append nothing");
        assert_eq!(t.next_op(), None);
    }

    #[test]
    fn traces_are_encoded_and_clones_share_the_bytes() {
        let ops: Vec<TraceOp> =
            (0..1000).map(|i| TraceOp::Load { addr: Addr::new(8 * i) }).collect();
        let mut t = VecTrace::new(ops.clone());
        // Sequential word loads from line 0 (the base of a new trace) are
        // one immediate byte each.
        assert_eq!(t.stream().len(), 1001, "1000 one-byte loads plus the end marker");
        assert_eq!(t.total_ops(), 1000);
        assert_eq!(t.next_op(), Some(ops[0]));
        let mut copy = t.clone();
        assert!(Arc::ptr_eq(&t.buf, &copy.buf));
        // A clone continues from the cursor it copied.
        assert_eq!(copy.next_op(), Some(ops[1]));
        assert_eq!(t.next_op(), Some(ops[1]));
        assert!(format!("{t:?}").contains("ops: 1000"));
    }

    #[test]
    fn workload_reports_active_cores() {
        let w = Workload {
            name: "t".into(),
            traces: vec![VecTrace::new(vec![]), VecTrace::new(vec![])],
            regions: vec![],
            instr_lines: 4,
            instr_base: default_instr_base(),
        };
        assert_eq!(w.active_cores(), 2);
        assert!(format!("{w:?}").contains("cores"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ltf::v2::MAX_RUN;
    use proptest::prelude::*;

    fn arb_addr() -> impl Strategy<Value = Addr> {
        prop_oneof![
            // Near accesses (immediate and packed forms, unaligned too).
            (0x1000u64..0x1400).prop_map(Addr::new),
            // Anywhere: jumps of up to ±2^48 lines' worth of bytes.
            (0u64..(1 << 48)).prop_map(Addr::new),
            Just(Addr::new(0)),
            Just(Addr::new((1 << 47) + 3)),
            Just(Addr::new((1 << 48) - 1)),
        ]
    }

    fn arb_compute() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(u32::MAX), 1u32..9, 0u32..100_000]
    }

    /// One op, or a compute repeated: runs reach past `MAX_RUN`, so a
    /// run record splits.
    fn arb_chunk() -> impl Strategy<Value = (TraceOp, u64)> {
        let single = prop_oneof![
            arb_compute().prop_map(TraceOp::Compute),
            arb_addr().prop_map(|addr| TraceOp::Load { addr }),
            (arb_addr(), 0u64..u64::MAX).prop_map(|(addr, value)| TraceOp::Store { addr, value }),
            (0u32..u32::MAX).prop_map(|id| TraceOp::Barrier { id }),
            (0u32..4).prop_map(|id| TraceOp::Acquire { id }),
            (0u32..4).prop_map(|id| TraceOp::Release { id }),
        ];
        let repeat = prop_oneof![
            Just(2u64),
            Just(3),
            Just(MAX_RUN - 1),
            Just(MAX_RUN),
            Just(MAX_RUN + 1),
            Just(2 * MAX_RUN + 3),
        ];
        prop_oneof![
            single.prop_map(|op| (op, 1)),
            (arb_compute(), repeat).prop_map(|(n, k)| (TraceOp::Compute(n), k)),
        ]
    }

    proptest! {
        /// Any op sequence comes back out of a `VecTrace` exactly, through
        /// batches of any size mixed with single-op pulls.
        #[test]
        fn vec_trace_round_trips(
            chunks in proptest::collection::vec(arb_chunk(), 0..24),
            batch in 1usize..100,
        ) {
            let ops: Vec<TraceOp> = chunks
                .iter()
                .flat_map(|&(op, k)| std::iter::repeat(op).take(k as usize))
                .collect();
            let mut t = VecTrace::new(ops.clone());
            prop_assert_eq!(t.total_ops(), ops.len() as u64);
            let mut out = Vec::new();
            loop {
                if let Some(op) = t.next_op() {
                    out.push(op);
                }
                if t.next_ops(&mut out, batch) < batch {
                    break;
                }
            }
            prop_assert_eq!(out.len(), ops.len());
            prop_assert!(out == ops, "decoded ops differ from the encoded ones");
            prop_assert_eq!(t.next_op(), None);
        }
    }
}
