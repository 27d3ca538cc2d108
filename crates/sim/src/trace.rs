//! Trace interface between workload generators and the simulator.
//!
//! Each core executes a per-core instruction/memory trace (the Graphite
//! methodology: functional streams with timing models). A [`TraceOp`] is
//! one unit of work; a [`TraceSource`] produces them lazily and
//! deterministically. A [`Workload`] bundles one source per core with the
//! R-NUCA region declarations (the placement oracle, see DESIGN.md) and the
//! instruction-footprint parameters.

use lacc_core::rnuca::RegionClass;
use lacc_model::{Addr, LineAddr};

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

/// A lazy, deterministic stream of [`TraceOp`]s for one core.
///
/// `Send` is a supertrait: a trace is owned by exactly one
/// [`Simulator`](crate::Simulator), and the experiment harness dispatches
/// whole simulations across worker threads
/// (`lacc_experiments::Cli::run_jobs`), so every source must be movable to
/// the thread that runs it. Sources never need `Sync` — nothing shares a
/// trace between threads.
pub trait TraceSource: Send {
    /// The next operation, or `None` when the core's work is done.
    fn next_op(&mut self) -> Option<TraceOp>;

    /// Appends up to `max` further operations to `out`, returning how
    /// many were appended. Appending fewer than `max` means the stream
    /// ended (and stays ended: later calls return 0) — consumers rely on
    /// that to detect exhaustion without a separate probe.
    ///
    /// This is the amortization point of the trace plane: batch-friendly
    /// sources (the LTF cursors, [`VecTrace`]) decode a whole batch per
    /// virtual call instead of paying per-op dispatch, which is what the
    /// engine's per-core pull consumes. The
    /// default just loops [`next_op`](Self::next_op), so existing sources
    /// keep working unchanged.
    fn next_ops(&mut self, out: &mut Vec<TraceOp>, max: usize) -> usize {
        let mut appended = 0;
        while appended < max {
            match self.next_op() {
                Some(op) => {
                    out.push(op);
                    appended += 1;
                }
                None => break,
            }
        }
        appended
    }
}

/// A trace backed by a pre-built vector (tests, examples).
#[derive(Clone, Debug, Default)]
pub struct VecTrace {
    ops: std::vec::IntoIter<TraceOp>,
}

impl VecTrace {
    /// Wraps a vector of operations.
    #[must_use]
    pub fn new(ops: Vec<TraceOp>) -> Self {
        VecTrace { ops: ops.into_iter() }
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.ops.next()
    }

    fn next_ops(&mut self, out: &mut Vec<TraceOp>, max: usize) -> usize {
        let before = out.len();
        out.extend(self.ops.by_ref().take(max));
        out.len() - before
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
    pub traces: Vec<Box<dyn TraceSource>>,
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
        assert_eq!(t.next_ops(&mut out, 2), 0, "exhausted sources append nothing");

        // The boxed trait object the engine holds agrees with the override.
        let mut boxed: Box<dyn TraceSource> = Box::new(VecTrace::new(ops.clone()));
        let mut out2 = Vec::new();
        assert_eq!(boxed.next_ops(&mut out2, 100), 3);
        assert_eq!(out2, ops);
    }

    #[test]
    fn workload_reports_active_cores() {
        let w = Workload {
            name: "t".into(),
            traces: vec![Box::new(VecTrace::new(vec![])), Box::new(VecTrace::new(vec![]))],
            regions: vec![],
            instr_lines: 4,
            instr_base: default_instr_base(),
        };
        assert_eq!(w.active_cores(), 2);
        assert!(format!("{w:?}").contains("cores"));
    }
}
