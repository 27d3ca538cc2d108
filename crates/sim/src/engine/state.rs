//! Per-core and per-tile simulator state.
//!
//! The [`Simulator`](super::Simulator) owns one [`CoreState`] per core
//! (trace cursor, local clock, completion breakdown, miss classifier) and
//! one [`TileState`] per tile (private L1s, the local L2/directory slice,
//! and its busy lines: one in-flight transaction each, plus the requests
//! queued behind it). Everything here is data + small helpers; the
//! protocol logic that drives it lives in the sibling
//! `core_side`/`home_side`/`l1_side` modules.

use std::collections::VecDeque;

use lacc_cache::{DataRef, SetAssocCache};
use lacc_core::home::{DirectoryEntry, Grant, HomeRequest};
use lacc_core::l1::L1Cache;
use lacc_core::miss_class::MissClassifier;
use lacc_core::sharer::SharerTracker;
use lacc_model::{CompletionBreakdown, Cycle, LineAddr, LineMap, MissStats};

use crate::msg::Message;
use crate::trace::{TraceOp, VecTrace};

// ---------------------------------------------------------------------------
// Core side
// ---------------------------------------------------------------------------

/// Why a core is not executing its trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Blocked {
    No,
    IFetch,
    Data,
    Sync,
}

/// The single outstanding miss of a blocked core (in-order, one miss).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Outstanding {
    pub line: LineAddr,
    pub word: usize,
    /// The value a store writes; `None` for a load or an instruction
    /// fetch.
    pub store: Option<u64>,
    pub issue_time: Cycle,
    pub instr: bool,
}

pub(crate) struct CoreState {
    /// The core's trace; `None` once exhausted (or if the core never had
    /// one).
    pub trace: Option<VecTrace>,
    pub clock: Cycle,
    pub finished: bool,
    pub breakdown: CompletionBreakdown,
    pub miss_class: MissClassifier,
    pub l1d_stats: MissStats,
    pub l1i_stats: MissStats,
    /// The op to run before the trace's next one: an op that could not
    /// finish yet (a compute run as `Compute(left)`), put back.
    pub replay: Option<TraceOp>,
    pub replay_ifetched: bool,
    pub blocked: Blocked,
    pub instr_pos: u64,
    pub instructions: u64,
    pub outstanding: Option<Outstanding>,
    /// Ops pulled from the trace so far: the trace cursor as one number,
    /// which the model checker fingerprints (a decode position alone
    /// cannot tell apart the ops of one compute-run record).
    pub ops_consumed: u64,
}

impl CoreState {
    pub fn new(trace: Option<VecTrace>) -> Self {
        CoreState {
            finished: trace.is_none(),
            trace,
            clock: 0,
            breakdown: CompletionBreakdown::default(),
            miss_class: MissClassifier::new(),
            l1d_stats: MissStats::default(),
            l1i_stats: MissStats::default(),
            replay: None,
            replay_ifetched: false,
            blocked: Blocked::No,
            instr_pos: 0,
            instructions: 0,
            outstanding: None,
            ops_consumed: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Home side
// ---------------------------------------------------------------------------

/// An L2-resident line: data handle, dirtiness, and its directory entry.
///
/// The L2 owns one slab reference per resident line; shared grants alias
/// it ([`DataSlab::retain`](lacc_cache::DataSlab::retain)) rather than
/// copying the 64 bytes, and eviction transfers or releases it.
pub(crate) struct L2Line {
    pub dirty: bool,
    pub data: DataRef,
    pub entry: DirectoryEntry,
}

// A Table-1 machine holds 64 × 4096 L2 ways, so each byte here is up to
// 256 KiB of resident memory. The entry keeps only its line's state (the
// settings live in the shared `DirectoryPolicy`), its sharers and its
// locality list inline at 64 cores; this pins the bound.
const _: () = assert!(std::mem::size_of::<L2Line>() <= 88);

/// Where an in-flight request transaction stands, with what that step
/// still needs: the grant and promotion flag once the directory has
/// decided, and during an invalidation round the responses it awaits.
#[derive(Debug)]
pub(crate) enum Phase {
    Lookup,
    AwaitDram,
    Installing,
    /// Waiting for the exclusive owner's write-back.
    AwaitWb {
        grant: Grant,
        promoted: bool,
    },
    /// Waiting for the invalidation round's responses: exact identities
    /// for a unicast round, a bare count for a broadcast.
    AwaitAcks {
        grant: Grant,
        promoted: bool,
        awaiting: SharerTracker,
    },
}

/// A miss request being served by the home tile.
pub(crate) struct RequestTxn {
    pub req: HomeRequest,
    pub word: usize,
    pub value: u64,
    pub wait: Cycle,
    pub offchip: Cycle,
    pub sharers_lat: Cycle,
    pub phase: Phase,
    pub phase_start: Cycle,
}

impl RequestTxn {
    /// Moves to `phase`, which starts at `now`.
    pub fn enter(&mut self, phase: Phase, now: Cycle) {
        self.phase = phase;
        self.phase_start = now;
    }
}

/// An L2 eviction collecting back-invalidation acks. It awaits the
/// evicted entry's sharers, which each response removes, and holds the
/// line's data handle until the acks resolve its fate (DRAM write-back
/// transfer when dirty, release when clean).
pub(crate) struct EvictTxn {
    pub sharers: SharerTracker,
    pub data: DataRef,
    pub dirty: bool,
}

pub(crate) enum HomeTxn {
    Request(RequestTxn),
    Evict(EvictTxn),
}

/// A line the home slice is serving: its one in-flight transaction and
/// the requests that arrived while it was in flight, oldest first.
///
/// Queueing time becomes the *L2 cache waiting time* completion component,
/// so fairness is an accounting invariant, not just a liveness one: for any
/// line, requests are served in exactly the order they arrived.
pub(crate) struct BusyLine {
    pub txn: HomeTxn,
    pub queued: VecDeque<(Message, Cycle)>,
}

// A request keeps only what its phase needs, and an eviction only the
// sharers it awaits; this pins the bound.
const _: () = assert!(std::mem::size_of::<BusyLine>() <= 136);

/// One tile: the private L1 pair and the local shared-L2 slice with its
/// busy lines.
pub(crate) struct TileState {
    pub l1i: L1Cache,
    pub l1d: L1Cache,
    pub l2: SetAssocCache<L2Line>,
    /// A line is busy exactly while it has an entry here.
    pub busy: LineMap<BusyLine>,
}

impl TileState {
    /// The in-flight transaction on `line`, if any.
    pub fn txn_mut(&mut self, line: LineAddr) -> Option<&mut HomeTxn> {
        self.busy.get_mut(&line).map(|b| &mut b.txn)
    }

    /// The request transaction `line` is serving; panics, naming the
    /// caller's `step`, when there is none.
    #[track_caller]
    pub fn request_mut(&mut self, line: LineAddr, step: &str) -> &mut RequestTxn {
        match self.txn_mut(line) {
            Some(HomeTxn::Request(txn)) => txn,
            _ => unreachable!("{step} without transaction"),
        }
    }
}
