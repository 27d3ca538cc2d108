//! Per-core and per-tile simulator state.
//!
//! The [`Simulator`](super::Simulator) owns one [`CoreState`] per core
//! (trace cursor, local clock, completion breakdown, miss classifier) and
//! one [`TileState`] per tile (private L1s, the local L2/directory slice,
//! in-flight home transactions and their waiter queues). Everything here
//! is data + small invariant-preserving helpers; the protocol logic that
//! drives it lives in the sibling `core_side`/`home_side`/`l1_side`
//! modules.

use std::collections::VecDeque;

use lacc_cache::{DataRef, SetAssocCache};
use lacc_core::classifier::RequestHints;
use lacc_core::home::{AccessKind, DirectoryEntry, HomeDecision};
use lacc_core::l1::L1Cache;
use lacc_core::miss_class::MissClassifier;
use lacc_model::{CompletionBreakdown, CoreId, CoreSet, Cycle, LineAddr, LineMap, MissStats};

use crate::trace::{TraceOp, TraceSource};

// ---------------------------------------------------------------------------
// Core side
// ---------------------------------------------------------------------------

/// How many ops the engine pulls from a core's source per refill.
const LOCAL_BATCH: usize = 64;

/// A [`TraceSource`] wrapped with a small refill buffer, so the engine's
/// per-op pull consumes batched decodes ([`TraceSource::next_ops`])
/// instead of paying a virtual call and a record decode per op. Pure
/// pass-through semantically: the op sequence is exactly the source's.
pub(crate) struct BatchedSource {
    src: Box<dyn TraceSource>,
    buf: Vec<TraceOp>,
    pos: usize,
}

impl BatchedSource {
    pub fn new(src: Box<dyn TraceSource>) -> Self {
        BatchedSource { src, buf: Vec::with_capacity(LOCAL_BATCH), pos: 0 }
    }
}

impl TraceSource for BatchedSource {
    fn next_op(&mut self) -> Option<TraceOp> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.src.next_ops(&mut self.buf, LOCAL_BATCH) == 0 {
                return None;
            }
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        Some(op)
    }
}

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
    pub is_store: bool,
    pub value: u64,
    pub issue_time: Cycle,
    pub instr: bool,
}

pub(crate) struct CoreState {
    /// The core's trace; `None` once exhausted (or if the core never had
    /// one).
    pub trace: Option<BatchedSource>,
    pub clock: Cycle,
    pub finished: bool,
    pub breakdown: CompletionBreakdown,
    pub miss_class: MissClassifier,
    pub l1d_stats: MissStats,
    pub l1i_stats: MissStats,
    pub pending_compute: u32,
    pub replay: Option<TraceOp>,
    pub replay_ifetched: bool,
    pub blocked: Blocked,
    pub instr_pos: u64,
    pub instructions: u64,
    pub outstanding: Option<Outstanding>,
    /// Ops pulled from the trace so far. The refill buffer in
    /// [`BatchedSource`] makes the raw source position unobservable; this
    /// counter is the architectural trace cursor the model checker
    /// fingerprints.
    pub ops_consumed: u64,
}

impl CoreState {
    pub fn new(trace: Option<Box<dyn TraceSource>>) -> Self {
        CoreState {
            finished: trace.is_none(),
            trace: trace.map(BatchedSource::new),
            clock: 0,
            breakdown: CompletionBreakdown::default(),
            miss_class: MissClassifier::new(),
            l1d_stats: MissStats::default(),
            l1i_stats: MissStats::default(),
            pending_compute: 0,
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

// ---------------------------------------------------------------------------
// Transaction arena
// ---------------------------------------------------------------------------

/// Index of a transaction slot in a [`TxnArena`].
pub(crate) type TxnId = u32;

/// Slot-recycling arena for in-flight home transactions.
///
/// A home slice begins and retires one transaction per miss it serves; with
/// transactions stored directly in a hash map, that is one full
/// [`HomeTxn`]-sized move in and out of the table per miss, plus the map's
/// own churn. The arena keeps fixed-size slots alive for the whole run and
/// recycles them through a LIFO free list: steady-state transaction
/// turnover touches no allocator at all, and the line → transaction map
/// shrinks to 4-byte [`TxnId`] values. Slots are only added when the
/// number of *simultaneously* live transactions exceeds every previous
/// high-water mark (bounded in practice by the blocking-core protocol:
/// one outstanding request per core plus the evictions they spawn).
///
/// [`TxnArena::live`] is the leak-check quantity: when a tile is idle it
/// must be zero, or a transaction was begun and never retired.
pub(crate) struct TxnArena<T> {
    slots: Vec<Option<T>>,
    free: Vec<TxnId>,
}

impl<T> TxnArena<T> {
    /// An arena with `cap` slots pre-created (empty, free-listed).
    pub fn with_capacity(cap: usize) -> Self {
        let mut arena = TxnArena { slots: Vec::with_capacity(cap), free: Vec::with_capacity(cap) };
        for i in 0..cap {
            arena.slots.push(None);
            arena.free.push(i as TxnId);
        }
        // LIFO free list: pop order is ascending slot index.
        arena.free.reverse();
        arena
    }

    /// Stores `txn` in a recycled (or, past the high-water mark, fresh)
    /// slot and returns its id.
    pub fn insert(&mut self, txn: T) -> TxnId {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none(), "free-listed slot occupied");
                self.slots[id as usize] = Some(txn);
                id
            }
            None => {
                let id = TxnId::try_from(self.slots.len()).expect("txn arena exceeds u32 slots");
                self.slots.push(Some(txn));
                id
            }
        }
    }

    /// Shared access to the transaction in slot `id` (invariant checks).
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (stale id).
    pub fn get(&self, id: TxnId) -> &T {
        self.slots[id as usize].as_ref().expect("stale TxnId: slot is vacant")
    }

    /// Mutable access to the transaction in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (stale id).
    pub fn get_mut(&mut self, id: TxnId) -> &mut T {
        self.slots[id as usize].as_mut().expect("stale TxnId: slot is vacant")
    }

    /// Retires the transaction in slot `id`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (double retire).
    pub fn remove(&mut self, id: TxnId) -> T {
        let txn = self.slots[id as usize].take().expect("double retire of TxnId");
        self.free.push(id);
        txn
    }

    /// Number of live transactions.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// The responses a home transaction still waits for: exact identities
/// (unicast rounds) or a bare count (ACKwise broadcast rounds).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Awaiting {
    Set(CoreSet),
    Count(usize),
}

impl Awaiting {
    /// Consumes one expected response from `core`; `false` if the response
    /// was not awaited (stale/over-approximated).
    pub fn note_response(&mut self, core: CoreId) -> bool {
        match self {
            Awaiting::Set(s) => s.remove(core),
            Awaiting::Count(n) => {
                if *n > 0 {
                    *n -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// `true` when every expected response has arrived.
    pub fn done(&self) -> bool {
        match self {
            Awaiting::Set(s) => s.is_empty(),
            Awaiting::Count(n) => *n == 0,
        }
    }
}

/// Phase of an in-flight request transaction (for latency attribution).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    Lookup,
    AwaitDram,
    Installing,
    AwaitWb,
    AwaitAcks,
}

/// A miss request being served by the home tile.
pub(crate) struct RequestTxn {
    pub requester: CoreId,
    pub kind: AccessKind,
    pub hints: RequestHints,
    pub word: usize,
    pub value: u64,
    pub instr: bool,
    pub wait: Cycle,
    pub offchip: Cycle,
    pub sharers_lat: Cycle,
    pub phase: Phase,
    pub phase_start: Cycle,
    pub decision: Option<HomeDecision>,
    pub awaiting: Awaiting,
}

/// An L2 eviction collecting back-invalidation acks. Holds the evicted
/// line's data handle until the acks resolve its fate (DRAM write-back
/// transfer when dirty, release when clean).
pub(crate) struct EvictTxn {
    pub entry: DirectoryEntry,
    pub data: DataRef,
    pub dirty: bool,
    pub awaiting: Awaiting,
}

pub(crate) enum HomeTxn {
    Request(RequestTxn),
    Evict(EvictTxn),
}

/// Per-line FIFO queues of requests that arrived while the line was busy.
///
/// Queueing time becomes the *L2 cache waiting time* completion component,
/// so fairness is an accounting invariant, not just a liveness one: for any
/// line, requests are served in exactly the order they arrived.
pub(crate) struct Waiters<T> {
    map: LineMap<VecDeque<T>>,
}

impl<T> Waiters<T> {
    pub fn new() -> Self {
        Waiters { map: LineMap::default() }
    }

    /// Whether `line` has queued requests.
    pub fn line_busy(&self, line: LineAddr) -> bool {
        self.map.get(&line).is_some_and(|q| !q.is_empty())
    }

    /// Appends a request to `line`'s queue.
    pub fn push(&mut self, line: LineAddr, item: T) {
        self.map.entry(line).or_default().push_back(item);
    }

    /// Pops the oldest queued request for `line`, dropping the queue when
    /// it empties so `line_busy` stays O(1)-accurate.
    pub fn pop(&mut self, line: LineAddr) -> Option<T> {
        let q = self.map.get_mut(&line)?;
        let item = q.pop_front();
        if q.is_empty() {
            self.map.remove(&line);
        }
        item
    }

    /// `true` when no line has queued requests (quiescence checks).
    pub fn is_empty(&self) -> bool {
        self.map.values().all(VecDeque::is_empty)
    }

    /// Iterates every non-empty queue as `(line, queue)` in map order
    /// (callers needing a canonical order sort by line).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &VecDeque<T>)> {
        self.map.iter().map(|(l, q)| (*l, q))
    }
}

/// One tile: the private L1 pair and the local shared-L2 slice with its
/// in-flight transaction table and waiter queues.
///
/// Transactions live in the slot-recycling [`TxnArena`]; `txns` maps a
/// busy line to its arena slot. Use the `txn*` helpers — they keep the
/// map and the arena in lock-step.
pub(crate) struct TileState {
    pub l1i: L1Cache,
    pub l1d: L1Cache,
    pub l2: SetAssocCache<L2Line>,
    pub txns: LineMap<TxnId>,
    pub txn_arena: TxnArena<HomeTxn>,
    pub waiters: Waiters<(crate::msg::Message, Cycle)>,
}

impl TileState {
    /// The in-flight transaction on `line`, if any.
    pub fn txn_mut(&mut self, line: LineAddr) -> Option<&mut HomeTxn> {
        let id = *self.txns.get(&line)?;
        Some(self.txn_arena.get_mut(id))
    }

    /// Begins a transaction on `line` (which must be idle).
    pub fn txn_insert(&mut self, line: LineAddr, txn: HomeTxn) {
        let id = self.txn_arena.insert(txn);
        let prev = self.txns.insert(line, id);
        debug_assert!(prev.is_none(), "line {line} already has an in-flight transaction");
    }

    /// Retires `line`'s transaction, recycling its arena slot.
    pub fn txn_remove(&mut self, line: LineAddr) -> Option<HomeTxn> {
        let id = self.txns.remove(&line)?;
        Some(self.txn_arena.remove(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CoreId {
        CoreId::new(n)
    }

    #[test]
    fn awaiting_set_tracks_identities() {
        let mut a = Awaiting::Set([1, 4].into_iter().map(c).collect());
        assert!(!a.done());
        assert!(a.note_response(c(4)));
        assert!(!a.note_response(c(4)), "double response not awaited");
        assert!(!a.note_response(c(9)), "stranger not awaited");
        assert!(a.note_response(c(1)));
        assert!(a.done());
    }

    #[test]
    fn awaiting_count_saturates() {
        let mut a = Awaiting::Count(2);
        assert!(a.note_response(c(0)));
        assert!(a.note_response(c(0)), "count mode ignores identities");
        assert!(a.done());
        assert!(!a.note_response(c(1)));
    }

    #[test]
    fn txn_arena_recycles_slots() {
        let mut a: TxnArena<&'static str> = TxnArena::with_capacity(2);
        assert_eq!(a.live(), 0);
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!((x, y), (0, 1), "pre-created slots hand out in index order");
        assert_eq!(a.live(), 2);
        let z = a.insert("z"); // past the high-water mark: grows
        assert_eq!(z, 2);
        assert_eq!(a.remove(y), "y");
        assert_eq!(a.insert("y2"), y, "retired slot is recycled, not grown");
        assert_eq!(*a.get_mut(z), "z");
        *a.get_mut(x) = "x2";
        assert_eq!(a.remove(x), "x2");
        assert_eq!(a.remove(z), "z");
        assert_eq!(a.remove(y), "y2");
        assert_eq!(a.live(), 0);
        // Steady-state reuse: a full drain puts every slot back in play.
        let again = a.insert("again");
        assert!(again < 3, "no growth while free slots exist");
    }

    #[test]
    #[should_panic(expected = "stale TxnId")]
    fn txn_arena_stale_id_panics() {
        let mut a: TxnArena<u8> = TxnArena::with_capacity(1);
        let id = a.insert(7);
        a.remove(id);
        let _ = a.get_mut(id);
    }

    #[test]
    fn waiters_fifo_per_line() {
        let mut w: Waiters<u32> = Waiters::new();
        let l = LineAddr::new(7);
        assert!(!w.line_busy(l));
        w.push(l, 1);
        w.push(l, 2);
        assert!(w.line_busy(l));
        assert_eq!(w.pop(l), Some(1));
        assert_eq!(w.pop(l), Some(2));
        assert_eq!(w.pop(l), None);
        assert!(!w.line_busy(l));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// FIFO fairness under contention: with arbitrary interleavings of
        /// arrivals and drains across many contended lines, every line
        /// serves its requests in exact arrival order and no request is
        /// lost or duplicated (matches a per-line VecDeque reference
        /// model).
        #[test]
        fn waiters_match_reference_queues(
            ops in proptest::collection::vec((0u64..8, proptest::bool::ANY), 1..300)
        ) {
            let mut w: Waiters<usize> = Waiters::new();
            let mut model: std::collections::BTreeMap<u64, VecDeque<usize>> =
                std::collections::BTreeMap::new();
            for (ticket, (line, push)) in ops.into_iter().enumerate() {
                let l = LineAddr::new(line);
                if push {
                    w.push(l, ticket);
                    model.entry(line).or_default().push_back(ticket);
                } else {
                    prop_assert_eq!(w.pop(l), model.entry(line).or_default().pop_front());
                }
                prop_assert_eq!(
                    w.line_busy(l),
                    !model.entry(line).or_default().is_empty()
                );
            }
            // Drain: remaining arrivals come out in arrival order.
            for (line, q) in model {
                let l = LineAddr::new(line);
                for expect in q {
                    prop_assert_eq!(w.pop(l), Some(expect));
                }
                prop_assert_eq!(w.pop(l), None);
            }
        }
    }
}
