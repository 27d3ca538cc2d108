//! The model checker's nondeterminism seam.
//!
//! A normal run pops events in the serial `(cycle, push-order)` total
//! order. Exploration mode ([`Simulator::for_exploration`]) replaces the
//! calendar queue with a [`ChoicePlane`] — an inspectable pending-event
//! list — and lets the driver (`lacc_mc`) fire any *enabled* pending
//! event via [`Simulator::fire_choice`]. Enabledness encodes the one
//! ordering guarantee the machine really gives: delivery is FIFO per
//! `(src, dst)` wormhole channel, so only each channel's oldest message
//! is eligible; core steps and home lookups commute freely.
//!
//! The events fired are dispatched through `Simulator::dispatch` — the
//! exact transition function of the shipping engine — so the checker
//! explores the real protocol, not a model of it. Timing is abstracted:
//! every event fires at the monotone `explore_now` clock (the maximum
//! cycle any fired event has carried), which keeps handler-internal
//! subtractions (`now - issue_time`) well-defined on every interleaving.
//!
//! The module also hosts [`Simulator::fingerprint`] (canonical state
//! encoding with symmetry reduction over core permutations),
//! [`Simulator::check_invariants`] (SWMR, data value, directory
//! agreement, slab refcount audit) and [`Simulator::check_quiescent`]
//! — see DESIGN.md §8. A serial run's end-of-run checks are the last
//! two: the quiescence check and the slab audit.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use lacc_cache::DataSlab;
use lacc_core::home::DirectoryEntry;
use lacc_core::l1::L1Cache;
use lacc_core::mesi::{DirState, MesiState};
use lacc_core::sharer::SharerTracker;
use lacc_model::{ConfigError, CoreId, Cycle, LineAddr, SystemConfig};

use crate::monitor::CoherenceMonitor;
use crate::msg::{Message, Payload, Reply};
use crate::report::ProtocolStats;
use crate::trace::{TraceOp, Workload};

use super::state::{Blocked, HomeTxn, Phase};
use super::{Event, EventPlane, Simulator};

/// The pending-event set of an exploration-mode simulator: every
/// scheduled event sits in an inspectable list tagged with its cycle and
/// a global push sequence number. The model checker removes *chosen*
/// entries through `Simulator::fire_choice`.
#[derive(Debug, Default)]
pub struct ChoicePlane {
    /// `(cycle, push sequence, event)` triples in push order.
    pub(crate) pending: Vec<(Cycle, u64, Event)>,
    next_seq: u64,
}

impl ChoicePlane {
    /// An empty plane.
    #[must_use]
    pub fn new() -> Self {
        ChoicePlane::default()
    }

    pub(crate) fn push(&mut self, at: Cycle, ev: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, ev));
    }
}

/// A seeded protocol bug for mutation-testing the model checker
/// (DESIGN.md §8.4). Each variant disables or corrupts one protocol
/// action at its real engine call site; the checker must kill every
/// mutant with an invariant violation or a handler panic on some
/// explored interleaving. Never set in a normal run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultInjection {
    /// The home drops one unicast invalidation from an invalidation round.
    DropInvalidation,
    /// Line grants carry zeroed data instead of the home's resident line.
    StaleGrant,
    /// Invalidation acks no longer decrement the home's pending-ack state.
    SkippedAckDecrement,
    /// Acks clear the *next* core (mod N) from the sharer set, not the
    /// sender.
    WrongSharerClear,
    /// The home retires a transaction while its write-back is in flight.
    PrematureTxnRetire,
    /// The shadow-memory oracle itself records writes one word off.
    MonitorWordSkew,
    /// The broadcast-`Inv` filter drops its in-flight clause: a core whose
    /// grant for the line is still on the wire gets no `Inv`.
    InvFilterIgnoresPendingMiss,
    /// A remote word read is served from the L2 copy without fetching the
    /// exclusive owner's (possibly dirty) data first.
    WordReadSkipsOwnerFetch,
}

impl Simulator {
    /// Builds a simulator in exploration mode: monitor on (recording, not
    /// panicking), serial timing model, and every scheduled event landing
    /// in a [`ChoicePlane`] for the model checker to fire in any enabled
    /// order. `fault` optionally seeds one protocol bug for mutation
    /// testing.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::new`].
    pub fn for_exploration(
        cfg: SystemConfig,
        workload: Workload,
        fault: Option<FaultInjection>,
    ) -> Result<Self, ConfigError> {
        let mut sim = Self::new(cfg, workload)?;
        sim.monitor = CoherenceMonitor::new(true, false);
        let mut plane = ChoicePlane::new();
        while let Some((at, ev)) = sim.events.pop() {
            plane.push(at, ev);
        }
        sim.events = EventPlane::Choice(plane);
        sim.fault = fault;
        if fault == Some(FaultInjection::MonitorWordSkew) {
            sim.monitor.set_word_skew(1);
        }
        Ok(sim)
    }

    fn choice_plane(&self) -> &ChoicePlane {
        match &self.events {
            EventPlane::Choice(p) => p,
            _ => panic!("not an exploration-mode simulator (use for_exploration)"),
        }
    }

    /// Positions (into the pending list) of the enabled events, sorted by
    /// push sequence so choice indices are stable for a given state.
    fn enabled_positions(&self) -> Vec<usize> {
        let plane = self.choice_plane();
        let mut positions = Vec::new();
        // Per-channel FIFO: only the oldest pending message of each
        // (src, dst) pair is deliverable.
        let mut heads: HashMap<(usize, usize), usize> = HashMap::new();
        for (i, (_, seq, ev)) in plane.pending.iter().enumerate() {
            match ev {
                Event::Deliver(m) => match heads.entry((m.src.index(), m.dst.index())) {
                    Entry::Occupied(mut e) => {
                        if plane.pending[*e.get()].1 > *seq {
                            e.insert(i);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(i);
                    }
                },
                Event::CoreStep(_) | Event::HomeLookup { .. } => positions.push(i),
            }
        }
        positions.extend(heads.into_values());
        positions.sort_unstable_by_key(|&i| plane.pending[i].1);
        positions
    }

    /// Number of enabled events in the current state (`0` means the
    /// system has drained — check [`Simulator::check_quiescent`]).
    #[must_use]
    pub fn enabled_count(&self) -> usize {
        self.enabled_positions().len()
    }

    /// Protocol counters accumulated along the current path, so the
    /// checker can report which mechanisms an enumeration reached (an
    /// ACKwise broadcast, for one).
    #[must_use]
    pub fn protocol_stats(&self) -> &ProtocolStats {
        &self.protocol
    }

    /// Human-readable labels of the enabled events; the index into this
    /// list is the choice id [`Simulator::fire_choice`] accepts.
    #[must_use]
    pub fn enabled_choices(&self) -> Vec<String> {
        let plane = self.choice_plane();
        self.enabled_positions()
            .into_iter()
            .map(|i| match &plane.pending[i].2 {
                Event::CoreStep(c) => format!("step core {c}"),
                Event::Deliver(m) => format!(
                    "deliver {} {}->{} line {}",
                    payload_name(&m.payload),
                    m.src,
                    m.dst,
                    m.line
                ),
                Event::HomeLookup { tile, line } => format!("L2 lookup tile {tile} line {line}"),
            })
            .collect()
    }

    /// Fires the `k`-th enabled event (an index into
    /// [`Simulator::enabled_choices`]) through the engine's real
    /// transition function, advancing the monotone exploration clock.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range, and propagates any panic of the
    /// fired handler (protocol-bug detectors: `debug_assert!`,
    /// `unreachable!`, monitor asserts).
    pub fn fire_choice(&mut self, k: usize) {
        let positions = self.enabled_positions();
        let pos = positions[k];
        let EventPlane::Choice(plane) = &mut self.events else {
            unreachable!("enabled_positions checked the plane")
        };
        let (at, _, ev) = plane.pending.remove(pos);
        let mut now = self.explore_now.max(at);
        if let Event::CoreStep(c) = ev {
            // A replaying core re-schedules itself at its own clock; fire
            // at least there so the handler never sees time run backwards.
            now = now.max(self.cores[c].clock);
        }
        self.explore_now = now;
        self.dispatch(ev, now);
    }

    // -- canonical fingerprint ---------------------------------------------

    /// Canonical fingerprint of the architectural state for the visited
    /// set: the minimum encoding over the given core permutations
    /// (`perm[phys] = role`; pass `&[identity]` for no symmetry
    /// reduction). Timing is excluded — clocks, latency attributions,
    /// statistics and LRU stamp *values* (only relative recency is
    /// encoded) — so states differing only in when events fired coincide.
    ///
    /// Permutation soundness requires the exploration conventions:
    /// `rnuca_cluster == 1`, no instruction lines, every touched region
    /// declared `Shared` (homes then depend only on the address), and
    /// only cores with identical scripts permuted.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not in exploration mode or a
    /// permutation's length differs from the core count.
    #[must_use]
    pub fn fingerprint(&self, perms: &[Vec<usize>]) -> Vec<u64> {
        let mut best: Option<Vec<u64>> = None;
        for perm in perms {
            assert_eq!(perm.len(), self.cfg.num_cores, "permutation arity");
            let enc = self.encode_state(perm);
            if best.as_ref().map_or(true, |b| enc < *b) {
                best = Some(enc);
            }
        }
        best.expect("at least one permutation (pass the identity)")
    }

    /// One encoding of the state under `perm` (`perm[phys] = role`).
    fn encode_state(&self, perm: &[usize]) -> Vec<u64> {
        let n = self.cfg.num_cores;
        let mut inv = vec![0usize; n];
        for (phys, &role) in perm.iter().enumerate() {
            inv[role] = phys;
        }
        let mut out = Vec::with_capacity(256);

        // Cores, in role order.
        for &phys in &inv {
            let core = &self.cores[phys];
            out.push(core.ops_consumed);
            out.push(u64::from(core.finished));
            out.push(blocked_tag(core.blocked));
            match core.replay {
                None => out.push(0),
                Some(op) => {
                    out.push(1);
                    encode_op(op, &mut out);
                }
            }
            out.push(u64::from(core.replay_ifetched));
            match core.outstanding {
                None => out.push(0),
                Some(o) => {
                    out.push(1);
                    out.push(o.line.raw());
                    out.push(o.word as u64);
                    out.push(u64::from(o.store.is_some()));
                    out.push(o.store.unwrap_or(0));
                    out.push(u64::from(o.instr));
                }
            }
        }

        // Private L1s, in role order.
        for &phys in &inv {
            encode_l1(&self.tiles[phys].l1i, &self.slab, &mut out);
            encode_l1(&self.tiles[phys].l1d, &self.slab, &mut out);
        }

        // Shared L2 slices and their directory state, in *physical* tile
        // order: under the exploration conventions a line's home tile is
        // a pure function of the address, unaffected by role permutation.
        for tile in &self.tiles {
            for set in 0..tile.l2.num_sets() {
                let mut ways: Vec<_> = tile.l2.iter_set(set).collect();
                ways.sort_unstable_by_key(|&(_, stamp, _)| stamp);
                out.push(ways.len() as u64);
                for (line, _, l2line) in ways {
                    out.push(line.raw());
                    out.push(u64::from(l2line.dirty));
                    out.extend_from_slice(self.slab.get(l2line.data).words());
                    encode_dir_entry(&l2line.entry, &mut out, perm);
                }
            }
        }

        // Busy lines, per tile, sorted by line: the in-flight transaction,
        // then the queued requests in FIFO order.
        for tile in &self.tiles {
            let mut lines: Vec<_> = tile.busy.iter().collect();
            lines.sort_unstable_by_key(|&(l, _)| l.raw());
            out.push(lines.len() as u64);
            for (line, busy) in lines {
                out.push(line.raw());
                match &busy.txn {
                    HomeTxn::Request(t) => {
                        out.push(1);
                        out.push(perm[t.req.core.index()] as u64);
                        out.push(t.req.kind as u64);
                        out.push(t.word as u64);
                        out.push(t.value);
                        out.push(u64::from(t.req.instruction));
                        out.push(u64::from(t.req.hints.set_has_invalid));
                        encode_phase(&t.phase, &mut out, perm);
                    }
                    HomeTxn::Evict(t) => {
                        out.push(2);
                        encode_sharers(&t.sharers, &mut out, perm);
                        out.push(u64::from(t.dirty));
                        out.extend_from_slice(self.slab.get(t.data).words());
                    }
                }
                out.push(busy.queued.len() as u64);
                for (msg, _) in &busy.queued {
                    encode_message(msg, &self.slab, perm, &mut out);
                }
            }
        }

        // DRAM backing store, sorted by line.
        let mut backing: Vec<_> = self.backing.iter().map(|(l, r)| (*l, *r)).collect();
        backing.sort_unstable_by_key(|&(l, _)| l.raw());
        out.push(backing.len() as u64);
        for (line, r) in backing {
            out.push(line.raw());
            out.extend_from_slice(self.slab.get(r).words());
        }

        // Synchronization and the shadow-memory oracle.
        self.sync.encode_state(&mut out, &mut |c| perm[c]);
        self.monitor.encode_shadow(&mut out);

        // Pending events: non-deliveries as a sorted multiset, deliveries
        // grouped per remapped channel in send order (the FIFO order that
        // constrains which is enabled).
        let plane = self.choice_plane();
        let mut others: Vec<[u64; 3]> = Vec::new();
        let mut channels: BTreeMap<(u64, u64), Vec<(u64, &Message)>> = BTreeMap::new();
        for (_, seq, ev) in &plane.pending {
            match ev {
                Event::CoreStep(c) => others.push([0, perm[*c] as u64, 0]),
                Event::HomeLookup { tile, line } => others.push([1, *tile as u64, line.raw()]),
                Event::Deliver(m) => {
                    channels.entry(remap_endpoints(m, perm)).or_default().push((*seq, m));
                }
            }
        }
        others.sort_unstable();
        out.push(others.len() as u64);
        for o in others {
            out.extend_from_slice(&o);
        }
        out.push(channels.len() as u64);
        for ((src, dst), mut msgs) in channels {
            msgs.sort_unstable_by_key(|&(seq, _)| seq);
            out.push(src);
            out.push(dst);
            out.push(msgs.len() as u64);
            for (_, m) in msgs {
                encode_message(m, &self.slab, perm, &mut out);
            }
        }
        out
    }

    // -- invariants --------------------------------------------------------

    /// Checks the four invariant families over the current state: single
    /// writer / multiple readers, data values against the shadow oracle,
    /// directory/sharer-set agreement, and the data-slab refcount audit.
    /// Assumes the exploration conventions (no instruction lines).
    ///
    /// Violations are also recorded through the monitor (so
    /// `MonitorReport::first_violation` carries the line, cycle, core and
    /// kind of the first failure).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        // Writable and readable copies per line across all private L1Ds.
        let mut copies: HashMap<LineAddr, Vec<(usize, MesiState)>> = HashMap::new();
        for (t, tile) in self.tiles.iter().enumerate() {
            if !tile.l1i.is_empty() {
                return Err(format!(
                    "tile {t}: L1I holds lines but the workload has no instruction lines"
                ));
            }
            for set in 0..tile.l1d.num_sets() {
                for (line, _, l) in tile.l1d.iter_set(set) {
                    copies.entry(line).or_default().push((t, l.mesi));
                }
            }
        }

        // SWMR: at most one writable copy, and a writable copy is sole.
        for (&line, holders) in &copies {
            let writable: Vec<usize> =
                holders.iter().filter(|&&(_, m)| m.can_write()).map(|&(c, _)| c).collect();
            if writable.len() > 1 || (writable.len() == 1 && holders.len() > 1) {
                let core = CoreId::new(writable[0]);
                self.monitor.record_swmr_breach(core, line, self.explore_now);
                return Err(format!(
                    "SWMR breach on {line}: writable copy at core {} among copies at {:?}",
                    writable[0],
                    holders.iter().map(|&(c, _)| c).collect::<Vec<_>>()
                ));
            }
        }

        // Directory agreement: every L2 directory entry against the real
        // L1 copies of its line.
        for (t, tile) in self.tiles.iter().enumerate() {
            for (line, l2line) in tile.l2.iter() {
                let entry = &l2line.entry;
                let holders = copies.get(&line).map_or(&[][..], Vec::as_slice);
                match entry.sharers.known_sharers() {
                    Some(set) => {
                        for &(c, _) in holders {
                            if !set.contains(CoreId::new(c)) {
                                return Err(format!(
                                    "directory at tile {t} does not track core {c}'s copy of \
                                     {line} (sharers {set:?})"
                                ));
                            }
                        }
                    }
                    None => {
                        if entry.sharers.count() < holders.len() {
                            return Err(format!(
                                "directory at tile {t} counts {} sharer(s) of {line} but {} \
                                 L1 copies exist",
                                entry.sharers.count(),
                                holders.len()
                            ));
                        }
                    }
                }
                for &(c, m) in holders {
                    if m.can_write() && entry.state != DirState::Exclusive(CoreId::new(c)) {
                        return Err(format!(
                            "core {c} holds {line} in {m:?} but the directory at tile {t} \
                             says {:?}",
                            entry.state
                        ));
                    }
                }
                if let DirState::Exclusive(owner) = entry.state {
                    let consistent = match entry.sharers.known_sharers() {
                        Some(set) => set.len() == 1 && set.contains(owner),
                        None => entry.sharers.count() == 1,
                    };
                    if !consistent {
                        return Err(format!(
                            "directory at tile {t} says {line} is exclusive at {owner} but \
                             tracks {} sharer(s)",
                            entry.sharers.count()
                        ));
                    }
                }
            }
        }

        // Data values: every violation the monitor saw during execution,
        // then a sweep of resident copies against the shadow. L2 content
        // is only checkable when the line is at rest (no writable L1
        // copy, no busy entry, no message touching it).
        let mut to_verify: Vec<(CoreId, LineAddr, usize, u64)> = Vec::new();
        for (t, tile) in self.tiles.iter().enumerate() {
            for set in 0..tile.l1d.num_sets() {
                for (line, _, l) in tile.l1d.iter_set(set) {
                    let words = self.slab.get(l.data).words();
                    for (w, &v) in words.iter().enumerate() {
                        to_verify.push((CoreId::new(t), line, w, v));
                    }
                }
            }
            for (line, l2line) in tile.l2.iter() {
                let at_rest = !matches!(l2line.entry.state, DirState::Exclusive(_))
                    && !tile.busy.contains_key(&line)
                    && !self.line_in_flight(line);
                if at_rest {
                    let words = self.slab.get(l2line.data).words();
                    for (w, &v) in words.iter().enumerate() {
                        to_verify.push((CoreId::new(t), line, w, v));
                    }
                }
            }
        }
        for (core, line, word, value) in to_verify {
            self.monitor.verify_resident(core, line, word, value, self.explore_now);
        }
        if let Some(v) = self.monitor.report().first_violation {
            return Err(v.to_string());
        }

        self.check_slab_refs()
    }

    /// `true` when any pending message or event concerns `line`.
    fn line_in_flight(&self, line: LineAddr) -> bool {
        self.choice_plane().pending.iter().any(|(_, _, ev)| match ev {
            Event::Deliver(m) => m.line == line,
            Event::HomeLookup { line: l, .. } => *l == line,
            Event::CoreStep(_) => false,
        })
    }

    /// The data-slab refcount audit, at any state of the choice plane or
    /// at the end of a serial run: the outstanding handle count must equal
    /// the owners — resident lines, backing entries, data-bearing pending
    /// or queued messages and evict transactions. More is a leaked handle,
    /// fewer an unaccounted owner (a double release panics inside the slab
    /// first).
    pub(crate) fn check_slab_refs(&self) -> Result<(), String> {
        let resident: usize =
            self.tiles.iter().map(|t| t.l1i.len() + t.l1d.len() + t.l2.len()).sum();
        let mut expected = resident + self.backing.len();
        // A serial run is audited once its queue has drained.
        let pending = match &self.events {
            EventPlane::Choice(plane) => &plane.pending[..],
            EventPlane::Serial(_) => &[],
        };
        for (_, _, ev) in pending {
            if let Event::Deliver(m) = ev {
                expected += payload_handles(&m.payload);
            }
        }
        for busy in self.tiles.iter().flat_map(|t| t.busy.values()) {
            for (msg, _) in &busy.queued {
                expected += payload_handles(&msg.payload);
            }
            if matches!(busy.txn, HomeTxn::Evict(_)) {
                expected += 1;
            }
        }
        if self.slab.total_refs() != expected {
            return Err(format!(
                "data-slab audit: {} outstanding handles but {expected} owners",
                self.slab.total_refs()
            ));
        }
        Ok(())
    }

    /// Checks that a state with no enabled events is a proper terminal:
    /// every core finished, no line busy (every transaction retired, no
    /// request queued), nobody blocked on synchronization.
    ///
    /// # Errors
    ///
    /// Returns a description of what is stuck (a deadlock or lost-event
    /// bug).
    pub fn check_quiescent(&self) -> Result<(), String> {
        let stuck: Vec<usize> =
            (0..self.cores.len()).filter(|&c| !self.cores[c].finished).collect();
        if !stuck.is_empty() {
            let states: Vec<_> = stuck.iter().map(|&c| self.cores[c].blocked).collect();
            return Err(format!("cores {stuck:?} never finished (blocked: {states:?})"));
        }
        for (t, tile) in self.tiles.iter().enumerate() {
            if !tile.busy.is_empty() {
                return Err(format!(
                    "tile {t}: {} home transaction(s) never retired",
                    tile.busy.len()
                ));
            }
        }
        if self.sync.blocked_count() != 0 {
            return Err(format!("{} core(s) still blocked on sync", self.sync.blocked_count()));
        }
        Ok(())
    }
}

// -- encoding helpers -------------------------------------------------------

fn blocked_tag(b: Blocked) -> u64 {
    match b {
        Blocked::No => 0,
        Blocked::IFetch => 1,
        Blocked::Data => 2,
        Blocked::Sync => 3,
    }
}

/// Encodes a request's phase with what it holds: the grant and
/// promotion flag once decided, and the acks still awaited.
fn encode_phase(phase: &Phase, out: &mut Vec<u64>, perm: &[usize]) {
    match phase {
        Phase::Lookup => out.push(0),
        Phase::AwaitDram => out.push(1),
        Phase::Installing => out.push(2),
        Phase::AwaitWb { grant, promoted } => {
            out.extend([3, *grant as u64, u64::from(*promoted)]);
        }
        Phase::AwaitAcks { grant, promoted, awaiting } => {
            out.extend([4, *grant as u64, u64::from(*promoted)]);
            encode_sharers(awaiting, out, perm);
        }
    }
}

fn mesi_tag(m: MesiState) -> u64 {
    match m {
        MesiState::Modified => 0,
        MesiState::Exclusive => 1,
        MesiState::Shared => 2,
    }
}

fn encode_op(op: TraceOp, out: &mut Vec<u64>) {
    match op {
        TraceOp::Compute(n) => {
            out.push(0);
            out.push(u64::from(n));
        }
        TraceOp::Load { addr } => {
            out.push(1);
            out.push(addr.raw());
        }
        TraceOp::Store { addr, value } => {
            out.push(2);
            out.push(addr.raw());
            out.push(value);
        }
        TraceOp::Barrier { id } => {
            out.push(3);
            out.push(u64::from(id));
        }
        TraceOp::Acquire { id } => {
            out.push(4);
            out.push(u64::from(id));
        }
        TraceOp::Release { id } => {
            out.push(5);
            out.push(u64::from(id));
        }
    }
}

/// Encodes one L1's valid lines per set in LRU-recency order (stamp
/// *values* are timing; only their order is behavioral).
fn encode_l1(l1: &L1Cache, slab: &DataSlab, out: &mut Vec<u64>) {
    for set in 0..l1.num_sets() {
        let mut ways: Vec<_> = l1.iter_set(set).collect();
        ways.sort_unstable_by_key(|&(_, stamp, _)| stamp);
        out.push(ways.len() as u64);
        for (line, _, l) in ways {
            out.push(line.raw());
            out.push(mesi_tag(l.mesi));
            out.push(u64::from(l.utilization));
            out.extend_from_slice(slab.get(l.data).words());
        }
    }
}

/// Encodes a sharer set (a directory entry's sharers, or the acks a
/// request or an L2 eviction awaits): the remapped identities, sorted, or
/// the bare count after ACKwise overflow.
fn encode_sharers(sharers: &SharerTracker, out: &mut Vec<u64>, perm: &[usize]) {
    match sharers {
        SharerTracker::Exact(set) => {
            out.push(0);
            let mut mapped: Vec<u64> = set.iter().map(|c| perm[c.index()] as u64).collect();
            mapped.sort_unstable();
            out.push(mapped.len() as u64);
            out.extend(mapped);
        }
        SharerTracker::CountOnly(n) => {
            out.push(1);
            out.push(u64::from(*n));
        }
    }
}

fn encode_dir_entry(entry: &DirectoryEntry, out: &mut Vec<u64>, perm: &[usize]) {
    match entry.state {
        DirState::Uncached => out.push(0),
        DirState::Shared => out.push(1),
        DirState::Exclusive(c) => {
            out.push(2);
            out.push(perm[c.index()] as u64);
        }
    }
    encode_sharers(&entry.sharers, out, perm);
    entry.classifier.encode_state(out, &mut |c| perm[c]);
}

/// Remaps a message's endpoints for the fingerprint: the *core-played*
/// endpoint follows the role permutation, the *home/controller-played*
/// endpoint is a physical tile and stays fixed (homes are a pure
/// function of the address under the exploration conventions).
fn remap_endpoints(msg: &Message, perm: &[usize]) -> (u64, u64) {
    let s = msg.src.index();
    let d = msg.dst.index();
    match msg.payload {
        // Core → home.
        Payload::ReadReq { .. }
        | Payload::WriteReq { .. }
        | Payload::InvAck { .. }
        | Payload::WbData { .. }
        | Payload::WbNack
        | Payload::EvictNotify { .. } => (perm[s] as u64, d as u64),
        // Home → core.
        Payload::Reply { .. } | Payload::Inv { .. } | Payload::WbReq => (s as u64, perm[d] as u64),
        // Home ↔ memory controller: both physical.
        Payload::DramFetch | Payload::DramData { .. } | Payload::DramWriteBack { .. } => {
            (s as u64, d as u64)
        }
    }
}

fn encode_message(msg: &Message, slab: &DataSlab, perm: &[usize], out: &mut Vec<u64>) {
    let (src, dst) = remap_endpoints(msg, perm);
    out.push(src);
    out.push(dst);
    out.push(msg.line.raw());
    match &msg.payload {
        Payload::ReadReq { hints, word, instr } => {
            out.push(0);
            out.push(u64::from(hints.set_has_invalid));
            out.push(*word as u64);
            out.push(u64::from(*instr));
        }
        Payload::WriteReq { hints, word, value } => {
            out.push(1);
            out.push(u64::from(hints.set_has_invalid));
            out.push(*word as u64);
            out.push(*value);
        }
        Payload::Reply { reply, .. } => match reply {
            Reply::Line { mesi, data } => {
                out.push(2);
                out.push(mesi_tag(*mesi));
                out.extend_from_slice(slab.get(*data).words());
            }
            Reply::Upgrade => out.push(3),
            Reply::WordRead { value } => {
                out.push(4);
                out.push(*value);
            }
            Reply::WordWrite => out.push(5),
        },
        Payload::Inv { back } => {
            out.push(6);
            out.push(u64::from(*back));
        }
        Payload::InvAck { util, data, back } => {
            out.push(7);
            out.push(u64::from(*util));
            encode_opt_data(*data, slab, out);
            out.push(u64::from(*back));
        }
        Payload::WbReq => out.push(8),
        Payload::WbData { data } => {
            out.push(9);
            encode_opt_data(*data, slab, out);
        }
        Payload::WbNack => out.push(10),
        Payload::EvictNotify { util, data } => {
            out.push(11);
            out.push(u64::from(*util));
            encode_opt_data(*data, slab, out);
        }
        Payload::DramFetch => out.push(12),
        Payload::DramData { data } => {
            out.push(13);
            out.extend_from_slice(slab.get(*data).words());
        }
        Payload::DramWriteBack { data } => {
            out.push(14);
            out.extend_from_slice(slab.get(*data).words());
        }
    }
}

fn encode_opt_data(data: Option<lacc_cache::DataRef>, slab: &DataSlab, out: &mut Vec<u64>) {
    match data {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            out.extend_from_slice(slab.get(r).words());
        }
    }
}

fn payload_name(p: &Payload) -> &'static str {
    match p {
        Payload::ReadReq { .. } => "ReadReq",
        Payload::WriteReq { .. } => "WriteReq",
        Payload::Reply { reply, .. } => match reply {
            Reply::Line { .. } => "GrantLine",
            Reply::Upgrade => "GrantUpgrade",
            Reply::WordRead { .. } => "WordReadReply",
            Reply::WordWrite => "WordWriteAck",
        },
        Payload::Inv { .. } => "Inv",
        Payload::InvAck { .. } => "InvAck",
        Payload::WbReq => "WbReq",
        Payload::WbData { .. } => "WbData",
        Payload::WbNack => "WbNack",
        Payload::EvictNotify { .. } => "EvictNotify",
        Payload::DramFetch => "DramFetch",
        Payload::DramData { .. } => "DramData",
        Payload::DramWriteBack { .. } => "DramWriteBack",
    }
}

/// Live slab handles a queued payload owns (the retain-on-send,
/// consume-on-delivery ledger of `crate::msg`).
fn payload_handles(p: &Payload) -> usize {
    match p {
        Payload::Reply { reply: Reply::Line { .. }, .. }
        | Payload::DramData { .. }
        | Payload::DramWriteBack { .. } => 1,
        Payload::InvAck { data, .. }
        | Payload::WbData { data }
        | Payload::EvictNotify { data, .. } => usize::from(data.is_some()),
        _ => 0,
    }
}
