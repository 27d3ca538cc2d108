//! Home-side engine: directory transactions, L2 installs and evictions,
//! sharer responses, grants, and queued-request draining.
//!
//! Each line has at most one in-flight transaction per home slice: the
//! line is busy exactly while `TileState::busy` holds its `BusyLine`.
//! Requests that find the line busy queue FIFO in that record, and their
//! queueing time is charged as *L2 cache waiting time*; retiring the
//! transaction starts the oldest of them. The decision kernel itself
//! ([`DirectoryEntry::begin_request`]) is pure and lives in `lacc_core`;
//! this module executes its decisions with real timing.
//!
//! Slab handle lifetimes on this side (DESIGN.md §6.2): an incoming dirty
//! `InvAck`/`EvictNotify`/`WbData` handle is *adopted* as the new resident
//! L2 data (the previous resident handle is released); a `DramData` handle
//! transfers straight into the resident array on install. Outgoing line
//! grants (`Reply::Line`) retain (alias) the resident handle — no bytes
//! move — and `DramWriteBack` transfers the victim's handle to the memory
//! controller. A clean L2 eviction is a pure release.

use std::collections::VecDeque;
use std::sync::Arc;

use lacc_cache::{DataRef, DataSlab, LineData};
use lacc_core::classifier::{RemovalReason, SharerMode};
use lacc_core::home::{AccessKind, DirectoryEntry, Grant, HomeRequest};
use lacc_core::mesi::MesiState;
use lacc_core::sharer::SharerTracker;
use lacc_model::{CoreId, Cycle, LatencyAnnotation, LineAddr};

use crate::msg::{Message, Payload, Reply};

use super::explore::FaultInjection;
use super::state::{BusyLine, EvictTxn, HomeTxn, L2Line, Phase, RequestTxn};
use super::{Event, Simulator, INSTALL_RETRY_CYCLES};

impl Simulator {
    pub(crate) fn home_request_arrival(&mut self, msg: Message, now: Cycle) {
        let tile = msg.dst.index();
        match self.tiles[tile].busy.get_mut(&msg.line) {
            Some(busy) => busy.queued.push_back((msg, now)),
            None => self.start_home_txn(tile, msg, now, VecDeque::new(), now),
        }
    }

    /// Begins serving `msg` on its idle line; `queued` holds the requests
    /// that arrived behind it, oldest first.
    fn start_home_txn(
        &mut self,
        tile: usize,
        msg: Message,
        arrival: Cycle,
        queued: VecDeque<(Message, Cycle)>,
        now: Cycle,
    ) {
        let (kind, hints, word, value, instruction) = match msg.payload {
            Payload::ReadReq { hints, word, instr } => (AccessKind::Read, hints, word, 0, instr),
            Payload::WriteReq { hints, word, value } => {
                (AccessKind::Write, hints, word, value, false)
            }
            _ => unreachable!("only requests start transactions"),
        };
        self.counts.l2_tag_probes += 1;
        self.counts.dir_reads += 1;
        let txn = RequestTxn {
            req: HomeRequest { core: msg.src, kind, hints, instruction },
            word,
            value,
            wait: now - arrival,
            offchip: 0,
            sharers_lat: 0,
            phase: Phase::Lookup,
            phase_start: now,
        };
        let busy = BusyLine { txn: HomeTxn::Request(txn), queued };
        let prev = self.tiles[tile].busy.insert(msg.line, busy);
        debug_assert!(prev.is_none(), "line {} already has an in-flight transaction", msg.line);
        self.schedule(now + self.cfg.l2.latency, Event::HomeLookup { tile, line: msg.line });
    }

    pub(crate) fn home_lookup(&mut self, tile: usize, line: LineAddr, now: Cycle) {
        if self.tiles[tile].l2.contains(line) {
            self.home_decide(tile, line, now);
        } else {
            let home = CoreId::new(tile);
            self.tiles[tile].request_mut(line, "lookup").enter(Phase::AwaitDram, now);
            let ctrl = self.dram.ctrl_for_line(line);
            let ctrl_tile = self.dram.tile_of(ctrl);
            self.send(home, ctrl_tile, line, Payload::DramFetch, now);
        }
    }

    pub(crate) fn home_dram_data(
        &mut self,
        tile: usize,
        line: LineAddr,
        data: DataRef,
        now: Cycle,
    ) {
        let txn = self.tiles[tile].request_mut(line, "DRAM data");
        if matches!(txn.phase, Phase::AwaitDram) {
            txn.offchip += now - txn.phase_start;
            txn.phase = Phase::Installing;
        }
        if let Err(data) = self.install_l2_line(tile, line, data, now) {
            // Every way in the set is protocol-busy; retry shortly. The
            // refused install hands the same handle back — the payload's
            // slot carries over to the retry without its bytes moving.
            let home = CoreId::new(tile);
            self.schedule(
                now + INSTALL_RETRY_CYCLES,
                Event::Deliver(Message {
                    src: home,
                    dst: home,
                    line,
                    payload: Payload::DramData { data },
                }),
            );
            return;
        }
        self.home_decide(tile, line, now);
    }

    /// Installs `data` as the resident L2 line, taking ownership of the
    /// handle. When every way of the set is protocol-busy the install is
    /// refused and the handle comes back in `Err` — the caller retries
    /// with it, untouched.
    fn install_l2_line(
        &mut self,
        tile: usize,
        line: LineAddr,
        data: DataRef,
        now: Cycle,
    ) -> Result<(), DataRef> {
        let entry = DirectoryEntry::with_policy(Arc::clone(&self.dir_policy));
        let fresh = L2Line { dirty: false, data, entry };
        // A victim must not be busy. Query the busy map per candidate
        // (O(1) each) instead of materializing every busy line per install.
        let tile_state = &mut self.tiles[tile];
        let busy = &tile_state.busy;
        let result = tile_state
            .l2
            .try_insert_filtered(line, fresh, |l, _| l != line && !busy.contains_key(&l));
        match result {
            Err(rejected) => Err(rejected.data),
            Ok(victim) => {
                self.counts.l2_line_writes += 1;
                if let Some((vline, vmeta)) = victim {
                    self.spawn_l2_eviction(tile, vline, vmeta, now);
                }
                Ok(())
            }
        }
    }

    fn spawn_l2_eviction(&mut self, tile: usize, vline: LineAddr, vmeta: L2Line, now: Cycle) {
        self.protocol.l2_evictions += 1;
        if vmeta.entry.sharers.is_empty() {
            if vmeta.dirty {
                // Handle transfer: the victim's resident slot rides the
                // write-back message to the memory controller.
                let home = CoreId::new(tile);
                let ctrl_tile = self.dram.tile_of(self.dram.ctrl_for_line(vline));
                self.send(home, ctrl_tile, vline, Payload::DramWriteBack { data: vmeta.data }, now);
            } else {
                // Clean eviction: drop the L2's reference, nothing else.
                self.slab.release(vmeta.data);
            }
        } else {
            // Back-invalidate every private copy; the eviction finishes
            // when none of its sharers is left.
            self.send_invalidations(tile, vline, &vmeta.entry.sharers, true, now);
            // Only the sharers travel on: the evicted entry, classifier
            // records included, is dropped here.
            let txn = HomeTxn::Evict(EvictTxn {
                sharers: vmeta.entry.sharers,
                data: vmeta.data,
                dirty: vmeta.dirty,
            });
            let prev =
                self.tiles[tile].busy.insert(vline, BusyLine { txn, queued: VecDeque::new() });
            debug_assert!(prev.is_none(), "victim {vline} was busy");
        }
    }

    /// Sends one invalidation round for `line` to `sharers`: an `Inv` to
    /// each core of an `Exact` set, in ascending core order, or one
    /// broadcast after ACKwise overflow. `back` marks an L2 eviction's
    /// back-invalidation.
    fn send_invalidations(
        &mut self,
        tile: usize,
        line: LineAddr,
        sharers: &SharerTracker,
        back: bool,
        now: Cycle,
    ) {
        match sharers {
            SharerTracker::Exact(cores) => {
                let home = CoreId::new(tile);
                for c in cores.iter() {
                    self.protocol.invalidations_sent += 1;
                    self.send(home, c, line, Payload::Inv { back }, now);
                }
            }
            SharerTracker::CountOnly(_) => {
                self.protocol.broadcasts += 1;
                self.protocol.invalidations_sent += 1;
                self.broadcast_inv(tile, line, back, now);
            }
        }
    }

    /// Asks the directory how to serve the transaction's request and
    /// starts the one step it needs before the grant: a fetch from the
    /// exclusive owner, an invalidation round, or neither.
    fn home_decide(&mut self, tile: usize, line: LineAddr, now: Cycle) {
        let req = self.tiles[tile].request_mut(line, "decide").req;
        let l2line = self.tiles[tile].l2.get_mut(line).expect("decide on resident line");
        let mut decision = l2line.entry.begin_request(&req, now);
        self.counts.dir_updates += 1;
        // Seeded bug (mutation testing): serve a remote word read from the
        // L2 copy without first fetching the exclusive owner's data.
        if self.fault == Some(FaultInjection::WordReadSkipsOwnerFetch)
            && decision.grant == Grant::WordRead
        {
            decision.fetch_from_owner = None;
        }
        // Read arms may fetch from an owner but never invalidate; write
        // arms invalidate but never fetch. So a write-back response grants
        // at once.
        debug_assert!(
            decision.fetch_from_owner.is_none() || decision.invalidate.is_none(),
            "a decision both fetches and invalidates"
        );
        let (grant, promoted) = (decision.grant, decision.outcome.promoted);
        if let Some(owner) = decision.fetch_from_owner {
            self.tiles[tile]
                .request_mut(line, "decide")
                .enter(Phase::AwaitWb { grant, promoted }, now);
            self.protocol.write_backs += 1;
            self.send(CoreId::new(tile), owner, line, Payload::WbReq, now);
            // Seeded bug (mutation testing): retire the transaction
            // while its write-back is still in flight.
            if self.fault == Some(FaultInjection::PrematureTxnRetire) {
                self.tiles[tile].busy.remove(&line);
            }
        } else if let Some(mut awaiting) = decision.invalidate {
            // Seeded bug (mutation testing): silently drop one of the
            // planned unicast invalidations — neither sent nor awaited.
            if self.fault == Some(FaultInjection::DropInvalidation) {
                if let SharerTracker::Exact(cores) = &mut awaiting {
                    let first = cores.iter().next();
                    if let Some(victim) = first {
                        cores.remove(victim);
                    }
                }
            }
            self.send_invalidations(tile, line, &awaiting, false, now);
            let phase = Phase::AwaitAcks { grant, promoted, awaiting };
            self.tiles[tile].request_mut(line, "decide").enter(phase, now);
        } else {
            self.home_grant(tile, line, grant, promoted, now);
        }
    }

    /// A sharer's copy is gone: an `InvAck` answering an invalidation
    /// (`reason` is `Invalidation`) or a back-invalidation
    /// (`BackInvalidation`), or an `EvictNotify` (`Eviction`). `data` is
    /// `Some` when the copy was dirty; its handle is adopted as the line's
    /// data, so the content never moves by value.
    ///
    /// An L2 eviction in progress removes the responder from the sharers
    /// it awaits, and finishes once none is left; the evicted line has no
    /// directory entry or classifier state to update. Otherwise the
    /// resident line's directory entry drops the sharer, and a request
    /// transaction in `AwaitAcks` counts the response down in its phase
    /// and grants once the last one arrives. A notify that no transaction
    /// awaits is plain directory bookkeeping.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn home_sharer_gone(
        &mut self,
        tile: usize,
        from: CoreId,
        line: LineAddr,
        util: u32,
        data: Option<DataRef>,
        reason: RemovalReason,
        now: Cycle,
    ) {
        let invalidation = reason == RemovalReason::Invalidation;
        if invalidation {
            self.inval_histogram.record(util);
        } else {
            self.evict_histogram.record(util);
        }
        if reason == RemovalReason::Eviction {
            self.protocol.evictions += 1;
        }
        // `Some(done)` while a request transaction collects responses.
        let collecting = match self.tiles[tile].txn_mut(line) {
            Some(HomeTxn::Evict(et)) => {
                et.sharers.remove(from);
                adopt_dirty(&mut self.slab, &mut et.data, &mut et.dirty, data);
                if et.sharers.is_empty() {
                    self.finish_l2_eviction(tile, line, now);
                }
                return;
            }
            Some(HomeTxn::Request(RequestTxn {
                phase: Phase::AwaitAcks { awaiting, .. }, ..
            })) => {
                // Seeded bug (mutation testing): claim the ack was counted
                // without decrementing the awaited set/count.
                let counted =
                    if invalidation && self.fault == Some(FaultInjection::SkippedAckDecrement) {
                        true
                    } else {
                        awaiting.remove(from)
                    };
                debug_assert!(counted || !invalidation, "uncounted inv-ack from {from}");
                Some(counted && awaiting.is_empty())
            }
            _ => {
                debug_assert!(!invalidation, "inv-ack for {line} with no transaction awaiting it");
                None
            }
        };
        let Some(l2line) = self.tiles[tile].l2.peek_mut(line) else {
            debug_assert!(false, "sharer response for non-resident {line}");
            // Consume the handle anyway so a release build cannot leak
            // the slot.
            if let Some(d) = data {
                self.slab.release(d);
            }
            return;
        };
        // Seeded bug (mutation testing): clear the wrong core from the
        // sharer set.
        let gone = if invalidation && self.fault == Some(FaultInjection::WrongSharerClear) {
            CoreId::new((from.index() + 1) % self.cfg.num_cores)
        } else {
            from
        };
        if l2line.entry.sharer_response(gone, util, reason) == Some(SharerMode::Remote) {
            self.protocol.demotions += 1;
        }
        if adopt_dirty(&mut self.slab, &mut l2line.data, &mut l2line.dirty, data) {
            self.counts.l2_line_writes += 1;
        }
        match collecting {
            Some(true) => {
                let txn = self.tiles[tile].request_mut(line, "last ack");
                txn.sharers_lat += now - txn.phase_start;
                let Phase::AwaitAcks { grant, promoted, .. } = txn.phase else {
                    unreachable!("acks collected outside AwaitAcks");
                };
                self.home_grant(tile, line, grant, promoted, now);
            }
            Some(false) => {}
            None => self.counts.dir_updates += 1,
        }
    }

    fn finish_l2_eviction(&mut self, tile: usize, line: LineAddr, now: Cycle) {
        let Some(BusyLine { txn: HomeTxn::Evict(et), queued }) =
            self.tiles[tile].busy.remove(&line)
        else {
            unreachable!();
        };
        if et.dirty {
            let home = CoreId::new(tile);
            let ctrl_tile = self.dram.tile_of(self.dram.ctrl_for_line(line));
            self.send(home, ctrl_tile, line, Payload::DramWriteBack { data: et.data }, now);
        } else {
            self.slab.release(et.data);
        }
        self.start_next_queued(tile, queued, now);
    }

    /// `response` is `None` for a `WbNack`, `Some(None)` for a clean
    /// `WbData` (the owner's copy matched the resident line) and
    /// `Some(Some(handle))` when the downgrade read out dirty data.
    pub(crate) fn home_wb_response(
        &mut self,
        tile: usize,
        owner: CoreId,
        line: LineAddr,
        response: Option<Option<DataRef>>,
        now: Cycle,
    ) {
        let txn = self.tiles[tile].request_mut(line, "write-back response");
        let Phase::AwaitWb { grant, promoted } = txn.phase else {
            unreachable!("write-back response in {:?}", txn.phase);
        };
        txn.sharers_lat += now - txn.phase_start;
        let l2line = self.tiles[tile].l2.peek_mut(line).expect("resident during txn");
        match response {
            Some(data) => {
                l2line.entry.owner_downgraded(owner);
                if adopt_dirty(&mut self.slab, &mut l2line.data, &mut l2line.dirty, data) {
                    self.counts.l2_line_writes += 1;
                }
            }
            None => {
                // Owner evicted; its notify (FIFO-ordered ahead of the
                // nack) already removed it from the sharer set.
                debug_assert_ne!(l2line.entry.state.owner(), Some(owner));
            }
        }
        // A decision that fetches never invalidates (see `home_decide`).
        self.home_grant(tile, line, grant, promoted, now);
    }

    /// Sends the requester `grant` and retires the transaction;
    /// `promoted` is the decision's promotion flag.
    fn home_grant(
        &mut self,
        tile: usize,
        line: LineAddr,
        grant: Grant,
        promoted: bool,
        now: Cycle,
    ) {
        let Some(BusyLine { txn: HomeTxn::Request(txn), queued }) =
            self.tiles[tile].busy.remove(&line)
        else {
            unreachable!("grant without transaction");
        };
        let requester = txn.req.core;
        let ann =
            LatencyAnnotation { waiting: txn.wait, sharers: txn.sharers_lat, offchip: txn.offchip };
        let home = CoreId::new(tile);
        if promoted {
            self.protocol.promotions += 1;
        }
        let reply = {
            let l2line = self.tiles[tile].l2.get_mut(line).expect("resident during txn");
            match grant {
                Grant::LineShared | Grant::LineExclusive | Grant::LineModified => {
                    self.counts.l2_line_reads += 1;
                    self.protocol.line_grants += 1;
                    l2line.entry.complete_grant(requester, grant);
                    let mesi = match grant {
                        Grant::LineShared => MesiState::Shared,
                        Grant::LineExclusive => MesiState::Exclusive,
                        _ => MesiState::Modified,
                    };
                    // Alias the resident slot: the grant ships a second
                    // handle to the same 64 bytes instead of a copy.
                    // Seeded bug (mutation testing): grant stale (zeroed)
                    // data instead of the resident line. Allocating keeps
                    // the slab refcount audit balanced — the bug is purely
                    // a data-value one.
                    let data = if self.fault == Some(FaultInjection::StaleGrant) {
                        self.slab.alloc(LineData::zeroed())
                    } else {
                        self.slab.retain(l2line.data)
                    };
                    Reply::Line { mesi, data }
                }
                Grant::Upgrade => {
                    self.counts.dir_updates += 1;
                    self.protocol.upgrades += 1;
                    l2line.entry.complete_grant(requester, grant);
                    Reply::Upgrade
                }
                Grant::WordRead => {
                    self.counts.l2_word_reads += 1;
                    self.counts.dir_updates += 1;
                    self.protocol.word_reads += 1;
                    l2line.entry.complete_grant(requester, grant);
                    let value = self.slab.get(l2line.data).word(txn.word);
                    self.monitor.on_read(requester, line, txn.word, value, now);
                    Reply::WordRead { value }
                }
                Grant::WordWrite => {
                    self.counts.l2_word_writes += 1;
                    self.counts.dir_updates += 1;
                    self.protocol.word_writes += 1;
                    // The resident slot may be aliased by outstanding S
                    // copies; copy-on-write keeps their view intact.
                    l2line.data = self.slab.make_mut(l2line.data);
                    self.slab.get_mut(l2line.data).set_word(txn.word, txn.value);
                    l2line.dirty = true;
                    l2line.entry.complete_grant(requester, grant);
                    self.monitor.on_write(requester, line, txn.word, txn.value, now);
                    Reply::WordWrite
                }
            }
        };
        self.send(home, requester, line, Payload::Reply { ann, reply }, now);
        self.start_next_queued(tile, queued, now);
    }

    /// Starts the oldest request `queued` behind a retired transaction;
    /// the rest of the queue moves into its record.
    fn start_next_queued(
        &mut self,
        tile: usize,
        mut queued: VecDeque<(Message, Cycle)>,
        now: Cycle,
    ) {
        if let Some((msg, arrival)) = queued.pop_front() {
            self.start_home_txn(tile, msg, arrival, queued, now);
        }
    }
}

/// Adopts a dirty response's handle as `data`, releasing the handle it
/// replaces; `true` if `incoming` carried one.
fn adopt_dirty(
    slab: &mut DataSlab,
    data: &mut DataRef,
    dirty: &mut bool,
    incoming: Option<DataRef>,
) -> bool {
    let Some(d) = incoming else { return false };
    slab.release(std::mem::replace(data, d));
    *dirty = true;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{default_instr_base, RegionDecl, TraceOp, VecTrace, Workload};
    use lacc_cache::LineData;
    use lacc_core::classifier::RequestHints;
    use lacc_core::rnuca::RegionClass;
    use lacc_model::{Addr, SystemConfig};

    fn idle_sim() -> Simulator {
        let w = Workload {
            name: "retry-path".into(),
            traces: vec![],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        Simulator::new(SystemConfig::small_for_tests(4), w).expect("valid config")
    }

    /// A request transaction still in its L2 lookup: enough to make a
    /// line busy without touching the slab.
    fn lookup_in_progress() -> BusyLine {
        let txn = RequestTxn {
            req: HomeRequest {
                core: CoreId::new(1),
                kind: AccessKind::Read,
                hints: RequestHints::default(),
                instruction: false,
            },
            word: 0,
            value: 0,
            wait: 0,
            offchip: 0,
            sharers_lat: 0,
            phase: Phase::Lookup,
            phase_start: 0,
        };
        BusyLine { txn: HomeTxn::Request(txn), queued: VecDeque::new() }
    }

    /// The request transaction `line` is serving, as `(requester, wait)`.
    fn serving(sim: &Simulator, line: LineAddr) -> Option<(CoreId, Cycle)> {
        sim.tiles.iter().find_map(|t| match &t.busy.get(&line)?.txn {
            HomeTxn::Request(r) => Some((r.req.core, r.wait)),
            HomeTxn::Evict(_) => None,
        })
    }

    /// Requests that find their line busy start in arrival order, each
    /// charged the time it queued as L2 waiting time. Four cores load one
    /// line at cycle 0: the first request to arrive makes the line busy,
    /// and the other three queue behind its DRAM fill.
    #[test]
    fn queued_requests_start_in_arrival_order() {
        let line = LineAddr::new(0x40);
        let load = TraceOp::Load { addr: Addr::new(line.raw() * 64) };
        let w = Workload {
            name: "contended-line".into(),
            traces: (0..4).map(|_| VecTrace::new(vec![load])).collect(),
            regions: vec![RegionDecl { first_line: line, lines: 1, class: RegionClass::Shared }],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let mut sim = Simulator::new(SystemConfig::small_for_tests(4), w).expect("valid config");
        let mut arrivals: Vec<(CoreId, Cycle)> = Vec::new();
        let mut starts: Vec<(CoreId, Cycle, Cycle)> = Vec::new();
        while let Some((now, ev)) = sim.events.pop() {
            if let Event::Deliver(m) = &ev {
                if matches!(m.payload, Payload::ReadReq { .. }) && m.line == line {
                    arrivals.push((m.src, now));
                }
            }
            sim.dispatch(ev, now);
            if let Some((core, wait)) = serving(&sim, line) {
                if starts.last().map(|&(c, _, _)| c) != Some(core) {
                    starts.push((core, now, wait));
                }
            }
        }
        assert_eq!(arrivals.len(), 4, "one request per core");
        let order = |v: &[(CoreId, Cycle)]| v.iter().map(|&(c, _)| c).collect::<Vec<_>>();
        let started: Vec<_> = starts.iter().map(|&(c, at, _)| (c, at)).collect();
        assert_eq!(order(&started), order(&arrivals), "transactions start in arrival order");
        for (&(core, start, wait), &(_, arrival)) in starts.iter().zip(&arrivals) {
            assert_eq!(wait, start - arrival, "core {core}: wait is start minus arrival");
        }
        assert!(starts[1..].iter().all(|&(_, _, wait)| wait > 0), "three requests queued");
        let report = sim.finish();
        assert_eq!(report.monitor.violations, 0);
    }

    /// Satellite regression: a refused `install_l2_line` must hand the
    /// incoming `DataRef` back untouched — no slab traffic at all on the
    /// retry path (the old code round-tripped the payload through a
    /// 64-byte `get` copy per retry).
    #[test]
    fn refused_install_returns_the_handle_with_zero_copies() {
        let mut sim = idle_sim();
        let num_sets = sim.tiles[0].l2.num_sets() as u64;
        let assoc = sim.cfg.l2.associativity as u64;
        // Fill one L2 set and mark every resident way protocol-busy, so
        // the install filter refuses them all as victims.
        for i in 0..assoc {
            let resident = LineAddr::new(i * num_sets);
            let data = sim.slab.alloc(LineData::zeroed());
            sim.install_l2_line(0, resident, data, 0).expect("set not yet full");
            sim.tiles[0].busy.insert(resident, lookup_in_progress());
        }
        let incoming = LineAddr::new(assoc * num_sets); // same set, absent
        let data = sim.slab.alloc(LineData::from_words([42; 8]));
        let before = sim.slab.stats();

        let back = sim.install_l2_line(0, incoming, data, 1).expect_err("every way busy");

        assert_eq!(back, data, "the very same handle comes back for the retry");
        assert_eq!(
            sim.slab.stats(),
            before,
            "zero slab traffic on refusal: no copies, retains or releases"
        );
        assert_eq!(sim.slab.get(back).word(0), 42, "payload bytes untouched");

        // Once a way frees up, the retry lands that same handle as the
        // resident line (transfer), evicting the freed way cleanly.
        let freed = LineAddr::new(0);
        sim.tiles[0].busy.remove(&freed);
        let mid = sim.slab.stats();
        sim.install_l2_line(0, incoming, back, 2).expect("retry succeeds");
        assert!(sim.tiles[0].l2.contains(incoming));
        assert_eq!(
            sim.tiles[0].l2.get(incoming).map(|l| l.data),
            Some(back),
            "install is a handle transfer, not a copy"
        );
        let after = sim.slab.stats();
        assert_eq!(after.allocs, mid.allocs, "no new slots on the successful retry");
        assert_eq!(after.bytes_copied, mid.bytes_copied, "no bytes moved on the retry");
        assert_eq!(after.frees, mid.frees + 1, "the clean victim's slot was released");
    }
}
