//! Core-side engine: trace execution, instruction fetch, misses and
//! replies.
//!
//! Cores are in-order and blocking, with one outstanding miss (§4.1): a
//! core executes its trace until an L1 miss (instruction or data) or a
//! synchronization stall, then parks in a [`Blocked`] state until the
//! reply or release event resumes it. Every miss takes one path,
//! `Simulator::miss`, which sends one request to the line's home, and one
//! [`Reply`] ends it in `Simulator::core_resume`. An op that cannot finish
//! at the event time is put back in the core's one replay slot (a compute
//! run as the instructions it has left) and retried at the core's own
//! clock: its clock ran ahead of the event time, or it blocked on an
//! instruction miss. So inter-core interleavings stay event-ordered (the
//! lax synchronization of §4.1).
//!
//! These handlers run through the same `dispatch` under both the serial
//! calendar queue and the model checker's choice plane, so nothing here
//! may depend on which one is driving — only on the event and its
//! dispatch time.

use lacc_core::classifier::RemovalReason;
use lacc_core::l1::StoreOutcome;
use lacc_core::mesi::MesiState;
use lacc_model::{CoreId, Cycle, LatencyAnnotation, LineAddr};

use crate::msg::{Payload, Reply};
use crate::sync::{SyncManager, SyncOutcome};
use crate::trace::TraceOp;

use super::state::{Blocked, Outstanding};
use super::{Event, Simulator, INSTR_PER_LINE};

impl Simulator {
    pub(crate) fn step_core(&mut self, ci: usize, now: Cycle) {
        loop {
            if self.cores[ci].finished || self.cores[ci].blocked != Blocked::No {
                return;
            }
            let op = match self.cores[ci].replay.take() {
                Some(op) => op,
                None => match self.cores[ci].trace.as_mut().and_then(|src| src.next_op()) {
                    Some(op) => {
                        self.cores[ci].ops_consumed += 1;
                        op
                    }
                    None => {
                        self.cores[ci].finished = true;
                        self.cores[ci].trace = None;
                        return;
                    }
                },
            };
            if !self.exec_op(ci, op, now) {
                return;
            }
        }
    }

    /// Retires up to `n` compute instructions a line at a time: the L1I is
    /// probed only when the fetch position reaches an I-line boundary, and
    /// every instruction up to the next boundary retires in one step.
    /// Returns how many are left: none unless blocked on an I-miss or
    /// rescheduled.
    fn run_compute(&mut self, ci: usize, mut n: u32, now: Cycle) -> u32 {
        while n > 0 {
            let k = self.fetch_instr(ci, n, now);
            if k == 0 {
                break;
            }
            n -= k;
            let core = &mut self.cores[ci];
            core.clock += Cycle::from(k);
            core.breakdown.compute += Cycle::from(k);
            core.instructions += u64::from(k);
            self.counts.l1i_reads += u64::from(k);
        }
        n
    }

    /// Fetches up to `n` (≥ 1) instructions from the I-line at the core's
    /// fetch position (I-cache model): probes the L1I if the position is
    /// at a line boundary and returns how many instructions fetched before
    /// the next boundary. With no instruction footprint every fetch hits
    /// and all `n` return. `0` when blocked on an I-miss or rescheduled to
    /// the core's local clock.
    fn fetch_instr(&mut self, ci: usize, n: u32, now: Cycle) -> u32 {
        if self.instr_lines == 0 {
            return n;
        }
        let pos = self.cores[ci].instr_pos;
        let offset = pos % INSTR_PER_LINE;
        if offset == 0 {
            let line =
                LineAddr::new(self.instr_base.raw() + (pos / INSTR_PER_LINE) % self.instr_lines);
            let clock = self.cores[ci].clock;
            if self.tiles[ci].l1i.load(line, 0, clock, &self.slab).is_none() {
                let out =
                    Outstanding { line, word: 0, store: None, issue_time: clock, instr: true };
                self.miss(ci, out, false, now);
                return 0;
            }
            self.cores[ci].l1i_stats.record_hit();
        }
        // At most `INSTR_PER_LINE` remain in the line, so the cast is lossless.
        let k = n.min((INSTR_PER_LINE - offset) as u32);
        self.cores[ci].instr_pos = pos + u64::from(k);
        k
    }

    /// Executes one trace op; `false` when the core blocked, with the op
    /// consumed by its miss or sync stall, or put back to retry.
    fn exec_op(&mut self, ci: usize, op: TraceOp, now: Cycle) -> bool {
        let (addr, store) = match op {
            TraceOp::Compute(n) => {
                let left = self.run_compute(ci, n, now);
                if left > 0 {
                    self.cores[ci].replay = Some(TraceOp::Compute(left));
                }
                return left == 0;
            }
            TraceOp::Load { addr } => (addr, None),
            TraceOp::Store { addr, value } => (addr, Some(value)),
            TraceOp::Barrier { id } => {
                return self.sync_op(ci, op, now, |s, c, t| s.barrier_arrive(id, c, t))
            }
            TraceOp::Acquire { id } => {
                return self.sync_op(ci, op, now, |s, c, t| s.acquire(id, c, t))
            }
            TraceOp::Release { id } => {
                return self.sync_op(ci, op, now, |s, c, t| s.release(id, c, t))
            }
        };
        // A memory op is an instruction too (sync ops are abstract and
        // free): it is fetched once, before its first L1D access.
        if !self.cores[ci].replay_ifetched {
            if self.fetch_instr(ci, 1, now) == 0 {
                self.cores[ci].replay = Some(op);
                return false;
            }
            self.cores[ci].replay_ifetched = true;
            self.cores[ci].instructions += 1;
            self.counts.l1i_reads += 1;
        }

        let (line, word) = (addr.line(), addr.word_in_line());
        let clock = self.cores[ci].clock;
        // `Some(upgrade)` when the access misses in the L1D.
        let missed = match store {
            None => match self.tiles[ci].l1d.load(line, word, clock, &self.slab) {
                Some(v) => {
                    self.counts.l1d_reads += 1;
                    self.monitor.on_read(CoreId::new(ci), line, word, v, clock);
                    None
                }
                None => Some(false),
            },
            Some(value) => match self.tiles[ci].l1d.store(line, word, value, clock, &mut self.slab)
            {
                StoreOutcome::Done => {
                    self.counts.l1d_writes += 1;
                    self.monitor.on_write(CoreId::new(ci), line, word, value, clock);
                    None
                }
                outcome => Some(outcome == StoreOutcome::NeedsUpgrade),
            },
        };
        let Some(upgrade) = missed else {
            let core = &mut self.cores[ci];
            core.l1d_stats.record_hit();
            core.clock += 1;
            core.breakdown.compute += 1;
            core.replay_ifetched = false;
            return true;
        };
        let out = Outstanding { line, word, store, issue_time: clock, instr: false };
        if self.miss(ci, out, upgrade, now) {
            // The op is consumed: the reply completes it.
            self.cores[ci].replay_ifetched = false;
        } else {
            self.cores[ci].replay = Some(op);
        }
        false
    }

    fn sync_op(
        &mut self,
        ci: usize,
        op: TraceOp,
        now: Cycle,
        f: impl FnOnce(&mut SyncManager, CoreId, Cycle) -> SyncOutcome,
    ) -> bool {
        // Run the op at the core's local time so sync interleavings are
        // event-ordered. The op has no side effects yet.
        if self.wait_for_clock(ci, now) {
            self.cores[ci].replay = Some(op);
            return false;
        }
        match f(&mut self.sync, CoreId::new(ci), self.cores[ci].clock) {
            SyncOutcome::Proceed => true,
            SyncOutcome::Blocked => {
                self.cores[ci].blocked = Blocked::Sync;
                false
            }
            SyncOutcome::Release(list) => {
                // Every released core resumes at its release time; the
                // caller goes on, the others are woken.
                for (c, t) in list {
                    let idx = c.index();
                    let core = &mut self.cores[idx];
                    core.breakdown.synchronization += t.saturating_sub(core.clock);
                    core.clock = t;
                    if idx != ci {
                        core.blocked = Blocked::No;
                        self.schedule(t, Event::CoreStep(idx));
                    }
                }
                true
            }
        }
    }

    /// `true` when the core's local clock has run ahead of `now`: the core
    /// is rescheduled at its clock, where the caller's op retries.
    fn wait_for_clock(&mut self, ci: usize, now: Cycle) -> bool {
        let clock = self.cores[ci].clock;
        if clock > now {
            self.schedule(clock, Event::CoreStep(ci));
        }
        clock > now
    }

    /// Issues `out` as the core's one outstanding miss (an instruction
    /// fetch, a load, or a store; `upgrade` marks a store to a line held
    /// in S): classifies and records it, sends the request to the line's
    /// home and blocks the core until the reply. `false`, with nothing
    /// issued, when the core must first wait for its clock; the caller
    /// then puts its op back.
    fn miss(&mut self, ci: usize, out: Outstanding, upgrade: bool, now: Cycle) -> bool {
        if self.wait_for_clock(ci, now) {
            return false;
        }
        let core = &mut self.cores[ci];
        let class = core.miss_class.classify(out.line, upgrade);
        let (l1, stats) = if out.instr {
            (&self.tiles[ci].l1i, &mut core.l1i_stats)
        } else {
            self.counts.l1d_tag_probes += 1;
            (&self.tiles[ci].l1d, &mut core.l1d_stats)
        };
        stats.record_miss(class);
        let hints = l1.hints_for(out.line);
        let payload = match out.store {
            Some(value) => Payload::WriteReq { hints, word: out.word, value },
            None => Payload::ReadReq { hints, word: out.word, instr: out.instr },
        };
        core.outstanding = Some(out);
        core.blocked = if out.instr { Blocked::IFetch } else { Blocked::Data };
        let src = CoreId::new(ci);
        let home = self.home_of(out.line, src);
        self.send(src, home, out.line, payload, out.issue_time);
        true
    }

    /// Handles the home's `reply` to the core's outstanding miss on
    /// `line`: charges the latency breakdown from `ann`, applies the reply
    /// to the L1 (or records the remote access), and resumes the core's
    /// trace.
    pub(crate) fn core_resume(
        &mut self,
        ci: usize,
        line: LineAddr,
        ann: LatencyAnnotation,
        reply: Reply,
        now: Cycle,
    ) {
        let out = self.cores[ci].outstanding.take().expect("resume without outstanding miss");
        debug_assert_eq!(out.line, line);
        let total = now - out.issue_time;
        let overlap = ann.waiting + ann.sharers + ann.offchip;
        {
            let b = &mut self.cores[ci].breakdown;
            b.l1_to_l2 += total.saturating_sub(overlap);
            b.l2_waiting += ann.waiting;
            b.l2_to_sharers += ann.sharers;
            b.l2_to_offchip += ann.offchip;
        }
        self.cores[ci].clock = now;
        let core_id = CoreId::new(ci);

        match reply {
            Reply::Line { mesi, data } => {
                // The grant's handle transfers into the private L1 — the
                // resident copy is the granted alias. A store-miss grant
                // writes first, through copy-on-write, since the handle
                // usually aliases the home's resident slot.
                let data = match out.store {
                    Some(value) => {
                        debug_assert_eq!(mesi, MesiState::Modified);
                        let d = self.slab.make_mut(data);
                        self.slab.get_mut(d).set_word(out.word, value);
                        self.monitor.on_write(core_id, out.line, out.word, value, now);
                        d
                    }
                    None => {
                        let v = self.slab.get(data).word(out.word);
                        self.monitor.on_read(core_id, out.line, out.word, v, now);
                        data
                    }
                };
                let cache =
                    if out.instr { &mut self.tiles[ci].l1i } else { &mut self.tiles[ci].l1d };
                let victim = cache.install(out.line, mesi, data, now);
                if out.instr {
                    self.counts.l1i_fills += 1;
                } else {
                    self.counts.l1d_fills += 1;
                }
                if let Some(v) = victim {
                    self.cores[ci].miss_class.record_removal(v.line, RemovalReason::Eviction);
                    let vhome = self.home_of(v.line, core_id);
                    // A dirty victim's handle rides the notify; a clean
                    // one is released (its notify is header-only).
                    let data = if v.dirty {
                        Some(v.data)
                    } else {
                        self.slab.release(v.data);
                        None
                    };
                    self.send(
                        core_id,
                        vhome,
                        v.line,
                        Payload::EvictNotify { util: v.utilization, data },
                        now,
                    );
                }
            }
            Reply::Upgrade => {
                let value = out.store.expect("an upgrade answers a store");
                self.tiles[ci].l1d.apply_upgrade(out.line, out.word, value, now, &mut self.slab);
                self.counts.l1d_writes += 1;
                self.monitor.on_write(core_id, out.line, out.word, value, now);
            }
            Reply::WordRead { .. } | Reply::WordWrite => {
                self.cores[ci].miss_class.record_remote_access(out.line);
            }
        }
        self.cores[ci].blocked = Blocked::No;
        self.step_core(ci, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Message;
    use crate::report::SimReport;
    use crate::trace::{default_instr_base, RegionDecl, VecTrace, Workload};
    use lacc_core::rnuca::RegionClass;
    use lacc_model::{Addr, SystemConfig};

    /// One core running `Compute(3), Compute(20)` over an instruction
    /// footprint of `instr_lines` lines, from a cold L1I.
    fn compute_sim(instr_lines: u64) -> Simulator {
        let w = Workload {
            name: "compute-runs".into(),
            traces: vec![VecTrace::new(vec![TraceOp::Compute(3), TraceOp::Compute(20)])],
            regions: vec![],
            instr_lines,
            instr_base: default_instr_base(),
        };
        Simulator::new(SystemConfig::small_for_tests(4), w).expect("valid config")
    }

    /// Runs to the end, returning the report, the `(line, issue cycle)` of
    /// each instruction miss and the cycle each instruction grant landed.
    fn run_observed(mut sim: Simulator) -> (SimReport, Vec<(LineAddr, Cycle)>, Vec<Cycle>) {
        let (mut misses, mut grants) = (Vec::new(), Vec::new());
        while let Some((now, ev)) = sim.events.pop() {
            let line_reply =
                |m: &Message| matches!(m.payload, Payload::Reply { reply: Reply::Line { .. }, .. });
            if matches!(&ev, Event::Deliver(m) if line_reply(m)) {
                grants.push(now);
            }
            sim.dispatch(ev, now);
            if let Some(o) = sim.cores[0].outstanding {
                assert!(o.instr, "the trace has no data accesses");
                if misses.last() != Some(&(o.line, o.issue_time)) {
                    misses.push((o.line, o.issue_time));
                }
            }
        }
        (sim.finish(), misses, grants)
    }

    /// The fetch position walks lines 0, 1, 0 of a two-line footprint
    /// (positions 0, 8 and 16 are the boundaries). Line 0 misses at cycle
    /// 0; its grant at `t1` retires `Compute(3)` and the first five
    /// instructions of `Compute(20)`, reaching position 8 at `t1 + 8`,
    /// ahead of the grant's event time, so the core reschedules itself and
    /// line 1 misses at `t1 + 8`, mid-run. Its grant at `t2` retires eight
    /// instructions, position 16 hits line 0, and the last seven finish
    /// at `t2 + 15`. Each miss is followed by a hit on the refetch.
    #[test]
    fn compute_runs_retire_a_line_at_a_time_across_an_ifetch_miss() {
        let (r, misses, grants) = run_observed(compute_sim(2));
        let base = default_instr_base().raw();
        let [t1, t2] = grants[..] else { panic!("two instruction grants, got {grants:?}") };
        assert_eq!(misses, [(LineAddr::new(base), 0), (LineAddr::new(base + 1), t1 + 8)]);
        assert_eq!(r.instructions, 23);
        assert_eq!(r.breakdown.compute, 23);
        assert_eq!(r.energy_counts.l1i_reads, 23);
        assert_eq!((r.l1i.hits, r.l1i.total_misses()), (3, 2));
        assert_eq!(r.completion_time, t2 + 15);
        assert_eq!(r.monitor.violations, 0);
    }

    /// With no instruction footprint every fetch hits without a probe: the
    /// 23 instructions retire back to back from cycle 0.
    #[test]
    fn compute_runs_without_an_instruction_footprint_retire_whole() {
        let (r, misses, grants) = run_observed(compute_sim(0));
        assert!(misses.is_empty() && grants.is_empty());
        assert_eq!(r.instructions, 23);
        assert_eq!(r.breakdown.compute, 23);
        assert_eq!(r.energy_counts.l1i_reads, 23);
        assert_eq!((r.l1i.hits, r.l1i.total_misses()), (0, 0));
        assert_eq!(r.completion_time, 23);
    }

    /// The first line of the data region the miss-timing trace touches.
    const DATA_BASE: u64 = 0x40;

    /// Word `word` of line `line` of the data region.
    fn addr(line: u64, word: u64) -> Addr {
        Addr::new((DATA_BASE + line) * 64 + word * 8)
    }

    /// Every miss, instruction fetch or data, is issued by an event at the
    /// core's own clock: a core whose clock ran ahead of the event time
    /// (here, after the compute run a grant resumed) waits for a step at
    /// its clock before it sends the request, so a request never leaves
    /// ahead of the event order. The trace interleaves compute runs over
    /// a two-line instruction footprint with loads and stores that miss.
    #[test]
    fn every_miss_is_issued_at_its_own_event_time() {
        let ops = vec![
            TraceOp::Compute(20),
            TraceOp::Load { addr: addr(0, 0) },
            TraceOp::Compute(5),
            TraceOp::Store { addr: addr(1, 2), value: 7 },
            TraceOp::Compute(11),
            TraceOp::Load { addr: addr(2, 1) },
            TraceOp::Store { addr: addr(0, 3), value: 9 },
            TraceOp::Compute(3),
            TraceOp::Load { addr: addr(1, 2) },
        ];
        let w = Workload {
            name: "miss-timing".into(),
            traces: vec![VecTrace::new(ops)],
            regions: vec![RegionDecl {
                first_line: LineAddr::new(DATA_BASE),
                lines: 3,
                class: RegionClass::Shared,
            }],
            instr_lines: 2,
            instr_base: default_instr_base(),
        };
        let mut sim = Simulator::new(SystemConfig::small_for_tests(4), w).expect("valid config");
        let (mut ifetch, mut data, mut waited) = (0, 0, 0);
        while let Some((now, ev)) = sim.events.pop() {
            let before = sim.cores[0].outstanding.map(|o| (o.line, o.issue_time));
            let step = matches!(ev, Event::CoreStep(_));
            sim.dispatch(ev, now);
            let Some(o) = sim.cores[0].outstanding else { continue };
            if before == Some((o.line, o.issue_time)) {
                continue;
            }
            assert_eq!(o.issue_time, now, "miss on {} issued by the event at {now}", o.line);
            if o.instr {
                ifetch += 1;
            } else {
                data += 1;
            }
            waited += usize::from(step && now > 0);
        }
        let r = sim.finish();
        assert_eq!((ifetch, data), (2, 3), "two cold I-lines, three cold data lines");
        assert!(waited > 0, "some miss waited for the core's clock");
        assert_eq!(r.l1d.total_misses(), 3);
        assert_eq!(r.monitor.violations, 0);
    }
}
