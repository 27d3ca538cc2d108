//! Core-side engine: trace execution, instruction fetch, replay, miss
//! issue, and reply handling.
//!
//! Cores are in-order and blocking: a core executes its trace until an L1
//! miss (data or instruction) or a synchronization stall, then parks in a
//! [`Blocked`] state until the reply / release event resumes it. Ops whose
//! local clock has run ahead of the event time are *replayed* — put back
//! and rescheduled at the core's clock — so inter-core interleavings stay
//! event-ordered (the lax synchronization of §4.1).
//!
//! These handlers run through the same `dispatch` under both the serial
//! calendar queue and the model checker's choice plane, so nothing here
//! may depend on which one is driving — only on the event and its
//! dispatch time.

use lacc_core::classifier::RemovalReason;
use lacc_core::l1::StoreOutcome;
use lacc_core::mesi::MesiState;
use lacc_model::{CoreId, Cycle, LineAddr};

use crate::msg::{Message, Payload};
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
            if self.cores[ci].pending_compute > 0 && !self.run_compute(ci, now) {
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

    /// Retires the core's pending compute instructions a line at a time:
    /// the L1I is probed only when the fetch position reaches an I-line
    /// boundary, and every instruction up to the next boundary retires in
    /// one step. `false` when blocked on an I-miss or rescheduled.
    fn run_compute(&mut self, ci: usize, now: Cycle) -> bool {
        while self.cores[ci].pending_compute > 0 {
            let k = self.fetch_instr(ci, self.cores[ci].pending_compute, now);
            if k == 0 {
                return false;
            }
            let core = &mut self.cores[ci];
            core.pending_compute -= k;
            core.clock += Cycle::from(k);
            core.breakdown.compute += Cycle::from(k);
            core.instructions += u64::from(k);
            self.counts.l1i_reads += u64::from(k);
        }
        true
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
            let hit = self.tiles[ci].l1i.load(line, 0, clock, &self.slab).is_some();
            if !hit {
                if clock > now {
                    self.schedule(clock, Event::CoreStep(ci));
                    return 0;
                }
                let miss = self.cores[ci].miss_class.classify(line, false);
                self.cores[ci].l1i_stats.record_miss(miss);
                self.issue_request(
                    ci,
                    Outstanding {
                        line,
                        word: 0,
                        is_store: false,
                        value: 0,
                        issue_time: clock,
                        instr: true,
                    },
                );
                self.cores[ci].blocked = Blocked::IFetch;
                return 0;
            }
            self.cores[ci].l1i_stats.record_hit();
        }
        // At most `INSTR_PER_LINE` remain in the line, so the cast is lossless.
        let k = n.min((INSTR_PER_LINE - offset) as u32);
        self.cores[ci].instr_pos = pos + u64::from(k);
        k
    }

    /// Executes one trace op; `false` when blocked or rescheduled.
    fn exec_op(&mut self, ci: usize, op: TraceOp, now: Cycle) -> bool {
        // Instruction fetch for the op itself (memory ops are instructions
        // too; sync ops are abstract and free).
        if matches!(op, TraceOp::Load { .. } | TraceOp::Store { .. })
            && !self.cores[ci].replay_ifetched
        {
            if self.fetch_instr(ci, 1, now) == 0 {
                self.cores[ci].replay = Some(op);
                return false;
            }
            self.cores[ci].replay_ifetched = true;
            self.cores[ci].instructions += 1;
            self.counts.l1i_reads += 1;
        }

        let done = match op {
            TraceOp::Compute(n) => {
                self.cores[ci].pending_compute = n;
                self.run_compute(ci, now)
            }
            TraceOp::Load { addr } => {
                let line = addr.line();
                let word = addr.word_in_line();
                let clock = self.cores[ci].clock;
                if let Some(v) = self.tiles[ci].l1d.load(line, word, clock, &self.slab) {
                    self.counts.l1d_reads += 1;
                    self.cores[ci].l1d_stats.record_hit();
                    self.cores[ci].clock += 1;
                    self.cores[ci].breakdown.compute += 1;
                    self.monitor.on_read(CoreId::new(ci), line, word, v, clock);
                    true
                } else {
                    if clock > now {
                        self.cores[ci].replay = Some(op);
                        self.schedule(clock, Event::CoreStep(ci));
                        return false;
                    }
                    self.counts.l1d_tag_probes += 1;
                    let miss = self.cores[ci].miss_class.classify(line, false);
                    self.cores[ci].l1d_stats.record_miss(miss);
                    self.issue_request(
                        ci,
                        Outstanding {
                            line,
                            word,
                            is_store: false,
                            value: 0,
                            issue_time: clock,
                            instr: false,
                        },
                    );
                    self.cores[ci].blocked = Blocked::Data;
                    // The op is consumed (its completion happens at reply
                    // delivery); reset the per-op fetch flag.
                    self.cores[ci].replay_ifetched = false;
                    false
                }
            }
            TraceOp::Store { addr, value } => {
                let line = addr.line();
                let word = addr.word_in_line();
                let clock = self.cores[ci].clock;
                match self.tiles[ci].l1d.store(line, word, value, clock, &mut self.slab) {
                    StoreOutcome::Done => {
                        self.counts.l1d_writes += 1;
                        self.cores[ci].l1d_stats.record_hit();
                        self.cores[ci].clock += 1;
                        self.cores[ci].breakdown.compute += 1;
                        self.monitor.on_write(CoreId::new(ci), line, word, value, clock);
                        true
                    }
                    outcome => {
                        if clock > now {
                            self.cores[ci].replay = Some(op);
                            self.schedule(clock, Event::CoreStep(ci));
                            return false;
                        }
                        let upgrade = outcome == StoreOutcome::NeedsUpgrade;
                        self.counts.l1d_tag_probes += 1;
                        let miss = self.cores[ci].miss_class.classify(line, upgrade);
                        self.cores[ci].l1d_stats.record_miss(miss);
                        self.issue_request(
                            ci,
                            Outstanding {
                                line,
                                word,
                                is_store: true,
                                value,
                                issue_time: clock,
                                instr: false,
                            },
                        );
                        self.cores[ci].blocked = Blocked::Data;
                        self.cores[ci].replay_ifetched = false;
                        false
                    }
                }
            }
            TraceOp::Barrier { id } => {
                self.sync_op(ci, op, now, |s, c, t| s.barrier_arrive(id, c, t))
            }
            TraceOp::Acquire { id } => self.sync_op(ci, op, now, |s, c, t| s.acquire(id, c, t)),
            TraceOp::Release { id } => self.sync_op(ci, op, now, |s, c, t| s.release(id, c, t)),
        };
        if done {
            self.cores[ci].replay_ifetched = false;
        }
        done
    }

    fn sync_op(
        &mut self,
        ci: usize,
        op: TraceOp,
        now: Cycle,
        f: impl FnOnce(&mut SyncManager, CoreId, Cycle) -> SyncOutcome,
    ) -> bool {
        let clock = self.cores[ci].clock;
        if clock > now {
            // Re-run the op at the core's local time so sync interleavings
            // are event-ordered. The op has no side effects yet.
            self.cores[ci].replay = Some(op);
            self.schedule(clock, Event::CoreStep(ci));
            return false;
        }
        match f(&mut self.sync, CoreId::new(ci), clock) {
            SyncOutcome::Proceed => true,
            SyncOutcome::Blocked => {
                self.cores[ci].blocked = Blocked::Sync;
                false
            }
            SyncOutcome::Release(list) => {
                let mut self_proceeds = true;
                for (c, t) in list {
                    let idx = c.index();
                    if idx == ci {
                        let core = &mut self.cores[ci];
                        core.breakdown.synchronization += t.saturating_sub(core.clock);
                        core.clock = t;
                        self_proceeds = true;
                    } else {
                        let core = &mut self.cores[idx];
                        core.breakdown.synchronization += t.saturating_sub(core.clock);
                        core.clock = t;
                        core.blocked = Blocked::No;
                        self.schedule(t, Event::CoreStep(idx));
                    }
                }
                self_proceeds
            }
        }
    }

    fn issue_request(&mut self, ci: usize, req: Outstanding) {
        let Outstanding { line, word, is_store, value, issue_time: clock, instr } = req;
        let src = CoreId::new(ci);
        let home = self.home_of(line, src);
        let hints = if instr {
            self.tiles[ci].l1i.hints_for(line)
        } else {
            self.tiles[ci].l1d.hints_for(line)
        };
        let payload = if is_store {
            Payload::WriteReq { hints, word, value }
        } else {
            Payload::ReadReq { hints, word, instr }
        };
        self.cores[ci].outstanding = Some(req);
        self.send(src, home, line, payload, clock);
    }

    /// Handles a home reply: charges the latency breakdown, applies the
    /// grant to the L1 (or records the remote access), and resumes the
    /// core's trace.
    pub(crate) fn core_resume(&mut self, msg: Message, now: Cycle) {
        let ci = msg.dst.index();
        let out = self.cores[ci].outstanding.take().expect("resume without outstanding miss");
        debug_assert_eq!(out.line, msg.line);
        let ann = match &msg.payload {
            Payload::GrantLine { ann, .. }
            | Payload::GrantUpgrade { ann }
            | Payload::WordReadReply { ann, .. }
            | Payload::WordWriteAck { ann } => *ann,
            _ => unreachable!("not a reply"),
        };
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

        match msg.payload {
            Payload::GrantLine { mesi, data, .. } => {
                // The grant's handle transfers into the private L1 — the
                // resident copy is the granted alias. A store-miss grant
                // writes first, through copy-on-write, since the handle
                // usually aliases the home's resident slot.
                let data = if out.is_store {
                    debug_assert_eq!(mesi, MesiState::Modified);
                    let d = self.slab.make_mut(data);
                    self.slab.get_mut(d).set_word(out.word, out.value);
                    self.monitor.on_write(core_id, out.line, out.word, out.value, now);
                    d
                } else {
                    let v = self.slab.get(data).word(out.word);
                    self.monitor.on_read(core_id, out.line, out.word, v, now);
                    data
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
            Payload::GrantUpgrade { .. } => {
                self.tiles[ci].l1d.apply_upgrade(
                    out.line,
                    out.word,
                    out.value,
                    now,
                    &mut self.slab,
                );
                self.counts.l1d_writes += 1;
                self.monitor.on_write(core_id, out.line, out.word, out.value, now);
            }
            Payload::WordReadReply { .. } => {
                self.cores[ci].miss_class.record_remote_access(out.line);
            }
            Payload::WordWriteAck { .. } => {
                self.cores[ci].miss_class.record_remote_access(out.line);
            }
            _ => unreachable!(),
        }
        self.cores[ci].blocked = Blocked::No;
        self.step_core(ci, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SimReport;
    use crate::trace::{default_instr_base, VecTrace, Workload};
    use lacc_model::SystemConfig;

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
            if matches!(&ev, Event::Deliver(m) if matches!(m.payload, Payload::GrantLine { .. })) {
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
}
