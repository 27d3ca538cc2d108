//! The discrete-event multicore simulator engine.
//!
//! One [`Simulator`] models the full Table-1 machine: in-order cores
//! executing traces, private L1s, distributed shared L2 slices with
//! integrated directories running the locality-aware protocol, the 2-D
//! mesh, and DRAM controllers. Methodology follows Graphite (§4.1):
//! functional execution with analytical timing, laxly synchronized core
//! clocks, and event-ordered interactions through the network.
//!
//! Key structural choices (see DESIGN.md §4 for the protocol walk-through):
//!
//! * **Per-line home serialization**: requests to a busy line queue at the
//!   home tile; queueing time becomes the *L2 cache waiting time* component.
//! * **Blocking cores**: one outstanding miss per core (in-order,
//!   single-issue), which bounds protocol concurrency exactly as in the
//!   evaluated machine.
//! * **FIFO delivery per (src, dst)**: models wormhole XY links and is what
//!   makes eviction-notify/invalidation races resolvable without NACK
//!   retry loops.
//!
//! The engine is split by subsystem (DESIGN.md §2 maps this layout):
//!
//! * [`queue`] — the two-level calendar event queue;
//! * `state` — per-core and per-tile state (L1s, L2 slice, busy lines);
//! * `core_side` — trace execution, instruction fetch, replay, miss
//!   issue and reply handling;
//! * `home_side` — directory transactions, L2 installs/evictions, sharer
//!   responses, grants and queued-request draining;
//! * `l1_side` — remote-initiated L1 actions (invalidations, write-back
//!   requests).

pub mod explore;
pub mod queue;

mod core_side;
mod home_side;
mod l1_side;
mod state;

use std::sync::Arc;

use lacc_cache::{DataRef, DataSlab, LineData, SetAssocCache};
use lacc_core::classifier::RemovalReason;
use lacc_core::home::DirectoryPolicy;
use lacc_core::l1::L1Cache;
use lacc_core::rnuca::{RegionClass, Rnuca};
use lacc_dram::DramSystem;
use lacc_energy::{EnergyCounts, EnergyParams};
use lacc_model::{
    CompletionBreakdown, ConfigError, CoreId, Cycle, LineAddr, LineMap, SystemConfig,
    UtilizationHistogram,
};
use lacc_network::MeshNetwork;

use crate::monitor::CoherenceMonitor;
use crate::msg::{Message, Payload};
use crate::report::{ProtocolStats, SimReport};
use crate::sync::SyncManager;
use crate::trace::Workload;

use explore::{ChoicePlane, FaultInjection};
use queue::CalendarQueue;
use state::{CoreState, TileState};

pub(crate) const INSTR_PER_LINE: u64 = 8; // 64-byte line / 8-byte instruction
pub(crate) const INSTALL_RETRY_CYCLES: Cycle = 32;

/// One scheduled occurrence in the simulation.
#[derive(Debug)]
pub(crate) enum Event {
    /// (Re)start executing a core's trace at the event time.
    CoreStep(usize),
    /// A message arrives at its destination tile.
    Deliver(Message),
    /// The home's L2 tag/data access for a queued transaction completes.
    HomeLookup { tile: usize, line: LineAddr },
}

// Every queued occurrence moves one `Event` through the calendar queue,
// so its size is the hot-path unit of the whole simulation. Payloads
// carry slab handles instead of inline `LineData` (which made `Event`
// 120 bytes); this pins the bound at today's 56 bytes.
const _: () = assert!(std::mem::size_of::<Event>() <= 56);

/// Run-time switches that do not belong to the simulated machine
/// ([`SystemConfig`] describes the machine; this describes the run).
///
/// # Examples
///
/// ```
/// use lacc_sim::SimOptions;
///
/// assert!(SimOptions::default().monitor);
/// let sweep = SimOptions { monitor: false };
/// assert!(!sweep.monitor);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimOptions {
    /// Run the shadow-memory coherence monitor (functional oracle), which
    /// panics on the first coherence violation. Large calibration sweeps
    /// disable it to save the shadow-map traffic.
    pub monitor: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { monitor: true }
    }
}

/// The event queue behind [`Simulator::schedule`]: the calendar queue of
/// a normal run, which yields the `(cycle, push order)` total order, or
/// the model checker's choice plane.
#[derive(Debug)]
pub(crate) enum EventPlane {
    Serial(CalendarQueue<Event>),
    /// The model checker's pending-event set ([`explore`]): every push
    /// lands in an inspectable list, and `Simulator::fire_choice` fires
    /// any *enabled* pending event, in or out of order.
    Choice(ChoicePlane),
}

impl EventPlane {
    #[inline]
    fn push(&mut self, at: Cycle, ev: Event) {
        match self {
            EventPlane::Serial(q) => q.push(at, ev),
            EventPlane::Choice(p) => p.push(at, ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(Cycle, Event)> {
        match self {
            EventPlane::Serial(q) => q.pop(),
            EventPlane::Choice(_) => {
                unreachable!("an exploration simulator fires events through fire_choice")
            }
        }
    }
}

/// The full-system simulator. Construct with [`Simulator::new`] (or
/// [`Simulator::with_options`]), then call [`Simulator::run`].
pub struct Simulator {
    pub(crate) cfg: SystemConfig,
    /// The directory settings built once from `cfg`; every L2 line's
    /// entry shares them.
    pub(crate) dir_policy: Arc<DirectoryPolicy>,
    pub(crate) workload_name: String,
    pub(crate) instr_lines: u64,
    pub(crate) instr_base: LineAddr,
    pub(crate) rnuca: Rnuca,
    pub(crate) net: MeshNetwork,
    pub(crate) dram: DramSystem,
    pub(crate) sync: SyncManager,
    pub(crate) monitor: CoherenceMonitor,
    pub(crate) counts: EnergyCounts,
    pub(crate) energy_params: EnergyParams,
    /// The single home of every line's bytes: resident L1/L2 lines, the
    /// DRAM backing store (`backing` maps a line to its slab handle) and
    /// every data-bearing `Payload` in the event queue all hold refcounted
    /// handles into this slab — grants and DRAM fills alias slots instead
    /// of copying them, writes split shared slots copy-on-write. Invariant
    /// (checked at end of run): once the queue drains, the outstanding
    /// handle count `slab.total_refs()` equals resident L1 + L2 lines +
    /// backing entries — anything more is a leaked handle, anything less a
    /// double release (caught earlier by the slab's generation check).
    ///
    /// Boxed for the host allocator, not for size: the box is a small
    /// allocation made above the tile arrays that lives as long as the
    /// simulator. While the constructor still filled every L2 way up
    /// front (about 75 MB), an unboxed slab let the memory a dropped
    /// simulator freed merge into glibc's heap top, which malloc returned
    /// to the OS and page-faulted back in for the next one, and building
    /// the 42 Table-1 sweep grid points back to back took about twice as
    /// long. With sets allocated on first fill the effect is small:
    /// perfbench `suite_sweep` on a 2-CPU Linux host, 10 interleaved
    /// pairs, `setup_s` median 0.82 s boxed against 0.86 s unboxed
    /// (unboxed faster in 4 pairs, so unresolved) and `peak_rss_mib`
    /// 345.6 against 347.0 MiB (boxed lower in 8 pairs).
    pub(crate) slab: Box<DataSlab>,
    pub(crate) backing: LineMap<DataRef>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) tiles: Vec<TileState>,
    pub(crate) events: EventPlane,
    pub(crate) inval_histogram: UtilizationHistogram,
    pub(crate) evict_histogram: UtilizationHistogram,
    pub(crate) protocol: ProtocolStats,
    pub(crate) active_cores: usize,
    /// Monotone dispatch clock for exploration mode (`explore`): the
    /// maximum cycle any fired event has carried. Out-of-order firing must
    /// never hand a handler a `now` below state timestamps it compares
    /// against (`now - issue_time` etc.). Zero and unused outside
    /// exploration.
    pub(crate) explore_now: Cycle,
    /// The seeded protocol bug this instance injects (`None` in every
    /// normal run; the model checker's mutation harness sets it through
    /// [`Simulator::for_exploration`]).
    pub(crate) fault: Option<FaultInjection>,
    /// Committed (dispatched) events so far — the deterministic tie-break
    /// the monitor stamps into violation records as `seq`.
    pub(crate) committed: u64,
    /// Self-time counters (`LACC_SIM_PROFILE=1`); `None` keeps the event
    /// loop free of timer calls.
    profile: Option<Box<ProfileCounters>>,
}

/// Wall-clock self-time by engine phase, printed at the end of a run
/// when `LACC_SIM_PROFILE=1` (to stderr — stdout stays byte-identical
/// for the determinism diffs). The phases index by [`Event`] kind.
#[derive(Debug, Default)]
struct ProfileCounters {
    /// Nanoseconds inside `EventPlane::pop`.
    pop_ns: u64,
    /// Nanoseconds dispatching [CoreStep, Deliver, HomeLookup].
    phase_ns: [u64; 3],
    /// Events dispatched per phase.
    phase_events: [u64; 3],
}

// The experiment harness (`lacc_experiments::Cli::run_jobs`) dispatches whole
// simulations across worker threads: one thread builds, owns and runs one
// `Simulator`, then sends the `SimReport` back for ordered aggregation.
// These assertions make that isolation story a compile-time guarantee —
// adding an `Rc`, a thread-local handle or a non-`Send` trace source
// anywhere in the simulator breaks the build here, not racily at runtime.
// (`Sync` is deliberately not asserted: nothing shares a live simulator.)
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>();
    assert_send::<SystemConfig>();
    assert_send::<SimOptions>();
    assert_send::<SimReport>();
    assert_send::<Workload>();
};

impl Simulator {
    /// Builds a simulator for `cfg` running `workload` with default
    /// [`SimOptions`] (monitor on, violations panic).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`SystemConfig::validate`], or one
    /// describing a workload/machine mismatch (more traces than cores).
    pub fn new(cfg: SystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        Self::with_options(cfg, workload, SimOptions::default())
    }

    /// Builds a simulator with explicit run-time [`SimOptions`].
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::new`].
    pub fn with_options(
        cfg: SystemConfig,
        workload: Workload,
        options: SimOptions,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if workload.traces.len() > cfg.num_cores {
            return Err(ConfigError::new(format!(
                "workload has {} traces but the machine has {} cores",
                workload.traces.len(),
                cfg.num_cores
            )));
        }
        let mut rnuca = Rnuca::new(cfg.num_cores, cfg.rnuca_cluster);
        for r in &workload.regions {
            rnuca.declare_lines(r.first_line, r.lines, r.class);
        }
        if workload.instr_lines > 0 {
            rnuca.declare_lines(
                workload.instr_base,
                workload.instr_lines,
                RegionClass::Instruction,
            );
        }
        let net = MeshNetwork::new(cfg.num_cores, cfg.hop_router_cycles, cfg.hop_link_cycles);
        let dram = DramSystem::new(
            cfg.num_mem_ctrls,
            cfg.num_cores,
            cfg.dram_latency,
            cfg.dram_bytes_per_cycle,
        );
        let active = workload.active_cores().max(1);
        let mut traces: Vec<Option<_>> = workload.traces.into_iter().map(Some).collect();
        traces.resize_with(cfg.num_cores, || None);

        let cores = traces.into_iter().map(CoreState::new).collect::<Vec<_>>();
        let events = EventPlane::Serial(CalendarQueue::new());

        let tiles = (0..cfg.num_cores)
            .map(|_| TileState {
                l1i: L1Cache::new(&cfg.l1i, cfg.line_bytes),
                l1d: L1Cache::new(&cfg.l1d, cfg.line_bytes),
                l2: SetAssocCache::new(cfg.l2.num_sets(cfg.line_bytes), cfg.l2.associativity),
                busy: LineMap::default(),
            })
            .collect();

        let dir_policy =
            Arc::new(DirectoryPolicy::new(cfg.directory, &cfg.classifier, cfg.num_cores));
        let mut sim = Simulator {
            dir_policy,
            workload_name: workload.name,
            instr_lines: workload.instr_lines,
            instr_base: workload.instr_base,
            rnuca,
            net,
            dram,
            sync: SyncManager::new(active),
            monitor: CoherenceMonitor::new(options.monitor, options.monitor),
            counts: EnergyCounts::default(),
            energy_params: EnergyParams::isca13_11nm(),
            slab: Box::default(),
            backing: LineMap::default(),
            cores,
            tiles,
            events,
            inval_histogram: UtilizationHistogram::new(),
            evict_histogram: UtilizationHistogram::new(),
            protocol: ProtocolStats::default(),
            active_cores: active,
            explore_now: 0,
            fault: None,
            committed: 0,
            profile: (std::env::var("LACC_SIM_PROFILE").as_deref() == Ok("1")).then(Box::default),
            cfg,
        };
        for c in 0..sim.cores.len() {
            if !sim.cores[c].finished {
                sim.schedule(0, Event::CoreStep(c));
            }
        }
        Ok(sim)
    }

    /// Runs to completion and produces the report.
    ///
    /// # Panics
    ///
    /// Panics if the system deadlocks (an event-queue drain while cores are
    /// still blocked or lines still busy) or the data-slab audit finds a
    /// leaked handle — protocol-bug detectors, not user errors.
    pub fn run(mut self) -> SimReport {
        self.event_loop();
        self.finish()
    }

    fn event_loop(&mut self) {
        if self.profile.is_some() {
            self.event_loop_profiled();
            return;
        }
        while let Some((now, ev)) = self.events.pop() {
            self.dispatch(ev, now);
        }
    }

    /// The `LACC_SIM_PROFILE=1` event loop: identical commit order, plus
    /// two monotonic-clock reads per event charged to the pop (event
    /// queue) and dispatch (handler) phases. A separate loop
    /// keeps the hot path timer-free when profiling is off.
    fn event_loop_profiled(&mut self) {
        use std::time::Instant;
        let mut mark = Instant::now();
        while let Some((now, ev)) = self.events.pop() {
            let popped = Instant::now();
            let phase = match &ev {
                Event::CoreStep(_) => 0,
                Event::Deliver(_) => 1,
                Event::HomeLookup { .. } => 2,
            };
            self.dispatch(ev, now);
            let done = Instant::now();
            let p = self.profile.as_mut().expect("profiled loop requires counters");
            p.pop_ns += (popped - mark).as_nanos() as u64;
            p.phase_ns[phase] += (done - popped).as_nanos() as u64;
            p.phase_events[phase] += 1;
            mark = done;
        }
        let p = self.profile.as_mut().expect("profiled loop requires counters");
        p.pop_ns += mark.elapsed().as_nanos() as u64;
    }

    /// Executes one event at dispatch time `now` — the single transition
    /// function both the event loop and the exploration seam
    /// (`Simulator::fire_choice`) drive, so the model checker exercises
    /// exactly the shipping handlers.
    pub(crate) fn dispatch(&mut self, ev: Event, now: Cycle) {
        self.committed += 1;
        self.monitor.set_event_seq(self.committed);
        match ev {
            Event::CoreStep(c) => self.step_core(c, now),
            Event::Deliver(msg) => self.deliver(msg, now),
            Event::HomeLookup { tile, line } => self.home_lookup(tile, line, now),
        }
    }

    /// Post-drain checks — the model checker's quiescence check and slab
    /// audit, run on the drained queue — and report construction.
    fn finish(mut self) -> SimReport {
        if let Some(p) = self.profile.take() {
            // Stderr only — stdout stays byte-identical with profiling on.
            let ms = |ns: u64| ns as f64 / 1e6;
            eprintln!(
                "[lacc-sim-profile] workload={} events={} pop_ms={:.3} \
                 core_step: n={} ms={:.3} deliver: n={} ms={:.3} home_lookup: n={} ms={:.3}",
                self.workload_name,
                self.committed,
                ms(p.pop_ns),
                p.phase_events[0],
                ms(p.phase_ns[0]),
                p.phase_events[1],
                ms(p.phase_ns[1]),
                p.phase_events[2],
                ms(p.phase_ns[2]),
            );
        }
        if let Err(e) = self.check_quiescent() {
            panic!("deadlock: {e}");
        }
        if let Err(e) = self.check_slab_refs() {
            panic!("{e}");
        }
        self.build_report()
    }

    // -- infrastructure ----------------------------------------------------

    pub(crate) fn schedule(&mut self, at: Cycle, ev: Event) {
        self.events.push(at, ev);
    }

    pub(crate) fn send(
        &mut self,
        src: CoreId,
        dst: CoreId,
        line: LineAddr,
        payload: Payload,
        now: Cycle,
    ) {
        let flits = payload.flits();
        let arrival = self.net.unicast(src, dst, flits, now);
        self.schedule(arrival, Event::Deliver(Message { src, dst, line, payload }));
    }

    /// Broadcasts an invalidation of `line` from `home`. The mesh carries
    /// it to every tile (flits, link reservations, contention and the
    /// per-pair FIFO clamp all count every destination), but only a tile
    /// that can act on it gets a `Deliver` event: one whose L1D or L1I
    /// holds the line, or whose core's outstanding miss is to the line
    /// (its grant may still be in flight; FIFO delivery puts the grant
    /// first). Any other tile cannot gain the line before the `Inv`
    /// lands, because the home serializes the line's transactions, so its
    /// `Inv` would find no copy and stay silent. Skipping those events
    /// keeps the `(cycle, push order)` of the rest, and no report changes.
    pub(crate) fn broadcast_inv(&mut self, home: usize, line: LineAddr, back: bool, now: Cycle) {
        let src = CoreId::new(home);
        // Seeded bug (mutation testing): forget the in-flight-grant clause.
        let see_pending = self.fault != Some(FaultInjection::InvFilterIgnoresPendingMiss);
        let arrivals = self.net.broadcast(src, 1, now);
        for (t, &at) in arrivals.iter().enumerate() {
            let tile = &self.tiles[t];
            let pending =
                see_pending && self.cores[t].outstanding.is_some_and(|miss| miss.line == line);
            if !(pending || tile.l1d.holds(line) || tile.l1i.holds(line)) {
                continue;
            }
            let dst = CoreId::new(t);
            let msg = Message { src, dst, line, payload: Payload::Inv { back } };
            self.events.push(at, Event::Deliver(msg));
        }
    }

    pub(crate) fn home_of(&mut self, line: LineAddr, requester: CoreId) -> CoreId {
        self.rnuca.home_for(line, requester)
    }

    // -- message delivery --------------------------------------------------

    fn deliver(&mut self, msg: Message, now: Cycle) {
        match msg.payload {
            Payload::ReadReq { .. } | Payload::WriteReq { .. } => {
                self.home_request_arrival(msg, now);
            }
            Payload::Reply { ann, reply } => {
                self.core_resume(msg.dst.index(), msg.line, ann, reply, now);
            }
            Payload::Inv { back } => {
                self.l1_invalidate(msg.dst.index(), msg.src, msg.line, back, now)
            }
            Payload::InvAck { util, data, back } => {
                let reason = if back {
                    RemovalReason::BackInvalidation
                } else {
                    RemovalReason::Invalidation
                };
                self.home_sharer_gone(msg.dst.index(), msg.src, msg.line, util, data, reason, now);
            }
            Payload::WbReq => self.l1_writeback_req(msg.dst.index(), msg.src, msg.line, now),
            Payload::WbData { data } => {
                self.home_wb_response(msg.dst.index(), msg.src, msg.line, Some(data), now);
            }
            Payload::WbNack => self.home_wb_response(msg.dst.index(), msg.src, msg.line, None, now),
            Payload::EvictNotify { util, data } => {
                let reason = RemovalReason::Eviction;
                self.home_sharer_gone(msg.dst.index(), msg.src, msg.line, util, data, reason, now);
            }
            Payload::DramFetch => {
                let ctrl = self.dram.ctrl_for_line(msg.line);
                debug_assert_eq!(self.dram.tile_of(ctrl), msg.dst);
                let done = self.dram.access(ctrl, self.cfg.line_bytes, now);
                // The reply aliases the backing store's resident slot (a
                // retain, not a copy); a never-written line starts as a
                // fresh zeroed slot.
                let data = match self.backing.get(&msg.line) {
                    Some(&r) => self.slab.retain(r),
                    None => self.slab.alloc(LineData::zeroed()),
                };
                self.send(msg.dst, msg.src, msg.line, Payload::DramData { data }, done);
            }
            Payload::DramData { data } => self.home_dram_data(msg.dst.index(), msg.line, data, now),
            Payload::DramWriteBack { data } => {
                let ctrl = self.dram.ctrl_for_line(msg.line);
                let _ = self.dram.access(ctrl, self.cfg.line_bytes, now);
                // Handle transfer: the message's slot *becomes* the backing
                // entry — no copy, no release/realloc pair.
                if let Some(old) = self.backing.insert(msg.line, data) {
                    self.slab.release(old);
                }
            }
        }
    }

    // -- reporting ----------------------------------------------------------

    fn build_report(self) -> SimReport {
        let mut counts = self.counts;
        let net = self.net.stats();
        counts.router_flits = net.router_flits;
        counts.link_flits = net.link_flits;
        let energy = self.energy_params.charge(&counts);
        let per_core: Vec<CompletionBreakdown> =
            (0..self.active_cores).map(|c| self.cores[c].breakdown).collect();
        let completion_time =
            (0..self.active_cores).map(|c| self.cores[c].clock).max().unwrap_or(0);
        SimReport {
            workload: self.workload_name,
            completion_time,
            breakdown: per_core.iter().copied().sum(),
            per_core,
            energy,
            energy_counts: counts,
            l1d: self.cores.iter().map(|c| c.l1d_stats).sum(),
            l1i: self.cores.iter().map(|c| c.l1i_stats).sum(),
            inval_histogram: self.inval_histogram,
            evict_histogram: self.evict_histogram,
            net,
            dram: self.dram.stats(),
            protocol: self.protocol,
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            monitor: self.monitor.report().clone(),
            slab: self.slab.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{default_instr_base, TraceOp, VecTrace};

    /// Cache arrays cost memory only once lines are filled: a Table-1
    /// machine allocates no L1 or L2 set when it is built.
    #[test]
    fn construction_allocates_no_cache_set() {
        let cfg = SystemConfig::isca13_64core();
        let w = Workload {
            name: "idle".into(),
            traces: (0..64).map(|_| VecTrace::new(vec![TraceOp::Compute(1)])).collect(),
            regions: vec![],
            instr_lines: 4,
            instr_base: default_instr_base(),
        };
        let sim = Simulator::with_options(cfg, w, SimOptions::default()).unwrap();
        assert_eq!(sim.tiles.len(), 64);
        for tile in &sim.tiles {
            assert_eq!(tile.l2.capacity(), 4096, "a Table-1 L2 slice");
            assert_eq!(tile.l2.allocated_sets(), 0);
            assert_eq!(tile.l1d.allocated_sets(), 0);
            assert_eq!(tile.l1i.allocated_sets(), 0);
        }
    }

    /// Classifier settings a directory entry cannot hold fail at
    /// construction, not at the first L2 install.
    #[test]
    fn unholdable_classifier_settings_are_rejected() {
        use lacc_model::config::{MechanismKind, MAX_RAT_LEVELS};
        let idle = || Workload {
            name: "idle".into(),
            traces: vec![VecTrace::new(vec![TraceOp::Compute(1)])],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let base = SystemConfig::small_for_tests(2);
        let mut levels = base.clone();
        levels.classifier.mechanism =
            MechanismKind::RatLevels { levels: MAX_RAT_LEVELS + 1, rat_max: 16 };
        let mut rat_max = base.clone();
        rat_max.classifier.mechanism = MechanismKind::RatLevels { levels: 2, rat_max: 256 };
        for (cfg, what) in
            [(levels, "nRATlevels"), (base.clone().with_pct(300), "pct"), (rat_max, "RATmax")]
        {
            let e = Simulator::new(cfg, idle()).err().expect("rejected");
            assert!(e.to_string().contains(what), "{what}: {e}");
        }
        Simulator::new(base.with_pct(255), idle()).unwrap().run();
    }

    /// Runs a 128-core `small_for_tests` machine, twice the 64 cores of
    /// Table 1 and of every figure, so directory sharer sets hold cores
    /// at index 64 and above. Every core stores and reloads six lines of
    /// its own that share an L2 set, reads a shared 32-line table and
    /// writes one line of it once, and all cores fetch one text segment.
    /// Returns the report and whether, at the end, some L2 line's exact
    /// sharer set holds a core at index 64 or above.
    fn run_128(cfg: SystemConfig) -> (SimReport, bool) {
        use crate::trace::RegionDecl;
        use lacc_model::Addr;
        const CORES: u64 = 128;
        const SHARED: u64 = 0x1000;
        let at = |line: u64, word: u64| Addr::new(line * 64 + word * 8);
        let traces = (0..CORES)
            .map(|c| {
                let mut ops = Vec::new();
                for round in 0..8 {
                    let own = 0x10_0000 + c * 256 + round % 6 * 32;
                    ops.push(TraceOp::Store { addr: at(own, round), value: c * 100 + round });
                    ops.push(TraceOp::Load { addr: at(SHARED + (c * 3 + round * 5) % 32, 0) });
                    ops.push(TraceOp::Compute(3));
                    if c % 8 == round {
                        let line = SHARED + (c + round) % 32;
                        ops.push(TraceOp::Store { addr: at(line, 1), value: c });
                    }
                    ops.push(TraceOp::Load { addr: at(own, 0) });
                }
                VecTrace::new(ops)
            })
            .collect();
        let w = Workload {
            name: "cores128".into(),
            traces,
            regions: vec![RegionDecl {
                first_line: LineAddr::new(SHARED),
                lines: 32,
                class: RegionClass::Shared,
            }],
            instr_lines: 4,
            instr_base: default_instr_base(),
        };
        let mut sim = Simulator::new(cfg, w).expect("valid config");
        sim.event_loop();
        let high = sim.tiles.iter().any(|tile| {
            tile.l2.iter().any(|(_, l2line)| {
                l2line
                    .entry
                    .sharers
                    .known_sharers()
                    .is_some_and(|s| s.iter().any(|c| c.index() >= 64))
            })
        });
        (sim.finish(), high)
    }

    /// Above 64 cores a sharer set reaches its cores at index 64 and up;
    /// the runs under ACKwise_4, the full map and the Complete classifier
    /// are pinned to the counters they had while every sharer set was one
    /// fixed 1024-bit map.
    #[test]
    fn machines_above_64_cores_are_pinned() {
        use lacc_dram::DramStats;
        use lacc_model::config::{DirectoryKind, TrackingKind};
        use lacc_network::NetStats;
        let base = SystemConfig::small_for_tests(128);
        let full_map = SystemConfig { directory: DirectoryKind::FullMap, ..base.clone() };
        let mut complete = base.clone();
        complete.classifier.tracking = TrackingKind::Complete;
        let pinned = [
            (
                "ackwise4",
                base,
                12_872,
                ProtocolStats {
                    line_grants: 2342,
                    upgrades: 2,
                    word_reads: 360,
                    word_writes: 110,
                    promotions: 0,
                    demotions: 934,
                    invalidations_sent: 166,
                    broadcasts: 13,
                    write_backs: 194,
                    evictions: 770,
                    l2_evictions: 577,
                },
                NetStats {
                    unicasts: 6866,
                    broadcasts: 13,
                    router_flits: 282_601,
                    link_flits: 250_768,
                    contention_cycles: 701_198,
                },
                DramStats { accesses: 1761, bytes: 112_704, queue_cycles: 635_687 },
            ),
            (
                "full_map",
                full_map,
                12_791,
                ProtocolStats {
                    line_grants: 2343,
                    upgrades: 2,
                    word_reads: 359,
                    word_writes: 110,
                    promotions: 0,
                    demotions: 935,
                    invalidations_sent: 294,
                    broadcasts: 0,
                    write_backs: 193,
                    evictions: 770,
                    l2_evictions: 577,
                },
                NetStats {
                    unicasts: 7004,
                    broadcasts: 0,
                    router_flits: 281_966,
                    link_flits: 250_009,
                    contention_cycles: 712_460,
                },
                DramStats { accesses: 1761, bytes: 112_704, queue_cycles: 634_863 },
            ),
            (
                "complete",
                complete,
                12_918,
                ProtocolStats {
                    line_grants: 2778,
                    upgrades: 2,
                    word_reads: 20,
                    word_writes: 18,
                    promotions: 0,
                    demotions: 1311,
                    invalidations_sent: 306,
                    broadcasts: 36,
                    write_backs: 263,
                    evictions: 840,
                    l2_evictions: 577,
                },
                NetStats {
                    unicasts: 7482,
                    broadcasts: 36,
                    router_flits: 323_768,
                    link_flits: 287_381,
                    contention_cycles: 772_572,
                },
                DramStats { accesses: 1761, bytes: 112_704, queue_cycles: 507_257 },
            ),
        ];
        for (name, cfg, completion, protocol, net, dram) in pinned {
            let (r, high) = run_128(cfg);
            assert!(high, "{name}: no exact sharer set holds a core above 63");
            assert_eq!(r.monitor.violations, 0, "{name}");
            assert_eq!(r.instructions, 6272, "{name}");
            assert_eq!(r.completion_time, completion, "{name}");
            assert_eq!(r.protocol, protocol, "{name}");
            assert_eq!(r.net, net, "{name}");
            assert_eq!(r.dram, dram, "{name}");
        }
    }
}
