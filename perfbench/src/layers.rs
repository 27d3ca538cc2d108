//! Per-layer metrics, seen from outside the program: exact counters from
//! `SimReport`, the engine's profile lines from a traced child process,
//! and kernel replays that time each substrate's public entry points.

use std::hint::black_box;
use std::time::Instant;

use lacc_cache::{DataSlab, LineData, SetAssocCache};
use lacc_core::{AccessKind, DirectoryEntry, Grant, HomeRequest, RemovalReason, RequestHints};
use lacc_dram::DramSystem;
use lacc_model::{CoreId, CoreSet, LineAddr, MissClass, SystemConfig};
use lacc_network::MeshNetwork;
use lacc_sim::SimReport;

/// The environment variable that turns on the engine's self-time
/// profile. Only the traced child process ever has it set.
pub const PROFILE_ENV: &str = "LACC_SIM_PROFILE";
/// The prefix of the engine's profile lines on stderr.
const PROFILE_TAG: &str = "[lacc-sim-profile]";

/// One phase of the engine's dispatch: events handled and self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    pub n: u64,
    pub ms: f64,
}

/// The engine's profile, summed over every simulation of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Profile {
    pub runs: u64,
    pub events: u64,
    pub pop_ms: f64,
    pub core_step: Phase,
    pub deliver: Phase,
    pub home_lookup: Phase,
}

impl Profile {
    /// Dispatch self time of all three event kinds.
    pub fn dispatch_ms(&self) -> f64 {
        self.core_step.ms + self.deliver.ms + self.home_lookup.ms
    }
}

/// Sums every `[lacc-sim-profile]` line in `stderr`. `None` when there is
/// no such line, so a later change to how the engine reports its profile
/// leaves the `engine.*` metrics absent instead of failing the run.
///
/// A line reads `events=E ... pop_ms=P core_step: n=N ms=M deliver: ...`:
/// a `name:` token opens a phase and the `n=`/`ms=` after it belong to it.
pub fn parse_profile(stderr: &str) -> Option<Profile> {
    let mut p = Profile::default();
    for line in stderr.lines() {
        let Some(rest) = line.split_once(PROFILE_TAG).map(|(_, r)| r) else { continue };
        p.runs += 1;
        let mut phase: Option<&mut Phase> = None;
        for tok in rest.split_whitespace() {
            if let Some(name) = tok.strip_suffix(':') {
                phase = match name {
                    "core_step" => Some(&mut p.core_step),
                    "deliver" => Some(&mut p.deliver),
                    "home_lookup" => Some(&mut p.home_lookup),
                    _ => None,
                };
                continue;
            }
            let Some((key, value)) = tok.split_once('=') else { continue };
            match (key, phase.as_deref_mut()) {
                ("n", Some(ph)) => ph.n += value.parse::<u64>().unwrap_or(0),
                ("ms", Some(ph)) => ph.ms += value.parse::<f64>().unwrap_or(0.0),
                ("events", _) => p.events += value.parse::<u64>().unwrap_or(0),
                ("pop_ms", _) => p.pop_ms += value.parse::<f64>().unwrap_or(0.0),
                _ => {}
            }
        }
    }
    (p.runs > 0).then_some(p)
}

/// Exact counters summed over a run's reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub instructions: u64,
    pub completion_cycles: u64,
    pub energy_pj: f64,
    pub l2_waiting_cycles: u64,
    pub line_grants: u64,
    pub upgrades: u64,
    pub word_reads: u64,
    pub word_writes: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub invalidations_sent: u64,
    pub broadcasts: u64,
    pub write_backs: u64,
    pub evictions: u64,
    pub l2_evictions: u64,
    pub dir_accesses: u64,
    pub l2_tag_probes: u64,
    pub l1d_hits: u64,
    pub l1d_misses: [u64; 5],
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    pub net_unicasts: u64,
    pub net_broadcasts: u64,
    pub link_flits: u64,
    pub contention_cycles: u64,
    pub dram_accesses: u64,
    pub dram_bytes: u64,
    pub dram_queue_cycles: u64,
    pub slab_allocs: u64,
    pub slab_retains: u64,
    pub slab_releases: u64,
    pub slab_cow_clones: u64,
    pub slab_bytes_copied: u64,
    pub slab_bytes_aliased: u64,
    pub monitor_reads: u64,
    pub monitor_writes: u64,
}

impl Counters {
    pub fn add(&mut self, r: &SimReport) {
        let p = &r.protocol;
        self.instructions += r.instructions;
        self.completion_cycles += r.completion_time;
        self.energy_pj += r.total_energy();
        self.l2_waiting_cycles += r.breakdown.l2_waiting;
        self.line_grants += p.line_grants;
        self.upgrades += p.upgrades;
        self.word_reads += p.word_reads;
        self.word_writes += p.word_writes;
        self.promotions += p.promotions;
        self.demotions += p.demotions;
        self.invalidations_sent += p.invalidations_sent;
        self.broadcasts += p.broadcasts;
        self.write_backs += p.write_backs;
        self.evictions += p.evictions;
        self.l2_evictions += p.l2_evictions;
        self.dir_accesses += r.energy_counts.dir_reads;
        self.l2_tag_probes += r.energy_counts.l2_tag_probes;
        self.l1d_hits += r.l1d.hits;
        for c in MissClass::ALL {
            self.l1d_misses[c.index()] += r.l1d.of(c);
        }
        self.l1i_accesses += r.l1i.total_accesses();
        self.l1i_misses += r.l1i.total_misses();
        self.net_unicasts += r.net.unicasts;
        self.net_broadcasts += r.net.broadcasts;
        self.link_flits += r.net.link_flits;
        self.contention_cycles += r.net.contention_cycles;
        self.dram_accesses += r.dram.accesses;
        self.dram_bytes += r.dram.bytes;
        self.dram_queue_cycles += r.dram.queue_cycles;
        self.slab_allocs += r.slab.allocs;
        self.slab_retains += r.slab.retains;
        self.slab_releases += r.slab.releases;
        self.slab_cow_clones += r.slab.cow_clones;
        self.slab_bytes_copied += r.slab.bytes_copied;
        self.slab_bytes_aliased += r.slab.bytes_aliased;
        self.monitor_reads += r.monitor.reads_checked;
        self.monitor_writes += r.monitor.writes_recorded;
    }

    pub fn l1d_accesses(&self) -> u64 {
        self.l1d_hits + self.l1d_misses.iter().sum::<u64>()
    }

    /// Home requests served at the directory.
    pub fn home_requests(&self) -> u64 {
        self.line_grants + self.upgrades + self.word_reads + self.word_writes
    }

    /// Set-associative array lookups: every L1 access and L2 tag probe.
    pub fn set_assoc_lookups(&self) -> u64 {
        self.l1d_accesses() + self.l1i_accesses + self.l2_tag_probes
    }

    /// Set-associative installs: L1 fills (misses other than word
    /// accesses, which allocate nothing) and L2 fills from DRAM.
    pub fn set_assoc_installs(&self) -> u64 {
        let word = self.l1d_misses[MissClass::Word.index()];
        self.l1d_misses.iter().sum::<u64>() - word + self.l1i_misses + self.dram_accesses
    }
}

/// Host nanoseconds per call of each substrate's public entry points,
/// measured by replaying them outside the simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallCosts {
    pub unicast_ns: f64,
    pub broadcast_ns: f64,
    pub dir_ns: f64,
    /// `SetAssocCache::get_mut` on a resident line.
    pub lookup_ns: f64,
    /// `SetAssocCache::insert` into a full set.
    pub install_ns: f64,
    pub slab_ns: f64,
    pub dram_ns: f64,
}

impl CallCosts {
    /// Mean cost of one set-associative call in `c`'s mix of lookups and
    /// installs.
    pub fn set_assoc_ns(&self, c: &Counters) -> f64 {
        let (lookups, installs) = (c.set_assoc_lookups() as f64, c.set_assoc_installs() as f64);
        (self.lookup_ns * lookups + self.install_ns * installs) / (lookups + installs).max(1.0)
    }
}

/// Time estimates (ms) of each substrate on a run: call cost times the
/// run's exact count of calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Estimates {
    pub dir_ms: f64,
    pub network_ms: f64,
    pub cache_ms: f64,
    pub dram_ms: f64,
}

impl Estimates {
    pub fn new(k: &CallCosts, c: &Counters) -> Self {
        Estimates {
            dir_ms: k.dir_ns * c.dir_accesses as f64 / 1e6,
            network_ms: (k.unicast_ns * c.net_unicasts as f64
                + k.broadcast_ns * c.net_broadcasts as f64)
                / 1e6,
            cache_ms: (k.set_assoc_ns(c) * (c.set_assoc_lookups() + c.set_assoc_installs()) as f64
                + k.slab_ns * (c.slab_retains + c.slab_releases) as f64)
                / 1e6,
            dram_ms: k.dram_ns * c.dram_accesses as f64 / 1e6,
        }
    }

    pub fn total_ms(&self) -> f64 {
        self.dir_ms + self.network_ms + self.cache_ms + self.dram_ms
    }
}

/// A small deterministic generator for kernel inputs (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Batches per kernel; the reported cost is the median batch.
const BATCHES: usize = 5;

/// Times `BATCHES` batches of `calls` calls each and returns the median
/// ns per call.
fn per_call_ns(calls: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy state
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[BATCHES / 2]
}

/// Replays each substrate's public entry points on the Table-1 machine's
/// geometry and measures ns per call.
pub fn call_costs(cfg: &SystemConfig) -> CallCosts {
    let cores = cfg.num_cores as u64;
    let mut rng = Rng(0x5eed_cafe_f00d_0001);

    // Mesh: unicasts between random distinct tiles with the protocol's
    // message sizes (1-2 flit control, 9 flit data); broadcasts from
    // random sources.
    const UNICASTS: usize = 200_000;
    let msgs: Vec<(CoreId, CoreId, usize)> = (0..4096)
        .map(|_| {
            let src = rng.below(cores);
            let dst = (src + 1 + rng.below(cores - 1)) % cores;
            let flits = [1, 1, 2, 9][rng.below(4) as usize];
            (CoreId::new(src as usize), CoreId::new(dst as usize), flits)
        })
        .collect();
    let mut net = MeshNetwork::new(cfg.num_cores, cfg.hop_router_cycles, cfg.hop_link_cycles);
    let mut now = 0u64;
    let unicast_ns = per_call_ns(UNICASTS, || {
        for i in 0..UNICASTS {
            let (s, d, f) = msgs[i % msgs.len()];
            now += 2;
            black_box(net.unicast(s, d, f, now));
        }
    });
    const BROADCASTS: usize = 20_000;
    let mut now = 0u64;
    let broadcast_ns = per_call_ns(BROADCASTS, || {
        for i in 0..BROADCASTS {
            let (s, _, _) = msgs[i % msgs.len()];
            now += 16;
            black_box(net.broadcast(s, 1, now));
        }
    });

    // Directory: one home transaction per call, from `begin_request`
    // through the sharers' responses to `complete_grant`. Each line has a
    // group of six cores (more than ACKwise's four pointers, so overflow
    // and broadcast plans occur), 20% writes, and 10% eviction notifies.
    const LINES: usize = 256;
    const TXNS: usize = 100_000;
    let reqs: Vec<(usize, CoreId, AccessKind, bool)> = (0..8192)
        .map(|_| {
            let line = rng.below(LINES as u64) as usize;
            let core = (line as u64 * 7 + rng.below(6)) % cores;
            let kind = if rng.below(5) == 0 { AccessKind::Write } else { AccessKind::Read };
            (line, CoreId::new(core as usize), kind, rng.below(10) == 0)
        })
        .collect();
    let fresh = || -> Vec<(DirectoryEntry, CoreSet)> {
        (0..LINES)
            .map(|_| {
                (DirectoryEntry::new(cfg.directory, &cfg.classifier, cfg.num_cores), CoreSet::new())
            })
            .collect()
    };
    let mut dir_state = fresh();
    let mut now = 0u64;
    let dir_ns = per_call_ns(TXNS, || {
        for i in 0..TXNS {
            let (line, core, kind, evict) = reqs[i % reqs.len()];
            let (entry, sharers) = &mut dir_state[line];
            now += 20;
            if evict {
                if let Some(victim) = sharers.iter().next() {
                    entry.sharer_response(victim, 1 + (i % 8) as u32, RemovalReason::Eviction);
                    sharers.remove(victim);
                }
            }
            let hints = RequestHints { set_min_last_access: 0, set_has_invalid: true };
            let req = HomeRequest { core, kind, hints, instruction: false };
            let d = entry.begin_request(&req, now);
            if let Some(owner) = d.fetch_from_owner {
                entry.owner_downgraded(owner);
            }
            if d.invalidate.is_some() {
                let keep = (d.grant == Grant::Upgrade).then_some(core);
                for c in sharers.iter().filter(|&c| Some(c) != keep) {
                    entry.sharer_response(c, 1 + (i % 8) as u32, RemovalReason::Invalidation);
                    sharers.remove(c);
                }
            }
            entry.complete_grant(core, d.grant);
            if d.grant.is_private() {
                sharers.insert(core);
            }
            black_box(&d);
        }
    });

    // L2 slice arrays: hits through `get_mut` on resident lines, then
    // `insert` of new lines that evict.
    const PROBES: usize = 200_000;
    let sets = cfg.l2.num_sets(cfg.line_bytes);
    let ways = cfg.l2.associativity;
    let resident = (sets * ways) as u64;
    let mut l2: SetAssocCache<u64> = SetAssocCache::new(sets, ways);
    for l in 0..resident {
        l2.insert(LineAddr::new(l), l);
    }
    let hits: Vec<LineAddr> = (0..4096).map(|_| LineAddr::new(rng.below(resident))).collect();
    let lookup_ns = per_call_ns(PROBES, || {
        for i in 0..PROBES {
            if let Some(m) = l2.get_mut(hits[i % hits.len()]) {
                *m += 1;
            }
        }
    });
    let mut next_line = resident;
    let install_ns = per_call_ns(PROBES, || {
        for _ in 0..PROBES {
            next_line += 1;
            black_box(l2.insert(LineAddr::new(next_line), next_line));
        }
    });

    // Data slab: `retain` then `release` of random live handles.
    const SLAB_PAIRS: usize = 200_000;
    let mut slab = DataSlab::new();
    let handles: Vec<_> = (0..4096).map(|_| slab.alloc(LineData::zeroed())).collect();
    let picks: Vec<usize> = (0..4096).map(|_| rng.below(handles.len() as u64) as usize).collect();
    let slab_ns = per_call_ns(2 * SLAB_PAIRS, || {
        for i in 0..SLAB_PAIRS {
            let r = slab.retain(handles[picks[i % picks.len()]]);
            slab.release(black_box(r));
        }
    });

    // DRAM: line-sized accesses at random lines' controllers.
    const ACCESSES: usize = 200_000;
    let mut dram = DramSystem::new(
        cfg.num_mem_ctrls,
        cfg.num_cores,
        cfg.dram_latency,
        cfg.dram_bytes_per_cycle,
    );
    let ctrls: Vec<_> =
        (0..4096).map(|_| dram.ctrl_for_line(LineAddr::new(rng.next() >> 20))).collect();
    let mut now = 0u64;
    let dram_ns = per_call_ns(ACCESSES, || {
        for i in 0..ACCESSES {
            now += 5;
            black_box(dram.access(ctrls[i % ctrls.len()], cfg.line_bytes, now));
        }
    });

    CallCosts { unicast_ns, broadcast_ns, dir_ns, lookup_ns, install_ns, slab_ns, dram_ns }
}

/// Completion time of the pool's largest-first schedule of `jobs` (wall
/// seconds, in dispatch order) over `workers` threads.
pub fn lpt_makespan(jobs_in_dispatch_order: &[f64], workers: usize) -> f64 {
    let mut free_at = vec![0.0f64; workers.max(1)];
    for &j in jobs_in_dispatch_order {
        let w = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least one worker");
        free_at[w] += j;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_lines_sum_by_phase() {
        let err = "noise\n\
            [lacc-sim-profile] workload=a events=10 windows=0 scans=0 pending=0 pop_ms=1.5 \
            core_step: n=3 ms=0.5 deliver: n=5 ms=2.0 home_lookup: n=2 ms=0.25\n\
            [lacc-sim-profile] workload=b events=4 windows=0 scans=0 pending=0 pop_ms=0.5 \
            core_step: n=1 ms=0.5 deliver: n=2 ms=1.0 home_lookup: n=1 ms=0.75\n";
        let p = parse_profile(err).expect("two profile lines");
        assert_eq!((p.runs, p.events), (2, 14));
        assert_eq!((p.core_step.n, p.deliver.n, p.home_lookup.n), (4, 7, 3));
        assert!((p.pop_ms - 2.0).abs() < 1e-12);
        assert!((p.dispatch_ms() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn missing_profile_is_absent() {
        assert!(parse_profile("no profile here\n").is_none());
    }

    #[test]
    fn lpt_fills_the_least_loaded_worker() {
        assert_eq!(lpt_makespan(&[3.0, 2.0, 2.0, 1.0], 2), 4.0);
        assert_eq!(lpt_makespan(&[3.0, 2.0], 1), 5.0);
    }
}
