//! Output checks: a digest of every simulation's report, pinned values for
//! the default seed, and the failure count the benchmark reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lacc_sim::SimReport;

use crate::workload::{Kind, Outcome};

/// The seed whose digests are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of the reports at the commit that defined the benchmark:
/// `<workload> <label> <digest>` per line. The sweep's entries hold for
/// every seed; the other workloads' hold for [`DEFAULT_SEED`].
const PINNED: &str = include_str!("../digests.txt");

/// FNV-1a over the simulated results a speed-only change must keep
/// identical: completion time and breakdown, energy, miss statistics,
/// protocol, network and DRAM counters, and the instruction count.
/// Host-side ledgers (slab copies, monitor work) are left out.
pub fn digest(r: &SimReport) -> u64 {
    let mut s = String::new();
    let b = &r.breakdown;
    let _ = write!(
        s,
        "{}|{}|{} {} {} {} {} {}|{}",
        r.workload,
        r.completion_time,
        b.compute,
        b.l1_to_l2,
        b.l2_waiting,
        b.l2_to_sharers,
        b.l2_to_offchip,
        b.synchronization,
        r.instructions
    );
    for (_, e) in r.energy.components() {
        let _ = write!(s, "|{:016x}", e.to_bits());
    }
    for m in [&r.l1d, &r.l1i] {
        let _ = write!(s, "|{} {:?}", m.hits, m.misses);
    }
    let p = &r.protocol;
    let _ = write!(
        s,
        "|{} {} {} {} {} {} {} {} {} {} {}",
        p.line_grants,
        p.upgrades,
        p.word_reads,
        p.word_writes,
        p.promotions,
        p.demotions,
        p.invalidations_sent,
        p.broadcasts,
        p.write_backs,
        p.evictions,
        p.l2_evictions
    );
    let n = &r.net;
    let _ = write!(
        s,
        "|{} {} {} {} {}",
        n.unicasts, n.broadcasts, n.router_flits, n.link_flits, n.contention_cycles
    );
    let d = &r.dram;
    let _ = write!(s, "|{} {} {}", d.accesses, d.bytes, d.queue_cycles);
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned digests that apply to `kind` under `seed`, by label.
fn pinned(kind: Kind, seed: u64) -> Option<BTreeMap<String, u64>> {
    if kind.uses_seed() && seed != DEFAULT_SEED {
        return None;
    }
    let mut map = BTreeMap::new();
    for line in PINNED.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        let (Some(w), Some(label), Some(hex)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if w == kind.name() {
            if let Ok(d) = u64::from_str_radix(hex, 16) {
                map.insert(label.to_string(), d);
            }
        }
    }
    Some(map)
}

/// Checks the outcomes of repeated passes of one workload.
///
/// A simulation fails if it panicked, saw a monitor violation, or its
/// digest differs from the reference: the pinned value where one applies,
/// otherwise the first pass's value. A pinned label with no simulation
/// also counts as a failure.
pub struct Checker {
    pinned: Option<BTreeMap<String, u64>>,
    reference: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    pub fn new(kind: Kind, seed: u64) -> Self {
        Checker {
            pinned: pinned(kind, seed),
            reference: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one pass's outcomes under `context` (named in problems).
    pub fn check(&mut self, context: &str, outcomes: &[Outcome]) {
        let missing: Vec<String> = self
            .pinned
            .iter()
            .flat_map(|p| p.keys())
            .filter(|label| !outcomes.iter().any(|(l, _)| l == *label))
            .cloned()
            .collect();
        for label in missing {
            self.attempted += 1;
            self.fail(format!("{context}: {label}: no simulation for a pinned digest"));
        }
        for (label, res) in outcomes {
            self.attempted += 1;
            let report = match res {
                Ok(r) => r,
                Err(msg) => {
                    self.fail(format!("{context}: {label}: panicked: {msg}"));
                    continue;
                }
            };
            if report.monitor.violations != 0 {
                self.fail(format!(
                    "{context}: {label}: {} monitor violation(s)",
                    report.monitor.violations
                ));
                continue;
            }
            let d = digest(report);
            let expect = match &self.pinned {
                Some(p) => p.get(label).copied(),
                None => self.reference.get(label).copied(),
            };
            match expect {
                Some(e) if e != d => {
                    self.fail(format!("{context}: {label}: digest {d:016x}, expected {e:016x}"));
                }
                None if self.pinned.is_some() => {
                    self.fail(format!("{context}: {label}: digest {d:016x} is not pinned"));
                }
                _ => {
                    self.reference.insert(label.clone(), d);
                }
            }
        }
    }

    /// Records one failed check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Digests seen so far, by label.
    pub fn digests(&self) -> &BTreeMap<String, u64> {
        &self.reference
    }
}
