//! # lacc_mc — exhaustive small-config model checking of the protocol core
//!
//! Enumerates **every reachable interleaving** of tiny configurations
//! (2–3 cores, 1–2 shared lines) of the real simulator — the checker
//! drives `Simulator::fire_choice`, which dispatches through the exact
//! transition functions of the shipping engine — and asserts the four
//! invariant families of DESIGN.md §8 at every state:
//!
//! 1. **SWMR** — at most one writable L1 copy of a line, and a writable
//!    copy is the only copy;
//! 2. **data value** — every read returned the last serialized write, and
//!    every at-rest resident copy matches the shadow oracle;
//! 3. **directory agreement** — the home's sharer tracking covers the
//!    real L1 copies and its exclusive-owner claim is accurate;
//! 4. **slab audit** — refcounted data handles balance their owners at
//!    every state, not just at end of run.
//!
//! Terminal states additionally satisfy **quiescence**: all cores
//! finished, no busy home line (live transaction or queued request), no
//! blocked core.
//!
//! State deduplication uses a canonical fingerprint with symmetry
//! reduction over interchangeable cores (`Simulator::fingerprint`).
//! The checker itself is validated by mutation testing
//! ([`run_mutation`]): eight seeded protocol bugs (the
//! [`FaultInjection`] variants) must each be killed with a replayable
//! counterexample.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lacc_core::rnuca::RegionClass;
use lacc_model::config::DirectoryKind;
use lacc_model::{Addr, LineAddr, SystemConfig};
use lacc_sim::trace::{default_instr_base, RegionDecl, TraceOp, VecTrace, Workload};
use lacc_sim::{FaultInjection, Simulator};

/// First line of the shared region the scenarios touch.
pub const LINE_A: u64 = 0x40;
/// Second shared line (the two-line scenarios).
pub const LINE_B: u64 = 0x41;

fn word_addr(line: u64, word: u64) -> Addr {
    Addr::new(line * 64 + word * 8)
}

fn load(line: u64) -> TraceOp {
    TraceOp::Load { addr: word_addr(line, 0) }
}

fn store(line: u64, value: u64) -> TraceOp {
    TraceOp::Store { addr: word_addr(line, 0), value }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// A small workload the checker enumerates exhaustively.
///
/// Symmetry-reduction soundness (see `Simulator::fingerprint`) requires
/// every touched region to be declared [`RegionClass::Shared`] (homes
/// then depend only on the address) and `sym_groups` to list only cores
/// with **identical** scripts, store values included.
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Machine size the scenario is built for.
    pub cores: usize,
    /// Distinct shared lines the scripts touch.
    pub lines: u64,
    /// Groups of interchangeable (identical-script) cores.
    pub sym_groups: Vec<Vec<usize>>,
    /// Builds a fresh workload (the checker replays from the root, so
    /// this is called once per explored state).
    pub build: fn() -> Workload,
}

fn workload(name: &str, lines: u64, scripts: Vec<Vec<TraceOp>>) -> Workload {
    Workload {
        name: name.into(),
        traces: scripts.into_iter().map(VecTrace::new).collect(),
        regions: vec![RegionDecl {
            first_line: LineAddr::new(LINE_A),
            lines,
            class: RegionClass::Shared,
        }],
        instr_lines: 0,
        instr_base: default_instr_base(),
    }
}

/// The scenario registry: every named small workload the checker knows.
#[must_use]
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "ping_pong",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || {
                workload(
                    "ping_pong",
                    1,
                    vec![
                        vec![store(LINE_A, 1), load(LINE_A)],
                        vec![store(LINE_A, 2), load(LINE_A)],
                    ],
                )
            },
        },
        Scenario {
            name: "reader_writer",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || {
                workload("reader_writer", 1, vec![vec![load(LINE_A)], vec![store(LINE_A, 9)]])
            },
        },
        Scenario {
            name: "upgrade_race",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || {
                workload(
                    "upgrade_race",
                    1,
                    vec![
                        vec![load(LINE_A), store(LINE_A, 3)],
                        vec![load(LINE_A), store(LINE_A, 4)],
                    ],
                )
            },
        },
        Scenario {
            name: "symmetric_writers",
            cores: 2,
            lines: 1,
            sym_groups: vec![vec![0, 1]],
            build: || {
                workload(
                    "symmetric_writers",
                    1,
                    vec![
                        vec![store(LINE_A, 5), load(LINE_A)],
                        vec![store(LINE_A, 5), load(LINE_A)],
                    ],
                )
            },
        },
        Scenario {
            name: "barrier_handoff",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || {
                workload(
                    "barrier_handoff",
                    1,
                    vec![
                        vec![store(LINE_A, 7), TraceOp::Barrier { id: 0 }],
                        vec![TraceOp::Barrier { id: 0 }, load(LINE_A)],
                    ],
                )
            },
        },
        // A read, a barrier, then the paper's own mechanism: core 1's
        // store invalidates core 0's one-access copy, which under `pct4`
        // demotes core 0 to a remote sharer, so its re-read and store are
        // word accesses at the home (`pct1` keeps it private).
        Scenario {
            name: "demote_then_reread",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || {
                workload(
                    "demote_then_reread",
                    1,
                    vec![
                        vec![
                            load(LINE_A),
                            TraceOp::Barrier { id: 0 },
                            load(LINE_A),
                            store(LINE_A, 6),
                        ],
                        vec![TraceOp::Barrier { id: 0 }, store(LINE_A, 8)],
                    ],
                )
            },
        },
        Scenario {
            name: "two_lines",
            cores: 2,
            lines: 2,
            sym_groups: vec![],
            build: || {
                workload(
                    "two_lines",
                    2,
                    vec![
                        vec![store(LINE_A, 1), load(LINE_B)],
                        vec![store(LINE_B, 2), load(LINE_A)],
                    ],
                )
            },
        },
        // Two readers fill an ACKwise_1 directory past its one pointer;
        // the third core's store must then broadcast. With no barrier, a
        // reader's grant can still be on the wire when the store is
        // decided, which the broadcast filter must cover.
        Scenario {
            name: "readers_then_writer",
            cores: 3,
            lines: 1,
            sym_groups: vec![vec![0, 1]],
            build: || {
                workload(
                    "readers_then_writer",
                    1,
                    vec![vec![load(LINE_A)], vec![load(LINE_A)], vec![store(LINE_A, 3)]],
                )
            },
        },
        // The same overflow reached by an upgrade, with the third core
        // idle: the broadcast's `Inv` to the bystander tile is filtered
        // out, since that tile neither holds the line nor waits on it.
        Scenario {
            name: "upgrade_bystander",
            cores: 3,
            lines: 1,
            sym_groups: vec![],
            build: || {
                workload(
                    "upgrade_bystander",
                    1,
                    vec![vec![load(LINE_A), store(LINE_A, 4)], vec![load(LINE_A)]],
                )
            },
        },
        Scenario {
            name: "three_core_mix",
            cores: 3,
            lines: 1,
            sym_groups: vec![vec![1, 2]],
            build: || {
                workload(
                    "three_core_mix",
                    1,
                    vec![vec![store(LINE_A, 1)], vec![load(LINE_A)], vec![load(LINE_A)]],
                )
            },
        },
    ]
}

/// The registered scenario called `name`.
fn scenario(name: &str) -> Scenario {
    scenarios().into_iter().find(|s| s.name == name).expect("registered scenario")
}

/// The directory/classifier configurations each scenario runs under:
/// full-map and ACKwise_1 directories, each in a mostly-private
/// (`pct = 1`) and a remote-then-promoted (`pct = 4`) classifier mode.
#[must_use]
pub fn config_matrix(cores: usize) -> Vec<(String, SystemConfig)> {
    let mut out = Vec::new();
    for (dname, dir) in
        [("fullmap", DirectoryKind::FullMap), ("ackwise1", DirectoryKind::AckWise { pointers: 1 })]
    {
        for pct in [1u32, 4] {
            out.push((
                format!("{dname}/pct{pct}"),
                SystemConfig::small_for_tests(cores).with_directory(dir).with_pct(pct),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

/// Bounds for one enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Maximum path length; `None` enumerates the full reachable space.
    pub depth: Option<usize>,
    /// Safety cap on distinct states (a runaway backstop, not a target).
    pub max_states: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { depth: None, max_states: 2_000_000 }
    }
}

/// A violating run: the choice sequence is the replayable artifact —
/// feed it back through [`replay`] to reproduce the failure on the
/// normal engine.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Enabled-choice indices from the initial state.
    pub path: Vec<u16>,
    /// Human-readable labels of the fired events.
    pub choices: Vec<String>,
    /// What broke (invariant description or handler panic message).
    pub error: String,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.error)?;
        writeln!(f, "replay path {:?}:", self.path)?;
        for (i, c) in self.choices.iter().enumerate() {
            writeln!(f, "  {i:3}. {c}")?;
        }
        Ok(())
    }
}

/// Outcome of one enumeration.
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions that reached an already-visited state.
    pub duplicates: u64,
    /// Quiescent terminal states.
    pub terminals: usize,
    /// Longest explored path.
    pub max_depth: usize,
    /// Distinct states whose path sent at least one broadcast
    /// invalidation (0 under a full-map directory).
    pub broadcast_states: usize,
    /// Distinct states whose path served at least one remote word read or
    /// write at the home (0 when every sharer stays private).
    pub word_states: usize,
    /// `true` if the `max_states` cap stopped the enumeration.
    pub capped: bool,
    /// The first violation found, if any.
    pub violation: Option<Counterexample>,
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>().map(|s| (*s).to_string()).unwrap_or_else(|| {
        e.downcast_ref::<String>().cloned().unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Rebuilds the simulator and replays a choice path through the real
/// engine, catching handler panics (which are protocol-bug detectors).
///
/// # Errors
///
/// Returns the panic message if any fired handler panicked.
pub fn replay(
    cfg: &SystemConfig,
    scenario: &Scenario,
    fault: Option<FaultInjection>,
    path: &[u16],
) -> Result<Simulator, String> {
    let cfg = cfg.clone();
    let wl = (scenario.build)();
    catch_unwind(AssertUnwindSafe(move || {
        let mut sim = Simulator::for_exploration(cfg, wl, fault).expect("exploration config");
        for &k in path {
            sim.fire_choice(usize::from(k));
        }
        sim
    }))
    .map_err(|e| format!("handler panic: {}", panic_message(e)))
}

/// Replays `path`, collecting the label of each fired choice (stops at a
/// panicking step, returning the labels gathered so far).
fn describe_path(
    cfg: &SystemConfig,
    scenario: &Scenario,
    fault: Option<FaultInjection>,
    path: &[u16],
) -> Vec<String> {
    let mut labels = Vec::new();
    let cfgc = cfg.clone();
    let wl = (scenario.build)();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::for_exploration(cfgc, wl, fault).expect("exploration config");
        for &k in path {
            let choices = sim.enabled_choices();
            labels.push(
                choices.get(usize::from(k)).cloned().unwrap_or_else(|| format!("choice #{k}")),
            );
            sim.fire_choice(usize::from(k));
        }
    }));
    labels
}

/// Builds the core permutations the fingerprint minimizes over: the
/// identity composed with every permutation within each symmetry group.
#[must_use]
fn symmetry_perms(cores: usize, groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    fn arrangements(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in arrangements(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    let mut perms: Vec<Vec<usize>> = vec![(0..cores).collect()];
    for group in groups {
        let mut next = Vec::new();
        for base in &perms {
            for arr in arrangements(group) {
                let mut p = base.clone();
                for (&slot, &role) in group.iter().zip(arr.iter()) {
                    p[slot] = role;
                }
                next.push(p);
            }
        }
        perms = next;
    }
    perms
}

/// Exhaustive DFS over every reachable interleaving of `scenario` on
/// `cfg` (optionally with a seeded fault), checking the invariants at
/// every distinct state. States are deduplicated by canonical
/// fingerprint with symmetry reduction; the simulator is rebuilt and
/// the path replayed per state (the engine is not cloneable), which the
/// tiny configurations keep affordable.
#[must_use]
pub fn explore(
    cfg: &SystemConfig,
    scenario: &Scenario,
    fault: Option<FaultInjection>,
    ck: CheckConfig,
) -> CheckResult {
    let perms = symmetry_perms(cfg.num_cores, &scenario.sym_groups);
    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    let mut stack: Vec<Vec<u16>> = vec![Vec::new()];
    let mut result = CheckResult::default();

    while let Some(path) = stack.pop() {
        if result.states >= ck.max_states {
            result.capped = true;
            break;
        }
        let mut sim = match replay(cfg, scenario, fault, &path) {
            Ok(sim) => sim,
            Err(error) => {
                result.violation = Some(Counterexample {
                    choices: describe_path(cfg, scenario, fault, &path),
                    path,
                    error,
                });
                break;
            }
        };
        if !visited.insert(sim.fingerprint(&perms)) {
            result.duplicates += 1;
            continue;
        }
        result.states += 1;
        result.max_depth = result.max_depth.max(path.len());
        let stats = sim.protocol_stats();
        if stats.broadcasts > 0 {
            result.broadcast_states += 1;
        }
        if stats.word_reads + stats.word_writes > 0 {
            result.word_states += 1;
        }

        let checked = catch_unwind(AssertUnwindSafe(|| sim.check_invariants()))
            .unwrap_or_else(|e| Err(format!("invariant check panic: {}", panic_message(e))));
        if let Err(error) = checked {
            result.violation = Some(Counterexample {
                choices: describe_path(cfg, scenario, fault, &path),
                path,
                error,
            });
            break;
        }

        let enabled = sim.enabled_count();
        if enabled == 0 {
            result.terminals += 1;
            if let Err(error) = sim.check_quiescent() {
                result.violation = Some(Counterexample {
                    choices: describe_path(cfg, scenario, fault, &path),
                    path,
                    error,
                });
                break;
            }
        } else if ck.depth.map_or(true, |d| path.len() < d) {
            for k in (0..enabled).rev() {
                let mut child = path.clone();
                child.push(u16::try_from(k).expect("enabled set fits u16"));
                stack.push(child);
            }
        }
    }
    result
}

// ---------------------------------------------------------------------------
// Mutation testing
// ---------------------------------------------------------------------------

/// Every seeded protocol bug the checker must kill.
pub const MUTANTS: [FaultInjection; 8] = [
    FaultInjection::DropInvalidation,
    FaultInjection::StaleGrant,
    FaultInjection::SkippedAckDecrement,
    FaultInjection::WrongSharerClear,
    FaultInjection::PrematureTxnRetire,
    FaultInjection::MonitorWordSkew,
    FaultInjection::InvFilterIgnoresPendingMiss,
    FaultInjection::WordReadSkipsOwnerFetch,
];

/// The minimal scenario that exposes each mutant (see DESIGN.md §8.4).
#[must_use]
fn mutant_scenario(fault: FaultInjection) -> Scenario {
    match fault {
        // These need an invalidation round: a reader holds a private
        // copy when the other core's store arrives at the home.
        FaultInjection::DropInvalidation
        | FaultInjection::SkippedAckDecrement
        | FaultInjection::WrongSharerClear => Scenario {
            name: "mutant_read_then_remote_store",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || workload("mutant_rw", 1, vec![vec![load(LINE_A)], vec![store(LINE_A, 9)]]),
        },
        // These need a dirty owner serving a later read: the stale grant
        // ships zeroes where the write-back put real data, and the
        // premature retire loses the in-flight write-back.
        FaultInjection::StaleGrant | FaultInjection::PrematureTxnRetire => Scenario {
            name: "mutant_store_then_remote_load",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || workload("mutant_wr", 1, vec![vec![store(LINE_A, 5)], vec![load(LINE_A)]]),
        },
        // A single core writing then reading its own line: the skewed
        // oracle disagrees with a perfectly coherent machine.
        FaultInjection::MonitorWordSkew => Scenario {
            name: "mutant_self_check",
            cores: 2,
            lines: 1,
            sym_groups: vec![],
            build: || workload("mutant_self", 1, vec![vec![store(LINE_A, 5), load(LINE_A)]]),
        },
        // An ACKwise broadcast while a reader's grant is in flight: the
        // home counts that reader as a sharer and waits for an ack it
        // never gets.
        FaultInjection::InvFilterIgnoresPendingMiss => scenario("readers_then_writer"),
        // A demoted core's word read while the other core holds the line
        // dirty: only the owner fetch brings the written value home.
        FaultInjection::WordReadSkipsOwnerFetch => scenario("demote_then_reread"),
    }
}

/// Result of hunting one mutant across the configuration matrix.
#[derive(Debug)]
pub struct MutationOutcome {
    /// The seeded bug.
    pub fault: FaultInjection,
    /// The configuration that killed it (empty if it survived).
    pub config: String,
    /// States explored before the kill (summed over configs tried).
    pub states_explored: usize,
    /// The replayable counterexample (`None` means the mutant SURVIVED —
    /// a checker bug).
    pub counterexample: Option<Counterexample>,
}

/// Runs the enumerator against one seeded mutant over the configuration
/// matrix, stopping at the first kill.
#[must_use]
pub fn run_mutation(fault: FaultInjection, ck: CheckConfig) -> MutationOutcome {
    let scenario = mutant_scenario(fault);
    let mut states = 0;
    for (name, cfg) in config_matrix(scenario.cores) {
        let r = explore(&cfg, &scenario, Some(fault), ck);
        states += r.states;
        if let Some(cx) = r.violation {
            return MutationOutcome {
                fault,
                config: name,
                states_explored: states,
                counterexample: Some(cx),
            };
        }
    }
    MutationOutcome { fault, config: String::new(), states_explored: states, counterexample: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criterion run: full (un-depth-bounded) enumeration
    /// of a 2-core, 1-line config in both directory flavors, every
    /// invariant holding over the whole space.
    #[test]
    fn full_enumeration_two_cores_one_line_is_clean() {
        for (name, cfg) in config_matrix(2) {
            let r = explore(&cfg, &scenario("reader_writer"), None, CheckConfig::default());
            assert!(r.violation.is_none(), "[{name}] {}", r.violation.unwrap());
            assert!(!r.capped, "[{name}] enumeration hit the state cap");
            assert!(r.states > 10, "[{name}] suspiciously small space: {} states", r.states);
            assert!(r.terminals > 0, "[{name}] no terminal state reached");
            assert!(r.duplicates > 0, "[{name}] dedup never fired");
        }
    }

    /// Symmetry reduction folds permuted runs of identical cores into
    /// one canonical orbit: the reduced space must be strictly smaller.
    #[test]
    fn symmetry_reduction_shrinks_the_symmetric_space() {
        let cfg = config_matrix(2).remove(0).1;
        let sym = scenario("symmetric_writers");
        let mut nosym = scenario("symmetric_writers");
        nosym.sym_groups.clear();
        let ck = CheckConfig::default();
        let with = explore(&cfg, &sym, None, ck);
        let without = explore(&cfg, &nosym, None, ck);
        assert!(with.violation.is_none() && without.violation.is_none());
        assert!(
            with.states < without.states,
            "symmetry reduction had no effect: {} vs {}",
            with.states,
            without.states
        );
    }

    /// The 3-core pass reaches ACKwise broadcasts: under `ackwise1`, two
    /// private copies overflow the single pointer and the next write's
    /// invalidation goes out as a broadcast — with a reader's grant
    /// possibly still in flight (`readers_then_writer`), or past an idle
    /// tile the filter skips (`upgrade_bystander`). The whole space is
    /// clean and drains to terminals.
    #[test]
    fn three_core_pass_reaches_a_broadcast() {
        for sc in ["readers_then_writer", "upgrade_bystander"] {
            for (name, cfg) in config_matrix(3) {
                let r = explore(&cfg, &scenario(sc), None, CheckConfig::default());
                assert!(r.violation.is_none(), "[{sc}, {name}] {}", r.violation.unwrap());
                assert!(!r.capped && r.terminals > 0, "[{sc}, {name}] did not drain");
                if name.starts_with("ackwise1") {
                    assert!(r.broadcast_states > 0, "[{sc}, {name}] never broadcast");
                } else {
                    assert_eq!(r.broadcast_states, 0, "[{sc}, {name}] full-map broadcast");
                }
            }
        }
    }

    /// The 2-core pass reaches the paper's remote word accesses:
    /// `demote_then_reread` serves word reads and writes at the home in
    /// every `pct4` config and none in any `pct1` config, and its whole
    /// space is clean.
    #[test]
    fn demoted_sharer_makes_word_accesses_only_under_pct4() {
        for (name, cfg) in config_matrix(2) {
            let r = explore(&cfg, &scenario("demote_then_reread"), None, CheckConfig::default());
            assert!(r.violation.is_none(), "[{name}] {}", r.violation.unwrap());
            assert!(!r.capped && r.terminals > 0, "[{name}] did not drain");
            if name.ends_with("pct4") {
                assert!(r.word_states > 0, "[{name}] no word access reached");
            } else {
                assert_eq!(r.word_states, 0, "[{name}] word access with pct 1");
            }
        }
    }

    /// Barriers participate in the interleaving too; the sync-blocked
    /// states must drain (quiescence holds everywhere).
    #[test]
    fn barrier_scenario_is_clean() {
        let cfg = config_matrix(2).remove(0).1;
        let r = explore(&cfg, &scenario("barrier_handoff"), None, CheckConfig::default());
        assert!(r.violation.is_none(), "{}", r.violation.unwrap());
        assert!(r.terminals > 0);
    }

    /// The mutation kill matrix: every seeded protocol bug must be
    /// killed, and its counterexample must replay to the same failure
    /// through the normal engine.
    #[test]
    fn all_seeded_mutants_are_killed() {
        let ck = CheckConfig::default();
        let mut survivors = Vec::new();
        for fault in MUTANTS {
            let outcome = run_mutation(fault, ck);
            match outcome.counterexample {
                None => survivors.push(fault),
                Some(cx) => {
                    // Replay the artifact: rebuilding the simulator and
                    // re-firing the recorded choices must reproduce a
                    // failure (panic or invariant violation), not a
                    // clean state.
                    let sc = mutant_scenario(fault);
                    let cfg = config_matrix(sc.cores)
                        .into_iter()
                        .find(|(n, _)| *n == outcome.config)
                        .expect("killing config exists")
                        .1;
                    let reproduced = match replay(&cfg, &sc, Some(fault), &cx.path) {
                        Err(_) => true,
                        Ok(mut sim) => {
                            catch_unwind(AssertUnwindSafe(|| sim.check_invariants()))
                                .map_or(true, |r| r.is_err())
                                || (sim.enabled_count() == 0 && sim.check_quiescent().is_err())
                        }
                    };
                    assert!(reproduced, "{fault:?}: counterexample did not replay:\n{cx}");
                    assert!(!cx.choices.is_empty(), "{fault:?}: empty counterexample");
                }
            }
        }
        assert!(survivors.is_empty(), "mutants survived the checker: {survivors:?}");
    }

    /// A clean run under every mutant scenario *without* the fault, in
    /// every configuration — the kills come from the seeded bugs, not
    /// from flaky scenarios.
    #[test]
    fn mutant_scenarios_are_clean_without_the_fault() {
        for fault in MUTANTS {
            let sc = mutant_scenario(fault);
            for (name, cfg) in config_matrix(sc.cores) {
                let r = explore(&cfg, &sc, None, CheckConfig::default());
                assert!(r.violation.is_none(), "[{fault:?}, {name}] {}", r.violation.unwrap());
            }
        }
    }
}
