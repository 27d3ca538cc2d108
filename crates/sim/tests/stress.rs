//! Randomized whole-system stress tests.
//!
//! Property: under *any* interleaving of loads, stores, locks and barriers
//! across cores, protocols and classifier configurations, the system (1)
//! terminates (no protocol deadlock), and (2) never violates coherence —
//! every read observes the serialized value (the monitor panics otherwise).

use lacc_core::rnuca::RegionClass;
use lacc_model::config::{ClassifierConfig, DirectoryKind, MechanismKind, TrackingKind};
use lacc_model::{Addr, LineAddr, SystemConfig};
use lacc_sim::trace::default_instr_base;
use lacc_sim::{RegionDecl, Simulator, TraceOp, VecTrace, Workload};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct OpSpec {
    line: u64,
    word: u64,
    is_store: bool,
    compute: u8,
}

fn arb_ops() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (0u64..24, 0u64..8, proptest::bool::ANY, 0u8..4)
            .prop_map(|(line, word, is_store, compute)| OpSpec { line, word, is_store, compute }),
        1..120,
    )
}

fn arb_cfg() -> impl Strategy<Value = SystemConfig> {
    (
        1u32..6,             // pct
        0usize..3,           // tracking selector
        proptest::bool::ANY, // one_way
        proptest::bool::ANY, // timestamp vs RAT
        proptest::bool::ANY, // full map vs ackwise
    )
        .prop_map(|(pct, track, one_way, ts, fm)| {
            let mut cfg = SystemConfig::small_for_tests(4).with_pct(pct);
            cfg.classifier = ClassifierConfig {
                pct,
                tracking: match track {
                    0 => TrackingKind::Complete,
                    1 => TrackingKind::Limited { k: 1 },
                    _ => TrackingKind::Limited { k: 3 },
                },
                mechanism: if ts {
                    MechanismKind::Timestamp
                } else {
                    MechanismKind::RatLevels { levels: 2, rat_max: pct + 12 }
                },
                one_way,
                shortcut: one_way, // exercise both flags together
            };
            cfg.directory =
                if fm { DirectoryKind::FullMap } else { DirectoryKind::AckWise { pointers: 2 } };
            cfg
        })
}

fn build_traces(per_core: &[Vec<OpSpec>], with_sync: bool) -> Vec<VecTrace> {
    per_core
        .iter()
        .enumerate()
        .map(|(ci, specs)| {
            let mut ops: Vec<TraceOp> = Vec::new();
            for (i, s) in specs.iter().enumerate() {
                if s.compute > 0 {
                    ops.push(TraceOp::Compute(s.compute as u32));
                }
                // Occasionally wrap an access in a lock to exercise queued
                // synchronization alongside coherence traffic.
                let locked = with_sync && i % 7 == 3;
                if locked {
                    ops.push(TraceOp::Acquire { id: (s.line % 3) as u32 });
                }
                let addr = Addr::new(s.line * 64 + s.word * 8);
                if s.is_store {
                    let value = (ci as u64) << 32 | i as u64;
                    ops.push(TraceOp::Store { addr, value });
                } else {
                    ops.push(TraceOp::Load { addr });
                }
                if locked {
                    ops.push(TraceOp::Release { id: (s.line % 3) as u32 });
                }
            }
            if with_sync {
                ops.push(TraceOp::Barrier { id: 999 });
            }
            VecTrace::new(ops)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any random 4-core workload, on any protocol configuration,
    /// completes coherently. The monitor panics on violations, and the
    /// simulator panics on deadlock, so reaching the assertions is the
    /// property.
    #[test]
    fn random_workloads_stay_coherent(
        t0 in arb_ops(),
        t1 in arb_ops(),
        t2 in arb_ops(),
        t3 in arb_ops(),
        cfg in arb_cfg(),
        with_sync in proptest::bool::ANY,
    ) {
        let per_core = vec![t0, t1, t2, t3];
        let total_ops: usize = per_core.iter().map(Vec::len).sum();
        let w = Workload {
            name: "stress".into(),
            traces: build_traces(&per_core, with_sync),
            regions: vec![RegionDecl {
                first_line: LineAddr::new(0),
                lines: 64,
                class: RegionClass::Shared,
            }],
            instr_lines: 4,
            instr_base: default_instr_base(),
        };
        let report = Simulator::new(cfg, w).expect("valid config").run();
        prop_assert_eq!(report.monitor.violations, 0);
        prop_assert!(report.completion_time > 0 || total_ops == 0);
        // Accounting sanity: every miss is classified, accesses add up.
        prop_assert_eq!(
            report.l1d.total_accesses(),
            report.l1d.hits + report.l1d.total_misses()
        );
    }

    /// Private-only workloads on the default config never invalidate.
    #[test]
    fn disjoint_working_sets_never_share(
        t0 in arb_ops(),
        t1 in arb_ops(),
    ) {
        // Give each core its own address space (line | core << 32).
        let shift = |specs: &[OpSpec], core: u64| -> Vec<OpSpec> {
            specs.iter().map(|s| OpSpec { line: s.line + core * 4096, ..s.clone() }).collect()
        };
        let per_core = vec![shift(&t0, 0), shift(&t1, 1)];
        let w = Workload {
            name: "disjoint".into(),
            traces: build_traces(&per_core, false),
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let report = Simulator::new(SystemConfig::small_for_tests(4), w).unwrap().run();
        prop_assert_eq!(report.monitor.violations, 0);
        prop_assert_eq!(report.protocol.invalidations_sent, 0);
        prop_assert_eq!(report.protocol.write_backs, 0);
    }
}
