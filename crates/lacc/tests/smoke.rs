//! Workspace-health smoke test.
//!
//! Exercises the facade's `prelude` exactly as downstream code would:
//! every name used here comes through `lacc::prelude`, so a refactor that
//! breaks a re-export (or the Table-1 configuration, or the basic
//! simulate-a-workload loop) fails this test before anything subtler does.

use lacc::prelude::*;

#[test]
fn isca13_64core_config_validates() {
    let cfg = SystemConfig::isca13_64core();
    cfg.validate().expect("the paper's Table-1 configuration must validate");
    assert_eq!(cfg.num_cores, 64);
}

#[test]
fn two_core_simulator_round_trip() {
    // Core 0 writes a shared line, core 1 reads it back: the smallest
    // workload that crosses the directory. Hand-built through the prelude
    // types only.
    let line = LineAddr::new(64);
    let t0 = VecTrace::new(vec![
        TraceOp::Store { addr: line.base(), value: 0xF00D },
        TraceOp::Barrier { id: 1 },
    ]);
    let t1 = VecTrace::new(vec![TraceOp::Barrier { id: 1 }, TraceOp::Load { addr: line.base() }]);
    let workload = Workload {
        name: "smoke".into(),
        traces: vec![t0, t1],
        regions: vec![RegionDecl { first_line: line, lines: 1, class: RegionClass::Shared }],
        instr_lines: 1,
        instr_base: default_instr_base(),
    };
    let cfg = SystemConfig::small_for_tests(2);
    cfg.validate().expect("small test configuration must validate");
    let report: SimReport = Simulator::new(cfg, workload).expect("valid config").run();
    assert_eq!(report.monitor.violations, 0, "coherence violated in a 2-op workload");
    assert!(report.completion_time > 0);
    assert!(report.l1d.total_accesses() >= 2, "both cores touch the line");
}
