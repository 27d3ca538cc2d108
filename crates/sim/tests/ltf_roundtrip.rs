//! Property tests: LTF encoding is lossless.
//!
//! Arbitrary op sequences, region declarations and headers encode and
//! decode identically — including empty traces, zero-core workloads and
//! maximum-width varints. Sampling is deterministic (the vendored proptest
//! shim seeds from the test name), so failures reproduce exactly.

use proptest::prelude::*;

use lacc_core::rnuca::RegionClass;
use lacc_model::{Addr, CoreId, LineAddr, TraceError};
use lacc_sim::ltf::{self, varint};
use lacc_sim::trace::{default_instr_base, RegionDecl, TraceOp, VecTrace, Workload};

fn arb_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (0u32..100_000).prop_map(TraceOp::Compute),
        (0u64..(1u64 << 48)).prop_map(|a| TraceOp::Load { addr: Addr::new(a) }),
        ((0u64..(1u64 << 48)), (0u64..u64::MAX))
            .prop_map(|(a, v)| TraceOp::Store { addr: Addr::new(a), value: v }),
        (0u32..1_000).prop_map(|id| TraceOp::Barrier { id }),
        (0u32..1_000).prop_map(|id| TraceOp::Acquire { id }),
        (0u32..1_000).prop_map(|id| TraceOp::Release { id }),
    ]
}

fn arb_region() -> impl Strategy<Value = RegionDecl> {
    ((0u64..(1u64 << 42)), (0u64..(1u64 << 24)), (0u8..3), (0u64..256)).prop_map(
        |(first, lines, tag, core)| RegionDecl {
            first_line: LineAddr::new(first),
            lines,
            class: match tag {
                0 => RegionClass::Shared,
                1 => RegionClass::Instruction,
                _ => RegionClass::PrivateTo(CoreId::new(core as usize)),
            },
        },
    )
}

fn workload_from(
    name: String,
    cores: &[Vec<TraceOp>],
    regions: Vec<RegionDecl>,
    instr_lines: u64,
) -> Workload {
    Workload {
        name,
        traces: cores.iter().map(|ops| VecTrace::new(ops.clone())).collect(),
        regions,
        instr_lines,
        instr_base: default_instr_base(),
    }
}

/// Every core's ops, in order.
fn drain(traces: Vec<VecTrace>) -> Vec<Vec<TraceOp>> {
    traces.into_iter().map(|mut t| std::iter::from_fn(|| t.next_op()).collect()).collect()
}

/// Decodes an LTF image, splitting off every core's drained ops.
fn decode(bytes: Vec<u8>) -> Result<(Workload, Vec<Vec<TraceOp>>), proptest::TestCaseError> {
    let mut w = ltf::workload_from_bytes(bytes)
        .map_err(|e| proptest::TestCaseError::fail(format!("decode: {e}")))?;
    let ops = drain(std::mem::take(&mut w.traces));
    Ok((w, ops))
}

proptest! {
    #[test]
    fn varints_round_trip(v in prop_oneof![
        Just(0u64),
        Just(u64::MAX),                 // max-width: exactly 10 bytes
        Just(u64::MAX - 1),
        0u64..u64::MAX,
        (0u32..64).prop_map(|s| 1u64 << s),
    ]) {
        let mut buf = Vec::new();
        varint::encode(v, &mut buf);
        prop_assert!(buf.len() <= varint::MAX_LEN);
        let mut pos = 0;
        let decoded = varint::take(&buf, &mut pos, "prop").map_err(|e| {
            proptest::TestCaseError::fail(format!("{e}"))
        })?;
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn workloads_round_trip(
        cores in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 0..80), 0..5),
        regions in proptest::collection::vec(arb_region(), 0..10),
        instr_lines in 0u64..4096,
        name_reps in 0usize..8,
    ) {
        // Names exercise multi-byte UTF-8 (and the empty string); ops
        // include unaligned addresses (which cannot use immediate tags)
        // and 48-bit far jumps.
        let name = "wl·π".repeat(name_reps);
        let mk = || workload_from(name.clone(), &cores, regions.clone(), instr_lines);
        let bytes = ltf::workload_to_ltf_bytes_v2(mk()).map_err(|e| {
            proptest::TestCaseError::fail(format!("encode: {e}"))
        })?;
        // Deterministic: same workload, same bytes.
        prop_assert_eq!(&ltf::workload_to_ltf_bytes_v2(mk()).unwrap(), &bytes);
        let (header, decoded) = decode(bytes)?;
        prop_assert_eq!(&header.name, &name);
        prop_assert_eq!(header.instr_lines, instr_lines);
        prop_assert_eq!(header.instr_base, default_instr_base());
        prop_assert_eq!(&header.regions, &regions);
        prop_assert_eq!(&decoded, &cores);
    }

    #[test]
    fn v2_workloads_round_trip(
        steps in proptest::collection::vec(
            ((0u8..4), (0u64..17), (0u64..64), (1u32..12), (1usize..5)), 0..120),
    ) {
        // Arbitrary ops rarely sit near each other; real traces do. Walks
        // a few lines either side of the region base, with repeated
        // compute ops, so the short forms (immediate tags, one-byte packed
        // deltas, compute runs) are exercised as often as the long ones.
        let base = 0x4000_0000u64;
        let mut line = base;
        let mut ops = Vec::new();
        for &(kind, delta, offset, n, repeat) in &steps {
            line = (line + delta).saturating_sub(8);
            let addr = Addr::new(line * 64 + offset);
            match kind {
                0 => ops.extend(std::iter::repeat(TraceOp::Compute(n)).take(repeat)),
                1 => ops.push(TraceOp::Load { addr }),
                2 => ops.push(TraceOp::Store { addr, value: u64::from(n) << 40 }),
                _ => ops.push(TraceOp::Barrier { id: n }),
            }
        }
        let regions = vec![RegionDecl {
            first_line: LineAddr::new(base),
            lines: 64,
            class: RegionClass::Shared,
        }];
        let cores = [ops];
        let bytes = ltf::workload_to_ltf_bytes_v2(
            workload_from("local".into(), &cores, regions.clone(), 0),
        ).map_err(|e| proptest::TestCaseError::fail(format!("encode: {e}")))?;
        let (header, decoded) = decode(bytes)?;
        prop_assert_eq!(&header.regions, &regions);
        prop_assert_eq!(&decoded, &cores);
    }

    #[test]
    fn headers_survive_reencode(
        regions in proptest::collection::vec(arb_region(), 0..6),
        instr_lines in 0u64..1024,
    ) {
        // Encoding is deterministic: same workload, same bytes.
        let mk = || workload_from("stable".into(), &[vec![], vec![]], regions.clone(), instr_lines);
        let a = ltf::workload_to_ltf_bytes_v2(mk()).unwrap();
        let b = ltf::workload_to_ltf_bytes_v2(mk()).unwrap();
        let (header, _) = ltf::read_header_bytes(&a).unwrap();
        prop_assert_eq!(&header.regions, &regions);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn extreme_operands_stream_back_from_disk() {
    // Deterministic companion to the properties: max-width varint operands
    // and worst-case line deltas across the whole 48-bit space, written to
    // a real file and decoded through the file reader.
    let ops = vec![
        TraceOp::Store { addr: Addr::new((1 << 48) - 8), value: u64::MAX },
        TraceOp::Compute(u32::MAX),
        TraceOp::Load { addr: Addr::new(0) },
        TraceOp::Barrier { id: u32::MAX },
    ];
    let w = workload_from("extreme".into(), std::slice::from_ref(&ops), vec![], u64::MAX);
    let path = std::env::temp_dir().join("lacc_ltf_extreme.ltf");
    w.dump_ltf_v2(&path).unwrap();

    let replayed = lacc_sim::ltf::read_workload(&path).unwrap();
    assert_eq!(replayed.instr_lines, u64::MAX);
    let mut trace = replayed.traces.into_iter().next().unwrap();
    for expected in &ops {
        assert_eq!(trace.next_op(), Some(*expected));
    }
    assert_eq!(trace.next_op(), None);
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_workload_round_trips_through_disk() {
    let w = workload_from(String::new(), &[], vec![], 0);
    let path = std::env::temp_dir().join("lacc_ltf_empty.ltf");
    w.dump_ltf_v2(&path).unwrap();
    let replayed = lacc_sim::ltf::read_workload(&path).unwrap();
    assert_eq!(replayed.name, "");
    assert_eq!(replayed.active_cores(), 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_decodes_the_bytes_validated_at_open() {
    // Overwriting the file after it was opened, in place and at the same
    // length, with bytes that are not LTF at all cannot change what
    // replays: the reader owns the bytes it validated.
    let cores = vec![
        vec![TraceOp::Compute(5), TraceOp::Store { addr: Addr::new(0x1040), value: 9 }],
        vec![TraceOp::Load { addr: Addr::new(0x1040) }, TraceOp::Barrier { id: 0 }],
    ];
    let w = workload_from("rewritten".into(), &cores, vec![], 8);
    let path = std::env::temp_dir().join("lacc_ltf_rewritten.ltf");
    w.dump_ltf_v2(&path).unwrap();
    let replayed = ltf::read_workload(&path).unwrap();

    let len = std::fs::metadata(&path).unwrap().len() as usize;
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    std::io::Write::write_all(&mut file, &vec![0xff; len]).unwrap();
    drop(file);
    assert_eq!(std::fs::read(&path).unwrap(), vec![0xff; len]);

    assert_eq!(drain(replayed.traces), cores);
    std::fs::remove_file(&path).ok();
}

#[test]
fn decode_errors_are_values_not_panics() {
    // The property suite only sees valid images; pin the Result surface.
    assert!(matches!(ltf::workload_from_bytes(Vec::new()), Err(TraceError::Truncated { .. })));
}
