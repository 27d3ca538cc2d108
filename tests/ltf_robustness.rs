//! Malformed-input hardening for the LTF decoder: every corruption returns
//! a typed `TraceError` — never a panic, never a garbage workload.
//!
//! Each case corrupts a real encoder output (or hand-assembles a stream
//! with the public varint primitives) and asserts on the exact error
//! variant. The file entry point is `std::fs::read` followed by the same
//! bytes path, so one valid-file round trip covers it.

use lacc::prelude::ltf::varint;
use lacc::prelude::*;

/// A small but non-trivial valid image: two cores, ops of every kind,
/// region declarations of every class.
fn valid_bytes() -> Vec<u8> {
    ltf::workload_to_ltf_bytes_v2(victim_workload()).unwrap()
}

fn victim_ops() -> Vec<Vec<TraceOp>> {
    vec![
        vec![
            TraceOp::Compute(3),
            TraceOp::Store { addr: Addr::new(0x1040), value: 99 },
            TraceOp::Load { addr: Addr::new(0x1040) },
            TraceOp::Barrier { id: 0 },
        ],
        vec![TraceOp::Acquire { id: 7 }, TraceOp::Release { id: 7 }],
    ]
}

fn victim_workload() -> Workload {
    Workload {
        name: "victim".into(),
        traces: victim_ops().into_iter().map(VecTrace::new).collect(),
        regions: vec![
            RegionDecl { first_line: LineAddr::new(0x41), lines: 8, class: RegionClass::Shared },
            RegionDecl {
                first_line: LineAddr::new(0x80),
                lines: 4,
                class: RegionClass::PrivateTo(CoreId::new(1)),
            },
        ],
        instr_lines: 16,
        instr_base: default_instr_base(),
    }
}

/// Decodes an in-memory image.
fn decode(bytes: &[u8]) -> Result<Workload, TraceError> {
    ltf::workload_from_bytes(bytes.to_vec())
}

/// Every core's ops, in order.
fn drain(w: Workload) -> Vec<Vec<TraceOp>> {
    w.traces.into_iter().map(|mut t| std::iter::from_fn(|| t.next_op()).collect()).collect()
}

fn v(value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    varint::encode(value, &mut out);
    out
}

#[test]
fn valid_image_decodes_everywhere() {
    let w = decode(&valid_bytes()).unwrap();
    assert_eq!(w.name, "victim");
    assert_eq!(w.regions, victim_workload().regions);
    assert_eq!(drain(w), victim_ops());
}

#[test]
fn v2_image_decodes_everywhere_and_matches_v1() {
    // The retired absolute-address encoding used to be the reference here;
    // now the reference is the source workload itself. The file path,
    // read in small batches that straddle op boundaries, must yield
    // exactly the source ops.
    let path = std::env::temp_dir().join("lacc_ltf_robustness_valid.ltf");
    std::fs::write(&path, valid_bytes()).unwrap();
    let w = ltf::read_workload(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(w.name, "victim");
    assert_eq!(w.regions, victim_workload().regions);
    assert_eq!(w.instr_lines, 16);
    assert_eq!(w.instr_base, default_instr_base());
    let ops = victim_ops();
    assert_eq!(w.traces.len(), ops.len());
    for (mut trace, expected) in w.traces.into_iter().zip(&ops) {
        let mut streamed = Vec::new();
        while trace.next_ops(&mut streamed, 3) == 3 {}
        assert_eq!(&streamed, expected);
        assert_eq!(trace.next_op(), None);
    }
}

#[test]
fn truncated_header_is_typed() {
    let bytes = valid_bytes();
    // Inside the magic.
    let e = decode(&bytes[..5]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "magic" });
    // Just past the magic: the version varint is missing.
    let e = decode(&bytes[..8]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "version" });
    // Inside the name bytes (magic + version + flags + name length = 10).
    let e = decode(&bytes[..12]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "name" });
    // Inside the core offset table.
    let (_, offsets) = ltf::read_header_bytes(&bytes).unwrap();
    let table_end = offsets[0] as usize;
    let e = decode(&bytes[..table_end - 3]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "core offset table" });
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0xff;
    let e = decode(&bytes).unwrap_err();
    assert!(matches!(&e, TraceError::BadMagic { found } if found.len() == 8));
    // A different trace-looking file is rejected the same way.
    let e = decode(b"GRAPHITE0123").unwrap_err();
    assert!(matches!(e, TraceError::BadMagic { .. }));
}

#[test]
fn unsupported_version_is_typed() {
    // Version 2 is the format; anything else is rejected.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ltf::MAGIC);
    bytes.extend_from_slice(&v(ltf::VERSION + 97));
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::UnsupportedVersion { found: 99 });

    // The retired absolute-address encoding shares the container, so a
    // version-1 file differs from a valid image in its version byte; it
    // is refused before any stream is read.
    let mut bytes = valid_bytes();
    assert_eq!(bytes[8], ltf::VERSION as u8);
    bytes[8] = 1;
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::UnsupportedVersion { found: 1 });
}

#[test]
fn reserved_flags_are_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ltf::MAGIC);
    bytes.extend_from_slice(&v(ltf::VERSION));
    bytes.extend_from_slice(&v(1)); // flags must be zero
    assert!(matches!(decode(&bytes).unwrap_err(), TraceError::Corrupt { .. }));
}

#[test]
fn mid_op_eof_is_typed() {
    // One core, so shrinking the file cannot invalidate later offsets
    // before the decoder even reaches the streams. The store address is
    // unaligned, so it is carried as an operand rather than in the tag.
    let w = Workload {
        name: "cut".into(),
        traces: vec![VecTrace::new(vec![
            TraceOp::Store { addr: Addr::new(0x43), value: u64::MAX },
            TraceOp::Compute(1),
        ])],
        regions: vec![],
        instr_lines: 0,
        instr_base: default_instr_base(),
    };
    let bytes = ltf::workload_to_ltf_bytes_v2(w).unwrap();

    // Dropping the final end-of-stream marker truncates the stream.
    let e = decode(&bytes[..bytes.len() - 1]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "opcode" });

    // Cutting right after the first opcode byte leaves its operand dangling.
    let (_, offsets) = ltf::read_header_bytes(&bytes).unwrap();
    let first_op = offsets[0] as usize;
    assert_eq!(bytes[first_op], ltf::v2::OP2_STORE);
    let e = decode(&bytes[..first_op + 1]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "store address" });
}

#[test]
fn overlong_varint_is_typed() {
    // A version field of ten 0xff bytes claims more than 64 bits.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ltf::MAGIC);
    bytes.extend_from_slice(&[0xff; 10]);
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::OverlongVarint { what: "version" });

    // Same failure inside an op operand: a compute count of 11
    // continuation bytes.
    let w = Workload {
        name: String::new(),
        traces: vec![VecTrace::new(vec![TraceOp::Compute(1)])],
        regions: vec![],
        instr_lines: 0,
        instr_base: default_instr_base(),
    };
    let valid = ltf::workload_to_ltf_bytes_v2(w).unwrap();
    let (_, offsets) = ltf::read_header_bytes(&valid).unwrap();
    let mut bytes = valid[..offsets[0] as usize].to_vec();
    bytes.push(ltf::v2::OP2_COMPUTE);
    bytes.extend_from_slice(&[0x80; 11]);
    bytes.push(ltf::v2::OP2_END);
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::OverlongVarint { what: "compute count" });
}

#[test]
fn unknown_region_class_is_typed() {
    // Hand-assembled header: no cores, one region with an undefined tag.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ltf::MAGIC);
    bytes.extend_from_slice(&v(ltf::VERSION));
    bytes.extend_from_slice(&v(0)); // flags
    bytes.extend_from_slice(&v(0)); // name length
    bytes.extend_from_slice(&v(0)); // cores
    bytes.extend_from_slice(&v(0)); // instr_lines
    bytes.extend_from_slice(&v(0)); // instr_base
    bytes.extend_from_slice(&v(1)); // one region
    bytes.extend_from_slice(&v(0x41)); // first line
    bytes.extend_from_slice(&v(8)); // lines
    bytes.push(0xee); // undefined class tag
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::BadRegionClass { tag: 0xee });
}

#[test]
fn corrupt_counts_and_offsets_are_typed() {
    // Core count beyond the 16-bit architecture limit.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ltf::MAGIC);
    bytes.extend_from_slice(&v(ltf::VERSION));
    bytes.extend_from_slice(&v(0));
    bytes.extend_from_slice(&v(0));
    bytes.extend_from_slice(&v(ltf::MAX_CORES + 1));
    assert!(matches!(decode(&bytes).unwrap_err(), TraceError::Corrupt { .. }));

    // An offset pointing past end-of-file.
    let valid = valid_bytes();
    let (_, offsets) = ltf::read_header_bytes(&valid).unwrap();
    let table_at = offsets[0] as usize - 16; // two 8-byte entries precede the streams
    let mut bytes = valid.clone();
    bytes[table_at..table_at + 8].copy_from_slice(&(valid.len() as u64 + 100).to_le_bytes());
    let e = decode(&bytes).unwrap_err();
    assert!(matches!(e, TraceError::Corrupt { .. }));

    // An offset pointing back into the header.
    let mut bytes = valid.clone();
    bytes[table_at..table_at + 8].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(decode(&bytes).unwrap_err(), TraceError::Corrupt { .. }));
}

/// The error for streams that do not exactly tile the bytes after the
/// offset table.
const NOT_TILED: TraceError =
    TraceError::Corrupt { what: "core streams do not tile the stream area" };

#[test]
fn a_stream_running_into_the_next_is_corrupt() {
    // Core 0's end marker retagged as a one-byte Compute(1): core 0 would
    // decode on through core 1's ops and end at core 1's marker.
    let valid = valid_bytes();
    let (_, offsets) = ltf::read_header_bytes(&valid).unwrap();
    let marker = offsets[1] as usize - 1;
    let mut bytes = valid;
    assert_eq!(bytes[marker], ltf::v2::OP2_END);
    bytes[marker] = ltf::v2::OP2_COMPUTE_IMM;
    assert_eq!(decode(&bytes).unwrap_err(), NOT_TILED);
}

#[test]
fn a_duplicated_offset_is_corrupt() {
    // Both cores pointing at core 0's stream: two valid streams, but core
    // 1's bytes belong to nobody.
    let valid = valid_bytes();
    let (_, offsets) = ltf::read_header_bytes(&valid).unwrap();
    let second_entry = offsets[0] as usize - 8;
    let mut bytes = valid;
    bytes[second_entry..second_entry + 8].copy_from_slice(&offsets[0].to_le_bytes());
    assert_eq!(decode(&bytes).unwrap_err(), NOT_TILED);
}

#[test]
fn bytes_outside_the_streams_are_corrupt() {
    // One trailing byte after the last stream's end marker.
    let mut bytes = valid_bytes();
    bytes.push(ltf::v2::OP2_END);
    assert_eq!(decode(&bytes).unwrap_err(), NOT_TILED);

    // One byte between the offset table and stream 0, with both offsets
    // moved past it: every stream still decodes.
    let valid = valid_bytes();
    let (_, offsets) = ltf::read_header_bytes(&valid).unwrap();
    let table_at = offsets[0] as usize - 16;
    let mut bytes = valid[..offsets[0] as usize].to_vec();
    for (i, offset) in offsets.iter().enumerate() {
        let entry = table_at + 8 * i;
        bytes[entry..entry + 8].copy_from_slice(&(offset + 1).to_le_bytes());
    }
    bytes.push(ltf::v2::OP2_END);
    bytes.extend_from_slice(&valid[offsets[0] as usize..]);
    assert_eq!(decode(&bytes).unwrap_err(), NOT_TILED);

    // A file with no streams ends with its (empty) offset table.
    let w = Workload {
        name: "none".into(),
        traces: vec![],
        regions: vec![],
        instr_lines: 0,
        instr_base: default_instr_base(),
    };
    let mut bytes = ltf::workload_to_ltf_bytes_v2(w).unwrap();
    assert!(decode(&bytes).is_ok());
    bytes.push(ltf::v2::OP2_END);
    assert_eq!(decode(&bytes).unwrap_err(), NOT_TILED);
}

#[test]
fn invalid_name_utf8_is_typed() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ltf::MAGIC);
    bytes.extend_from_slice(&v(ltf::VERSION));
    bytes.extend_from_slice(&v(0));
    bytes.extend_from_slice(&v(2)); // two name bytes...
    bytes.extend_from_slice(&[0xff, 0xfe]); // ...that are not UTF-8
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::BadUtf8 { what: "name" });
}

#[test]
fn every_prefix_of_a_valid_file_errors_not_panics() {
    // The decoder is total: any truncation point yields Err, never a panic
    // and never a silently shortened success.
    let bytes = valid_bytes();
    for len in 0..bytes.len() {
        assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes decoded successfully");
    }
    assert!(decode(&bytes).is_ok());
}

#[test]
fn every_prefix_of_a_valid_v2_file_errors_not_panics() {
    // The same sweep over an image that uses every record shape the
    // victim lacks: compute runs, immediate and packed loads and stores,
    // and a far jump across the address space.
    let w = Workload {
        name: "dense".into(),
        traces: vec![VecTrace::new(vec![
            TraceOp::Compute(40),
            TraceOp::Compute(40),
            TraceOp::Compute(40),
            TraceOp::Compute(2),
            TraceOp::Load { addr: Addr::new(0x1048) },
            TraceOp::Store { addr: Addr::new(0x10c0), value: 7 },
            TraceOp::Load { addr: Addr::new(0x1043) },
            TraceOp::Store { addr: Addr::new((1 << 48) - 8), value: u64::MAX },
            TraceOp::Load { addr: Addr::new(0) },
        ])],
        regions: vec![RegionDecl {
            first_line: LineAddr::new(0x41),
            lines: 8,
            class: RegionClass::Shared,
        }],
        instr_lines: 0,
        instr_base: default_instr_base(),
    };
    let bytes = ltf::workload_to_ltf_bytes_v2(w).unwrap();
    let (_, offsets) = ltf::read_header_bytes(&bytes).unwrap();
    assert_eq!(bytes[offsets[0] as usize], ltf::v2::OP2_COMPUTE_RUN);
    for len in 0..bytes.len() {
        assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes decoded successfully");
    }
    assert!(decode(&bytes).is_ok());
}

#[test]
fn unknown_opcode_is_typed() {
    // Every undefined tag is refused, wherever it appears: here at the
    // head of the second core's stream.
    let valid = valid_bytes();
    let (_, offsets) = ltf::read_header_bytes(&valid).unwrap();
    let at = offsets[1] as usize;
    for code in 0xf0..=0xffu8 {
        let mut bytes = valid.clone();
        bytes[at] = code;
        let e = decode(&bytes).unwrap_err();
        assert_eq!(e, TraceError::BadOpCode { code });
    }
}

#[test]
fn v2_undefined_tag_is_typed() {
    // Tags 0xF0..=0xFF are unassigned.
    let bytes = valid_bytes();
    let (_, offsets) = ltf::read_header_bytes(&bytes).unwrap();
    let mut bytes = bytes;
    bytes[offsets[0] as usize] = 0xf7;
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::BadOpCode { code: 0xf7 });
}

#[test]
fn v2_corrupt_run_length_is_typed() {
    // A lone Compute(9) encodes as [OP2_COMPUTE, 9]; retagging it as a
    // run record makes the end marker parse as repeat = 0 — out of the
    // legal 2..=MAX_RUN range.
    let w = Workload {
        name: "run".into(),
        traces: vec![VecTrace::new(vec![TraceOp::Compute(9)])],
        regions: vec![],
        instr_lines: 0,
        instr_base: default_instr_base(),
    };
    let bytes = ltf::workload_to_ltf_bytes_v2(w).unwrap();
    let (_, offsets) = ltf::read_header_bytes(&bytes).unwrap();
    let mut bytes = bytes;
    assert_eq!(bytes[offsets[0] as usize], ltf::v2::OP2_COMPUTE);
    bytes[offsets[0] as usize] = ltf::v2::OP2_COMPUTE_RUN;
    let e = decode(&bytes).unwrap_err();
    assert_eq!(e, TraceError::Corrupt { what: "compute run length out of range" });
}

#[test]
fn v2_truncated_store_value_is_typed() {
    // A store's fixed eight value bytes are the file's tail once the end
    // marker is cut; shaving two bytes lands mid-value.
    let w = Workload {
        name: "cut2".into(),
        traces: vec![VecTrace::new(vec![TraceOp::Store {
            addr: Addr::new(0x40),
            value: u64::MAX,
        }])],
        regions: vec![],
        instr_lines: 0,
        instr_base: default_instr_base(),
    };
    let bytes = ltf::workload_to_ltf_bytes_v2(w).unwrap();
    let e = decode(&bytes[..bytes.len() - 2]).unwrap_err();
    assert_eq!(e, TraceError::Truncated { what: "store value" });
}
