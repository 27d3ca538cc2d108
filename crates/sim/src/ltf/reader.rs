//! LTF decoding.
//!
//! [`read_workload`] is the replay entry point: it reads the file once
//! into an owned buffer and hands it to [`workload_from_bytes`], which
//! decodes and validates header, region table and every op of every
//! stream in a single pass over that buffer, then hands back a
//! [`Workload`] whose per-core traces are [`VecTrace`]s — the same type
//! generated traces use — that all share the one buffer and decode in
//! place, one op per call ([`VecTrace::next_op`], which the engine calls
//! directly). Nothing is copied out of the buffer and no per-core file
//! handles exist. Because the buffer is owned and immutable, replay
//! decodes exactly the bytes that were validated, whatever happens to
//! the file afterwards.
//!
//! Header, offset table and streams are all parsed straight off the byte
//! slice with [`varint::take`], and the streams must tile the area after
//! the offset table exactly: stream 0 starts where the table ends, each
//! stream's end marker is the last byte before the next stream, and the
//! last one's is the file's last byte.

use std::path::Path;
use std::sync::Arc;

use lacc_core::rnuca::RegionClass;
use lacc_model::{CoreId, LineAddr, TraceError};

use crate::trace::{RegionDecl, VecTrace, Workload};

use super::{
    varint, CLASS_INSTRUCTION, CLASS_PRIVATE, CLASS_SHARED, MAGIC, MAX_CORES, MAX_NAME_LEN,
    MAX_REGIONS, STREAMS_DO_NOT_TILE, VERSION,
};

/// Everything an LTF header declares about its workload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LtfHeader {
    /// Workload name.
    pub name: String,
    /// Number of per-core op streams.
    pub num_cores: usize,
    /// Instruction footprint per core, in cache lines.
    pub instr_lines: u64,
    /// First line of the text segment.
    pub instr_base: LineAddr,
    /// R-NUCA oracle declarations.
    pub regions: Vec<RegionDecl>,
}

/// Takes the next `len` bytes of `bytes` at `*pos`, advancing the cursor.
fn take_bytes<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    len: usize,
    what: &'static str,
) -> Result<&'a [u8], TraceError> {
    let start = (*pos).min(bytes.len());
    let taken = bytes.get(start..start + len).ok_or(TraceError::Truncated { what })?;
    *pos = start + len;
    Ok(taken)
}

/// Decodes the header (magic through region table) from `bytes` at
/// `*pos`, leaving the cursor at the start of the core offset table.
fn take_header(bytes: &[u8], pos: &mut usize) -> Result<LtfHeader, TraceError> {
    let magic = take_bytes(bytes, pos, MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic.to_vec() });
    }
    let version = varint::take(bytes, pos, "version")?;
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    if varint::take(bytes, pos, "flags")? != 0 {
        return Err(TraceError::Corrupt { what: "reserved flags must be zero" });
    }

    let name_len = varint::take(bytes, pos, "name length")?;
    if name_len > MAX_NAME_LEN {
        return Err(TraceError::Corrupt { what: "name length exceeds limit" });
    }
    let name = std::str::from_utf8(take_bytes(bytes, pos, name_len as usize, "name")?)
        .map_err(|_| TraceError::BadUtf8 { what: "name" })?
        .to_owned();

    let num_cores = varint::take(bytes, pos, "core count")?;
    if num_cores > MAX_CORES {
        return Err(TraceError::Corrupt { what: "core count exceeds architecture limit" });
    }
    let instr_lines = varint::take(bytes, pos, "instruction footprint")?;
    let instr_base = LineAddr::new(varint::take(bytes, pos, "instruction base")?);

    let num_regions = varint::take(bytes, pos, "region count")?;
    if num_regions > MAX_REGIONS {
        return Err(TraceError::Corrupt { what: "region count exceeds limit" });
    }
    let mut regions = Vec::with_capacity(num_regions as usize);
    for _ in 0..num_regions {
        let first_line = LineAddr::new(varint::take(bytes, pos, "region first line")?);
        let lines = varint::take(bytes, pos, "region length")?;
        let class = match take_bytes(bytes, pos, 1, "region class")?[0] {
            CLASS_SHARED => RegionClass::Shared,
            CLASS_INSTRUCTION => RegionClass::Instruction,
            CLASS_PRIVATE => {
                let core = varint::take(bytes, pos, "region owner core")?;
                if core >= MAX_CORES {
                    return Err(TraceError::Corrupt { what: "region owner core out of range" });
                }
                RegionClass::PrivateTo(CoreId::new(core as usize))
            }
            tag => return Err(TraceError::BadRegionClass { tag }),
        };
        regions.push(RegionDecl { first_line, lines, class });
    }

    Ok(LtfHeader { name, num_cores: num_cores as usize, instr_lines, instr_base, regions })
}

fn check_offsets(offsets: &[u64], streams_start: u64, len: u64) -> Result<(), TraceError> {
    for &offset in offsets {
        // Every stream holds at least its end marker, so a valid offset
        // points strictly inside the file, at or after the offset table.
        if offset < streams_start || offset >= len {
            return Err(TraceError::Corrupt { what: "core offset outside stream area" });
        }
    }
    // The streams tile the rest of the file, so the first starts where
    // the table ends (and a file without streams ends with its table).
    // That each stream ends where the next begins is checked as the
    // streams are decoded (`VecTrace::open`).
    if offsets.first().copied().unwrap_or(len) != streams_start {
        return Err(TraceError::Corrupt { what: STREAMS_DO_NOT_TILE });
    }
    Ok(())
}

/// Opens a `.ltf` file as a replayable [`Workload`]: reads the whole file
/// once and hands the bytes to [`workload_from_bytes`].
///
/// # Errors
///
/// Any [`TraceError`]: I/O failures, bad magic, any version other than
/// [`VERSION`], truncation anywhere, over-long varints, undefined opcodes
/// or region classes, offsets outside the file, streams that do not tile
/// the bytes after the offset table.
pub fn read_workload<P: AsRef<Path>>(path: P) -> Result<Workload, TraceError> {
    workload_from_bytes(std::fs::read(path)?)
}

/// Decodes an in-memory LTF image as a replayable [`Workload`] whose
/// per-core traces are [`VecTrace`] cursors over `bytes`.
///
/// The image is validated in a single pass — header, offset table, then
/// every op of every stream exactly once — so any corruption surfaces
/// here as a typed error rather than during simulation. The buffer is
/// moved, not copied: every core's cursor shares it behind one `Arc`.
///
/// # Errors
///
/// Same failure modes as [`read_workload`], minus the I/O.
pub fn workload_from_bytes(bytes: Vec<u8>) -> Result<Workload, TraceError> {
    let (header, offsets) = read_header_bytes(&bytes)?;
    let buf = Arc::new(bytes);
    let base_line = super::v2::base_line(&header.regions);
    // Stream i occupies the bytes up to stream i + 1, the last one the
    // rest of the file.
    let ends = offsets.iter().skip(1).map(|&end| end as usize).chain([buf.len()]);
    let traces = offsets
        .iter()
        .zip(ends)
        .map(|(&start, end)| VecTrace::open(Arc::clone(&buf), start as usize..end, base_line))
        .collect::<Result<_, _>>()?;
    Ok(Workload {
        name: header.name,
        traces,
        regions: header.regions,
        instr_lines: header.instr_lines,
        instr_base: header.instr_base,
    })
}

/// Decodes the header and core offset table from an in-memory LTF image.
///
/// # Errors
///
/// Any [`TraceError`] a malformed header can produce: wrong magic,
/// unsupported version, truncation (including of the offset table),
/// over-long varints, undefined region class tags, out-of-range counts,
/// offsets outside the stream area, a first stream that does not start
/// where the offset table ends.
pub fn read_header_bytes(bytes: &[u8]) -> Result<(LtfHeader, Vec<u64>), TraceError> {
    let mut pos = 0;
    let header = take_header(bytes, &mut pos)?;
    let table = take_bytes(bytes, &mut pos, header.num_cores * 8, "core offset table")?;
    let offsets: Vec<u64> = table
        .chunks_exact(8)
        .map(|entry| u64::from_le_bytes(entry.try_into().expect("8-byte chunk")))
        .collect();
    check_offsets(&offsets, pos as u64, bytes.len() as u64)?;
    Ok((header, offsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltf::workload_to_ltf_bytes_v2;
    use crate::trace::{default_instr_base, TraceOp};
    use lacc_model::Addr;

    fn sample() -> Workload {
        Workload {
            name: "sample".into(),
            traces: vec![
                VecTrace::new(vec![
                    TraceOp::Compute(7),
                    TraceOp::Store { addr: Addr::new(0x1040), value: u64::MAX },
                    TraceOp::Load { addr: Addr::new(0x1040) },
                ]),
                VecTrace::new(vec![
                    TraceOp::Acquire { id: 1 },
                    TraceOp::Release { id: 1 },
                    TraceOp::Barrier { id: 0 },
                ]),
            ],
            regions: vec![
                RegionDecl {
                    first_line: LineAddr::new(0x41),
                    lines: 16,
                    class: RegionClass::Shared,
                },
                RegionDecl {
                    first_line: LineAddr::new(0x100),
                    lines: 4,
                    class: RegionClass::PrivateTo(CoreId::new(1)),
                },
                RegionDecl {
                    first_line: LineAddr::new(0x200),
                    lines: 2,
                    class: RegionClass::Instruction,
                },
            ],
            instr_lines: 12,
            instr_base: default_instr_base(),
        }
    }

    /// Every core's ops, in order.
    fn drain(w: Workload) -> Vec<Vec<TraceOp>> {
        w.traces.into_iter().map(|mut t| std::iter::from_fn(|| t.next_op()).collect()).collect()
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let bytes = workload_to_ltf_bytes_v2(sample()).unwrap();
        let w = workload_from_bytes(bytes).unwrap();
        assert_eq!(w.name, "sample");
        assert_eq!(w.active_cores(), 2);
        assert_eq!(w.instr_lines, 12);
        assert_eq!(w.instr_base, default_instr_base());
        assert_eq!(w.regions, sample().regions);
        let ops = drain(w);
        assert_eq!(ops[0][1], TraceOp::Store { addr: Addr::new(0x1040), value: u64::MAX });
        assert_eq!(ops[0].len(), 3);
        assert_eq!(ops[1].len(), 3);
    }

    #[test]
    fn file_round_trip_streams() {
        let path = std::env::temp_dir().join("lacc_ltf_reader_unit.ltf");
        sample().dump_ltf_v2(&path).unwrap();
        let replayed = read_workload(&path).unwrap();
        assert_eq!(replayed.name, "sample");
        assert_eq!(replayed.active_cores(), 2);
        let mut core0 = replayed.traces.into_iter().next().unwrap();
        assert_eq!(core0.next_op(), Some(TraceOp::Compute(7)));
        assert_eq!(
            core0.next_op(),
            Some(TraceOp::Store { addr: Addr::new(0x1040), value: u64::MAX })
        );
        assert_eq!(core0.next_op(), Some(TraceOp::Load { addr: Addr::new(0x1040) }));
        assert_eq!(core0.next_op(), None);
        assert_eq!(core0.next_op(), None, "exhausted streams stay exhausted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursors_share_one_buffer_and_batch_decode() {
        let bytes = workload_to_ltf_bytes_v2(sample()).unwrap();
        let w = workload_from_bytes(bytes).unwrap();
        let mut ops = Vec::new();
        let mut traces = w.traces;
        assert_eq!(traces[0].next_ops(&mut ops, 100), 3, "short batch means end of stream");
        assert_eq!(ops.len(), 3);
        assert_eq!(traces[0].next_ops(&mut ops, 100), 0);
        // A bounded batch leaves the rest for the next call.
        assert_eq!(traces[1].next_ops(&mut ops, 2), 2);
        assert_eq!(traces[1].next_ops(&mut ops, 2), 1);
    }

    #[test]
    fn zero_core_workload_round_trips() {
        let w = Workload {
            name: "none".into(),
            traces: vec![],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let bytes = workload_to_ltf_bytes_v2(w).unwrap();
        assert_eq!(workload_from_bytes(bytes).unwrap().active_cores(), 0);
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = read_workload("/nonexistent/definitely/not/here.ltf").unwrap_err();
        assert!(matches!(e, TraceError::Io { .. }));
    }
}
