//! Serializing [`Workload`]s into LTF streams.
//!
//! A [`VecTrace`] already holds its ops as an LTF v2 stream, so the writer
//! copies each core's stream bytes instead of decoding and re-encoding its
//! ops. The one exception is a stream whose deltas start from another
//! base line than the file's ([`super::v2::base_line`] of the workload's
//! regions; generated traces start from line 0): its first load or store
//! is re-encoded against the file's base, and every later byte is copied,
//! since each later address is relative to the access before it. The
//! writer needs `Write + Seek` because the core offset table sits in the
//! header but stream lengths are only known once the streams are written:
//! offsets are backpatched in place after the last stream. See
//! [`super::v2`] for the per-core stream encoding.

use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use lacc_core::rnuca::RegionClass;
use lacc_model::TraceError;

use crate::trace::{VecTrace, Workload};

use super::v2::{first_access, V2Encoder};
use super::{
    varint, CLASS_INSTRUCTION, CLASS_PRIVATE, CLASS_SHARED, MAGIC, MAX_CORES, MAX_NAME_LEN,
    MAX_REGIONS, VERSION,
};

/// What a dump wrote: per-core op counts and the encoded sizes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LtfSummary {
    /// Ops serialized for each core, in core order.
    pub ops_per_core: Vec<u64>,
    /// Encoded stream bytes for each core (op records plus the end
    /// marker; header and offset table excluded), in core order.
    pub bytes_per_core: Vec<u64>,
    /// Total bytes of the encoded file.
    pub bytes: u64,
}

impl LtfSummary {
    /// Total ops across all cores.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.ops_per_core.iter().sum()
    }
}

struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    written: u64,
}

impl<W: Write> CountingWriter<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.inner.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn put_varint(&mut self, value: u64) -> Result<(), TraceError> {
        let mut buf = Vec::with_capacity(varint::MAX_LEN);
        varint::encode(value, &mut buf);
        self.put(&buf)
    }
}

/// Serializes `workload` to `out`.
///
/// Each trace is written whole, from its first op, however far it has
/// been read. The file is written front to back; the core offset table
/// is backpatched at the end, after which the cursor is restored to
/// end-of-stream.
///
/// # Errors
///
/// [`TraceError::Io`] on any write or seek failure;
/// [`TraceError::Corrupt`] when the workload exceeds a decoder limit
/// (name over [`MAX_NAME_LEN`] bytes, more than [`MAX_CORES`] traces or
/// [`MAX_REGIONS`] regions) — the encoder refuses to produce a file the
/// reader would reject.
pub fn write_workload_v2<W: Write + Seek>(
    out: &mut W,
    workload: Workload,
) -> Result<LtfSummary, TraceError> {
    write_container(out, workload, copy_stream)
}

/// Writes one trace's stream against the file's `base_line` by copying
/// its bytes, re-encoding the first access when the trace was encoded
/// against another base. Returns the ops written.
fn copy_stream<W: Write>(
    w: &mut CountingWriter<'_, W>,
    trace: VecTrace,
    base_line: u64,
) -> Result<u64, TraceError> {
    let stream = trace.stream();
    let rebase =
        if trace.base_line() == base_line { None } else { first_access(stream, trace.base_line()) };
    match rebase {
        None => w.put(stream)?,
        Some((record, op)) => {
            let mut first = Vec::with_capacity(2 + varint::MAX_LEN + 8);
            V2Encoder::new(base_line).push(op, &mut first);
            w.put(&stream[..record.start])?;
            w.put(&first)?;
            w.put(&stream[record.end..])?;
        }
    }
    Ok(trace.total_ops())
}

/// Writes the container around the streams `put_stream` writes (one call
/// per trace, in core order, with the file's base line; it returns the
/// trace's op count).
fn write_container<W: Write + Seek>(
    out: &mut W,
    workload: Workload,
    mut put_stream: impl FnMut(&mut CountingWriter<'_, W>, VecTrace, u64) -> Result<u64, TraceError>,
) -> Result<LtfSummary, TraceError> {
    if workload.name.len() as u64 > MAX_NAME_LEN {
        return Err(TraceError::Corrupt { what: "name length exceeds limit" });
    }
    if workload.traces.len() as u64 > MAX_CORES {
        return Err(TraceError::Corrupt { what: "core count exceeds architecture limit" });
    }
    if workload.regions.len() as u64 > MAX_REGIONS {
        return Err(TraceError::Corrupt { what: "region count exceeds limit" });
    }
    let start = out.stream_position()?;
    let mut w = CountingWriter { inner: out, written: 0 };

    w.put(&MAGIC)?;
    w.put_varint(VERSION)?;
    w.put_varint(0)?; // flags, reserved
    w.put_varint(workload.name.len() as u64)?;
    w.put(workload.name.as_bytes())?;
    w.put_varint(workload.traces.len() as u64)?;
    w.put_varint(workload.instr_lines)?;
    w.put_varint(workload.instr_base.raw())?;

    w.put_varint(workload.regions.len() as u64)?;
    for region in &workload.regions {
        w.put_varint(region.first_line.raw())?;
        w.put_varint(region.lines)?;
        match region.class {
            RegionClass::Shared => w.put(&[CLASS_SHARED])?,
            RegionClass::Instruction => w.put(&[CLASS_INSTRUCTION])?,
            RegionClass::PrivateTo(core) => {
                w.put(&[CLASS_PRIVATE])?;
                w.put_varint(core.index() as u64)?;
            }
        }
    }

    // Placeholder offset table, backpatched once stream lengths are known.
    let table_at = start + w.written;
    w.put(&vec![0u8; workload.traces.len() * 8])?;

    let base_line = super::v2::base_line(&workload.regions);
    let mut offsets = Vec::with_capacity(workload.traces.len());
    let mut ops_per_core = Vec::with_capacity(workload.traces.len());
    let mut bytes_per_core = Vec::with_capacity(workload.traces.len());
    for trace in workload.traces {
        offsets.push(start + w.written);
        let stream_start = w.written;
        ops_per_core.push(put_stream(&mut w, trace, base_line)?);
        bytes_per_core.push(w.written - stream_start);
    }

    let bytes = w.written;
    let end = start + bytes;
    out.seek(SeekFrom::Start(table_at))?;
    for offset in &offsets {
        out.write_all(&offset.to_le_bytes())?;
    }
    out.seek(SeekFrom::Start(end))?;
    out.flush()?;
    Ok(LtfSummary { ops_per_core, bytes_per_core, bytes })
}

/// Encodes `workload` into an in-memory LTF byte vector.
///
/// # Errors
///
/// [`TraceError::Io`] if encoding fails (it cannot for a `Vec` sink).
pub fn workload_to_ltf_bytes_v2(workload: Workload) -> Result<Vec<u8>, TraceError> {
    let mut cursor = std::io::Cursor::new(Vec::new());
    write_workload_v2(&mut cursor, workload)?;
    Ok(cursor.into_inner())
}

impl Workload {
    /// Serializes this workload to a `.ltf` file at `path`, consuming it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on file-creation or write failure.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use lacc_sim::trace::{default_instr_base, VecTrace, Workload};
    /// let w = Workload {
    ///     name: "empty".into(),
    ///     traces: vec![VecTrace::new(vec![])],
    ///     regions: vec![],
    ///     instr_lines: 1,
    ///     instr_base: default_instr_base(),
    /// };
    /// w.dump_ltf_v2("empty.ltf")?;
    /// # Ok::<(), lacc_model::TraceError>(())
    /// ```
    pub fn dump_ltf_v2<P: AsRef<Path>>(self, path: P) -> Result<LtfSummary, TraceError> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        write_workload_v2(&mut out, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{default_instr_base, TraceOp, VecTrace};
    use lacc_model::Addr;

    fn tiny_workload() -> Workload {
        Workload {
            name: "tiny".into(),
            traces: vec![
                VecTrace::new(vec![TraceOp::Compute(2), TraceOp::Load { addr: Addr::new(0x80) }]),
                VecTrace::new(vec![TraceOp::Barrier { id: 0 }]),
            ],
            regions: vec![],
            instr_lines: 8,
            instr_base: default_instr_base(),
        }
    }

    #[test]
    fn bytes_start_with_magic_and_version() {
        let bytes = workload_to_ltf_bytes_v2(tiny_workload()).unwrap();
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(bytes[8], VERSION as u8);
    }

    #[test]
    fn summary_counts_ops_and_bytes() {
        let bytes = workload_to_ltf_bytes_v2(tiny_workload()).unwrap();
        let mut cursor = std::io::Cursor::new(Vec::new());
        let summary = write_workload_v2(&mut cursor, tiny_workload()).unwrap();
        assert_eq!(summary.ops_per_core, vec![2, 1]);
        assert_eq!(summary.total_ops(), 3);
        assert_eq!(summary.bytes, bytes.len() as u64);
        // Stream bytes account for everything after the offset table.
        let header_bytes = summary.bytes - summary.bytes_per_core.iter().sum::<u64>();
        let (_, offsets) = crate::ltf::read_header_bytes(&bytes).unwrap();
        assert_eq!(header_bytes, offsets[0]);
    }

    #[test]
    fn workloads_beyond_decoder_limits_are_refused() {
        let oversized_name = Workload {
            name: "n".repeat(super::MAX_NAME_LEN as usize + 1),
            traces: vec![],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        assert_eq!(
            workload_to_ltf_bytes_v2(oversized_name).unwrap_err(),
            lacc_model::TraceError::Corrupt { what: "name length exceeds limit" },
        );
        // Every successful dump must decode: the exact name-length limit
        // still round-trips.
        let at_limit = Workload {
            name: "n".repeat(super::MAX_NAME_LEN as usize),
            traces: vec![],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let bytes = workload_to_ltf_bytes_v2(at_limit).unwrap();
        assert!(crate::ltf::workload_from_bytes(bytes).is_ok());
    }

    #[test]
    fn empty_workload_encodes() {
        let w = Workload {
            name: String::new(),
            traces: vec![],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let bytes = workload_to_ltf_bytes_v2(w).unwrap();
        assert_eq!(&bytes[..8], &MAGIC);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ltf::v2::OP2_END;
    use crate::trace::{default_instr_base, RegionDecl, TraceOp};
    use lacc_model::{Addr, CoreId, LineAddr};
    use proptest::prelude::*;

    /// The writer the copying one replaced: drains every trace and
    /// encodes each op against the file's base line.
    fn write_workload_v2_per_op<W: Write + Seek>(
        out: &mut W,
        workload: Workload,
    ) -> Result<LtfSummary, TraceError> {
        write_container(out, workload, |w, mut trace, base_line| {
            let mut enc = V2Encoder::new(base_line);
            let mut buf = Vec::new();
            let mut count = 0;
            while let Some(op) = trace.next_op() {
                enc.push(op, &mut buf);
                count += 1;
            }
            enc.finish(&mut buf);
            buf.push(OP2_END);
            w.put(&buf)?;
            Ok(count)
        })
    }

    fn both_writers(make: impl Fn() -> Workload) -> Result<(), TestCaseError> {
        let mut copied = std::io::Cursor::new(Vec::new());
        let mut encoded = std::io::Cursor::new(Vec::new());
        let a = write_workload_v2(&mut copied, make()).unwrap();
        let b = write_workload_v2_per_op(&mut encoded, make()).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(copied.into_inner() == encoded.into_inner(), "the two writers' bytes differ");
        Ok(())
    }

    fn arb_addr() -> impl Strategy<Value = Addr> {
        prop_oneof![
            (0x1000u64..0x1400).prop_map(Addr::new),
            (0u64..(1 << 48)).prop_map(Addr::new),
            Just(Addr::new((1 << 48) - 8)),
        ]
    }

    fn arb_other() -> impl Strategy<Value = TraceOp> {
        prop_oneof![
            (0u32..12).prop_map(TraceOp::Compute),
            Just(TraceOp::Compute(3)),
            (0u32..1000).prop_map(|id| TraceOp::Barrier { id }),
            (0u32..4).prop_map(|id| TraceOp::Acquire { id }),
            (0u32..4).prop_map(|id| TraceOp::Release { id }),
        ]
    }

    fn arb_op() -> impl Strategy<Value = TraceOp> {
        prop_oneof![
            arb_other(),
            arb_addr().prop_map(|addr| TraceOp::Load { addr }),
            (arb_addr(), 0u64..u64::MAX).prop_map(|(addr, value)| TraceOp::Store { addr, value }),
        ]
    }

    /// Streams with accesses anywhere (first op or not), and streams
    /// with none at all.
    fn arb_stream() -> impl Strategy<Value = Vec<TraceOp>> {
        prop_oneof![
            proptest::collection::vec(arb_op(), 0..40),
            proptest::collection::vec(arb_other(), 0..8),
        ]
    }

    /// Region tables whose base line is 0 (none, or only instruction
    /// regions), near the accesses, or far from them.
    fn arb_regions() -> impl Strategy<Value = Vec<RegionDecl>> {
        let region = (prop_oneof![Just(0u64), 0x3Fu64..0x52, 0u64..(1 << 42)], 0u8..3).prop_map(
            |(first, tag)| RegionDecl {
                first_line: LineAddr::new(first),
                lines: 64,
                class: match tag {
                    0 => RegionClass::Shared,
                    1 => RegionClass::Instruction,
                    _ => RegionClass::PrivateTo(CoreId::new(0)),
                },
            },
        );
        proptest::collection::vec(region, 0..3)
    }

    fn workload(streams: &[Vec<TraceOp>], regions: &[RegionDecl]) -> Workload {
        Workload {
            name: "w".into(),
            traces: streams.iter().map(|ops| VecTrace::new(ops.clone())).collect(),
            regions: regions.to_vec(),
            instr_lines: 4,
            instr_base: default_instr_base(),
        }
    }

    proptest! {
        /// Copying stream bytes, rebasing only the first access, writes
        /// exactly what encoding every op did: for generated traces, and
        /// for replayed ones written back under another region table.
        #[test]
        fn copying_writer_matches_per_op_encoding(
            streams in proptest::collection::vec(arb_stream(), 0..5),
            regions in arb_regions(),
            other_regions in arb_regions(),
        ) {
            both_writers(|| workload(&streams, &regions))?;
            let bytes = workload_to_ltf_bytes_v2(workload(&streams, &regions)).unwrap();
            both_writers(|| {
                let mut w = crate::ltf::workload_from_bytes(bytes.clone()).unwrap();
                w.regions = other_regions.clone();
                w
            })?;
        }
    }
}
