//! LTF op streams: the delta-compressed per-core encoding.
//!
//! The container (magic, header, region table, fixed-width core offset
//! table) is specified in [`super`]; this module encodes what follows it,
//! one stream per core, trading a little encoder/decoder state for a
//! dense stream:
//!
//! - **Line-delta addresses.** Memory traffic is overwhelmingly local:
//!   consecutive accesses land on the same or nearby cache lines even
//!   though the absolute addresses sit gigabytes up the 48-bit space
//!   (where an absolute address varint costs 4–6 bytes). Each
//!   load/store address is a single *packed* varint
//!   `zigzag(line − prev_line) · 64 + offset_in_line`: the signed-zigzag
//!   line delta in the high bits, the byte offset within the 64-byte line
//!   in the low six. A same-line access is one byte; a stride of a few
//!   lines is two.
//! - **Region-relative base.** `prev_line` starts at the first line of
//!   the header's first non-instruction [`RegionDecl`] (or 0 when there
//!   is none), so the first access of every core pays only its distance
//!   from the region table the file already carries — no per-stream
//!   preamble, and the writer stays single-pass.
//! - **Run-length compute.** Consecutive identical `Compute(n)` ops
//!   collapse into one `COMPUTE_RUN` record carrying a repeat count
//!   (bounded by [`MAX_RUN`] so a corrupt count cannot amplify without
//!   limit).
//! - **Single-byte immediates.** The tag byte has 256 values and the
//!   general records use eight, so the rest go to the hot cases:
//!   `Compute(1..=8)` is one byte, and a word-aligned load or store whose
//!   line delta fits ±7 lines packs its whole address *into the tag*
//!   (the sequential and strided walks that dominate the suite become one
//!   byte per load).
//! - **Fixed-width store values.** Store values are data, not structure —
//!   the suite's are uniform random `u64`s, which a varint *expands* to
//!   ten bytes. They are stored as eight raw little-endian bytes.
//!
//! Decoding is total: every arithmetic step wraps and every operand is
//! bounds-checked, so corrupt or truncated input yields a typed
//! [`TraceError`], never a panic — the every-prefix sweep in
//! `tests/ltf_robustness.rs` runs the whole format through a debug build.
//!
//! ```text
//! stream  := op* 0x00                              ; one per core
//! op      := 0x01 varint(n)                        ; Compute(n)
//!          | 0x02 varint(n) varint(repeat)         ; Compute(n) × repeat, 2..=MAX_RUN
//!          | 0x03 varint(packed)                   ; Load
//!          | 0x04 varint(packed) u64le(value)      ; Store
//!          | 0x05 varint(id)                       ; Barrier
//!          | 0x06 varint(id)                       ; Acquire
//!          | 0x07 varint(id)                       ; Release
//!          | 0x08 + (n-1)                          ; Compute(n), n in 1..=8
//!          | 0x10 + imm                            ; Load, imm in 0..=111
//!          | 0x80 + imm, u64le(value)              ; Store, imm in 0..=111
//! packed  := zigzag(line - prev_line) * 64 + (addr mod 64)
//! imm     := zigzag(line - prev_line) * 8 + (addr mod 64) / 8
//!                                                  ; only when addr ≡ 0 (mod 8)
//!                                                  ; and zigzag(delta) ≤ 13
//! zigzag  := 2·d when d ≥ 0, -2·d - 1 when d < 0   ; two's-complement d
//! ```
//!
//! Tags `0xF0..=0xFF` are undefined and decode to
//! [`TraceError::BadOpCode`]. After every load/store — packed or
//! immediate — `prev_line` becomes the line just accessed. Because
//! [`Addr`] is 48 bits, lines fit in 42 bits and a packed value in 49,
//! so the packing can never overflow a `u64`.

use std::ops::Range;

use lacc_core::rnuca::RegionClass;
use lacc_model::addr::{LINE_BYTES, LINE_SHIFT};
use lacc_model::{Addr, TraceError};

use crate::trace::{RegionDecl, TraceOp};

use super::varint;

/// End-of-stream marker terminating each per-core v2 op stream.
pub const OP2_END: u8 = 0x00;
/// A single `Compute(n)`.
pub const OP2_COMPUTE: u8 = 0x01;
/// `repeat` consecutive `Compute(n)` ops in one record.
pub const OP2_COMPUTE_RUN: u8 = 0x02;
/// A load with a packed line-delta address.
pub const OP2_LOAD: u8 = 0x03;
/// A store with a packed line-delta address and a fixed 8-byte LE value.
pub const OP2_STORE: u8 = 0x04;
/// A barrier (varint id).
pub const OP2_BARRIER: u8 = 0x05;
/// A lock acquire (varint id).
pub const OP2_ACQUIRE: u8 = 0x06;
/// A lock release (varint id).
pub const OP2_RELEASE: u8 = 0x07;
/// First of eight immediate-compute tags: tag `0x08 + k` is
/// `Compute(k + 1)` in one byte.
pub const OP2_COMPUTE_IMM: u8 = 0x08;
/// First of [`IMM_SPAN`] immediate-load tags: tag `0x10 + imm` is a load
/// whose whole word-aligned, near-delta address is the tag (see the
/// module grammar).
pub const OP2_LOAD_IMM: u8 = 0x10;
/// First of [`IMM_SPAN`] immediate-store tags (followed by the fixed
/// 8-byte value).
pub const OP2_STORE_IMM: u8 = 0x80;
/// Largest `Compute(n)` an immediate-compute tag can carry.
pub const IMM_COMPUTE_MAX: u32 = 8;
/// Number of immediate address values (`imm` in `0..IMM_SPAN`): zigzag
/// line deltas `0..=13` × 8 words.
pub const IMM_SPAN: u8 = 112;

/// Last immediate-compute tag (`Compute(IMM_COMPUTE_MAX)`).
const IMM_COMPUTE_LAST: u8 = OP2_LOAD_IMM - 1;
/// Last immediate-load tag.
const IMM_LOAD_LAST: u8 = OP2_LOAD_IMM + IMM_SPAN - 1;
/// Last immediate-store tag.
const IMM_STORE_LAST: u8 = OP2_STORE_IMM + IMM_SPAN - 1;

/// Longest compute run a single `COMPUTE_RUN` record may claim. Bounds
/// the op-amplification of one record, so eager decoders cannot be blown
/// up by a corrupt repeat count.
pub const MAX_RUN: u64 = 1 << 16;

/// The shared starting value of `prev_line`: the first line of the first
/// non-instruction region declaration, or 0 when there is none. Writer
/// and reader both derive it from the region table, so it costs no
/// stream bytes.
#[must_use]
pub fn base_line(regions: &[RegionDecl]) -> u64 {
    regions
        .iter()
        .find(|r| !matches!(r.class, RegionClass::Instruction))
        .map_or(0, |r| r.first_line.raw())
}

/// Maps a two's-complement delta onto small unsigned values
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
#[must_use]
#[inline]
pub fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    (d.wrapping_shl(1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
#[inline]
pub fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ 0u64.wrapping_sub(z & 1)
}

/// Streaming v2 op encoder for one core's stream.
///
/// Feed every op through [`push`](V2Encoder::push) and call
/// [`finish`](V2Encoder::finish) before writing the end marker — a
/// pending compute run is held back until the encoder sees what follows
/// it.
#[derive(Debug)]
pub struct V2Encoder {
    prev_line: u64,
    run: Option<(u32, u64)>,
}

impl V2Encoder {
    /// Starts a stream whose first address is relative to `base_line`
    /// (see [`base_line`]).
    #[must_use]
    pub fn new(base_line: u64) -> Self {
        V2Encoder { prev_line: base_line, run: None }
    }

    /// Appends the encoding of `op` to `out`. May emit nothing (a compute
    /// run still accumulating) or a previous run plus this op.
    // Forced inline: the workload generators encode every op as they
    // produce it, and with a plain `#[inline]` hint LTO kept this and
    // `push_access` out of line, which made generation ~10% slower.
    #[inline(always)]
    pub fn push(&mut self, op: TraceOp, out: &mut Vec<u8>) {
        if let TraceOp::Compute(n) = op {
            if let Some((run_n, count)) = &mut self.run {
                if *run_n == n && *count < MAX_RUN {
                    *count += 1;
                    return;
                }
            }
            self.finish(out);
            self.run = Some((n, 1));
            return;
        }
        if self.run.is_some() {
            self.finish(out);
        }
        match op {
            TraceOp::Compute(_) => unreachable!("handled above"),
            TraceOp::Load { addr } => {
                self.push_access(OP2_LOAD, OP2_LOAD_IMM, addr, out);
            }
            TraceOp::Store { addr, value } => {
                self.push_access(OP2_STORE, OP2_STORE_IMM, addr, out);
                out.extend_from_slice(&value.to_le_bytes());
            }
            TraceOp::Barrier { id } => {
                out.push(OP2_BARRIER);
                varint::encode(u64::from(id), out);
            }
            TraceOp::Acquire { id } => {
                out.push(OP2_ACQUIRE);
                varint::encode(u64::from(id), out);
            }
            TraceOp::Release { id } => {
                out.push(OP2_RELEASE);
                varint::encode(u64::from(id), out);
            }
        }
    }

    /// Flushes a pending compute run. Must be called after the last op of
    /// the stream (pushing any non-compute op flushes implicitly).
    #[inline(always)]
    pub fn finish(&mut self, out: &mut Vec<u8>) {
        match self.run.take() {
            None => {}
            // Up to two small computes are cheaper as immediate tags than
            // as a three-byte run record.
            Some((n, count)) if (1..=IMM_COMPUTE_MAX).contains(&n) && count <= 2 => {
                for _ in 0..count {
                    out.push(OP2_COMPUTE_IMM + (n as u8 - 1));
                }
            }
            Some((n, 1)) => {
                out.push(OP2_COMPUTE);
                varint::encode(u64::from(n), out);
            }
            Some((n, count)) => {
                out.push(OP2_COMPUTE_RUN);
                varint::encode(u64::from(n), out);
                varint::encode(count, out);
            }
        }
    }

    /// Encodes the address of one load/store, picking the immediate tag
    /// when it fits (word-aligned, zigzag delta ≤ 13) and the general
    /// `tag + varint(packed)` form otherwise.
    #[inline(always)]
    fn push_access(&mut self, tag: u8, imm_base: u8, addr: Addr, out: &mut Vec<u8>) {
        let raw = addr.raw();
        let line = raw >> LINE_SHIFT;
        let offset = raw & (LINE_BYTES - 1);
        let z = zigzag(line.wrapping_sub(self.prev_line));
        self.prev_line = line;
        let imm = (z << 3) | (offset >> 3);
        if offset & 7 == 0 && imm < u64::from(IMM_SPAN) {
            out.push(imm_base + imm as u8);
        } else {
            out.push(tag);
            // 42-bit lines keep zigzag(delta) << 6 well inside a u64.
            varint::encode((z << LINE_SHIFT) | offset, out);
        }
    }
}

/// Streaming v2 op decoder for one core's stream: the exact inverse of
/// [`V2Encoder`], total over arbitrary input.
#[derive(Clone, Debug)]
pub struct V2Decoder {
    prev_line: u64,
    /// `(n, remaining)` of a compute run still being emitted.
    run: Option<(u32, u64)>,
}

impl V2Decoder {
    /// Starts decoding a stream written against `base_line`.
    #[must_use]
    pub fn new(base_line: u64) -> Self {
        V2Decoder { prev_line: base_line, run: None }
    }

    /// Decodes the next op from `bytes` at `*pos`, advancing `*pos` past
    /// the bytes consumed; `Ok(None)` is the end-of-stream marker.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] mid-record, [`TraceError::BadOpCode`] on
    /// an undefined tag, [`TraceError::Corrupt`] when an operand is out
    /// of range (32-bit overflow, run length outside `2..=MAX_RUN`),
    /// [`TraceError::OverlongVarint`] on an over-long scalar.
    // Forced inline, like `record`: a decode loop keeps its cursor in a
    // register only when the whole step is inlined into it.
    #[inline(always)]
    pub fn next(&mut self, bytes: &[u8], pos: &mut usize) -> Result<Option<TraceOp>, TraceError> {
        if let Some((n, remaining)) = &mut self.run {
            let op = TraceOp::Compute(*n);
            *remaining -= 1;
            if *remaining == 0 {
                self.run = None;
            }
            return Ok(Some(op));
        }
        match self.record::<true>(bytes, pos)? {
            Record::End => Ok(None),
            Record::Op(op) => Ok(Some(op)),
            Record::Skipped(_) => unreachable!("a building step returns its op"),
        }
    }

    /// Decodes the record at `*pos`: the one walk over the grammar, which
    /// [`next`](Self::next) builds ops with and [`count_ops`] validates
    /// with. Both see the same checks in the same order, so both fail on
    /// the same byte with the same error.
    ///
    /// With `BUILD` the record's op comes back as [`Record::Op`] (a run
    /// record's further ops wait in `run`). Without it nothing is built
    /// and neither `prev_line` nor `run` moves: the record comes back as
    /// the number of ops it holds, a whole run at once.
    #[inline(always)]
    fn record<const BUILD: bool>(
        &mut self,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<Record, TraceError> {
        let tag = take_u8(bytes, pos, "opcode")?;
        let op = match tag {
            OP2_END => return Ok(Record::End),
            OP2_COMPUTE => {
                let n = take_u32(bytes, pos, "compute count")?;
                BUILD.then_some(TraceOp::Compute(n))
            }
            OP2_COMPUTE_RUN => {
                let n = take_u32(bytes, pos, "compute count")?;
                let repeat = varint::take(bytes, pos, "compute run length")?;
                if !(2..=MAX_RUN).contains(&repeat) {
                    return Err(TraceError::Corrupt { what: "compute run length out of range" });
                }
                if !BUILD {
                    return Ok(Record::Skipped(repeat));
                }
                self.run = Some((n, repeat - 1));
                Some(TraceOp::Compute(n))
            }
            OP2_LOAD => {
                let packed = varint::take(bytes, pos, "load address")?;
                BUILD.then(|| TraceOp::Load { addr: self.packed_addr(packed) })
            }
            OP2_STORE => {
                let packed = varint::take(bytes, pos, "store address")?;
                let value = take_value(bytes, pos)?;
                BUILD.then(|| TraceOp::Store { addr: self.packed_addr(packed), value })
            }
            OP2_BARRIER => {
                let id = take_u32(bytes, pos, "barrier id")?;
                BUILD.then_some(TraceOp::Barrier { id })
            }
            OP2_ACQUIRE => {
                let id = take_u32(bytes, pos, "lock id")?;
                BUILD.then_some(TraceOp::Acquire { id })
            }
            OP2_RELEASE => {
                let id = take_u32(bytes, pos, "lock id")?;
                BUILD.then_some(TraceOp::Release { id })
            }
            tag @ OP2_COMPUTE_IMM..=IMM_COMPUTE_LAST => {
                BUILD.then_some(TraceOp::Compute(u32::from(tag - OP2_COMPUTE_IMM) + 1))
            }
            tag @ OP2_LOAD_IMM..=IMM_LOAD_LAST => {
                BUILD.then(|| TraceOp::Load { addr: self.imm_addr(tag - OP2_LOAD_IMM) })
            }
            tag @ OP2_STORE_IMM..=IMM_STORE_LAST => {
                let value = take_value(bytes, pos)?;
                BUILD.then(|| TraceOp::Store { addr: self.imm_addr(tag - OP2_STORE_IMM), value })
            }
            code => return Err(TraceError::BadOpCode { code }),
        };
        Ok(op.map_or(Record::Skipped(1), Record::Op))
    }

    /// Reconstructs an address from a packed `zigzag(delta)·64 + offset`
    /// value.
    #[inline]
    fn packed_addr(&mut self, packed: u64) -> Addr {
        // Wrapping throughout: a corrupt packed value must decode to
        // *some* address, never trip debug overflow checks.
        let line = self.prev_line.wrapping_add(unzigzag(packed >> LINE_SHIFT));
        self.prev_line = line;
        Addr::new((line << LINE_SHIFT) | (packed & (LINE_BYTES - 1)))
    }

    /// Reconstructs a word-aligned near address from an immediate tag
    /// payload (`imm = zigzag(delta)·8 + word`).
    #[inline]
    fn imm_addr(&mut self, imm: u8) -> Addr {
        let line = self.prev_line.wrapping_add(unzigzag(u64::from(imm) >> 3));
        self.prev_line = line;
        Addr::new((line << LINE_SHIFT) | (u64::from(imm & 7) << 3))
    }
}

/// What [`V2Decoder::record`] read.
enum Record {
    /// The end-of-stream marker.
    End,
    /// The record's op (when building).
    Op(TraceOp),
    /// The number of ops the record holds (when only validating).
    Skipped(u64),
}

/// Validates the stream starting at `bytes[start]` through its end
/// marker without building an op. Returns the number of ops it holds and
/// the offset just past the marker: what a loop over [`V2Decoder::next`]
/// counts and where it stops, or the error that loop hits first.
///
/// # Errors
///
/// Those of [`V2Decoder::next`].
// Kept out of line, with the cursor in a local: the loop is a file's
// whole validation, and inlined into a large caller it kept `pos` in
// memory, a store and a reload on every record.
#[inline(never)]
pub(crate) fn count_ops(bytes: &[u8], start: usize) -> Result<(u64, usize), TraceError> {
    // Without `BUILD` the step reads no decoder state, so any base will do.
    let mut dec = V2Decoder::new(0);
    let (mut ops, mut pos) = (0u64, start);
    loop {
        match dec.record::<false>(bytes, &mut pos)? {
            Record::End => return Ok((ops, pos)),
            Record::Skipped(k) => ops += k,
            Record::Op(_) => unreachable!("a validating step builds no op"),
        }
    }
}

/// The first load or store of a valid `stream` decoded against
/// `base_line`: the byte range of its record and the op, or `None` when
/// the stream has no access. Every later address is relative to this
/// one, so moving a stream to another base line re-encodes only this
/// record.
///
/// # Panics
///
/// Panics if `stream` does not decode.
pub(crate) fn first_access(stream: &[u8], base_line: u64) -> Option<(Range<usize>, TraceOp)> {
    let mut dec = V2Decoder::new(base_line);
    let mut pos = 0;
    loop {
        // A pending compute run emits ops without consuming bytes, so
        // `at` is the start of a record whenever the record is an access.
        let at = pos;
        let op = dec.next(stream, &mut pos).expect("first_access takes a valid stream")?;
        if matches!(op, TraceOp::Load { .. } | TraceOp::Store { .. }) {
            return Some((at..pos, op));
        }
    }
}

#[inline]
fn take_u8(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, TraceError> {
    match bytes.get(*pos) {
        Some(&b) => {
            *pos += 1;
            Ok(b)
        }
        None => Err(TraceError::Truncated { what }),
    }
}

#[inline]
fn take_u32(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, TraceError> {
    u32::try_from(varint::take(bytes, pos, what)?)
        .map_err(|_| TraceError::Corrupt { what: "32-bit operand overflows" })
}

/// Reads a store value: eight raw little-endian bytes.
#[inline]
fn take_value(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let start = (*pos).min(bytes.len());
    match bytes.get(start..start + 8) {
        Some(chunk) => {
            *pos = start + 8;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(chunk);
            Ok(u64::from_le_bytes(raw))
        }
        None => Err(TraceError::Truncated { what: "store value" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lacc_core::rnuca::RegionClass;
    use lacc_model::{CoreId, LineAddr};

    fn round_trip(base: u64, ops: &[TraceOp]) -> Vec<u8> {
        let mut enc = V2Encoder::new(base);
        let mut bytes = Vec::new();
        for &op in ops {
            enc.push(op, &mut bytes);
        }
        enc.finish(&mut bytes);
        bytes.push(OP2_END);

        let mut dec = V2Decoder::new(base);
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(op) = dec.next(&bytes, &mut pos).unwrap() {
            decoded.push(op);
        }
        assert_eq!(decoded, ops);
        assert_eq!(pos, bytes.len(), "decoder consumed the whole stream");
        bytes
    }

    #[test]
    fn zigzag_known_vectors() {
        for (d, z) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!(zigzag(d as u64), z);
            assert_eq!(unzigzag(z), d as u64);
        }
        assert_eq!(unzigzag(zigzag(u64::MAX)), u64::MAX);
        assert_eq!(unzigzag(zigzag(i64::MIN as u64)), i64::MIN as u64);
    }

    #[test]
    fn every_op_kind_round_trips() {
        round_trip(
            0x41,
            &[
                TraceOp::Compute(7),
                TraceOp::Load { addr: Addr::new(0x1040) },
                TraceOp::Store { addr: Addr::new(0x1048), value: u64::MAX },
                TraceOp::Load { addr: Addr::new(0x10) },
                TraceOp::Barrier { id: 3 },
                TraceOp::Acquire { id: 9 },
                TraceOp::Release { id: 9 },
                TraceOp::Compute(u32::MAX),
            ],
        );
    }

    #[test]
    fn near_aligned_access_is_one_byte() {
        // prev_line == accessed line, word-aligned: the tag is the op.
        let mut enc = V2Encoder::new(0x41);
        let mut bytes = Vec::new();
        enc.push(TraceOp::Load { addr: Addr::new(0x1048) }, &mut bytes);
        assert_eq!(bytes, [OP2_LOAD_IMM + 1], "zigzag(0)·8 + word 1");
        // Next line, word 0: still immediate.
        enc.push(TraceOp::Load { addr: Addr::new(0x1080) }, &mut bytes);
        assert_eq!(bytes[1..], [OP2_LOAD_IMM + 0x10], "zigzag(+1)·8 + word 0");
        // An unaligned byte offset falls back to the general form.
        enc.push(TraceOp::Load { addr: Addr::new(0x1081) }, &mut bytes);
        assert_eq!(bytes[2..], [OP2_LOAD, 0x01]);
    }

    #[test]
    fn small_computes_use_immediate_tags() {
        // One or two small computes: immediate bytes. Three identical:
        // a run record. A large count: the plain varint record.
        let one = round_trip(0, &[TraceOp::Compute(1)]);
        assert_eq!(one, [OP2_COMPUTE_IMM, OP2_END]);
        let two = round_trip(0, &[TraceOp::Compute(8), TraceOp::Compute(8)]);
        assert_eq!(two, [OP2_COMPUTE_IMM + 7, OP2_COMPUTE_IMM + 7, OP2_END]);
        let big = round_trip(0, &[TraceOp::Compute(9)]);
        assert_eq!(big, [OP2_COMPUTE, 9, OP2_END]);
    }

    #[test]
    fn compute_runs_collapse_and_split() {
        // Three identical computes: one run record. A differing count
        // breaks the run; the single small compute becomes an immediate.
        let bytes = round_trip(
            0,
            &[
                TraceOp::Compute(5),
                TraceOp::Compute(5),
                TraceOp::Compute(5),
                TraceOp::Compute(6),
                TraceOp::Load { addr: Addr::new(0) },
            ],
        );
        assert_eq!(bytes[0], OP2_COMPUTE_RUN);
        assert_eq!(&bytes[1..3], &[5, 3], "n = 5, repeat = 3");
        assert_eq!(bytes[3], OP2_COMPUTE_IMM + 5);
    }

    #[test]
    fn runs_longer_than_the_cap_split_into_records() {
        let ops = vec![TraceOp::Compute(1); MAX_RUN as usize + 5];
        let bytes = round_trip(0, &ops);
        // One full run record plus one 5-run record plus the end marker.
        assert_eq!(bytes.iter().filter(|&&b| b == OP2_COMPUTE_RUN).count(), 2);
    }

    #[test]
    fn far_jumps_round_trip() {
        // Worst-case 48-bit jumps in both directions, unaligned offsets.
        round_trip(
            0,
            &[
                TraceOp::Load { addr: Addr::new((1 << 48) - 1) },
                TraceOp::Store { addr: Addr::new(3), value: 0 },
                TraceOp::Load { addr: Addr::new((1 << 47) + 13) },
            ],
        );
    }

    #[test]
    fn base_line_skips_instruction_regions() {
        let r = |line: u64, class| RegionDecl { first_line: LineAddr::new(line), lines: 1, class };
        assert_eq!(base_line(&[]), 0);
        assert_eq!(base_line(&[r(7, RegionClass::Instruction)]), 0);
        assert_eq!(
            base_line(&[
                r(7, RegionClass::Instruction),
                r(0x41, RegionClass::Shared),
                r(0x99, RegionClass::PrivateTo(CoreId::new(0))),
            ]),
            0x41
        );
    }

    #[test]
    fn corrupt_run_lengths_are_typed() {
        for repeat in [0u64, 1, MAX_RUN + 1] {
            let mut bytes = vec![OP2_COMPUTE_RUN, 1];
            varint::encode(repeat, &mut bytes);
            bytes.push(OP2_END);
            let mut dec = V2Decoder::new(0);
            let mut pos = 0;
            assert_eq!(
                dec.next(&bytes, &mut pos).unwrap_err(),
                TraceError::Corrupt { what: "compute run length out of range" },
                "repeat = {repeat}"
            );
        }
    }

    #[test]
    fn worked_example_from_the_docs() {
        // The docs/LTF.md worked example: base line 0x41, then
        // Load 0x1048 / Store 0x1087=5 / Compute(2)×2.
        let mut enc = V2Encoder::new(0x41);
        let mut bytes = Vec::new();
        enc.push(TraceOp::Load { addr: Addr::new(0x1048) }, &mut bytes);
        enc.push(TraceOp::Store { addr: Addr::new(0x1087), value: 5 }, &mut bytes);
        enc.push(TraceOp::Compute(2), &mut bytes);
        enc.push(TraceOp::Compute(2), &mut bytes);
        enc.finish(&mut bytes);
        bytes.push(OP2_END);
        assert_eq!(
            bytes,
            [
                // Load: same line as the base, word 1 — immediate tag.
                OP2_LOAD_IMM + 1,
                // Store: next line but offset 7 is unaligned, so the
                // general form: zigzag(+1)·64 + 7 = 135 = 0x87 0x01.
                OP2_STORE,
                0x87,
                0x01,
                // Value 5 as eight little-endian bytes.
                0x05,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                0x00,
                // Compute(2) × 2: two immediate tags beat a run record.
                OP2_COMPUTE_IMM + 1,
                OP2_COMPUTE_IMM + 1,
                OP2_END,
            ]
        );
    }
}
