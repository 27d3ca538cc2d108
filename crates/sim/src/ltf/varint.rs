//! LEB128 variable-length integers, the scalar encoding of LTF.
//!
//! Seven value bits per byte, least-significant group first, high bit set
//! on every byte but the last. A `u64` therefore takes 1–10 bytes; the
//! 10th byte may only carry the single remaining bit (values `0x00` or
//! `0x01`), and decoders reject anything longer or larger as
//! [`TraceError::OverlongVarint`].

use lacc_model::TraceError;

/// Maximum encoded length of a `u64`.
pub const MAX_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
///
/// # Examples
///
/// ```
/// let mut buf = Vec::new();
/// lacc_sim::ltf::varint::encode(300, &mut buf);
/// assert_eq!(buf, [0xac, 0x02]);
/// ```
pub fn encode(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one varint from `bytes` at `*pos`, advancing `*pos` past the
/// bytes consumed — the one decode primitive the header parser and the
/// in-place stream cursors are built on. Decoding straight off the slice
/// (with one- and two-byte fast paths, the overwhelmingly common case) is
/// what makes the cursors fast.
///
/// # Errors
///
/// [`TraceError::Truncated`] when `bytes` ends mid-varint (or `*pos` is
/// already past the end), [`TraceError::OverlongVarint`] when the
/// encoding exceeds 10 bytes or overflows 64 bits. `what` names the field
/// for the error message. `*pos` is left unchanged on error.
#[inline]
pub fn take(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, TraceError> {
    let start = *pos;
    // Unrolled one- and two-byte fast paths: v2 packed line deltas are
    // almost always one or two groups, and the generic per-byte loop
    // costs more than the decode itself. A cursor already past the end
    // falls through to the slow path, which reports truncation.
    if let Some(&b0) = bytes.get(start) {
        if b0 & 0x80 == 0 {
            *pos = start + 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(start + 1) {
            if b1 & 0x80 == 0 {
                *pos = start + 2;
                return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
            }
        }
    }
    let (value, end) = take_multibyte(bytes, start, what)?;
    *pos = end;
    Ok(value)
}

/// The general case of [`take`]: the value and the offset just past it.
/// Out of line, it takes no pointer to the caller's cursor, so a decode
/// loop can keep that cursor in a register.
fn take_multibyte(
    bytes: &[u8],
    start: usize,
    what: &'static str,
) -> Result<(u64, usize), TraceError> {
    // Clamp a cursor already past the end so `start + i` cannot overflow.
    let start = start.min(bytes.len());
    let mut value: u64 = 0;
    for i in 0..MAX_LEN {
        let Some(&b) = bytes.get(start + i) else {
            return Err(TraceError::Truncated { what });
        };
        if i == MAX_LEN - 1 && b > 0x01 {
            // 9 groups cover 63 bits; the 10th byte may only hold bit 63.
            return Err(TraceError::OverlongVarint { what });
        }
        value |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok((value, start + i + 1));
        }
    }
    Err(TraceError::OverlongVarint { what })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes one varint from the front of `bytes`, returning the value
    /// and the number of bytes consumed.
    fn decode(bytes: &[u8], what: &'static str) -> Result<(u64, usize), TraceError> {
        let mut pos = 0;
        let value = take(bytes, &mut pos, what)?;
        Ok((value, pos))
    }

    fn roundtrip(v: u64) -> usize {
        let mut buf = Vec::new();
        encode(v, &mut buf);
        let (decoded, used) = decode(&buf, "test").unwrap();
        assert_eq!(decoded, v);
        assert_eq!(used, buf.len());
        used
    }

    #[test]
    fn known_vectors() {
        let mut buf = Vec::new();
        encode(0, &mut buf);
        assert_eq!(buf, [0x00]);
        buf.clear();
        encode(127, &mut buf);
        assert_eq!(buf, [0x7f]);
        buf.clear();
        encode(128, &mut buf);
        assert_eq!(buf, [0x80, 0x01]);
    }

    #[test]
    fn boundary_values_round_trip() {
        for shift in 0..64 {
            roundtrip(1u64 << shift);
            roundtrip((1u64 << shift) - 1);
        }
        assert_eq!(roundtrip(u64::MAX), MAX_LEN);
    }

    #[test]
    fn truncated_input_is_typed() {
        // Continuation bit set, then nothing.
        let e = decode(&[0x80], "field").unwrap_err();
        assert_eq!(e, TraceError::Truncated { what: "field" });
        let e = decode(&[], "field").unwrap_err();
        assert_eq!(e, TraceError::Truncated { what: "field" });
    }

    #[test]
    fn overlong_input_is_typed() {
        // Eleven continuation bytes can never be a u64.
        let e = decode(&[0x80; 11], "field").unwrap_err();
        assert_eq!(e, TraceError::OverlongVarint { what: "field" });
        // Ten bytes whose last overflows bit 63.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x02);
        let e = decode(&bytes, "field").unwrap_err();
        assert_eq!(e, TraceError::OverlongVarint { what: "field" });
        // u64::MAX itself is exactly representable.
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(decode(&max, "field").unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn take_advances_a_cursor() {
        let mut buf = Vec::new();
        encode(300, &mut buf);
        encode(7, &mut buf);
        let mut pos = 0;
        assert_eq!(take(&buf, &mut pos, "a").unwrap(), 300);
        assert_eq!(pos, 2);
        assert_eq!(take(&buf, &mut pos, "b").unwrap(), 7);
        assert_eq!(pos, buf.len());
        assert_eq!(take(&buf, &mut pos, "c").unwrap_err(), TraceError::Truncated { what: "c" });
        // A cursor already past the end is truncation, not a panic.
        let mut past = buf.len() + 10;
        assert!(take(&buf, &mut past, "d").is_err());
    }

    #[test]
    fn non_canonical_zero_padding_still_decodes() {
        // 0x80 0x00 is a two-byte zero: wasteful but well-formed LEB128.
        assert_eq!(decode(&[0x80, 0x00], "z").unwrap(), (0, 2));
    }
}
