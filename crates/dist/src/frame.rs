//! Length-prefixed framing over byte streams.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload bytes. Frames carry opaque payloads — the
//! message codec lives in [`crate::Message`] — so the same framing serves
//! TCP sockets, in-process pipes and files alike.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload (64 MiB).
///
/// The largest legitimate payload is a `DeployBranch` carrying a branch's
/// weight windows — well under a megabyte for the paper's architecture — so
/// anything bigger is treated as corruption rather than allocated.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidInput` if `payload` exceeds
/// [`MAX_FRAME_BYTES`].
///
/// # Example
///
/// ```
/// use fluid_dist::{read_frame, write_frame};
/// let mut buf = Vec::new();
/// write_frame(&mut buf, b"hello").unwrap();
/// let frame = read_frame(&mut buf.as_slice()).unwrap();
/// assert_eq!(frame, b"hello");
/// ```
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES} byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame, surviving arbitrary read fragmentation
/// (the reader may deliver as little as one byte per call).
///
/// # Errors
///
/// Returns `UnexpectedEof` on truncation, `InvalidData` if the length
/// prefix exceeds [`MAX_FRAME_BYTES`], or any underlying I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header claims {len} bytes (cap {MAX_FRAME_BYTES})"),
        ));
    }
    // The header is only a claim: the payload buffer grows as bytes arrive.
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated at {} of {len} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"three").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"one");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), b"three");
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut buf.as_slice()).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_header_rejected_without_allocation() {
        let buf = u32::MAX.to_le_bytes().to_vec();
        let err = read_frame(&mut buf.as_slice()).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Under the cap, a header that no payload follows is a truncation,
        // not a 32 MiB buffer reserved on its word.
        let mut buf = (32u32 << 20).to_le_bytes().to_vec();
        buf.extend_from_slice(b"short");
        let err = read_frame(&mut buf.as_slice()).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
