//! The workspace's one byte codec: little-endian writers, a bounded
//! reader, and the two hashes that the wire, the checkpoint, the fault plan
//! and the shard ring share.
//!
//! Every integer is little-endian. A string is its byte length as a `u32`,
//! then its UTF-8 bytes. A tensor is its rank as a `u32`, one `u32` per
//! dimension, then its elements as `f32` in row-major order.
//!
//! Decoding is total: a [`Cursor`] over arbitrary bytes yields values or a
//! [`CodecError`], never a panic, and it allocates only for bytes that are
//! already present.
//! The per-field helpers are `#[inline]`: the wire calls them per request.

use crate::{Tensor, MAX_RANK};

/// Truncated, corrupt or trailing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string: its byte length as a `u32`, then its bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bytes [`put_tensor`] writes for `t`.
pub fn tensor_len(t: &Tensor) -> usize {
    4 * (1 + t.dims().len() + t.data().len())
}

/// Appends a tensor: rank, dimensions, then the row-major elements.
pub fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_u32(out, t.dims().len() as u32);
    for &d in t.dims() {
        put_u32(out, d as u32);
    }
    for &x in t.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// A bounds-checked reader over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or an error if fewer remain.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A string written by [`put_str`]; its bytes must be UTF-8.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(format!("bad utf-8: {e}")))
    }

    /// A tensor written by [`put_tensor`]. A rank past [`MAX_RANK`], an
    /// element count that overflows `usize`, or fewer element bytes than
    /// the dimensions claim is an error before anything is allocated.
    pub fn tensor(&mut self) -> Result<Tensor, CodecError> {
        let rank = self.u32()? as usize;
        if rank > MAX_RANK {
            return Err(CodecError(format!("tensor rank {rank}")));
        }
        let mut dims = [0usize; MAX_RANK];
        let dims = &mut dims[..rank];
        for d in dims.iter_mut() {
            *d = self.u32()? as usize;
        }
        let bytes = dims
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| CodecError("tensor element count overflows".into()))?;
        let data = self
            .bytes(bytes)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
            .collect();
        Ok(Tensor::from_vec(data, dims))
    }

    /// Ends the read: any byte left unread is an error.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!("{n} trailing bytes"))),
        }
    }
}

/// FNV-1a, 64-bit. Any single changed byte changes the digest: each step
/// is a bijection of the running state.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit bijection.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposed_copy_roundtrips() {
        // Tensors serialise in row-major element order; a transposed copy
        // must survive put → read bit-exactly.
        let src = Tensor::from_fn(&[6, 10], |i| (i as f32).sin());
        let t = src.transpose();
        let mut buf = Vec::new();
        put_tensor(&mut buf, &t);
        assert_eq!(buf.len(), tensor_len(&t));
        let mut c = Cursor::new(&buf);
        let back = c.tensor().expect("read");
        c.finish().expect("whole buffer");
        assert_eq!(back, t);
        assert_eq!(back.at2(7, 2), src.at2(2, 7));
    }

    #[test]
    fn overflowing_and_absent_tensors_are_errors() {
        // Rank 4 with dims 65536⁴: the element count overflows usize.
        let mut buf = Vec::new();
        put_u32(&mut buf, 4);
        for _ in 0..4 {
            put_u32(&mut buf, 65_536);
        }
        assert!(Cursor::new(&buf).tensor().is_err());
        // Rank 2, u32::MAX² elements, no data behind them.
        let mut buf = Vec::new();
        for v in [2, u32::MAX, u32::MAX] {
            put_u32(&mut buf, v);
        }
        assert!(Cursor::new(&buf).tensor().is_err());
        // Rank past MAX_RANK.
        let mut buf = Vec::new();
        put_u32(&mut buf, MAX_RANK as u32 + 1);
        assert!(Cursor::new(&buf).tensor().is_err());
    }

    #[test]
    fn scalars_are_little_endian_and_read_back() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0x0102_0304);
        put_u64(&mut buf, 0x0102_0304_0506_0708);
        assert_eq!(
            buf,
            [0xAB, 4, 3, 2, 1, 8, 7, 6, 5, 4, 3, 2, 1],
            "least significant byte first"
        );
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Ok(0xAB));
        assert_eq!(c.u32(), Ok(0x0102_0304));
        assert_eq!(c.remaining(), 8);
        assert_eq!(c.u64(), Ok(0x0102_0304_0506_0708));
        c.finish().expect("whole buffer");
    }

    #[test]
    fn strings_roundtrip_empty_and_multibyte() {
        let mut buf = Vec::new();
        for s in ["", "node-0", "Gerät ✓"] {
            put_str(&mut buf, s);
        }
        // The length prefix counts bytes, not chars.
        assert_eq!(buf[14..18], 10u32.to_le_bytes());
        let mut c = Cursor::new(&buf);
        for s in ["", "node-0", "Gerät ✓"] {
            assert_eq!(c.string().as_deref(), Ok(s));
        }
        c.finish().expect("whole buffer");
    }

    #[test]
    fn invalid_utf8_string_is_an_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xC3, 0x28]);
        let err = Cursor::new(&buf).string().expect_err("not utf-8");
        assert!(err.0.contains("utf-8"), "{err}");
    }

    #[test]
    fn string_longer_than_its_bytes_is_an_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(b"abc");
        assert!(Cursor::new(&buf).string().is_err());
    }

    #[test]
    fn short_read_fails_without_moving_the_cursor() {
        let buf = [1u8, 2, 3];
        let mut c = Cursor::new(&buf);
        let err = c.u32().expect_err("three bytes left");
        assert_eq!(err.0, "need 4 bytes at offset 0, have 3");
        assert_eq!(c.remaining(), 3);
        assert_eq!(c.bytes(3), Ok(&buf[..]));
        assert!(c.u8().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let buf = [7u8, 0, 0];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.finish(), Err(CodecError("2 trailing bytes".into())));
    }

    #[test]
    fn rank_zero_and_empty_tensors_roundtrip() {
        // A rank-0 tensor holds one element; a zero dimension holds none
        // and reads no element bytes.
        for t in [
            Tensor::from_vec(vec![2.5], &[]),
            Tensor::from_vec(vec![], &[3, 0]),
        ] {
            let mut buf = Vec::new();
            put_tensor(&mut buf, &t);
            assert_eq!(buf.len(), tensor_len(&t));
            let mut c = Cursor::new(&buf);
            assert_eq!(c.tensor().expect("read"), t);
            c.finish().expect("whole buffer");
        }
    }

    #[test]
    fn tensor_len_matches_put_tensor_at_every_rank() {
        for rank in 1..=MAX_RANK {
            let dims: Vec<usize> = (0..rank).map(|d| d + 1).collect();
            let t = Tensor::from_fn(&dims, |i| i as f32);
            let mut buf = Vec::new();
            put_tensor(&mut buf, &t);
            assert_eq!(buf.len(), tensor_len(&t), "rank {rank}");
            assert_eq!(Cursor::new(&buf).tensor().expect("read"), t);
        }
    }

    #[test]
    fn element_bits_survive_exactly() {
        // NaN payloads, signed zeros, infinities and subnormals are copied
        // as bits, not as values.
        let bits = [
            0x7FC0_0001u32,
            0xFFC0_1234,
            0x8000_0000,
            0x7F80_0000,
            0xFF80_0000,
            0x0000_0001,
        ];
        let t = Tensor::from_vec(bits.iter().map(|&b| f32::from_bits(b)).collect(), &[6]);
        let mut buf = Vec::new();
        put_tensor(&mut buf, &t);
        let back = Cursor::new(&buf).tensor().expect("read");
        let back: Vec<u32> = back.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(back, bits);
    }

    #[test]
    fn every_truncation_of_a_tensor_is_an_error() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let mut buf = Vec::new();
        put_tensor(&mut buf, &t);
        for len in 0..buf.len() {
            assert!(Cursor::new(&buf[..len]).tensor().is_err(), "{len} bytes");
        }
    }

    #[test]
    fn fnv1a_sees_every_single_byte_change() {
        let buf: Vec<u8> = (0..64u8).collect();
        let digest = fnv1a(&buf);
        let mut edited = buf.clone();
        for i in 0..buf.len() {
            for delta in [1u8, 0x80, 0xFF] {
                edited[i] = buf[i].wrapping_add(delta);
                assert_ne!(fnv1a(&edited), digest, "byte {i} + {delta}");
            }
            edited[i] = buf[i];
        }
    }

    #[test]
    fn mix64_has_no_collisions_on_a_dense_range() {
        let mut seen: Vec<u64> = (0..4096).map(mix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn hashes_match_their_reference_values() {
        // FNV-1a's published test vectors, and SplitMix64's first output
        // for seed 0.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
