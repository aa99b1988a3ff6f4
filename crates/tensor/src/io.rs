//! Versioned, checksummed binary codec for tensors and derived artifacts.
//!
//! The staged scenario engine persists trained models, probes, and
//! footprints between runs, so every artifact needs a serialization that is
//! (a) *exact* — `f32` payloads round-trip bit for bit, keeping cached and
//! fresh results bitwise identical — and (b) *safe to distrust* — a
//! truncated, corrupted, or future-version file must surface as a typed
//! [`CodecError`], never a panic or garbage data.
//!
//! Layout of a container (all integers little-endian):
//!
//! ```text
//! magic    [u8; 4]   artifact type tag (e.g. b"DMTN" for a bare tensor)
//! version  u16       format version (currently 1)
//! len      u64       payload byte length
//! payload  [u8; len] artifact-specific body
//! checksum u64       FNV-64 over magic..payload
//! ```
//!
//! Inside a payload, tensors are written with [`write_tensor`]: rank `u16`,
//! dims `u64` each, then the raw `f32` bits. Higher layers (`deepmorph-nn`
//! state dicts, `deepmorph-models` model files, `deepmorph` artifacts)
//! compose their payloads from the [`ByteWriter`]/[`ByteReader`] primitives
//! here so every format shares the same truncation and checksum handling.

use std::fmt;

use crate::shape::MAX_RANK;
use crate::Tensor;

/// Current container format version.
pub const CODEC_VERSION: u16 = 1;

/// Magic tag of a bare tensor container written by [`encode_tensor`].
pub const TENSOR_MAGIC: [u8; 4] = *b"DMTN";

/// Errors produced by the binary codec.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the field being read was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The leading magic bytes identify a different (or no) artifact type.
    BadMagic {
        /// Magic the caller expected.
        expected: [u8; 4],
        /// Magic actually found.
        found: [u8; 4],
    },
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The stored checksum disagrees with the payload — bit rot or a
    /// partial overwrite.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The bytes decoded but describe an invalid value (bad enum tag,
    /// oversized rank, shape/length disagreement, …).
    Invalid {
        /// Description of the inconsistency.
        context: String,
    },
    /// An underlying filesystem operation failed.
    Io {
        /// Stringified `std::io::Error` (kept as text so the error stays
        /// `Clone + PartialEq`).
        message: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {supported})"
                )
            }
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:016x}, computed {actual:016x}"
            ),
            CodecError::Invalid { context } => write!(f, "invalid encoding: {context}"),
            CodecError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io {
            message: e.to_string(),
        }
    }
}

/// Result alias for codec operations.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// FNV-1a 64-bit hash of a byte slice — the checksum used by every
/// container and the basis of the artifact-store content fingerprints.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_seeded(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a with a caller-chosen basis. Two different bases over the same
/// bytes give independent 64-bit digests; the artifact fingerprints
/// combine two into a 128-bit key.
pub fn fnv64_seeded(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Byte-level writer / reader
// ---------------------------------------------------------------------

/// Append-only little-endian byte sink for building payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its raw bits (exact round-trip, NaN included).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw `f32` bits with no length prefix (the caller's format
    /// implies the count, e.g. a tensor's shape). One bulk conversion
    /// rather than a per-element call: f32 payloads dominate every
    /// container this workspace writes, and the serving hot path encodes
    /// tensors per request.
    pub fn put_f32_payload(&mut self, vs: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 4, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Appends a length-prefixed `usize` slice (as `u64`s).
    pub fn put_usizes(&mut self, vs: &[usize]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v as u64);
        }
    }

    /// Appends raw bytes with no prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a payload with truncation-checked reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> CodecResult<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> CodecResult<&'a [u8]> {
        self.take(n, context)
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> CodecResult<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> CodecResult<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting overflow.
    pub fn get_len(&mut self, context: &'static str) -> CodecResult<usize> {
        let v = self.get_u64(context)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            context: format!("{context}: length {v} exceeds usize"),
        })
    }

    /// Reads an `f32` from its raw bits.
    pub fn get_f32(&mut self, context: &'static str) -> CodecResult<f32> {
        let b = self.take(4, context)?;
        Ok(f32::from_bits(u32::from_le_bytes(
            b.try_into().expect("4 bytes"),
        )))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> CodecResult<String> {
        let len = self.get_len(context)?;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid {
            context: format!("{context}: string is not valid UTF-8"),
        })
    }

    /// Reads `n` raw `f32`s (no length prefix), converting in bulk. The
    /// truncation check happens once for the whole payload, so a corrupt
    /// count cannot trigger a huge allocation.
    pub fn get_f32_payload(&mut self, n: usize, context: &'static str) -> CodecResult<Vec<f32>> {
        let byte_len = n.checked_mul(4).ok_or(CodecError::Invalid {
            context: format!("{context}: f32 count {n} overflows"),
        })?;
        let bytes = self.take(byte_len, context)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
            .collect())
    }

    /// Reads a length-prefixed `usize` slice.
    pub fn get_usizes(&mut self, context: &'static str) -> CodecResult<Vec<usize>> {
        let len = self.get_len(context)?;
        if self.remaining() < len.saturating_mul(8) {
            return Err(CodecError::Truncated { context });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_len(context)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Tensor encoding
// ---------------------------------------------------------------------

/// Appends a tensor (rank, dims, raw `f32` bits) to a payload.
pub fn write_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.put_u16(t.ndim() as u16);
    for &d in t.shape() {
        w.put_u64(d as u64);
    }
    w.put_f32_payload(t.data());
}

/// Reads a tensor written by [`write_tensor`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the payload ends early and
/// [`CodecError::Invalid`] for an impossible shape.
pub fn read_tensor(r: &mut ByteReader<'_>) -> CodecResult<Tensor> {
    let rank = r.get_u16("tensor rank")? as usize;
    if rank > MAX_RANK {
        return Err(CodecError::Invalid {
            context: format!("tensor rank {rank} exceeds MAX_RANK {MAX_RANK}"),
        });
    }
    let mut shape = [0usize; MAX_RANK];
    let mut elems: u128 = 1;
    for slot in shape.iter_mut().take(rank) {
        let d = r.get_len("tensor dims")?;
        *slot = d;
        elems = elems.saturating_mul(d as u128);
    }
    // `get_f32_payload` bounds the element count by the bytes actually
    // present before allocating, so a corrupted dim cannot trigger a
    // huge allocation.
    let n = usize::try_from(elems).map_err(|_| CodecError::Invalid {
        context: "tensor element count overflows usize".into(),
    })?;
    let data = r.get_f32_payload(n, "tensor data")?;
    Tensor::from_vec(data, &shape[..rank]).map_err(|e| CodecError::Invalid {
        context: format!("tensor shape rejected: {e}"),
    })
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

/// Wraps a payload in the standard container: magic, version, length,
/// payload, FNV-64 checksum.
pub fn seal_container(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 22);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a container and returns its payload slice.
///
/// # Errors
///
/// Returns the typed [`CodecError`] matching the first problem found:
/// truncation, wrong magic, unsupported version, or checksum mismatch.
pub fn open_container(magic: [u8; 4], bytes: &[u8]) -> CodecResult<&[u8]> {
    const HEADER: usize = 4 + 2 + 8;
    if bytes.len() < HEADER + 8 {
        return Err(CodecError::Truncated {
            context: "container header",
        });
    }
    let found: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
    if found != magic {
        return Err(CodecError::BadMagic {
            expected: magic,
            found,
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: CODEC_VERSION,
        });
    }
    let len = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let len = usize::try_from(len).map_err(|_| CodecError::Invalid {
        context: "container length exceeds usize".into(),
    })?;
    if bytes.len() < HEADER + len + 8 {
        return Err(CodecError::Truncated {
            context: "container payload",
        });
    }
    let body_end = HEADER + len;
    let expected = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("8 bytes"));
    let actual = fnv64(&bytes[..body_end]);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(&bytes[HEADER..body_end])
}

/// Encodes a single tensor as a standalone container.
pub fn encode_tensor(t: &Tensor) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_tensor(&mut w, t);
    seal_container(TENSOR_MAGIC, w.as_slice())
}

/// Decodes a container written by [`encode_tensor`].
///
/// # Errors
///
/// Propagates container validation and tensor decoding errors, and rejects
/// trailing bytes after the tensor.
pub fn decode_tensor(bytes: &[u8]) -> CodecResult<Tensor> {
    let payload = open_container(TENSOR_MAGIC, bytes)?;
    let mut r = ByteReader::new(payload);
    let t = read_tensor(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError::Invalid {
            context: format!("{} trailing bytes after tensor", r.remaining()),
        });
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_vec((0..24).map(|v| v as f32 * 0.37 - 3.0).collect(), &[2, 3, 4]).unwrap()
    }

    #[test]
    fn tensor_round_trips_bitwise() {
        let t = sample();
        let bytes = encode_tensor(&t);
        let back = decode_tensor(&bytes).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn special_floats_round_trip() {
        let t = Tensor::from_vec(
            vec![
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                f32::MIN_POSITIVE,
            ],
            &[5],
        )
        .unwrap();
        let back = decode_tensor(&encode_tensor(&t)).unwrap();
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_tensor(&sample());
        for cut in [0, 3, 10, bytes.len() - 1] {
            let err = decode_tensor(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode_tensor(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode_tensor(&bytes).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = encode_tensor(&sample());
        bytes[4] = 0xFE; // version low byte
        bytes[5] = 0xCA;
        assert!(matches!(
            decode_tensor(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = encode_tensor(&sample());
        bytes[0] = b'X';
        assert!(matches!(
            decode_tensor(&bytes).unwrap_err(),
            CodecError::BadMagic { .. }
        ));
    }

    #[test]
    fn oversized_rank_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u16((MAX_RANK + 1) as u16);
        let bytes = seal_container(TENSOR_MAGIC, w.as_slice());
        assert!(matches!(
            decode_tensor(&bytes).unwrap_err(),
            CodecError::Invalid { .. }
        ));
    }

    #[test]
    fn huge_dim_cannot_allocate() {
        // A corrupted dim claims 2^40 elements; the decoder must refuse
        // before allocating.
        let mut w = ByteWriter::new();
        w.put_u16(1);
        w.put_u64(1 << 40);
        let bytes = seal_container(TENSOR_MAGIC, w.as_slice());
        assert!(matches!(
            decode_tensor(&bytes).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u64(1 << 40);
        w.put_f32(-0.125);
        w.put_str("probe/stage2");
        w.put_usizes(&[3, 1, 4]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("t").unwrap(), 7);
        assert_eq!(r.get_u16("t").unwrap(), 300);
        assert_eq!(r.get_u64("t").unwrap(), 1 << 40);
        assert_eq!(r.get_f32("t").unwrap(), -0.125);
        assert_eq!(r.get_str("t").unwrap(), "probe/stage2");
        assert_eq!(r.get_usizes("t").unwrap(), vec![3, 1, 4]);
        assert!(r.is_exhausted());
        assert!(matches!(
            r.get_u8("t").unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
