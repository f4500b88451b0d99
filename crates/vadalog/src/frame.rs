//! The one codec every durable file is built from (DESIGN.md §10).
//!
//! Three layers, each total on hostile input:
//!
//! - [`wire`]: little-endian integers, length-prefixed strings and
//!   tagged [`Value`](crate::Value)s, read back through the bounds-checked
//!   [`wire::Reader`];
//! - the *frame* `[payload length: u32][CRC-32 of payload: u32][payload]`
//!   ([`put_frame`] / [`read_frame`]). The action journal is an 8-byte
//!   magic followed by a stream of frames;
//! - the *header* `[magic: 8 bytes][format version: u32][fingerprint: u64]`
//!   followed by exactly one frame ([`encode`] / [`decode`]). Every
//!   snapshot and every storage artifact is one header and one frame.
//!
//! [`crc32`] guards frames; [`Fnv1a`] fingerprints the inputs a file
//! was derived from. Every malformation decodes to a [`DecodeError`]
//! (or, at the file level, a [`StorageError`]), never a panic.

use crate::backend::StorageError;
use std::fmt;

/// Why bytes could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remained than a frame header or a field required.
    Truncated,
    /// The payload CRC did not match the frame header.
    BadChecksum,
    /// An unknown record, action or value tag was read.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The bytes parse but describe something no encoder writes (a
    /// code outside its dictionary, trailing bytes, …).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::Invalid(why) => f.write_str(why),
        }
    }
}

// --- CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) ---

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`: the checksum of every frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- FNV-1a (64-bit) ---

/// Streaming FNV-1a: the fingerprint hash tying durable files to the
/// inputs they were derived from, and the interner's shard selector.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Hash raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash a `u64` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash a string as its length (a `u64`) and then its bytes, so
    /// adjacent strings cannot run into each other.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of `bytes` in one call. Inlined: the interner hashes every
/// string it sees with it.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// The binary value encoding shared by every payload: little-endian
/// integers, `u32`-length-prefixed strings and tagged
/// [`Value`](crate::Value)s.
pub mod wire {
    use super::DecodeError;
    use crate::value::Value;
    use std::sync::Arc;

    /// Append a `u32` (little-endian).
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    /// Append one tagged [`Value`].
    pub fn put_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Bool(b) => {
                out.push(0);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(1);
                put_u64(out, *i as u64);
            }
            Value::Float(f) => {
                out.push(2);
                put_u64(out, f.to_bits());
            }
            Value::Str(s) => {
                out.push(3);
                put_str(out, s);
            }
            Value::Null(n) => {
                out.push(4);
                put_u64(out, *n);
            }
            Value::Set(items) => {
                out.push(5);
                put_u32(out, items.len() as u32);
                for item in items.iter() {
                    put_value(out, item);
                }
            }
            Value::Tuple(items) => {
                out.push(6);
                put_u32(out, items.len() as u32);
                for item in items.iter() {
                    put_value(out, item);
                }
            }
        }
    }

    /// Deepest set/tuple nesting [`Reader::value`] accepts. Decoding
    /// recurses once per level, so without a limit a crafted payload
    /// could overflow the stack; table cells are scalars, and engine
    /// values nest a few levels at most.
    pub const MAX_NESTING: usize = 32;

    /// A bounds-checked cursor over a payload.
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Start reading at the front of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        /// Take `n` raw bytes.
        pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
            let s = self
                .bytes
                .get(self.pos..end)
                .ok_or(DecodeError::Truncated)?;
            self.pos = end;
            Ok(s)
        }

        /// One byte.
        pub fn u8(&mut self) -> Result<u8, DecodeError> {
            Ok(self.take(1)?[0])
        }

        /// Little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, DecodeError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, DecodeError> {
            let b = self.take(8)?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }

        /// A `u32` item count, refused when it exceeds the bytes left
        /// (every item takes at least one), so no decoder allocates for
        /// a count the payload cannot hold.
        pub fn count(&mut self) -> Result<usize, DecodeError> {
            let n = self.u32()? as usize;
            if n > self.remaining() {
                return Err(DecodeError::Truncated);
            }
            Ok(n)
        }

        /// Length-prefixed UTF-8 string.
        pub fn string(&mut self) -> Result<String, DecodeError> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
        }

        /// One tagged [`Value`]. Strings are routed through the interner
        /// (`Value::str`), so decoding repopulates the process-global
        /// intern table as a side effect. Sets and tuples nested more
        /// than [`MAX_NESTING`] deep are [`DecodeError::Invalid`].
        pub fn value(&mut self) -> Result<Value, DecodeError> {
            self.value_within(MAX_NESTING)
        }

        /// [`Reader::value`] with `depth` more levels of nesting allowed.
        fn value_within(&mut self, depth: usize) -> Result<Value, DecodeError> {
            match self.u8()? {
                0 => Ok(Value::Bool(self.u8()? != 0)),
                1 => Ok(Value::Int(self.u64()? as i64)),
                2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
                3 => Ok(Value::str(self.string()?)),
                4 => Ok(Value::Null(self.u64()?)),
                5 => Ok(Value::set(self.values(depth)?)),
                6 => Ok(Value::Tuple(Arc::new(self.values(depth)?))),
                t => Err(DecodeError::BadTag(t)),
            }
        }

        fn values(&mut self, depth: usize) -> Result<Vec<Value>, DecodeError> {
            let depth = depth
                .checked_sub(1)
                .ok_or(DecodeError::Invalid("values nest too deep"))?;
            let n = self.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(self.value_within(depth)?);
            }
            Ok(items)
        }

        /// Bytes left to read.
        pub fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// Has everything been consumed?
        pub fn done(&self) -> bool {
            self.pos == self.bytes.len()
        }
    }
}

// --- frames and headers ---

/// Bytes a frame adds in front of its payload (length and CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// Bytes of a header after its magic (version and fingerprint).
const HEADER_FIELDS: usize = 12;

/// Append `payload` as one frame: its length, its CRC-32, the payload.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    wire::put_u32(out, payload.len() as u32);
    wire::put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// Read the frame starting at `bytes[offset..]`: its CRC-checked
/// payload and the offset just past it. An offset at or past the end is
/// [`DecodeError::Truncated`].
pub fn read_frame(bytes: &[u8], offset: usize) -> Result<(&[u8], usize), DecodeError> {
    let mut r = wire::Reader::new(bytes.get(offset..).unwrap_or_default());
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    if crc32(payload) != crc {
        return Err(DecodeError::BadChecksum);
    }
    Ok((payload, offset + FRAME_OVERHEAD + len))
}

/// The header fields of a decoded file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version the file was written with.
    pub version: u32,
    /// Fingerprint of the inputs the file was derived from.
    pub fingerprint: u64,
}

/// Seal `payload` into a whole file image: `magic`, `version`,
/// `fingerprint`, then the payload as one frame.
pub fn encode(magic: &[u8; 8], version: u32, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + HEADER_FIELDS + FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(magic);
    wire::put_u32(&mut out, version);
    wire::put_u64(&mut out, fingerprint);
    put_frame(&mut out, payload);
    out
}

/// Open a file image sealed by [`encode`] and decode its payload with
/// `payload`, which must consume every byte. `name` labels errors.
///
/// Total. In order: a wrong magic is [`StorageError::BadMagic`]; a
/// version above `supported` is [`StorageError::FutureVersion`]; a torn
/// header or frame, a checksum mismatch, trailing bytes or a payload
/// `payload` refuses are [`StorageError::Corrupt`]; a fingerprint other
/// than `expected` (when given) is [`StorageError::Fingerprint`].
pub fn decode<T>(
    name: &str,
    magic: &[u8; 8],
    supported: u32,
    expected: Option<u64>,
    bytes: &[u8],
    payload: impl FnOnce(&mut wire::Reader<'_>, Header) -> Result<T, DecodeError>,
) -> Result<T, StorageError> {
    let corrupt = |e: DecodeError| StorageError::Corrupt {
        artifact: name.to_string(),
        reason: e.to_string(),
    };
    let Some(rest) = bytes.strip_prefix(magic.as_slice()) else {
        return Err(StorageError::BadMagic {
            artifact: name.to_string(),
        });
    };
    let mut r = wire::Reader::new(rest);
    let header = Header {
        version: r.u32().map_err(corrupt)?,
        fingerprint: r.u64().map_err(corrupt)?,
    };
    if header.version > supported {
        return Err(StorageError::FutureVersion {
            artifact: name.to_string(),
            found: header.version,
            supported,
        });
    }
    let (body, end) = read_frame(rest, HEADER_FIELDS).map_err(corrupt)?;
    if end != rest.len() {
        return Err(corrupt(DecodeError::Invalid(
            "trailing bytes after the frame",
        )));
    }
    if let Some(expected) = expected.filter(|&e| e != header.fingerprint) {
        return Err(StorageError::Fingerprint {
            artifact: name.to_string(),
            expected,
            found: header.fingerprint,
        });
    }
    let mut r = wire::Reader::new(body);
    let value = payload(&mut r, header).map_err(corrupt)?;
    if !r.done() {
        return Err(corrupt(DecodeError::Invalid(
            "trailing bytes after the payload",
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn crc_matches_known_vector() {
        // the classic IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn every_value_kind_roundtrips() {
        let values = vec![
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("héllo ⊥ world"),
            Value::Null(9),
            Value::set([Value::Int(1), Value::str("x")]),
            Value::pair(Value::Int(1), Value::Null(2)),
        ];
        let mut buf = Vec::new();
        for v in &values {
            wire::put_value(&mut buf, v);
        }
        let mut r = wire::Reader::new(&buf);
        for v in &values {
            // bit-identical for floats: compare via the total order
            assert_eq!(r.value().unwrap().cmp(v), std::cmp::Ordering::Equal);
        }
        assert!(r.done());
    }

    #[test]
    fn nesting_beyond_the_limit_is_refused() {
        // `levels` one-element sets and tuples around an integer.
        let nested = |levels: usize| {
            let mut buf = Vec::new();
            for level in 0..levels {
                buf.push(if level % 2 == 0 { 5 } else { 6 });
                wire::put_u32(&mut buf, 1);
            }
            wire::put_value(&mut buf, &Value::Int(7));
            buf
        };
        let at_limit = nested(wire::MAX_NESTING);
        let mut r = wire::Reader::new(&at_limit);
        assert!(r.value().is_ok());
        assert!(r.done());
        for levels in [wire::MAX_NESTING + 1, 1_000_000] {
            assert!(matches!(
                wire::Reader::new(&nested(levels)).value(),
                Err(DecodeError::Invalid(_))
            ));
        }
    }

    #[test]
    fn frames_roundtrip_and_refuse_tears() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"one");
        put_frame(&mut buf, b"");
        let (p, next) = read_frame(&buf, 0).unwrap();
        assert_eq!((p, next), (&b"one"[..], 11));
        assert_eq!(read_frame(&buf, next).unwrap(), (&b""[..], buf.len()));
        assert_eq!(read_frame(&buf, buf.len()), Err(DecodeError::Truncated));
        assert_eq!(read_frame(&buf, usize::MAX), Err(DecodeError::Truncated));
        assert_eq!(read_frame(&buf[..10], 0), Err(DecodeError::Truncated));
        let mut bad = buf.clone();
        bad[9] ^= 1;
        assert_eq!(read_frame(&bad, 0), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn header_roundtrip_and_structured_refusals() {
        let sealed = encode(b"TESTMAGC", 3, 0xDEAD_F00D, b"payload!");
        let take_all =
            |r: &mut wire::Reader<'_>, h: Header| Ok((h, r.take(r.remaining())?.to_vec()));
        let (h, body) = decode("t", b"TESTMAGC", 3, Some(0xDEAD_F00D), &sealed, take_all).unwrap();
        assert_eq!((h.version, h.fingerprint), (3, 0xDEAD_F00D));
        assert_eq!(body, b"payload!");
        assert!(matches!(
            decode("t", b"TESTMAGC", 3, Some(1), &sealed, take_all),
            Err(StorageError::Fingerprint { expected: 1, .. })
        ));
        assert!(matches!(
            decode("t", b"TESTMAGC", 2, None, &sealed, take_all),
            Err(StorageError::FutureVersion {
                found: 3,
                supported: 2,
                ..
            })
        ));
        assert!(matches!(
            decode("t", b"OTHERMGC", 3, None, &sealed, take_all),
            Err(StorageError::BadMagic { .. })
        ));
        // a payload decoder that leaves bytes behind is refused
        assert!(matches!(
            decode("t", b"TESTMAGC", 3, None, &sealed, |_, _| Ok(())),
            Err(StorageError::Corrupt { .. })
        ));
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert!(matches!(
            decode("t", b"TESTMAGC", 3, None, &trailing, take_all),
            Err(StorageError::Corrupt { .. })
        ));
        // every truncation and every byte flip of a version-1 file is
        // refused (a flipped version byte reads as a future version)
        let sealed = encode(b"TESTMAGC", 1, 7, b"some payload bytes");
        for k in 0..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[k] ^= 0xFF;
            for bad in [&sealed[..k], &flipped[..]] {
                assert!(decode("t", b"TESTMAGC", 1, Some(7), bad, take_all).is_err());
            }
        }
    }
}
