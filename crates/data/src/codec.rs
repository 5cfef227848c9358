//! Binary snapshot format for databases.
//!
//! Repair experiments want to persist inconsistent instances, repairs and
//! sampled worlds without re-parsing text. The format is a small, versioned
//! length-prefixed encoding:
//!
//! ```text
//! "OCQA" | u16 version | varint #relations
//!   per relation: varint name-len | name bytes | varint arity
//!                 varint #rows | rows (arity constants each)
//! constant: 0x00 i64-LE           (integer)
//!           0x01 varint len bytes (interned name, UTF-8)
//! ```
//!
//! Varints are LEB128. Decoding validates the magic, version, UTF-8 and
//! schema (arities) and rejects trailing bytes, so a truncated or corrupt
//! snapshot never produces a half-loaded database. Every element count is
//! read through [`get_count`], which refuses a count larger than the
//! bytes left to decode — a length field is never trusted with an
//! allocation.
//!
//! The module also owns the **outer frame** every checksummed artifact
//! built on these primitives shares ([`frame`] / [`unframe`]: snapshot
//! files, manifests, transfer images) and the one [`crc32`] those frames
//! and the write-ahead log use.

use crate::{Constant, Database, Fact, Schema, SchemaError, Symbol};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: &[u8; 4] = b"OCQA";
const VERSION: u16 = 1;

/// Errors raised while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input does not start with the expected magic.
    BadMagic,
    /// The format version is not the one this library reads.
    UnsupportedVersion(u16),
    /// A frame's payload does not match its recorded CRC-32.
    ChecksumMismatch,
    /// The input ended mid-structure.
    UnexpectedEof,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A name was not valid UTF-8.
    InvalidUtf8,
    /// An unknown tag byte (constant kind, plan kind).
    BadTag(u8),
    /// The decoded facts conflicted with the decoded schema.
    Schema(SchemaError),
    /// Extra bytes followed a well-formed snapshot.
    TrailingBytes(usize),
    /// Well-formed bytes that describe an impossible value (named here).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::UnexpectedEof => write!(f, "truncated"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in name"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            CodecError::Schema(e) => write!(f, "schema error: {e}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<SchemaError> for CodecError {
    fn from(e: SchemaError) -> Self {
        CodecError::Schema(e)
    }
}

/// Appends a LEB128 varint. Public as a **wire primitive**: storage
/// layers (`ocqa-store`) frame their own records around the codec's
/// database/fact payloads and must agree with it byte-for-byte.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint (inverse of [`put_varint`]).
pub fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::VarintOverflow);
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Reads an element count, refusing one larger than the bytes left in
/// `buf`. Every element of every list in these formats occupies at least
/// one byte, so a larger count is corrupt or hostile — and because the
/// sender computes the checksum, a CRC is no defence against the latter.
/// Callers may therefore size an allocation by the returned count.
pub fn get_count(buf: &mut Bytes) -> Result<usize, CodecError> {
    let count = get_varint(buf)?;
    if count > buf.remaining() as u64 {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(count as usize)
}

/// Fails with [`CodecError::TrailingBytes`] unless `buf` is fully consumed.
pub fn expect_end(buf: &Bytes) -> Result<(), CodecError> {
    match buf.remaining() {
        0 => Ok(()),
        n => Err(CodecError::TrailingBytes(n)),
    }
}

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
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
};

/// CRC-32 (IEEE) of `data` — the checksum of every frame and WAL record.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wraps `payload` in the shared outer frame:
/// `magic | u16 LE format-version | u32 LE crc32(payload) | payload`.
pub fn frame(magic: &[u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 10);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks a [`frame`] — magic, exact format version, checksum — and
/// returns its payload. A frame is accepted or rejected whole.
pub fn unframe<'a>(magic: &[u8; 4], version: u16, data: &'a [u8]) -> Result<&'a [u8], CodecError> {
    if data.len() < 10 || &data[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    let found = u16::from_le_bytes([data[4], data[5]]);
    if found != version {
        return Err(CodecError::UnsupportedVersion(found));
    }
    let crc = u32::from_le_bytes([data[6], data[7], data[8], data[9]]);
    let payload = &data[10..];
    if crc32(payload) != crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Appends a length-prefixed UTF-8 string (wire primitive).
pub fn put_name(buf: &mut BytesMut, name: &str) {
    put_varint(buf, name.len() as u64);
    buf.put_slice(name.as_bytes());
}

/// Reads a length-prefixed UTF-8 string (inverse of [`put_name`]).
pub fn get_name(buf: &mut Bytes) -> Result<String, CodecError> {
    let len = get_count(buf)?;
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::InvalidUtf8)
}

/// Appends one tagged constant (wire primitive).
pub fn put_constant(buf: &mut BytesMut, c: Constant) {
    match c {
        Constant::Int(v) => {
            buf.put_u8(0x00);
            buf.put_i64_le(v);
        }
        Constant::Sym(s) => {
            buf.put_u8(0x01);
            put_name(buf, s.as_str());
        }
    }
}

/// Reads one tagged constant (inverse of [`put_constant`]).
pub fn get_constant(buf: &mut Bytes) -> Result<Constant, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    match buf.get_u8() {
        0x00 => {
            if buf.remaining() < 8 {
                return Err(CodecError::UnexpectedEof);
            }
            Ok(Constant::Int(buf.get_i64_le()))
        }
        0x01 => Ok(Constant::named(&get_name(buf)?)),
        tag => Err(CodecError::BadTag(tag)),
    }
}

/// Starts a payload of `capacity` bytes with the `OCQA` header.
fn with_header(capacity: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(capacity);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf
}

/// Checks the `OCQA` header and returns the bytes after it.
fn after_header(input: &[u8]) -> Result<Bytes, CodecError> {
    let mut buf = Bytes::copy_from_slice(input);
    if buf.remaining() < 4 || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if buf.remaining() < 2 {
        return Err(CodecError::UnexpectedEof);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(buf)
}

/// Serializes a database (schema + all facts) into a snapshot.
pub fn encode_database(db: &Database) -> Bytes {
    let mut buf = with_header(64 + db.len() * 16);
    let relations: Vec<(Symbol, usize)> = db.schema().relations().collect();
    put_varint(&mut buf, relations.len() as u64);
    for (rel, arity) in relations {
        put_name(&mut buf, rel.as_str());
        put_varint(&mut buf, arity as u64);
        let store = db.relation(rel).expect("declared relation exists");
        put_varint(&mut buf, store.len() as u64);
        for row in store.iter() {
            for &c in row {
                put_constant(&mut buf, c);
            }
        }
    }
    buf.freeze()
}

/// Decodes a snapshot produced by [`encode_database`].
pub fn decode_database(input: &[u8]) -> Result<Database, CodecError> {
    let mut buf = after_header(input)?;
    let nrel = get_count(&mut buf)?;
    let mut builder = Schema::builder();
    // Rows are decoded eagerly but inserted only after the schema is
    // sealed, so arity validation applies to every fact.
    let mut rows: Vec<(Symbol, usize, Vec<Vec<Constant>>)> = Vec::with_capacity(nrel);
    for _ in 0..nrel {
        let name = get_name(&mut buf)?;
        let arity = get_varint(&mut buf)? as usize;
        builder = builder.relation(&name, arity);
        let count = get_count(&mut buf)?;
        let mut rel_rows = Vec::with_capacity(count);
        for _ in 0..count {
            // `arity` precedes the row count, so it is bounded here, where
            // its constants must follow.
            let mut row = Vec::with_capacity(arity.min(buf.remaining()));
            for _ in 0..arity {
                row.push(get_constant(&mut buf)?);
            }
            rel_rows.push(row);
        }
        rows.push((Symbol::intern(&name), arity, rel_rows));
    }
    expect_end(&buf)?;
    let schema = builder.build()?;
    let mut db = Database::new(schema);
    for (rel, _arity, rel_rows) in rows {
        for row in rel_rows {
            db.insert(&Fact::new(rel, row))?;
        }
    }
    Ok(db)
}

/// Appends one schema-less fact: predicate name, arity, constants
/// (wire primitive).
pub fn put_fact(buf: &mut BytesMut, f: &Fact) {
    put_name(buf, f.pred().as_str());
    put_varint(buf, f.arity() as u64);
    for &c in f.args() {
        put_constant(buf, c);
    }
}

/// Reads one schema-less fact (inverse of [`put_fact`]).
pub fn get_fact(buf: &mut Bytes) -> Result<Fact, CodecError> {
    let name = get_name(buf)?;
    let arity = get_count(buf)?;
    let mut args = Vec::with_capacity(arity);
    for _ in 0..arity {
        args.push(get_constant(buf)?);
    }
    Ok(Fact::new(Symbol::intern(&name), args))
}

/// Serializes a bare fact list (for deletion sets, answer materializations
/// and similar artifacts that carry no schema).
pub fn encode_facts(facts: &[Fact]) -> Bytes {
    let mut buf = with_header(16 + facts.len() * 16);
    put_varint(&mut buf, facts.len() as u64);
    for f in facts {
        put_fact(&mut buf, f);
    }
    buf.freeze()
}

/// Decodes a fact list produced by [`encode_facts`].
pub fn decode_facts(input: &[u8]) -> Result<Vec<Fact>, CodecError> {
    let mut buf = after_header(input)?;
    let count = get_count(&mut buf)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(get_fact(&mut buf)?);
    }
    expect_end(&buf)?;
    Ok(out)
}

/// Serializes an **update delta** — the facts a mutation added and the
/// facts it removed — as one self-contained record. This is the
/// incremental counterpart of [`encode_database`]: a write-ahead log can
/// journal each catalog update as one delta instead of re-encoding the
/// whole database, and replaying the deltas over a base snapshot
/// reconstructs the exact post-update fact set.
pub fn encode_delta(added: &[Fact], removed: &[Fact]) -> Bytes {
    let mut buf = with_header(16 + (added.len() + removed.len()) * 16);
    for list in [added, removed] {
        put_varint(&mut buf, list.len() as u64);
        for f in list {
            put_fact(&mut buf, f);
        }
    }
    buf.freeze()
}

/// Decodes a delta produced by [`encode_delta`], returning
/// `(added, removed)`.
pub fn decode_delta(input: &[u8]) -> Result<(Vec<Fact>, Vec<Fact>), CodecError> {
    let mut buf = after_header(input)?;
    let mut lists: [Vec<Fact>; 2] = [Vec::new(), Vec::new()];
    for list in &mut lists {
        let count = get_count(&mut buf)?;
        list.reserve(count);
        for _ in 0..count {
            list.push(get_fact(&mut buf)?);
        }
    }
    expect_end(&buf)?;
    let [added, removed] = lists;
    Ok((added, removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_db() -> Database {
        let schema = Schema::from_relations(&[("R", 2), ("S", 1)]);
        let mut db = Database::new(schema);
        db.insert(&Fact::new(
            "R",
            vec![Constant::named("alpha"), Constant::int(-7)],
        ))
        .unwrap();
        db.insert(&Fact::new("R", vec![Constant::int(1), Constant::int(2)]))
            .unwrap();
        db.insert(&Fact::new("S", vec![Constant::named("日本語")]))
            .unwrap();
        db
    }

    #[test]
    fn database_roundtrip() {
        let db = sample_db();
        let bytes = encode_database(&db);
        let decoded = decode_database(&bytes).unwrap();
        assert!(db.same_facts(&decoded));
        assert_eq!(db.schema().as_ref(), decoded.schema().as_ref());
    }

    #[test]
    fn empty_database_roundtrip() {
        let db = Database::new(Schema::from_relations(&[("R", 3)]));
        let decoded = decode_database(&encode_database(&db)).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.schema().arity(Symbol::intern("R")), Some(3));
    }

    #[test]
    fn fact_list_roundtrip() {
        let facts = vec![
            Fact::parts("Pref", &["a", "b"]),
            Fact::new("R", vec![Constant::int(i64::MIN), Constant::int(i64::MAX)]),
        ];
        let decoded = decode_facts(&encode_facts(&facts)).unwrap();
        assert_eq!(facts, decoded);
    }

    #[test]
    fn delta_roundtrip() {
        let added = vec![
            Fact::parts("R", &["a", "b"]),
            Fact::new("R", vec![Constant::int(7), Constant::int(-7)]),
        ];
        let removed = vec![Fact::parts("S", &["gone"])];
        let bytes = encode_delta(&added, &removed);
        assert_eq!(decode_delta(&bytes).unwrap(), (added, removed));
        // Empty deltas (a no-op journal record) round-trip too.
        let bytes = encode_delta(&[], &[]);
        assert_eq!(decode_delta(&bytes).unwrap(), (vec![], vec![]));
    }

    #[test]
    fn delta_truncations_rejected() {
        let added = vec![Fact::parts("R", &["a", "b"])];
        let removed = vec![Fact::parts("R", &["c", "d"])];
        let bytes = encode_delta(&added, &removed);
        for cut in 1..bytes.len() {
            let err = decode_delta(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::BadMagic | CodecError::UnexpectedEof),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(
            decode_delta(&long).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_database(b"NOPE").unwrap_err(), CodecError::BadMagic);
        assert_eq!(decode_facts(b"").unwrap_err(), CodecError::BadMagic);
        assert_eq!(decode_delta(b"XXXX").unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = encode_database(&sample_db()).to_vec();
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert_eq!(
            decode_database(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(0xFFFF)
        );
    }

    #[test]
    fn truncations_rejected_everywhere() {
        let bytes = encode_database(&sample_db());
        for cut in 1..bytes.len() {
            let err = decode_database(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::BadMagic | CodecError::UnexpectedEof | CodecError::TrailingBytes(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_database(&sample_db()).to_vec();
        bytes.push(0x99);
        assert_eq!(
            decode_database(&bytes).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_constant_tag_rejected() {
        let facts = vec![Fact::parts("R", &["a"])];
        let mut bytes = encode_facts(&facts).to_vec();
        // Locate the tag byte of the single constant: after magic(4) +
        // version(2) + count(1) + namelen(1) + "R"(1) + arity(1).
        bytes[10] = 0x7E;
        assert_eq!(decode_facts(&bytes).unwrap_err(), CodecError::BadTag(0x7E));
    }

    #[test]
    fn crc_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "IEEE check value");
    }

    #[test]
    fn frame_roundtrip_and_rejections() {
        let framed = frame(b"TEST", 7, b"payload");
        assert_eq!(unframe(b"TEST", 7, &framed).unwrap(), b"payload");
        assert_eq!(unframe(b"TEST", 7, &frame(b"TEST", 7, b"")).unwrap(), b"");
        assert_eq!(
            unframe(b"NOPE", 7, &framed).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            unframe(b"TEST", 8, &framed).unwrap_err(),
            CodecError::UnsupportedVersion(7)
        );
        for cut in 0..10 {
            assert_eq!(
                unframe(b"TEST", 7, &framed[..cut]).unwrap_err(),
                CodecError::BadMagic,
                "a frame shorter than its header"
            );
        }
        for cut in 10..framed.len() {
            assert_eq!(
                unframe(b"TEST", 7, &framed[..cut]).unwrap_err(),
                CodecError::ChecksumMismatch
            );
        }
        for i in 6..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x10;
            assert_eq!(
                unframe(b"TEST", 7, &bad).unwrap_err(),
                CodecError::ChecksumMismatch,
                "flipped bit in byte {i}"
            );
        }
    }

    /// `OCQA | u16 1`, then whatever `body` appends.
    fn headed(body: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = with_header(32);
        body(&mut buf);
        buf.freeze()
    }

    #[test]
    fn length_fields_cannot_size_an_allocation() {
        // Each case is a few bytes whose one length field claims 2^44
        // elements. Decoding must fail on the count itself: allocating
        // for it first dies with an allocation failure, which no
        // `catch_unwind` survives.
        const HUGE: u64 = 1 << 44;
        let eof = Err::<(), _>(CodecError::UnexpectedEof);

        // decode_database: relation count, row count, arity (once a row
        // follows), name length.
        let db = |body: fn(&mut BytesMut)| decode_database(&headed(body)).map(|_| ());
        assert_eq!(db(|b| put_varint(b, HUGE)), eof);
        assert_eq!(
            db(|b| {
                put_varint(b, 1);
                put_name(b, "R");
                put_varint(b, 1);
                put_varint(b, HUGE);
            }),
            eof,
            "the payload of the bug report"
        );
        assert_eq!(
            db(|b| {
                put_varint(b, 1);
                put_name(b, "R");
                put_varint(b, HUGE);
                put_varint(b, 1);
            }),
            eof
        );
        assert_eq!(
            db(|b| {
                put_varint(b, 1);
                put_varint(b, HUGE);
            }),
            eof
        );
        // A zero-arity relation's rows occupy no bytes, so its row count
        // is bounded like any other and the schema then refuses it.
        assert!(matches!(
            db(|b| {
                put_varint(b, 1);
                put_name(b, "R");
                put_varint(b, 0);
                put_varint(b, 0);
            }),
            Err(CodecError::Schema(_))
        ));

        // decode_facts / get_fact: fact count, arity.
        let facts = |body: fn(&mut BytesMut)| decode_facts(&headed(body)).map(|_| ());
        assert_eq!(facts(|b| put_varint(b, HUGE)), eof);
        assert_eq!(
            facts(|b| {
                put_varint(b, 1);
                put_name(b, "R");
                put_varint(b, HUGE);
            }),
            eof
        );

        // decode_delta: both list counts.
        let delta = |body: fn(&mut BytesMut)| decode_delta(&headed(body)).map(|_| ());
        assert_eq!(delta(|b| put_varint(b, HUGE)), eof);
        assert_eq!(
            delta(|b| {
                put_varint(b, 0);
                put_varint(b, HUGE);
            }),
            eof
        );
    }

    proptest! {
        #[test]
        fn prop_database_roundtrip(rows in prop::collection::vec((0i64..100, -50i64..50), 0..60)) {
            let schema = Schema::from_relations(&[("E", 2)]);
            let mut db = Database::new(schema);
            for (a, b) in rows {
                db.insert(&Fact::new("E", vec![Constant::int(a), Constant::int(b)])).unwrap();
            }
            let decoded = decode_database(&encode_database(&db)).unwrap();
            prop_assert!(db.same_facts(&decoded));
        }

        #[test]
        fn prop_varint_roundtrip(v: u64) {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            prop_assert_eq!(get_varint(&mut bytes).unwrap(), v);
            prop_assert!(!bytes.has_remaining());
        }

        #[test]
        fn prop_fact_names_roundtrip(name in "[a-zA-Z][a-zA-Z0-9_]{0,12}") {
            let facts = vec![Fact::parts(&name, &[&name])];
            let decoded = decode_facts(&encode_facts(&facts)).unwrap();
            prop_assert_eq!(facts, decoded);
        }

        #[test]
        fn prop_delta_roundtrip(
            adds in prop::collection::vec((0i64..40, -20i64..20), 0..30),
            dels in prop::collection::vec((0i64..40, -20i64..20), 0..30),
        ) {
            let fact = |(a, b): (i64, i64)| Fact::new("E", vec![Constant::int(a), Constant::int(b)]);
            let added: Vec<Fact> = adds.into_iter().map(fact).collect();
            let removed: Vec<Fact> = dels.into_iter().map(fact).collect();
            let decoded = decode_delta(&encode_delta(&added, &removed)).unwrap();
            prop_assert_eq!(decoded, (added, removed));
        }
    }
}
