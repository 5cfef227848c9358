//! The **database image**: one database's full serving state as one
//! value, and its one binary encoding.
//!
//! An image is `(D, Σ, V(D, Σ))` plus the catalog version and the plan
//! classification. It is shipped verbatim wherever a database crosses a
//! boundary — a catalog entry holds one, the storage seam journals and
//! recovers them, `ocqa-store` writes them as snapshot files and WAL
//! `install` records, and `fetch_snapshot` / `install_snapshot` carry one
//! between shards — because recomputing `V(D, Σ)` costs
//! `O(|D|^{|body|})`, and because the **version** is part of every
//! answer-cache key and every reported `db_version`: answers stay
//! bit-identical across restarts and moves only if it survives exactly.
//!
//! The payload layout, over the `ocqa_data::codec` primitives:
//!
//! ```text
//! name | varint version | u8 plan tag | constraints text
//!   | varint len | codec-encoded database (len bytes)
//!   | varint #violations
//!     per violation: varint constraint index | varint #bindings
//!                    per binding: variable name | constant
//! ```
//!
//! The payload is self-delimiting, so it embeds in a WAL record as it
//! is; files and protocol lines wrap it in `codec::frame` under their
//! own magic ([`encode_framed`]).

use crate::planner::PlanKind;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ocqa_data::codec::{self, CodecError};
use ocqa_data::Database;
use ocqa_logic::{Bindings, Var, Violation, ViolationSet};

/// One database's full serving state (see the module docs).
#[derive(Debug, Clone)]
pub struct DbImage {
    /// Catalog name.
    pub name: String,
    /// The catalog version the state was committed at, preserved exactly
    /// wherever the image goes.
    pub version: u64,
    /// The structural plan classification (a function of the constraints,
    /// recorded so no receiver re-derives it).
    pub plan: PlanKind,
    /// The constraint source text — the parsed `ConstraintSet` has no
    /// guaranteed round-trippable rendering, so the text is what travels.
    pub constraints: String,
    /// The database (schema + facts).
    pub db: Database,
    /// The maintained violation set `V(D, Σ)` at `version`.
    pub violations: ViolationSet,
}

/// The wire tag of a plan kind.
pub fn plan_tag(plan: PlanKind) -> u8 {
    match plan {
        PlanKind::KeyRepair => 0,
        PlanKind::Localized => 1,
        PlanKind::Monolithic => 2,
    }
}

/// Inverse of [`plan_tag`].
fn plan_from_tag(tag: u8) -> Result<PlanKind, CodecError> {
    match tag {
        0 => Ok(PlanKind::KeyRepair),
        1 => Ok(PlanKind::Localized),
        2 => Ok(PlanKind::Monolithic),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Reads one plan tag byte.
pub fn get_plan(buf: &mut Bytes) -> Result<PlanKind, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    plan_from_tag(buf.get_u8())
}

fn put_violations(buf: &mut BytesMut, violations: &ViolationSet) {
    codec::put_varint(buf, violations.len() as u64);
    for v in violations.iter() {
        codec::put_varint(buf, u64::from(v.constraint));
        codec::put_varint(buf, v.hom.len() as u64);
        for (var, c) in v.hom.iter() {
            codec::put_name(buf, var.name().as_str());
            codec::put_constant(buf, c);
        }
    }
}

fn get_violations(buf: &mut Bytes) -> Result<ViolationSet, CodecError> {
    let count = codec::get_count(buf)?;
    let mut set = ViolationSet::empty();
    for _ in 0..count {
        let constraint = codec::get_varint(buf)? as u32;
        let nbind = codec::get_count(buf)?;
        let mut hom = Bindings::new();
        for _ in 0..nbind {
            let var = Var::named(&codec::get_name(buf)?);
            // A variable bound twice to different constants is not a
            // homomorphism; `Bindings::from_pairs` would panic on it.
            if !hom.bind(var, codec::get_constant(buf)?) {
                return Err(CodecError::Invalid("violation: variable bound twice"));
            }
        }
        set.insert(Violation { constraint, hom });
    }
    Ok(set)
}

/// Appends one image payload to `buf`.
pub fn put_image(buf: &mut BytesMut, img: &DbImage) {
    codec::put_name(buf, &img.name);
    codec::put_varint(buf, img.version);
    buf.put_u8(plan_tag(img.plan));
    codec::put_name(buf, &img.constraints);
    let db_bytes = codec::encode_database(&img.db);
    codec::put_varint(buf, db_bytes.len() as u64);
    buf.put_slice(&db_bytes);
    put_violations(buf, &img.violations);
}

/// Reads one image payload (inverse of [`put_image`]), leaving `buf` at
/// the first byte after it.
pub fn get_image(buf: &mut Bytes) -> Result<DbImage, CodecError> {
    let name = codec::get_name(buf)?;
    let version = codec::get_varint(buf)?;
    let plan = get_plan(buf)?;
    let constraints = codec::get_name(buf)?;
    let db_len = codec::get_count(buf)?;
    let db = codec::decode_database(&buf.copy_to_bytes(db_len))?;
    let violations = get_violations(buf)?;
    Ok(DbImage {
        name,
        version,
        plan,
        constraints,
        db,
        violations,
    })
}

/// One image as a standalone checksummed artifact:
/// `codec::frame(magic, format_version, image payload)`.
pub fn encode_framed(magic: &[u8; 4], format_version: u16, img: &DbImage) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_image(&mut buf, img);
    codec::frame(magic, format_version, &buf)
}

/// Inverse of [`encode_framed`]: rejects a wrong magic or format
/// version, a checksum mismatch, an undecodable payload and trailing
/// bytes — the artifact is accepted or refused whole.
pub fn decode_framed(
    magic: &[u8; 4],
    format_version: u16,
    data: &[u8],
) -> Result<DbImage, CodecError> {
    let mut buf = Bytes::copy_from_slice(codec::unframe(magic, format_version, data)?);
    let img = get_image(&mut buf)?;
    codec::expect_end(&buf)?;
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::parser;

    fn sample() -> DbImage {
        let constraints = "R(x,y), R(x,z) -> y = z.";
        let facts = parser::parse_facts("R(1,10). R(1,20). R(2,thirty).").unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let violations = ViolationSet::compute(&sigma, &db);
        DbImage {
            name: "kv".into(),
            version: 9,
            plan: PlanKind::KeyRepair,
            constraints: constraints.into(),
            db,
            violations,
        }
    }

    /// The one round-trip + corruption suite of the one image codec;
    /// snapshot files, WAL installs and transfer images are this payload
    /// under different wrappers.
    #[test]
    fn framed_image_roundtrips_and_rejects_every_corruption() {
        let img = sample();
        let bytes = encode_framed(b"TEST", 3, &img);
        let decoded = decode_framed(b"TEST", 3, &bytes).unwrap();
        assert_eq!(decoded.name, "kv");
        assert_eq!(decoded.version, 9);
        assert_eq!(decoded.plan, PlanKind::KeyRepair);
        assert_eq!(decoded.constraints, img.constraints);
        assert!(decoded.db.same_facts(&img.db));
        assert_eq!(decoded.db.schema().as_ref(), img.db.schema().as_ref());
        assert_eq!(decoded.violations, img.violations);
        assert_eq!(decoded.violations.len(), 2);

        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(decode_framed(b"TEST", 3, &bad).is_err(), "bit flip at {i}");
        }
        for cut in 0..bytes.len() {
            assert!(
                decode_framed(b"TEST", 3, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        assert_eq!(
            decode_framed(b"ELSE", 3, &bytes).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            decode_framed(b"TEST", 4, &bytes).unwrap_err(),
            CodecError::UnsupportedVersion(3)
        );

        // Truncated and over-long *payloads* under a correct checksum
        // (the frame alone would catch neither).
        let payload = &bytes[10..];
        for cut in 0..payload.len() {
            let reframed = codec::frame(b"TEST", 3, &payload[..cut]);
            assert!(decode_framed(b"TEST", 3, &reframed).is_err(), "cut {cut}");
        }
        let mut long = payload.to_vec();
        long.push(0);
        assert_eq!(
            decode_framed(b"TEST", 3, &codec::frame(b"TEST", 3, &long)).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        let mut tagged = payload.to_vec();
        tagged[4] = 9; // "kv" (3 bytes), version (1), then the plan tag
        assert_eq!(
            decode_framed(b"TEST", 3, &codec::frame(b"TEST", 3, &tagged)).unwrap_err(),
            CodecError::BadTag(9)
        );
    }

    /// An image payload up to the database's length field, then whatever
    /// `tail` appends.
    fn payload_with(tail: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = BytesMut::new();
        codec::put_name(&mut buf, "kv");
        codec::put_varint(&mut buf, 1);
        buf.put_u8(0);
        codec::put_name(&mut buf, "");
        tail(&mut buf);
        buf.freeze()
    }

    /// [`payload_with`] a valid empty database in place, so `tail` starts
    /// at the violation count.
    fn payload_with_db(tail: impl FnOnce(&mut BytesMut)) -> Bytes {
        let schema = ocqa_data::Schema::from_relations(&[("R", 1)]);
        let db = codec::encode_database(&Database::new(schema));
        payload_with(|buf| {
            codec::put_varint(buf, db.len() as u64);
            buf.put_slice(&db);
            tail(buf);
        })
    }

    #[test]
    fn image_length_fields_cannot_size_an_allocation() {
        const HUGE: u64 = 1 << 44;
        let eof = Err(CodecError::UnexpectedEof);
        let decode = |mut bytes: Bytes| get_image(&mut bytes).map(|_| ());
        // The embedded database's length.
        assert_eq!(decode(payload_with(|b| codec::put_varint(b, HUGE))), eof);
        // The violation count.
        assert_eq!(decode(payload_with_db(|b| codec::put_varint(b, HUGE))), eof);
        // One violation's binding count.
        assert_eq!(
            decode(payload_with_db(|b| {
                codec::put_varint(b, 1);
                codec::put_varint(b, 0);
                codec::put_varint(b, HUGE);
            })),
            eof
        );
        // A well-formed baseline, so the cases above fail for the reason
        // they claim.
        assert_eq!(decode(payload_with_db(|b| codec::put_varint(b, 0))), Ok(()));
    }

    #[test]
    fn a_variable_bound_twice_is_an_error_not_a_panic() {
        let mut bytes = payload_with_db(|buf| {
            codec::put_varint(buf, 1); // one violation
            codec::put_varint(buf, 0); // of constraint 0
            codec::put_varint(buf, 2); // binding x twice
            for value in [1, 2] {
                codec::put_name(buf, "x");
                codec::put_constant(buf, ocqa_data::Constant::int(value));
            }
        });
        assert!(matches!(get_image(&mut bytes), Err(CodecError::Invalid(_))));
    }
}
