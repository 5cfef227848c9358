//! On-disk wire formats, layered on the `ocqa_data::codec` primitives
//! and the engine's one image codec (`ocqa_engine::image`).
//!
//! * snapshot files — one [`DbImage`] each, framed under the `OCQS`
//!   magic. WAL `install` records carry the same image payload unframed
//!   (the WAL has its own per-record checksum), so snapshot writing and
//!   journal replay decode through one path.
//! * [`Manifest`] — the store's root: the version-counter floor, the
//!   name → snapshot-file map, the prepared-query texts in handle order
//!   and the planner-feedback image, framed under `OCQM`.
//!
//! Both files are `codec::frame`s (`magic | u16 format-version |
//! u32 crc32 | payload`), rejected whole on any mismatch (a torn
//! snapshot is useless; unlike the WAL there is no valid prefix to
//! salvage — recovery falls back to the previous manifest generation,
//! which compaction only deletes after the new one is durable).

use crate::error::StoreError;
use bytes::{BufMut, Bytes, BytesMut};
use ocqa_data::codec;
use ocqa_engine::image::{self, DbImage};
use ocqa_engine::{Estimate, FeedbackImage, HotKey, PlanFeedback};

/// The store's root artifact: what the snapshot directory holds and in
/// which order prepared queries replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Version-counter floor: at least the highest version the journal
    /// ever issued, dropped databases included.
    pub next_version: u64,
    /// `(database name, snapshot file name)` per live database.
    pub databases: Vec<(String, String)>,
    /// Live prepared queries as `(handle id, text)` pairs in registry
    /// (FIFO) order — ids are not contiguous once the registry has
    /// evicted, so both halves must persist.
    pub prepared: Vec<(String, String)>,
    /// The registry's id counter (highest ordinal ever allocated).
    pub prepared_next: u64,
    /// The last journaled planner-feedback image.
    pub feedback: FeedbackImage,
}

const MANIFEST_MAGIC: &[u8; 4] = b"OCQM";
const SNAPSHOT_MAGIC: &[u8; 4] = b"OCQS";
/// The on-disk format version of both framed files; any other is refused.
const FORMAT_VERSION: u16 = 2;

fn corrupt(what: &str, e: codec::CodecError) -> StoreError {
    StoreError::Corrupt(format!("{what}: {e}"))
}

/// Appends one [`FeedbackImage`] to `buf` (self-delimiting, so it embeds
/// in both the manifest tail and WAL `feedback` records).
pub fn put_feedback(buf: &mut BytesMut, feedback: &FeedbackImage) {
    codec::put_varint(buf, feedback.estimates.len() as u64);
    for pf in &feedback.estimates {
        codec::put_name(buf, &pf.db);
        for est in &pf.estimates {
            codec::put_varint(buf, est.ewma_us);
            codec::put_varint(buf, est.samples);
        }
    }
    codec::put_varint(buf, feedback.hot_keys.len() as u64);
    for k in &feedback.hot_keys {
        codec::put_name(buf, &k.db);
        codec::put_varint(buf, k.version);
        codec::put_name(buf, &k.query);
        codec::put_name(buf, &k.generator);
        buf.put_u8(image::plan_tag(k.plan));
        codec::put_varint(buf, k.eps_bits);
        codec::put_varint(buf, k.delta_bits);
        codec::put_varint(buf, k.seed);
    }
}

/// Reads one [`FeedbackImage`] (inverse of [`put_feedback`]).
pub fn get_feedback(buf: &mut Bytes) -> Result<FeedbackImage, StoreError> {
    let nest = codec::get_count(buf)?;
    let mut estimates = Vec::with_capacity(nest);
    for _ in 0..nest {
        let db = codec::get_name(buf)?;
        let mut ests = [Estimate::default(); 3];
        for est in &mut ests {
            est.ewma_us = codec::get_varint(buf)?;
            est.samples = codec::get_varint(buf)?;
        }
        estimates.push(PlanFeedback {
            db,
            estimates: ests,
        });
    }
    let nhot = codec::get_count(buf)?;
    let mut hot_keys = Vec::with_capacity(nhot);
    for _ in 0..nhot {
        let db = codec::get_name(buf)?;
        let version = codec::get_varint(buf)?;
        let query = codec::get_name(buf)?;
        let generator = codec::get_name(buf)?;
        let plan = image::get_plan(buf)?;
        let eps_bits = codec::get_varint(buf)?;
        let delta_bits = codec::get_varint(buf)?;
        let seed = codec::get_varint(buf)?;
        hot_keys.push(HotKey {
            db,
            version,
            query,
            generator,
            plan,
            eps_bits,
            delta_bits,
            seed,
        });
    }
    Ok(FeedbackImage {
        estimates,
        hot_keys,
    })
}

/// Serializes a snapshot file: framed, checksummed [`DbImage`].
pub fn encode_snapshot(img: &DbImage) -> Vec<u8> {
    image::encode_framed(SNAPSHOT_MAGIC, FORMAT_VERSION, img)
}

/// Decodes a snapshot file.
pub fn decode_snapshot(data: &[u8]) -> Result<DbImage, StoreError> {
    image::decode_framed(SNAPSHOT_MAGIC, FORMAT_VERSION, data).map_err(|e| corrupt("snapshot", e))
}

fn put_pairs(buf: &mut BytesMut, pairs: &[(String, String)]) {
    codec::put_varint(buf, pairs.len() as u64);
    for (a, b) in pairs {
        codec::put_name(buf, a);
        codec::put_name(buf, b);
    }
}

fn get_pairs(buf: &mut Bytes) -> Result<Vec<(String, String)>, StoreError> {
    let count = codec::get_count(buf)?;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        pairs.push((codec::get_name(buf)?, codec::get_name(buf)?));
    }
    Ok(pairs)
}

/// Serializes the manifest file.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = BytesMut::new();
    codec::put_varint(&mut buf, m.next_version);
    put_pairs(&mut buf, &m.databases);
    put_pairs(&mut buf, &m.prepared);
    codec::put_varint(&mut buf, m.prepared_next);
    put_feedback(&mut buf, &m.feedback);
    codec::frame(MANIFEST_MAGIC, FORMAT_VERSION, &buf)
}

/// Decodes the manifest file.
pub fn decode_manifest(data: &[u8]) -> Result<Manifest, StoreError> {
    let payload =
        codec::unframe(MANIFEST_MAGIC, FORMAT_VERSION, data).map_err(|e| corrupt("manifest", e))?;
    let mut buf = Bytes::copy_from_slice(payload);
    let next_version = codec::get_varint(&mut buf)?;
    let databases = get_pairs(&mut buf)?;
    let prepared = get_pairs(&mut buf)?;
    let prepared_next = codec::get_varint(&mut buf)?;
    let feedback = get_feedback(&mut buf)?;
    codec::expect_end(&buf).map_err(|e| corrupt("manifest", e))?;
    Ok(Manifest {
        next_version,
        databases,
        prepared,
        prepared_next,
        feedback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use ocqa_engine::PlanKind;

    fn sample_feedback() -> FeedbackImage {
        FeedbackImage {
            estimates: vec![PlanFeedback {
                db: "kv".into(),
                estimates: [
                    Estimate {
                        ewma_us: 120,
                        samples: 9,
                    },
                    Estimate::default(),
                    Estimate {
                        ewma_us: 4500,
                        samples: 2,
                    },
                ],
            }],
            hot_keys: vec![HotKey {
                db: "kv".into(),
                version: 7,
                query: "(x) <- R(x,1)".into(),
                generator: "uniform".into(),
                plan: PlanKind::KeyRepair,
                eps_bits: 0.1f64.to_bits(),
                delta_bits: 0.05f64.to_bits(),
                seed: 42,
            }],
        }
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            next_version: 42,
            databases: vec![
                ("alpha".into(), "db-7-0.snap".into()),
                ("beta".into(), "db-9-1.snap".into()),
            ],
            prepared: vec![
                ("q1".into(), "(x) <- R(x,1)".into()),
                ("q4".into(), "(y) <- R(1,y)".into()),
            ],
            prepared_next: 9,
            feedback: sample_feedback(),
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        assert_eq!(decode_manifest(&encode_manifest(&m)).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(decode_manifest(&encode_manifest(&empty)).unwrap(), empty);
    }

    #[test]
    fn feedback_image_roundtrips() {
        let fb = sample_feedback();
        let mut buf = BytesMut::new();
        put_feedback(&mut buf, &fb);
        let mut bytes = buf.freeze();
        assert_eq!(get_feedback(&mut bytes).unwrap(), fb);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn only_the_current_format_version_is_read() {
        let good = encode_manifest(&sample_manifest());
        for version in [1u16, 3] {
            let data = codec::frame(MANIFEST_MAGIC, version, &good[10..]);
            let err = decode_manifest(&data).unwrap_err();
            assert!(
                err.to_string().contains("unsupported format version"),
                "v{version}: {err}"
            );
        }
        // A snapshot is not a manifest, and vice versa.
        assert!(matches!(
            decode_snapshot(&good),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_length_fields_cannot_size_an_allocation() {
        // The manifest's varints in payload order; the four marked ones
        // are list counts. Each in turn claims 2^44 entries inside a frame
        // whose checksum is correct, and is refused before anything is
        // allocated for it.
        const COUNTS: [usize; 4] = [1, 2, 4, 5]; // databases, prepared, estimates, hot keys
        for hostile in COUNTS {
            let mut buf = BytesMut::new();
            for field in 0..=hostile {
                codec::put_varint(&mut buf, if field == hostile { 1 << 44 } else { 0 });
            }
            let data = codec::frame(MANIFEST_MAGIC, FORMAT_VERSION, &buf);
            assert!(decode_manifest(&data).is_err(), "varint #{hostile}");
        }
        // All six at zero is the empty manifest.
        let empty = codec::frame(MANIFEST_MAGIC, FORMAT_VERSION, &[0; 6]);
        assert_eq!(decode_manifest(&empty).unwrap(), Manifest::default());
    }
}
