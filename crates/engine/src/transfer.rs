//! The snapshot **transfer image**: a [`DbImage`] as a self-contained,
//! checksummed, base64-encoded string — the payload of the
//! `fetch_snapshot` / `install_snapshot` protocol legs the rebalancer
//! ships between shards.
//!
//! The bytes under the base64 are `codec::frame` around the one image
//! payload ([`crate::image`]), exactly like an `ocqa-store` snapshot
//! file but under their own magic (`OCQT`): a transfer image travels
//! *inside a JSON protocol line*, not as a file, and must never be
//! mistaken for an on-disk snapshot a store would open. Base64 keeps the
//! blob JSON-string-safe; the CRC rejects any corruption the transport
//! let through before a single byte reaches the receiving catalog.

use crate::error::EngineError;
use crate::image::{self, DbImage};

/// Transfer-image frame magic (distinct from the store's `OCQS`).
const MAGIC: &[u8; 4] = b"OCQT";
/// Transfer format version.
const FORMAT_VERSION: u16 = 1;

fn corrupt(msg: impl std::fmt::Display) -> EngineError {
    EngineError::BadRequest(format!("transfer image: {msg}"))
}

/// Encodes an image as a base64 string, ready to embed in a
/// `fetch_snapshot` response or `install_snapshot` request.
pub fn encode_image(img: &DbImage) -> String {
    base64_encode(&image::encode_framed(MAGIC, FORMAT_VERSION, img))
}

/// Decodes a base64 transfer image, rejecting any frame, checksum or
/// payload corruption whole.
pub fn decode_image(text: &str) -> Result<DbImage, EngineError> {
    image::decode_framed(MAGIC, FORMAT_VERSION, &base64_decode(text)?).map_err(corrupt)
}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding (RFC 4648), hand-rolled — the transfer
/// image is the only base64 user in the workspace and a vendored codec
/// dependency is not worth it.
fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn base64_decode(text: &str) -> Result<Vec<u8>, EngineError> {
    fn val(c: u8) -> Result<u32, EngineError> {
        match c {
            b'A'..=b'Z' => Ok(u32::from(c - b'A')),
            b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            other => Err(corrupt(format_args!("invalid base64 byte {other:#x}"))),
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(corrupt("base64 length not a multiple of 4"));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = if last {
            chunk.iter().rev().take_while(|&&c| c == b'=').count()
        } else {
            0
        };
        if pad > 2 {
            return Err(corrupt("malformed base64 padding"));
        }
        let mut n = 0u32;
        for (j, &c) in chunk.iter().enumerate() {
            let v = if j >= 4 - pad { 0 } else { val(c)? };
            n = (n << 6) | v;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_roundtrips_all_tail_lengths() {
        for len in 0..32usize {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let enc = base64_encode(&data);
            assert_eq!(base64_decode(&enc).unwrap(), data, "len {len}: {enc}");
        }
        // Known vector.
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert!(base64_decode("Zm9v YQ==").is_err(), "whitespace rejected");
        assert!(base64_decode("Zm9").is_err(), "ragged length rejected");
    }

    #[test]
    fn image_string_roundtrips_and_rejects_tampering() {
        let engine = crate::Engine::new(crate::EngineConfig::default());
        let created = engine.handle_line(
            r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
        );
        assert!(created.to_string().contains("\"ok\":true"), "{created}");
        let reply = engine.handle_line(r#"{"op":"fetch_snapshot","db":"kv"}"#);
        let text = reply.get("image").and_then(|j| j.as_str()).unwrap();
        let img = decode_image(text).unwrap();
        assert_eq!((img.name.as_str(), img.version), ("kv", 1));
        assert_eq!(encode_image(&img), text);
        // One flipped character, still inside the base64 alphabet.
        let mid = text.len() / 2;
        let flipped = if &text[mid..=mid] == "A" { "B" } else { "A" };
        let tampered = format!("{}{flipped}{}", &text[..mid], &text[mid + 1..]);
        assert!(decode_image(&tampered).is_err());
        assert!(decode_image("QUJD").is_err(), "bad magic rejected");
        assert!(decode_image("").is_err());
    }

    /// The bug report's payload, delivered the way any client can: a
    /// 17-byte database whose one row count claims 2^44 rows, inside an
    /// image whose checksum is *correct* (the sender computes it). Sizing
    /// an allocation by that count aborts the process — an allocation
    /// failure is not a panic, so no `catch_unwind` survives it.
    #[test]
    fn hostile_install_snapshot_gets_an_error_reply() {
        use bytes::{BufMut, BytesMut};
        use ocqa_data::codec;
        let mut db = BytesMut::new();
        db.put_slice(b"OCQA");
        db.put_u16_le(1);
        codec::put_varint(&mut db, 1); // one relation
        codec::put_name(&mut db, "R");
        codec::put_varint(&mut db, 1); // of arity 1
        codec::put_varint(&mut db, 1 << 44); // with 2^44 rows
        let mut payload = BytesMut::new();
        codec::put_name(&mut payload, "evil");
        codec::put_varint(&mut payload, 1);
        payload.put_u8(0);
        codec::put_name(&mut payload, "");
        codec::put_varint(&mut payload, db.len() as u64);
        payload.put_slice(&db);
        codec::put_varint(&mut payload, 0); // no violations
        let image = base64_encode(&codec::frame(MAGIC, FORMAT_VERSION, &payload));

        let engine = crate::Engine::new(crate::EngineConfig::default());
        let reply = engine
            .handle_line(&format!(
                r#"{{"op":"install_snapshot","db":"evil","image":"{image}"}}"#
            ))
            .to_string();
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("transfer image"), "{reply}");
        let list = engine.handle_line(r#"{"op":"list"}"#).to_string();
        assert!(!list.contains("evil"), "{list}");
    }
}
