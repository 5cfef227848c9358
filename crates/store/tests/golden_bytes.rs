//! Pins the three encodings of a database image byte for byte. The
//! expected values were produced by the commit *before* the image structs
//! and codecs were unified (PR 11, 03beffe), from the same fixed database
//! — three facts, one violation — so a data directory, a WAL or an
//! in-flight `install_snapshot` line written by either side of that
//! change decodes on the other.

use ocqa_data::Database;
use ocqa_engine::{decode_image, encode_image, DbImage, PlanKind};
use ocqa_logic::{parser, ViolationSet};
use ocqa_store::{wire, WalRecord};

/// Image payload: name `gold`, version 7, plan tag 1, constraint text,
/// the `OCQA` database (relations `R/2` with two rows, `S/1` with one)
/// and the single violation `(κ0, {x↦1, y↦10})`.
const PAYLOAD_HEX: &str = "04676f6c640701165228782c79292c2053287929202d3e2066616c73652e38\
    4f43514101000201520202000100000000000000000a0000000000000000020000000000000001\
    03746f6b01530101000a0000000000000001000201780001000000000000000179000a00000000\
    000000";
/// `OCQS | u16 2 | crc32(payload)` — a snapshot file's header.
const SNAPSHOT_HEADER_HEX: &str = "4f4351530200a32f9433";
/// A WAL `install` record is the tag byte `01` and the bare payload.
const WAL_TAG_HEX: &str = "01";
/// base64(`OCQT | u16 1 | crc32(payload) | payload`).
const TRANSFER_IMAGE: &str = "T0NRVAEAoy+UMwRnb2xkBwEWUih4LHkpLCBTKHkpIC0+IGZhbHNlLjhPQ1FBAQACAVICAgABAAAAAAAAAAAKAAAAAAAAAAACAAAAAAAAAAEDdG9rAVMBAQAKAAAAAAAAAAEAAgF4AAEAAAAAAAAAAXkACgAAAAAAAAA=";

fn gold() -> DbImage {
    let constraints = "R(x,y), S(y) -> false.";
    let facts = parser::parse_facts("R(1,10). R(2,tok). S(10).").unwrap();
    let sigma = parser::parse_constraints(constraints).unwrap();
    let schema = parser::infer_schema(&facts, &sigma).unwrap();
    let db = Database::from_facts(schema, facts).unwrap();
    let violations = ViolationSet::compute(&sigma, &db);
    assert_eq!((db.len(), violations.len()), (3, 1));
    DbImage {
        name: "gold".into(),
        version: 7,
        plan: PlanKind::Localized,
        constraints: constraints.into(),
        db,
        violations,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn assert_gold(decoded: &DbImage) {
    let img = gold();
    assert_eq!(decoded.name, img.name);
    assert_eq!(decoded.version, img.version);
    assert_eq!(decoded.plan, img.plan);
    assert_eq!(decoded.constraints, img.constraints);
    assert!(decoded.db.same_facts(&img.db));
    assert_eq!(decoded.violations, img.violations);
}

#[test]
fn image_bytes_are_those_of_the_parent_commit() {
    let payload = hex(&unhex(PAYLOAD_HEX));
    let img = gold();

    let snapshot = format!("{SNAPSHOT_HEADER_HEX}{payload}");
    assert_eq!(hex(&wire::encode_snapshot(&img)), snapshot);
    assert_gold(&wire::decode_snapshot(&unhex(&snapshot)).unwrap());

    let record = format!("{WAL_TAG_HEX}{payload}");
    assert_eq!(hex(&WalRecord::encode_install(&img)), record);
    assert_eq!(hex(&WalRecord::Install(img.clone()).encode()), record);
    match WalRecord::decode(&unhex(&record)).unwrap() {
        WalRecord::Install(decoded) => assert_gold(&decoded),
        other => panic!("decoded {other:?}"),
    }

    assert_eq!(encode_image(&img), TRANSFER_IMAGE);
    assert_gold(&decode_image(TRANSFER_IMAGE).unwrap());
}
