//! Pins the three encodings of a database image byte for byte. The
//! expected values were produced by the commit *before* the image structs
//! and codecs were unified (PR 11, 03beffe), from the same fixed database
//! — three facts, one violation — so a data directory, a WAL or an
//! in-flight `install_snapshot` line written by either side of that
//! change decodes on the other.
//!
//! It also pins a WAL and a manifest written while the planner still
//! journaled learned costs and hot cache keys (commit f646b36): both must
//! keep opening, with that feedback skipped.

use ocqa_data::Database;
use ocqa_engine::{decode_image, encode_image, DbImage, PlanKind};
use ocqa_logic::{parser, ViolationSet};
use ocqa_store::wire::{self, Manifest};
use ocqa_store::{Store, StoreOptions, WalRecord};

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

/// A WAL holding a planner-feedback record, one `len | crc32 | payload`
/// frame per entry: the gold install, an update to version 8 (`+R(3,30)`),
/// the feedback record (tag `05`: one cost estimate for `gold`, one hot
/// cache key) and an update to version 9 (`-S(10)`).
const LEGACY_WAL_FRAMES: [&str; 4] = [
    "7100000002c9b4f90104676f6c640701165228782c79292c2053287929202d3e2066616c\
     73652e384f43514101000201520202000100000000000000000a00000000000000000200\
     0000000000000103746f6b01530101000a00000000000000010002017800010000000000\
     00000179000a00000000000000",
    "250000009d3c1d630204676f6c64081d4f43514101000101520200030000000000000000\
     1e0000000000000000",
    "400000006d4168ec050104676f6c64780900009423020104676f6c64080e287829203c2d\
     205228782c31302907756e69666f726d019ab3e6cc99b3e6dc3f9ab3e6cc99b3e6dc3f2a",
    "1c000000aaf06a7a0204676f6c6409144f43514101000001015301000a00000000000000",
];
/// A format-2 manifest whose feedback tail holds the same estimate and
/// hot key as [`LEGACY_WAL_FRAMES`].
const LEGACY_MANIFEST_HEX: &str = "\
    4f43514d02007914720d2a0104676f6c640b64622d372d302e736e6170020271310d287829\
    203c2d205228782c31290271330b287929203c2d2053287929030104676f6c647809000094\
    23020104676f6c64080e287829203c2d205228782c31302907756e69666f726d019ab3e6cc\
    99b3e6dc3f9ab3e6cc99b3e6dc3f2a";
/// The same manifest with an empty feedback tail (`00 00`), as both that
/// commit and this one write it.
const MANIFEST_HEX: &str = "\
    4f43514d02008b5fa59a2a0104676f6c640b64622d372d302e736e6170020271310d287829\
    203c2d205228782c31290271330b287929203c2d2053287929030000";

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

#[test]
fn legacy_feedback_record_is_skipped_on_recovery() {
    let dir = std::env::temp_dir().join(format!("ocqa-golden-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = unhex(&LEGACY_WAL_FRAMES.concat());
    std::fs::write(dir.join("wal.log"), &wal).unwrap();

    let scan = ocqa_store::wal::scan(&dir.join("wal.log")).unwrap();
    assert_eq!(scan.valid_len, wal.len() as u64, "no frame is torn");
    assert!(matches!(
        scan.records[..],
        [
            WalRecord::Install(_),
            WalRecord::Update { version: 8, .. },
            WalRecord::Update { version: 9, .. }
        ]
    ));

    let state = Store::open(&dir, StoreOptions::default())
        .unwrap()
        .read_state()
        .unwrap();
    let [img] = &state.databases[..] else {
        panic!("recovered {} databases", state.databases.len());
    };
    let expected = parser::parse_facts("R(1,10). R(2,tok). R(3,30).").unwrap();
    assert_eq!((img.name.as_str(), img.version), ("gold", 9));
    assert_eq!(img.db.len(), expected.len());
    assert!(expected.iter().all(|f| img.db.contains(f)));
    assert!(
        img.violations.is_empty(),
        "S(10) left with the second update"
    );
    assert_eq!(state.next_version, 9);
    assert_eq!(
        std::fs::read(dir.join("wal.log")).unwrap(),
        wal,
        "opening the store keeps every frame"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_manifest_feedback_tail_is_read_and_discarded() {
    let expected = Manifest {
        next_version: 42,
        databases: vec![("gold".into(), "db-7-0.snap".into())],
        prepared: vec![
            ("q1".into(), "(x) <- R(x,1)".into()),
            ("q3".into(), "(y) <- S(y)".into()),
        ],
        prepared_next: 3,
    };
    assert_eq!(
        wire::decode_manifest(&unhex(LEGACY_MANIFEST_HEX)).unwrap(),
        expected
    );
    assert_eq!(
        hex(&wire::encode_manifest(&expected)),
        hex(&unhex(MANIFEST_HEX))
    );
    assert_eq!(
        wire::decode_manifest(&unhex(MANIFEST_HEX)).unwrap(),
        expected
    );
}
