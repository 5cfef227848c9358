//! End-to-end tests of the `ocqa` command-line driver.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A temp file that belongs to one test: its name is unique per call,
/// so parallel tests never rewrite a file another test's `ocqa` child
/// is reading, and it is removed when the test drops it.
struct TempFile(PathBuf);

impl std::ops::Deref for TempFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_temp(name: &str, contents: &str) -> TempFile {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "ocqa-cli-{}-{}-{name}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, contents).unwrap();
    TempFile(path)
}

fn ocqa(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ocqa"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn preference_files() -> (TempFile, TempFile) {
    let facts = write_temp(
        "pref.facts",
        "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).",
    );
    let rules = write_temp("pref.rules", "Pref(x,y), Pref(y,x) -> false.");
    (facts, rules)
}

#[test]
fn check_reports_violations_and_operations() {
    let (facts, rules) = preference_files();
    let (stdout, stderr, ok) = ocqa(&[
        "check",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("6 facts"));
    assert!(stdout.contains("4 violations"));
    assert!(stdout.contains("justified operations"));
    assert!(stdout.contains("-{Pref(a,b)}"));
}

#[test]
fn repairs_with_preference_generator_match_example6() {
    let (facts, rules) = preference_files();
    let (stdout, stderr, ok) = ocqa(&[
        "repairs",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
        "--generator",
        "preference",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("4 operational repairs"));
    for frac in ["7/54", "38/135", "5/36", "9/20"] {
        assert!(stdout.contains(frac), "missing {frac} in:\n{stdout}");
    }
}

#[test]
fn exact_answer_reports_45_percent() {
    let (facts, rules) = preference_files();
    let (stdout, stderr, ok) = ocqa(&[
        "answer",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
        "--query",
        "(x) <- forall y: (Pref(x,y) | x = y)",
        "--generator",
        "preference",
        "--exact",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("9/20"), "stdout:\n{stdout}");
    assert!(stdout.contains("(a)"));
}

#[test]
fn approximate_answer_runs_with_seed() {
    let (facts, rules) = preference_files();
    let (stdout, stderr, ok) = ocqa(&[
        "answer",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
        "--query",
        "(x) <- forall y: (Pref(x,y) | x = y)",
        "--generator",
        "uniform-deletions",
        "--eps",
        "0.1",
        "--delta",
        "0.1",
        "--seed",
        "7",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("150 walks"), "stdout:\n{stdout}");
}

#[test]
fn missing_arguments_fail_cleanly() {
    let (_, stderr, ok) = ocqa(&["check"]);
    assert!(!ok);
    assert!(stderr.contains("--facts"));
    let (_, stderr, ok) = ocqa(&["bogus-command", "--facts", "x", "--constraints", "y"]);
    assert!(!ok);
    assert!(stderr.contains("x: ") || stderr.contains("unknown command"));
}

#[test]
fn duplicate_options_rejected() {
    let (facts, rules) = preference_files();
    let (_, stderr, ok) = ocqa(&[
        "check",
        "--facts",
        facts.to_str().unwrap(),
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("duplicate option --facts"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_options_rejected_per_command() {
    let (facts, rules) = preference_files();
    // --query is an `answer` option, not a `check` one.
    let (_, stderr, ok) = ocqa(&[
        "check",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
        "--query",
        "(x) <- Pref(x,x)",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --query"),
        "stderr: {stderr}"
    );
    // Entirely made-up flags fail too (previously silently swallowed).
    let (_, stderr, ok) = ocqa(&["serve", "--bogus", "1"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --bogus"),
        "stderr: {stderr}"
    );
    // And a flag that exists elsewhere is rejected for `serve`.
    let (_, stderr, ok) = ocqa(&["serve", "--exact"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --exact"),
        "stderr: {stderr}"
    );
    // Nor is there a cache TTL: an answer lives until a version bump or
    // LRU eviction.
    let (_, stderr, ok) = ocqa(&["serve", "--ttl-ms", "5"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --ttl-ms"),
        "stderr: {stderr}"
    );
}

#[test]
fn exact_conflicts_with_sampling_options() {
    let (facts, rules) = preference_files();
    let (_, stderr, ok) = ocqa(&[
        "answer",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
        "--query",
        "(x) <- exists y: Pref(x,y)",
        "--exact",
        "--eps",
        "0.01",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--exact conflicts with --eps"),
        "stderr: {stderr}"
    );
}

#[test]
fn planner_flag_accepts_only_cost() {
    for mode in ["static", "off"] {
        let (_, stderr, ok) = ocqa(&["serve", "--planner", mode]);
        assert!(!ok, "--planner {mode} must be refused");
        assert!(stderr.contains("\"plan\""), "stderr: {stderr}");
    }
    // `cost` names the one policy and still starts a server.
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ocqa"))
        .args(["serve", "--planner", "cost", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ocqa serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"ping\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"pong\":true"));
}

#[test]
fn group_commit_flag_accepts_only_zero() {
    let dir = std::env::temp_dir().join(format!("ocqa-cli-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let (_, stderr, ok) = ocqa(&["serve", "--group-commit-us", "500", "--data-dir", dir_arg]);
    assert!(!ok, "--group-commit-us 500 must be refused");
    assert!(stderr.contains("one fsync"), "stderr: {stderr}");
    // `0` names the one commit rule and still starts a durable server.
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ocqa"))
        .args(["serve", "--group-commit-us", "0", "--data-dir", dir_arg])
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ocqa serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"ping\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"pong\":true"));
    assert!(dir.join("shard-0").join("wal.log").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_over_stdio() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ocqa"))
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ocqa serve");
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(
            concat!(
                r#"{"op":"create_db","name":"prefs","facts":"Pref(a,b). Pref(b,a).","constraints":"Pref(x,y), Pref(y,x) -> false."}"#,
                "\n",
                r#"{"op":"answer","db":"prefs","query":"(x) <- exists y: Pref(x,y)","seed":1}"#,
                "\n",
                r#"{"op":"answer","db":"prefs","query":"(x) <- exists y: Pref(x,y)","seed":1}"#,
                "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    drop(stdin); // EOF ends the session
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.trim().lines().collect();
    assert_eq!(lines.len(), 3, "stdout:\n{stdout}");
    assert!(lines[0].contains("\"ok\":true"));
    assert!(lines[1].contains("\"cached\":false"), "{}", lines[1]);
    assert!(
        lines[2].contains("\"cached\":true"),
        "repeat must hit the cache: {}",
        lines[2]
    );
}

#[test]
fn parse_errors_carry_position() {
    let facts = write_temp("bad.facts", "Pref(a b).");
    let rules = write_temp("ok.rules", "Pref(x,y), Pref(y,x) -> false.");
    let (_, stderr, ok) = ocqa(&[
        "check",
        "--facts",
        facts.to_str().unwrap(),
        "--constraints",
        rules.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("parse error"), "stderr: {stderr}");
}

/// The durability acceptance test: a serve session with `--data-dir`
/// installs a database, prepares a query and answers; the process is then
/// killed with SIGKILL (no shutdown path runs). A restarted server over
/// the same directory must hold the database, the prepared query and the
/// serving plan, and answer the same request **bit-identically**.
#[test]
fn serve_data_dir_survives_sigkill() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("ocqa-cli-datadir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const CREATE: &str = r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}"#;
    const PREPARE: &str = r#"{"op":"prepare","query":"(x) <- exists y: R(x,y)"}"#;
    const ANSWER: &str =
        r#"{"op":"answer","db":"kv","prepared":"q1","eps":0.1,"delta":0.1,"seed":7}"#;

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_ocqa"))
            .args([
                "serve",
                "--workers",
                "2",
                "--data-dir",
                dir.to_str().unwrap(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ocqa serve --data-dir")
    };

    // Session 1: create, prepare, answer — then SIGKILL, mid-session.
    let mut child = spawn();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let roundtrip = |stdin: &mut std::process::ChildStdin,
                     reader: &mut BufReader<std::process::ChildStdout>,
                     req: &str| {
        writeln!(stdin, "{req}").unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    assert!(roundtrip(&mut stdin, &mut reader, CREATE).contains("\"ok\":true"));
    assert!(roundtrip(&mut stdin, &mut reader, PREPARE).contains("\"id\":\"q1\""));
    let first_answer = roundtrip(&mut stdin, &mut reader, ANSWER);
    assert!(
        first_answer.contains("\"plan\":\"key-repair\""),
        "{first_answer}"
    );
    let first_list = roundtrip(&mut stdin, &mut reader, r#"{"op":"list"}"#);
    child.kill().expect("SIGKILL"); // no flush, no shutdown hook
    let _ = child.wait();

    // Session 2: recover and re-answer.
    let mut child = spawn();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let list = roundtrip(&mut stdin, &mut reader, r#"{"op":"list"}"#);
    assert_eq!(list, first_list, "catalog must restore exactly");
    let answer = roundtrip(&mut stdin, &mut reader, ANSWER);
    assert_eq!(
        answer, first_answer,
        "restored engine must answer bit-identically"
    );
    let stats = roundtrip(&mut stdin, &mut reader, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"backend\":\"disk\""), "{stats}");
    drop(stdin);
    let _ = child.wait();

    // Offline compaction over the same directory reports the database.
    let (stdout, stderr, ok) = ocqa(&[
        "snapshot",
        "--data-dir",
        dir.to_str().unwrap(),
        "--db",
        "kv",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("kv: version 1, 5 facts"), "{stdout}");

    // And a third session still answers identically from the snapshot.
    let mut child = spawn();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let answer = roundtrip(&mut stdin, &mut reader, ANSWER);
    assert_eq!(answer, first_answer, "post-compaction restore identical");
    drop(stdin);
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded durability acceptance test: `serve --shards 4 --data-dir`
/// spreads databases over four per-shard stores (`shard-<k>/`, each with
/// its own LOCK and WAL); after SIGKILL a restarted server recovers
/// **every** shard and answers each database bit-identically — and the
/// answers equal a single-shard server's for the same requests (modulo
/// the reported `shard`), because sampling is a pure function of the
/// database, seed and plan, not of placement.
#[test]
fn serve_sharded_data_dir_survives_sigkill() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let base = std::env::temp_dir().join(format!("ocqa-cli-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir4 = base.join("four");
    let dir1 = base.join("one");

    let names = ["orders", "users", "events", "billing", "audit"];
    let create = |name: &str| {
        format!(
            r#"{{"op":"create_db","name":"{name}","facts":"R(1,10). R(1,20). R(2,30).","constraints":"R(x,y), R(x,z) -> y = z."}}"#
        )
    };
    let answer = |name: &str| {
        format!(
            r#"{{"op":"answer","db":"{name}","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}}"#
        )
    };

    let spawn = |dir: &std::path::Path, shards: &str| {
        Command::new(env!("CARGO_BIN_EXE_ocqa"))
            .args([
                "serve",
                "--workers",
                "2",
                "--shards",
                shards,
                "--data-dir",
                dir.to_str().unwrap(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ocqa serve --shards")
    };
    let roundtrip = |stdin: &mut std::process::ChildStdin,
                     reader: &mut BufReader<std::process::ChildStdout>,
                     req: &str| {
        writeln!(stdin, "{req}").unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    // Placement-dependent metadata (the shard tag, shard-local version
    // counters, per-shard cache counters) legitimately differs between
    // deployments; the *sampled estimates* may not. Compare those.
    let sampled = |line: &str| {
        let v = ocqa_engine::json::parse(line.trim()).unwrap();
        (
            v.get("answers").unwrap().to_string(),
            v.get("walks").unwrap().to_string(),
            v.get("failed_walks").unwrap().to_string(),
            v.get("plan").unwrap().to_string(),
        )
    };

    // Session 1 (4 shards): create and answer everything, then SIGKILL.
    let mut child = spawn(&dir4, "4");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    for name in names {
        assert!(roundtrip(&mut stdin, &mut reader, &create(name)).contains("\"ok\":true"));
    }
    let first_answers: Vec<String> = names
        .iter()
        .map(|n| roundtrip(&mut stdin, &mut reader, &answer(n)))
        .collect();
    let first_list = roundtrip(&mut stdin, &mut reader, r#"{"op":"list"}"#);
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Every shard got its own store directory with a WAL.
    for k in 0..4 {
        let shard_dir = dir4.join(format!("shard-{k}"));
        assert!(shard_dir.join("wal.log").exists(), "{shard_dir:?} missing");
        assert!(shard_dir.join("LOCK").exists(), "{shard_dir:?} unlocked");
    }

    // Session 2: recovery must restore all shards and answer identically.
    let mut child = spawn(&dir4, "4");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let list = roundtrip(&mut stdin, &mut reader, r#"{"op":"list"}"#);
    assert_eq!(list, first_list, "every shard's catalog must restore");
    for (name, first) in names.iter().zip(&first_answers) {
        let again = roundtrip(&mut stdin, &mut reader, &answer(name));
        assert_eq!(&again, first, "{name}: restored answer differs");
    }
    drop(stdin);
    let _ = child.wait();

    // A single-shard server answers bit-identically (minus the shard tag).
    let mut child = spawn(&dir1, "1");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    for name in names {
        assert!(roundtrip(&mut stdin, &mut reader, &create(name)).contains("\"ok\":true"));
    }
    for (name, first) in names.iter().zip(&first_answers) {
        let single = roundtrip(&mut stdin, &mut reader, &answer(name));
        assert_eq!(
            sampled(&single),
            sampled(first),
            "{name}: sharding must not change the sampled answer"
        );
    }
    drop(stdin);
    let _ = child.wait();

    // Offline compaction iterates every shard store.
    let (stdout, stderr, ok) = ocqa(&["snapshot", "--data-dir", dir4.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    for k in 0..4 {
        assert!(
            stdout.contains(&format!("shard-{k}")),
            "snapshot must compact shard {k}: {stdout}"
        );
    }
    // And the compacted stores still serve the same answers.
    let mut child = spawn(&dir4, "4");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    for (name, first) in names.iter().zip(&first_answers) {
        let again = roundtrip(&mut stdin, &mut reader, &answer(name));
        assert_eq!(&again, first, "{name}: post-compaction answer differs");
    }
    drop(stdin);
    let _ = child.wait();

    // Serving the 4-shard directory with fewer shards must be refused,
    // not silently drop the unopened shards' databases.
    let out = Command::new(env!("CARGO_BIN_EXE_ocqa"))
        .args([
            "serve",
            "--shards",
            "2",
            "--data-dir",
            dir4.to_str().unwrap(),
        ])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run ocqa serve --shards 2");
    assert!(!out.status.success(), "shrinking --shards must fail fast");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("would not open"), "stderr: {stderr}");

    let _ = std::fs::remove_dir_all(&base);
}

/// A pre-sharding data directory (store files at its root) is refused by
/// both commands that open stores — never served, never compacted, and
/// never given an empty `shard-0/` beside the operator's data.
#[test]
fn root_level_store_layout_is_refused() {
    let dir = std::env::temp_dir().join(format!("ocqa-cli-rootstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), b"").unwrap();
    for command in ["serve", "snapshot"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ocqa"))
            .args([command, "--data-dir", dir.to_str().unwrap()])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{command} must refuse the layout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("move its contents into") && stderr.contains("shard-0"),
            "{command}: {stderr}"
        );
        assert!(!dir.join("shard-0").exists(), "{command} created shard-0");
    }
    // With nothing to compact, `snapshot` says so instead of opening a
    // store at the root (which would create exactly the refused layout).
    std::fs::remove_file(dir.join("wal.log")).unwrap();
    let (_, stderr, ok) = ocqa(&["snapshot", "--data-dir", dir.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no shard-<k> store"), "{stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
