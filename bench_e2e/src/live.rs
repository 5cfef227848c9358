//! A deployment installed and warmed, and the closed-loop clients that
//! measure it.

use crate::client::{canonical_answer, Conn};
use crate::deploy::{deploy, Deployment};
use crate::drivers::*;
use crate::inputs::{self, DbInput};
use crate::probes::Accuracy;
use crate::trace::Tracer;
use crate::workload::{Counts, Kind, RunOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deployment that has been installed and warmed, ready to measure.
pub struct Live {
    pub deployment: Deployment,
    /// The measuring connections, one per driver.
    pub conns: Vec<Conn>,
    pub drivers: Vec<Driver>,
    /// `routed_mixed`'s connection B, already subscribed.
    pub subscriber: Option<Conn>,
    /// Every line set-up sent, in order, for the traced run's replica.
    pub setup_lines: Vec<String>,
    /// The answers set-up received, with the database each is about:
    /// estimates of freshly installed instances, for the accuracy guard.
    pub warm_answers: Vec<(Arc<DbInput>, String)>,
    /// The first database, on which the traced run asks its probe
    /// question.
    pub probe_db: Arc<DbInput>,
    pub seconds: f64,
}

/// Sends each batch on its own connection, in parallel; every reply
/// must say `"ok":true`. Returns the replies per batch.
fn send_batches(conns: &mut [Conn], batches: &[Vec<String>]) -> Result<Vec<Vec<String>>, String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(batches)
            .map(|(conn, batch)| {
                scope.spawn(move || {
                    batch
                        .iter()
                        .map(|line| {
                            let (reply, _) = conn.exchange(line)?;
                            if !reply.contains("\"ok\":true") {
                                return Err(format!("set-up request {line:?} refused: {reply}"));
                            }
                            Ok(reply)
                        })
                        .collect::<Result<Vec<String>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "set-up thread panicked".to_string())?)
            .collect()
    })
}

/// Deals `lines` out round-robin over the connections, sends them in
/// parallel, and returns the replies in the order of `lines`.
fn send_dealt(conns: &mut [Conn], lines: &[String]) -> Result<Vec<String>, String> {
    let n = conns.len();
    let batches: Vec<Vec<String>> = (0..n)
        .map(|c| lines.iter().skip(c).step_by(n).cloned().collect())
        .collect();
    let mut replies: Vec<_> = send_batches(conns, &batches)?
        .into_iter()
        .map(Vec::into_iter)
        .collect();
    Ok((0..lines.len())
        .filter_map(|i| replies[i % n].next())
        .collect())
}

/// spawn → `listening` → installs → warm-up done. Everything here is
/// work, not waiting: a faster server sets up faster.
pub fn set_up(
    opts: &RunOpts,
    dir: &Path,
    standby: bool,
    exact_conflict: f64,
) -> Result<Live, String> {
    let start = Instant::now();
    let deployment = deploy(opts.kind, &opts.ocqa, dir, standby)?;
    let front = deployment.front_addr().to_string();
    let mut conns = vec![Conn::connect(&front)?, Conn::connect(&front)?];
    let mut setup_lines = Vec::new();
    let mut warm_answers = Vec::new();
    let probe_db;
    let mut run = |conns: &mut [Conn], lines: Vec<String>| -> Result<Vec<String>, String> {
        let replies = send_dealt(conns, &lines);
        setup_lines.extend(lines);
        replies
    };
    let mut subscriber = None;
    let drivers = match opts.kind {
        Kind::HotRead => {
            let dbs: Vec<Arc<DbInput>> = inputs::hot_read_dbs(opts.seed)
                .into_iter()
                .map(Arc::new)
                .collect();
            probe_db = dbs[0].clone();
            run(
                &mut conns,
                dbs.iter().map(|db| inputs::create_line(db)).collect(),
            )?;
            let lines: Vec<String> = dbs
                .iter()
                .flat_map(|db| (1..=HOT_SEEDS).map(|s| inputs::answer_line(db, s, None)))
                .collect();
            let replies = run(&mut conns, lines.clone())?;
            let mut firsts = Vec::new();
            for (key, reply) in replies.iter().enumerate() {
                if !reply.contains("\"cached\":false") {
                    return Err(format!("first reply for key {key} was already cached"));
                }
                firsts.push(canonical_answer(reply).ok_or("first reply is no answer")?);
                warm_answers.push((dbs[key / HOT_SEEDS as usize].clone(), reply.clone()));
            }
            let (lines, firsts) = (Arc::new(lines), Arc::new(firsts));
            (0..2u64)
                .map(|c| {
                    // Each connection cycles the keys in its own order.
                    let mut order: Vec<usize> = (0..lines.len()).collect();
                    let mut rng = StdRng::seed_from_u64(opts.seed ^ (0xC0 + c));
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.random_range(0..i + 1));
                    }
                    Driver::Hot(HotDriver {
                        lines: lines.clone(),
                        firsts: firsts.clone(),
                        order,
                        at: 0,
                    })
                })
                .collect()
        }
        Kind::ColdWalk => {
            let db = Arc::new(inputs::cold_walk_db(opts.seed));
            probe_db = db.clone();
            run(&mut conns[..1], vec![inputs::create_line(&db)])?;
            // Six answers per connection start the sampler workers and
            // fill the planner's statistics.
            let warm = (1..=12)
                .map(|s| inputs::answer_line(&db, s, Some("monolithic")))
                .collect();
            run(&mut conns, warm)?;
            (0..2)
                .map(|c| {
                    Driver::Cold(ColdDriver {
                        db: db.clone(),
                        next_seed: 1_000 + c,
                        exact_conflict,
                        accuracy: Accuracy::new(),
                    })
                })
                .collect()
        }
        Kind::DurableWrite => {
            let mut dbs = inputs::durable_write_dbs(opts.seed, WRITE_POOL);
            let created = run(&mut conns, dbs.iter().map(inputs::create_line).collect())?;
            let mut drivers = Vec::new();
            for (db, reply) in dbs.iter().zip(&created) {
                drivers.push(DurableDriver::new(
                    db,
                    field_u64(&parse_ok(reply)?, "version")?,
                ));
            }
            // Fill each pool to its steady state, each connection on
            // its own database.
            let warm: Vec<Vec<Op>> = drivers.iter().map(DurableDriver::warm_up).collect();
            let lines: Vec<Vec<String>> = warm
                .iter()
                .map(|ops| ops.iter().map(|op| op.line.clone()).collect())
                .collect();
            setup_lines.extend(lines.iter().flatten().cloned());
            let replies = send_batches(&mut conns, &lines)?;
            for ((driver, ops), replies) in drivers.iter_mut().zip(&warm).zip(&replies) {
                for (op, reply) in ops.iter().zip(replies) {
                    driver.version = verify_write(reply, true, driver.version)?;
                    driver.live[op.slot] = true;
                }
            }
            probe_db = Arc::new(dbs.swap_remove(0));
            drivers.into_iter().map(Driver::Durable).collect()
        }
        Kind::RoutedMixed => {
            let dbs: Vec<Arc<DbInput>> = inputs::routed_mixed_dbs(opts.seed)
                .into_iter()
                .map(Arc::new)
                .collect();
            probe_db = dbs[0].clone();
            let created = run(
                &mut conns,
                dbs.iter().map(|db| inputs::create_line(db)).collect(),
            )?;
            let mut mixed = Vec::new();
            for (i, db) in dbs.into_iter().enumerate() {
                let reply = parse_ok(&created[i])?;
                let answer_lines: Vec<String> = (1..=MIXED_SEEDS as u64)
                    .map(|s| inputs::answer_line(&db, s, None))
                    .collect();
                mixed.push(MixedDb {
                    shard: field_u64(&reply, "shard")? as usize,
                    version: field_u64(&reply, "version")?,
                    answer_lines,
                    last: vec![None; MIXED_SEEDS],
                    live_clean: vec![false; db.clean_pool.len()],
                    live_dirty: vec![false; db.dirty_pool.len()],
                    // B listens on the most popular database of each kind.
                    subscribed: i < 2,
                    input: db,
                });
            }
            let spread = [mixed.iter().filter(|m| m.shard == 0).count(), mixed.len()];
            if spread[0] * 2 != spread[1] {
                return Err(format!(
                    "databases landed {}/{} on shard 0",
                    spread[0], spread[1]
                ));
            }
            let keys: Vec<String> = mixed.iter().flat_map(|m| m.answer_lines.clone()).collect();
            let replies = run(&mut conns, keys)?;
            for (key, reply) in replies.iter().enumerate() {
                let target = &mut mixed[key / MIXED_SEEDS];
                let canonical = canonical_answer(reply).ok_or("warm-up reply is no answer")?;
                target.last[key % MIXED_SEEDS] = Some((target.version, canonical));
                warm_answers.push((target.input.clone(), reply.clone()));
            }
            // The second set-up connection becomes B.
            let mut b = conns.pop().expect("two set-up connections");
            for target in mixed.iter().filter(|m| m.subscribed) {
                b.call(&inputs::subscribe_line(&target.input))?;
            }
            subscriber = Some(b);
            let mut total = 0.0;
            let popularity = (1..=mixed.len())
                .map(|rank| {
                    total += 1.0 / rank as f64;
                    total
                })
                .collect();
            let direct = deployment.servers[..2]
                .iter()
                .map(|s| Conn::connect(&s.addr))
                .collect::<Result<_, _>>()?;
            vec![Driver::Mixed(Box::new(MixedDriver {
                rng: StdRng::seed_from_u64(opts.seed ^ 0xA11CE),
                dbs: mixed,
                popularity,
                direct,
                answers: 0,
                direct_checks: 0,
                sends: Vec::new(),
            }))]
        }
    };
    Ok(Live {
        deployment,
        conns,
        drivers,
        subscriber,
        setup_lines,
        warm_answers,
        probe_db,
        seconds: start.elapsed().as_secs_f64(),
    })
}

#[derive(Default)]
pub struct Recorder {
    pub answers_ms: Vec<f64>,
    pub writes_ms: Vec<f64>,
    /// Fact text the acknowledged writes carried.
    pub fact_bytes: u64,
    pub ops: Counts,
    pub errors: Vec<String>,
}

impl Recorder {
    fn fail(&mut self, error: String) {
        self.ops.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn absorb(&mut self, other: Recorder) {
        self.answers_ms.extend(other.answers_ms);
        self.writes_ms.extend(other.writes_ms);
        self.fact_bytes += other.fact_bytes;
        self.ops.add(other.ops);
        self.errors.extend(other.errors);
    }

    pub fn all_ms(&self) -> Vec<f64> {
        self.answers_ms
            .iter()
            .chain(&self.writes_ms)
            .copied()
            .collect()
    }
}

/// One closed-loop client: send, wait for the reply, check it, repeat
/// until the deadline.
fn drive(
    conn: &mut Conn,
    driver: &mut Driver,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Recorder {
    let mut rec = Recorder::default();
    while Instant::now() < deadline {
        let op = driver.next();
        rec.ops.attempted += 1;
        let sent = Instant::now();
        let (reply, took) = match conn.exchange(&op.line) {
            Ok(done) => done,
            Err(e) => {
                // The connection is gone; nothing more can be measured.
                rec.fail(e);
                break;
            }
        };
        match driver.verify(&op, &reply, sent) {
            Ok(()) => {
                let ms = took.as_secs_f64() * 1e3;
                if op.write {
                    rec.writes_ms.push(ms);
                    rec.fact_bytes += op.fact_bytes as u64;
                } else {
                    rec.answers_ms.push(ms);
                }
            }
            Err(e) => rec.fail(e),
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.request(&op.line, op.write, sent, took);
        }
    }
    rec
}

/// Runs every measuring connection for `seconds`; returns what they
/// recorded and how long the leg really took.
pub fn window(live: &mut Live, seconds: f64, tracers: Option<&mut Vec<Tracer>>) -> (Recorder, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => live.drivers.iter().map(|_| None).collect(),
    };
    let mut total = Recorder::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = live
            .conns
            .iter_mut()
            .zip(live.drivers.iter_mut())
            .zip(tracers.drain(..))
            .map(|((conn, driver), tracer)| {
                scope.spawn(move || drive(conn, driver, deadline, tracer))
            })
            .collect();
        for client in clients {
            match client.join() {
                Ok(rec) => total.absorb(rec),
                Err(_) => total.fail("client thread panicked".into()),
            }
        }
    });
    (total, start.elapsed().as_secs_f64())
}
