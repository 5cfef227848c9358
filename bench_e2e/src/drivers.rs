//! What each workload's clients send and what they hold the replies
//! to. A driver is one connection's request stream and its checker.

use crate::client::{canonical_answer, Conn};
use crate::inputs::{self, DbInput};
use crate::probes::Accuracy;
use ocqa_engine::json::{self, Json};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Ops a pool fact stays inserted before `durable_write` deletes it
/// again, in insert/delete pairs; the pool is twice as long, so a
/// database never drifts more than this many facts from its installed
/// size however fast the server gets.
const WRITE_LAG: usize = 16;
pub const WRITE_POOL: usize = 2 * WRITE_LAG;

/// Share of `routed_mixed` operations that are answers; the rest are
/// writes, half of them on facts that change the violation set.
const MIXED_ANSWER_SHARE: f64 = 0.85;
/// Seeds per database in the `hot_read` and `routed_mixed` key sets.
pub const HOT_SEEDS: u64 = 16;
pub const MIXED_SEEDS: usize = 4;

/// One request of a client's stream.
pub struct Op {
    pub line: String,
    pub write: bool,
    /// The key (`hot_read`) or database (`routed_mixed`) addressed.
    pub target: usize,
    /// The seed (answers) or pool position (writes) within it.
    pub slot: usize,
    pub insert: bool,
    pub dirty: bool,
    /// Bytes of fact text a write carries: the user data behind the
    /// store's write amplification.
    pub fact_bytes: usize,
}

impl Op {
    fn answer(line: String, target: usize, slot: usize) -> Op {
        Op {
            line,
            write: false,
            target,
            slot,
            insert: false,
            dirty: false,
            fact_bytes: 0,
        }
    }
}

pub fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply without a numeric {key:?}"))
}

pub fn parse_ok(reply: &str) -> Result<Json, String> {
    let v = json::parse(reply).map_err(|e| format!("malformed reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused: {reply}"));
    }
    Ok(v)
}

/// A write acknowledgement must report exactly the one effective
/// change that was asked for, at a version above the last one seen.
pub fn verify_write(reply: &str, insert: bool, last_version: u64) -> Result<u64, String> {
    let v = parse_ok(reply)?;
    let effective = (field_u64(&v, "inserted")?, field_u64(&v, "removed")?);
    if effective != (u64::from(insert), u64::from(!insert)) {
        return Err(format!(
            "write was not the one effective change asked for: {reply}"
        ));
    }
    let version = field_u64(&v, "version")?;
    if version <= last_version {
        return Err(format!("version went from {last_version} to {version}"));
    }
    Ok(version)
}

/// `hot_read`: cycles the pre-warmed keys; every reply must be a cache
/// hit byte-equal to the first reply for its key.
pub struct HotDriver {
    pub lines: Arc<Vec<String>>,
    pub firsts: Arc<Vec<String>>,
    pub order: Vec<usize>,
    pub at: usize,
}

/// `cold_walk`: every answer carries a seed no request used before.
pub struct ColdDriver {
    pub db: Arc<DbInput>,
    pub next_seed: u64,
    pub exact_conflict: f64,
    pub accuracy: Accuracy,
}

/// `durable_write`: one database, a fixed fact pool; deletes the fact
/// inserted [`WRITE_LAG`] pairs ago, then inserts the next one.
pub struct DurableDriver {
    pub db: String,
    pub pool: Vec<String>,
    pub live: Vec<bool>,
    pub pair: usize,
    pub deleting: bool,
    pub version: u64,
}

pub struct MixedDb {
    pub input: Arc<DbInput>,
    pub shard: usize,
    pub version: u64,
    pub answer_lines: Vec<String>,
    /// The last reply per seed, with the version it was computed at.
    pub last: Vec<Option<(u64, String)>>,
    pub live_clean: Vec<bool>,
    pub live_dirty: Vec<bool>,
    pub subscribed: bool,
}

/// A write on a subscribed database, for matching pushed frames.
pub struct WriteSent {
    pub db: usize,
    pub version: u64,
    pub sent: Instant,
    pub dirty: bool,
}

/// `routed_mixed`, connection A: a seeded mix of skewed answers and
/// uniformly spread writes through the router.
pub struct MixedDriver {
    pub rng: StdRng,
    pub dbs: Vec<MixedDb>,
    /// Cumulative popularity of the databases (weight 1/rank).
    pub popularity: Vec<f64>,
    /// One direct connection per shard, for the sampled comparison of a
    /// routed answer with the owning shard's own.
    pub direct: Vec<Conn>,
    pub answers: u64,
    pub direct_checks: u64,
    pub sends: Vec<WriteSent>,
}

pub enum Driver {
    Hot(HotDriver),
    Cold(ColdDriver),
    Durable(DurableDriver),
    Mixed(Box<MixedDriver>),
}

impl DurableDriver {
    pub fn new(db: &DbInput, version: u64) -> DurableDriver {
        // Clean and dirty facts alternate, so every other write changes
        // the violation set.
        let pool: Vec<String> = db
            .clean_pool
            .iter()
            .zip(&db.dirty_pool)
            .flat_map(|(clean, dirty)| [clean.clone(), dirty.clone()])
            .collect();
        DurableDriver {
            db: db.name.clone(),
            live: vec![false; pool.len()],
            pool,
            pair: 0,
            deleting: true,
            version,
        }
    }

    /// The inserts that bring the pool to its steady state.
    pub fn warm_up(&self) -> Vec<Op> {
        (0..WRITE_LAG).map(|j| self.write(j, true)).collect()
    }

    fn write(&self, j: usize, insert: bool) -> Op {
        Op {
            line: inputs::write_line(insert, &self.db, &self.pool[j]),
            write: true,
            target: 0,
            slot: j,
            insert,
            dirty: j % 2 == 1,
            fact_bytes: self.pool[j].len(),
        }
    }
}

impl Driver {
    pub fn next(&mut self) -> Op {
        match self {
            Driver::Hot(d) => {
                let key = d.order[d.at % d.order.len()];
                d.at += 1;
                Op::answer(d.lines[key].clone(), key, 0)
            }
            Driver::Cold(d) => {
                let seed = d.next_seed;
                // The two connections interleave odd and even seeds.
                d.next_seed += 2;
                Op::answer(inputs::answer_line(&d.db, seed, Some("monolithic")), 0, 0)
            }
            Driver::Durable(d) => {
                let n = d.pool.len();
                let op = if d.deleting {
                    d.write(d.pair % n, false)
                } else {
                    d.write((d.pair + WRITE_LAG) % n, true)
                };
                if !d.deleting {
                    d.pair += 1;
                }
                d.deleting = !d.deleting;
                op
            }
            Driver::Mixed(d) => {
                if d.rng.random::<f64>() < MIXED_ANSWER_SHARE {
                    let r = d.rng.random::<f64>() * d.popularity[d.popularity.len() - 1];
                    let db = d.popularity.iter().position(|c| r < *c).unwrap_or(0);
                    let seed = d.rng.random_range(0..MIXED_SEEDS);
                    Op::answer(d.dbs[db].answer_lines[seed].clone(), db, seed)
                } else {
                    let db = d.rng.random_range(0..d.dbs.len());
                    let dirty = d.rng.random_bool(0.5);
                    let target = &d.dbs[db];
                    let (pool, live) = if dirty {
                        (&target.input.dirty_pool, &target.live_dirty)
                    } else {
                        (&target.input.clean_pool, &target.live_clean)
                    };
                    let j = d.rng.random_range(0..pool.len());
                    let insert = !live[j];
                    Op {
                        line: inputs::write_line(insert, &target.input.name, &pool[j]),
                        write: true,
                        target: db,
                        slot: j,
                        insert,
                        dirty,
                        fact_bytes: pool[j].len(),
                    }
                }
            }
        }
    }

    /// Checks a reply against what the workload knows must hold; an
    /// `Err` counts the operation as failed.
    pub fn verify(&mut self, op: &Op, reply: &str, sent: Instant) -> Result<(), String> {
        match self {
            Driver::Hot(d) => {
                if !reply.contains("\"cached\":true") {
                    return Err(format!("pre-warmed key {} missed the cache", op.target));
                }
                if canonical_answer(reply).as_deref() != Some(d.firsts[op.target].as_str()) {
                    return Err(format!(
                        "cached reply for key {} differs from the first",
                        op.target
                    ));
                }
                Ok(())
            }
            Driver::Cold(d) => {
                let v = parse_ok(reply)?;
                if field_u64(&v, "walks")?
                    != ocqa_core::sample::sample_size(inputs::EPS, inputs::DELTA)
                    || v.get("cached").and_then(Json::as_bool) != Some(false)
                    || v.get("plan").and_then(Json::as_str) != Some("monolithic")
                {
                    return Err(format!(
                        "not a fresh 150-walk monolithic answer: {}",
                        &reply[reply.len().saturating_sub(160)..]
                    ));
                }
                observe_answers(&v, d.db.exact_of(d.exact_conflict), &mut d.accuracy)
            }
            Driver::Durable(d) => {
                d.version = verify_write(reply, op.insert, d.version)?;
                d.live[op.slot] = op.insert;
                Ok(())
            }
            Driver::Mixed(d) => {
                if op.write {
                    let target = &mut d.dbs[op.target];
                    target.version = verify_write(reply, op.insert, target.version)?;
                    let live = if op.dirty {
                        &mut target.live_dirty
                    } else {
                        &mut target.live_clean
                    };
                    live[op.slot] = op.insert;
                    if target.subscribed {
                        d.sends.push(WriteSent {
                            db: op.target,
                            version: target.version,
                            sent,
                            dirty: op.dirty,
                        });
                    }
                    return Ok(());
                }
                let canonical = canonical_answer(reply)
                    .filter(|_| reply.contains("\"ok\":true"))
                    .ok_or_else(|| format!("not an answer: {reply}"))?;
                let version = reply
                    .split_once("\"db_version\":")
                    .and_then(|(_, rest)| rest.split([',', '}']).next())
                    .and_then(|digits| digits.parse::<u64>().ok())
                    .ok_or("answer without a db_version")?;
                let target = &mut d.dbs[op.target];
                if version != target.version {
                    return Err(format!(
                        "{} answered at version {version}, last acknowledged write made it {}",
                        target.input.name, target.version
                    ));
                }
                match &target.last[op.slot] {
                    Some((v, earlier)) if *v == version && *earlier != canonical => {
                        return Err(format!(
                            "{} seed {} changed its answer within version {version}",
                            target.input.name, op.slot
                        ));
                    }
                    _ => target.last[op.slot] = Some((version, canonical.clone())),
                }
                // One routed answer in a hundred (and the first) is put
                // to the owning shard directly; the replies must agree.
                d.answers += 1;
                if d.answers == 1 || d.rng.random_range(0..100u32) == 0 {
                    d.direct_checks += 1;
                    let shard = target.shard;
                    let (direct, _) = d.direct[shard].exchange(&op.line)?;
                    if canonical_answer(&direct).as_deref() != Some(canonical.as_str()) {
                        return Err(format!(
                            "routed answer differs from shard {shard}'s own for {}",
                            op.line
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Feeds one answer's estimates to the accuracy guard, against the
/// exact probability `exact_of` gives for each tuple's key.
pub fn observe_answers(
    reply: &Json,
    exact_of: impl Fn(i64) -> f64,
    accuracy: &mut Accuracy,
) -> Result<(), String> {
    let Some(Json::Arr(rows)) = reply.get("answers") else {
        return Err("answer without rows".into());
    };
    for row in rows {
        let key = match row.get("tuple") {
            Some(Json::Arr(t)) => t.first().and_then(Json::as_f64),
            _ => None,
        };
        let (Some(key), Some(p)) = (key, row.get("p").and_then(Json::as_f64)) else {
            return Err("answer row without tuple and p".into());
        };
        accuracy.observe(p, exact_of(key as i64));
    }
    Ok(())
}
