//! The traced run: spans recorded from the harness's own files.
//!
//! Every client request is a root span (send → full reply line). Its
//! children are the *same request line* replayed in process against a
//! replica engine holding the same databases — `parse_request`,
//! `Engine::handle`, response rendering — so a root's self time (its
//! duration minus its children's) is what no in-process layer accounts
//! for: transport, scheduling, and the hops between processes. The
//! replay runs after the reply arrived, so a child's interval lies
//! after its parent's, not inside it; durations are what add up.

use ocqa_engine::json::Json;
use ocqa_engine::{parse_request, Engine, EngineResponse};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans kept per connection; beyond it only the count of dropped spans
/// is recorded, so a future, much faster server cannot exhaust memory.
const MAX_SPANS: usize = 200_000;

/// Share of the traced leg a connection may spend replaying answers.
/// Writes are always replayed (the replica's state must follow the
/// server's); answers that would sample are skipped once the budget is
/// spent, so the replay cannot starve the server of CPU.
const REPLAY_BUDGET: f64 = 0.1;

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by a root and its children.
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// One connection's recorder.
pub struct Tracer {
    replica: Arc<Engine>,
    /// Span and request ids are `lane + n·lanes`, unique across lanes.
    lane: u64,
    lanes: u64,
    requests: u64,
    started: Instant,
    replay_spent: Duration,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(replica: Arc<Engine>, lane: u64, lanes: u64) -> Tracer {
        Tracer {
            replica,
            lane,
            lanes,
            requests: 0,
            started: Instant::now(),
            replay_spent: Duration::ZERO,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Starts the replay budget's clock: call when the traced leg starts.
    pub fn restart(&mut self) {
        self.started = Instant::now();
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Records the root span of one client request and replays `line`
    /// in process under it.
    pub fn request(&mut self, line: &str, write: bool, sent: Instant, took: Duration) {
        let request = self.lane + self.requests * self.lanes;
        self.requests += 1;
        // Four ids per request: the root and its three children.
        let id = request * 4;
        self.push(Span {
            id,
            parent: None,
            request,
            name: if write {
                "client.write"
            } else {
                "client.answer"
            },
            start: sent,
            end: sent + took,
        });
        let budget = self.started.elapsed().mul_f64(REPLAY_BUDGET);
        if !write && self.replay_spent > budget {
            return;
        }
        let t0 = Instant::now();
        let Ok((_, req)) = parse_request(line) else {
            return;
        };
        let t1 = Instant::now();
        let resp = self.replica.handle(req);
        let t2 = Instant::now();
        let handled = match &resp {
            EngineResponse::Answer(a) if a.cached => "engine.handle.answer_hit",
            EngineResponse::Answer(_) => "engine.handle.answer_miss",
            _ => "engine.handle.update",
        };
        std::hint::black_box(resp.to_json().to_string());
        let t3 = Instant::now();
        self.replay_spent += t3 - t0;
        for (k, (name, start, end)) in [
            ("engine.proto.parse", t0, t1),
            (handled, t1, t2),
            ("engine.proto.render", t2, t3),
        ]
        .into_iter()
        .enumerate()
        {
            self.push(Span {
                id: id + 1 + k as u64,
                parent: Some(id),
                request,
                name,
                start,
                end,
            });
        }
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Writes the spans as one JSON document; times are microseconds since
/// `origin`.
pub fn write_file(
    path: &Path,
    workload: &str,
    seed: u64,
    origin: Instant,
    spans: &[Span],
    dropped: u64,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let us = |t: Instant| Json::Num(t.saturating_duration_since(origin).as_secs_f64() * 1e6);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"dropped_spans\":{dropped},\"spans\":[",
        Json::from(workload)
    )
    .map_err(io)?;
    for (i, s) in spans.iter().enumerate() {
        let span = Json::obj([
            ("id", s.id.into()),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("request", s.request.into()),
            ("name", s.name.into()),
            ("start_us", us(s.start)),
            ("end_us", us(s.end)),
        ]);
        write!(out, "{}\n{span}", if i == 0 { "" } else { "," }).map_err(io)?;
    }
    writeln!(out, "\n]}}").map_err(io)?;
    out.flush().map_err(io)
}
