//! The harness side of the NDJSON protocol: one closed-loop connection.
//!
//! The harness must neither add a stall of its own nor hide the
//! server's: sockets set `TCP_NODELAY` and every request leaves in one
//! `write`.

use ocqa_engine::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY on {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            out: Vec::new(),
        })
    }

    /// Sends one request line and blocks for the response line. Returns
    /// the reply without its newline, and send → full line received.
    pub fn exchange(&mut self, line: &str) -> Result<(String, Duration), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let start = Instant::now();
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let reply = self.read_line()?;
        Ok((reply, start.elapsed()))
    }

    /// Blocks for the next line (a response, or a pushed frame).
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed by the server".into()),
            Ok(_) => {
                reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
                Ok(reply)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// A second handle on the socket, so another thread can
    /// `shutdown` it and end a blocked [`read_line`](Conn::read_line).
    pub fn socket(&self) -> Result<TcpStream, String> {
        self.writer.try_clone().map_err(|e| e.to_string())
    }

    /// An exchange whose reply must parse and say `"ok":true`.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        let (reply, _) = self.exchange(line)?;
        let v = json::parse(&reply).map_err(|e| format!("malformed reply {reply:?}: {e}"))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request {line:?} refused: {reply}"));
        }
        Ok(v)
    }
}

/// An `answer` reply with everything that legitimately differs between
/// two servings of the same computation cut out: the cache counters and
/// the `cached` flag (adjacent, since the server renders keys in sorted
/// order) and the `shard` tag the front door adds. What remains — the
/// estimates, version, plan and walk counts — must be byte-equal.
/// `None` for a line that is not shaped like an answer.
pub fn canonical_answer(reply: &str) -> Option<String> {
    let counters = reply.find(",\"cache_hits\":")?;
    let rest = reply.find(",\"coalesced\":")?;
    if rest < counters {
        return None;
    }
    let mut out = String::with_capacity(reply.len());
    out.push_str(&reply[..counters]);
    let tail = &reply[rest..];
    match tail.find(",\"shard\":") {
        Some(at) => {
            let after = &tail[at + 1..];
            let end = after.find([',', '}']).unwrap_or(after.len());
            out.push_str(&tail[..at]);
            out.push_str(&after[end..]);
        }
        None => out.push_str(tail),
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_drops_cache_fields_and_shard() {
        let a = r#"{"answers":[{"p":1,"p_cond":1,"tuple":[0]}],"cache_hits":0,"cache_misses":2,"cached":false,"coalesced":false,"db_version":1,"failed_walks":0,"ok":true,"plan":"key-repair","shard":1,"walks":150}"#;
        let b = r#"{"answers":[{"p":1,"p_cond":1,"tuple":[0]}],"cache_hits":9,"cache_misses":2,"cached":true,"coalesced":false,"db_version":1,"failed_walks":0,"ok":true,"plan":"key-repair","shard":0,"walks":150}"#;
        assert_eq!(canonical_answer(a), canonical_answer(b));
        assert_eq!(
            canonical_answer(a).unwrap(),
            r#"{"answers":[{"p":1,"p_cond":1,"tuple":[0]}],"coalesced":false,"db_version":1,"failed_walks":0,"ok":true,"plan":"key-repair","walks":150}"#
        );
        let c = b.replace("\"p\":1", "\"p\":0.5");
        assert_ne!(canonical_answer(a), canonical_answer(&c));
        assert_eq!(canonical_answer(r#"{"ok":false,"error":"x"}"#), None);
    }
}
