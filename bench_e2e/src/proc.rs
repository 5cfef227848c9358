//! Real `ocqa serve` / `ocqa route` child processes and what `/proc`
//! says about them.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a child may take to print its `listening on` banner.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(20);

/// One server process. Killed (SIGKILL) and reaped on drop, so no error
/// path leaves a process behind.
pub struct Server {
    child: Child,
    stderr: Option<std::thread::JoinHandle<()>>,
    /// The address printed in the `listening on` banner.
    pub addr: String,
    /// exec → `listening` banner.
    pub spawn_ms: f64,
    /// The arguments after the binary, echoed into every result file.
    pub args: Vec<String>,
}

impl Server {
    /// Spawns `bin args…` and waits for the listener banner on stderr.
    /// A thread keeps draining stderr afterwards so the child can never
    /// block on a full pipe.
    pub fn spawn(bin: &Path, args: Vec<String>) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut banner = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line
                    .split_once(": listening on ")
                    .and_then(|(_, rest)| rest.split_whitespace().next())
                {
                    if let Some(tx) = banner.take() {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            stderr: Some(reader),
            addr: String::new(),
            spawn_ms: 0.0,
            args,
        };
        // On timeout or early exit `server` drops here: killed and reaped.
        server.addr = rx
            .recv_timeout(SPAWN_TIMEOUT)
            .map_err(|_| format!("ocqa {:?} never reported a listener", server.args))?;
        server.spawn_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }

    /// CPU the process's live threads have used so far, in
    /// milliseconds: the on-CPU nanoseconds of `/proc/<pid>/task/*/schedstat`
    /// summed (the tick counters of `/proc/<pid>/stat` are too coarse
    /// to see a poll loop idling at a percent of a core). The servers'
    /// threads live as long as the process, so differences over a
    /// window lose nothing.
    pub fn cpu_ms(&self) -> f64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid())) else {
            return 0.0;
        };
        let on_cpu_ns: f64 = tasks
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
            .filter_map(|stat| stat.split_whitespace().next()?.parse::<f64>().ok())
            .sum();
        on_cpu_ns / 1e6
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}
