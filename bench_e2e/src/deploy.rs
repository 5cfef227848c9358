//! The processes of a workload: which `ocqa` commands run, with which
//! flags, and where the clients connect.

use crate::proc::Server;
use crate::workload::Kind;
use std::path::{Path, PathBuf};

/// Every flag is spelled out, and the same on every machine.
fn serve_args(data_dir: Option<&Path>, replicate_to: Option<&str>) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--conn-workers",
        "4",
        "--cache",
        "1024",
        "--planner",
        "cost",
        "--shards",
        "1",
    ]
    .map(String::from)
    .to_vec();
    if let Some(dir) = data_dir {
        // Group commit off: one fsync per journaled mutation.
        args.extend(["--data-dir".into(), dir.display().to_string()]);
        args.extend(["--group-commit-us".into(), "0".into()]);
    }
    if let Some(addr) = replicate_to {
        args.extend(["--replicate-to".into(), addr.into()]);
    }
    args
}

fn route_args(upstreams: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "route",
        "--listen",
        "127.0.0.1:0",
        "--conn-workers",
        "4",
        "--probe-ms",
        "0",
    ]
    .map(String::from)
    .to_vec();
    for addr in upstreams {
        args.extend(["--upstream".into(), addr.to_string()]);
    }
    args
}

/// The processes of one workload. Dropping it kills them all.
pub struct Deployment {
    pub servers: Vec<Server>,
    /// Index of the process clients talk to.
    pub front: usize,
    /// Stores whose WAL the workload's writes land in.
    pub wal_files: Vec<PathBuf>,
}

impl Deployment {
    pub fn front_addr(&self) -> &str {
        &self.servers[self.front].addr
    }

    pub fn cpu_ms(&self) -> f64 {
        self.servers.iter().map(Server::cpu_ms).sum()
    }

    pub fn wal_bytes(&self) -> u64 {
        self.wal_files
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// `standby` only matters to `durable_write`: without it the primary
/// runs alone, which is the traced run's yardstick for what synchronous
/// replication costs.
pub fn deploy(kind: Kind, ocqa: &Path, dir: &Path, standby: bool) -> Result<Deployment, String> {
    let wal = |store: &Path| store.join("shard-0").join("wal.log");
    match kind {
        Kind::HotRead | Kind::ColdWalk => Ok(Deployment {
            servers: vec![Server::spawn(ocqa, serve_args(None, None))?],
            front: 0,
            wal_files: Vec::new(),
        }),
        Kind::DurableWrite if !standby => {
            let primary_dir = dir.join("primary");
            Ok(Deployment {
                servers: vec![Server::spawn(ocqa, serve_args(Some(&primary_dir), None))?],
                front: 0,
                wal_files: vec![wal(&primary_dir)],
            })
        }
        Kind::DurableWrite => {
            let (standby_dir, primary_dir) = (dir.join("standby"), dir.join("primary"));
            let standby = Server::spawn(ocqa, serve_args(Some(&standby_dir), None))?;
            let primary = Server::spawn(ocqa, serve_args(Some(&primary_dir), Some(&standby.addr)))?;
            Ok(Deployment {
                servers: vec![standby, primary],
                front: 1,
                wal_files: vec![wal(&primary_dir)],
            })
        }
        Kind::RoutedMixed => {
            let dirs = [dir.join("shard0"), dir.join("shard1")];
            let shard0 = Server::spawn(ocqa, serve_args(Some(&dirs[0]), None))?;
            let shard1 = Server::spawn(ocqa, serve_args(Some(&dirs[1]), None))?;
            let router = Server::spawn(ocqa, route_args(&[&shard0.addr, &shard1.addr]))?;
            Ok(Deployment {
                servers: vec![shard0, shard1, router],
                front: 2,
                wal_files: dirs.iter().map(|d| wal(d)).collect(),
            })
        }
    }
}
