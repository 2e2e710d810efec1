//! In-process `dream serve` topologies, one per workload, each on a
//! fresh store.

use std::io;
use std::path::{Path, PathBuf};

use dream_serve::{ServeConfig, Server};

use crate::client;
use crate::workload::{Workload, SERVER_THREADS, SERVER_WORKERS, SHARDS};

/// A running topology: the address clients talk to, and every server
/// it started.
#[derive(Debug)]
pub struct Topology {
    /// Address of the front server (the coordinator when sharded).
    pub addr: String,
    /// Store of the front server.
    pub store: PathBuf,
    /// Every server address, front last.
    pub servers: Vec<String>,
}

impl Topology {
    /// Shuts every server down.
    pub fn shutdown(&self) {
        for addr in &self.servers {
            client::shutdown(addr);
        }
    }
}

fn config(store: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store.to_path_buf(),
        workers: SERVER_WORKERS,
        threads: SERVER_THREADS,
        ..ServeConfig::default()
    }
}

fn start(config: ServeConfig) -> io::Result<String> {
    let addr = Server::bind(config)?.spawn().to_string();
    client::wait_ready(&addr)?;
    Ok(addr)
}

/// Binds `w`'s servers under `root` (which must not exist yet) and
/// waits until each answers `/healthz`.
///
/// # Errors
///
/// Bind, store and readiness failures.
pub fn boot(w: Workload, root: &Path) -> io::Result<Topology> {
    std::fs::create_dir_all(root)?;
    if w != Workload::Fig4Sharded {
        let store = root.join("store");
        let addr = start(config(&store))?;
        return Ok(Topology {
            addr: addr.clone(),
            store,
            servers: vec![addr],
        });
    }
    let mut servers = Vec::new();
    for i in 0..SHARDS {
        servers.push(start(ServeConfig {
            worker: true,
            threads: 1,
            ..config(&root.join(format!("worker{i}")))
        })?);
    }
    let store = root.join("coordinator");
    let addr = start(ServeConfig {
        shards: SHARDS,
        worker_addrs: servers.clone(),
        threads: 1,
        ..config(&store)
    })?;
    servers.push(addr.clone());
    Ok(Topology {
        addr,
        store,
        servers,
    })
}

/// Restarts the single server of `topo` on its own store, so the new
/// instance preloads and verifies every artifact the old one wrote.
///
/// # Errors
///
/// Bind, store and readiness failures.
pub fn restart(topo: Topology) -> io::Result<Topology> {
    topo.shutdown();
    let addr = start(config(&topo.store))?;
    Ok(Topology {
        addr: addr.clone(),
        store: topo.store,
        servers: vec![addr],
    })
}
