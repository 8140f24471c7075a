//! An idle server does not wake: with two idle keep-alive connections
//! open, the front end's `alf-net-*` threads sleep in blocking calls. A
//! test binary of its own, so no other test's server threads are counted;
//! Linux only, since it reads `/proc/self/task/*/status`.
#![cfg(target_os = "linux")]

use std::time::Duration;

use alf_core::models::plain20;
use alf_obs::metrics::MetricsRegistry;
use alf_serve::net::client::HttpClient;
use alf_serve::net::{ModelSpec, NetConfig, NetServer};
use alf_serve::ServeConfig;

/// Voluntary context switches summed over this process's `alf-net-*`
/// threads.
fn front_end_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !comm.starts_with("alf-net-") {
                return None;
            }
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .map(|v| v.trim().parse::<u64>().unwrap())
        })
        .sum()
}

#[test]
fn an_idle_server_does_not_wake() {
    let spec = ModelSpec {
        name: "m".to_string(),
        model: plain20(4, 4).unwrap(),
        serve: ServeConfig::new(3, 12, 12),
    };
    let cfg = NetConfig {
        threads: Some(1),
        ..NetConfig::new("127.0.0.1:0")
    };
    let server = NetServer::start(vec![spec], cfg, MetricsRegistry::new()).unwrap();
    let clients: Vec<HttpClient> = (0..2)
        .map(|_| {
            let mut client = HttpClient::connect(server.addr(), Duration::from_secs(30)).unwrap();
            assert_eq!(client.get("/healthz").unwrap().status, 200);
            client
        })
        .collect();
    let before = front_end_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woke = front_end_switches() - before;
    assert!(woke < 20, "the idle front end woke {woke} times in 1 s");
    drop(clients);
    server.shutdown();
}
