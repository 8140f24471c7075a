//! End-to-end socket smoke test, also run by `scripts/verify.sh`:
//! an ephemeral-port server with concurrent keep-alive clients, one hot
//! checkpoint swap over the wire mid-load, and exact accounting at the
//! end — every request is answered or typed-rejected, and the `/metrics`
//! totals reconcile with the client-side tallies and the per-model
//! `ServerStats`.
//!
//! Beside it, raw-`TcpStream` checks of the connection contract
//! (pipelining, byte-at-a-time arrival, `connection: close`) and of
//! shutdown with live peers, where a blocking read or wait that nothing
//! unblocks would hang.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alf_core::models::plain20;
use alf_obs::metrics::MetricsRegistry;
use alf_serve::net::client::HttpClient;
use alf_serve::net::http::write_response;
use alf_serve::net::{ModelSpec, NetConfig, NetServer};
use alf_serve::ServeConfig;

const LOAD_CLIENTS: usize = 3;
const REQUESTS_PER_CLIENT: usize = 30;
const TIMEOUT: Duration = Duration::from_secs(60);

fn image_body(seed: usize) -> Vec<u8> {
    (0..3 * 12 * 12)
        .flat_map(|i| (((i + seed) % 11) as f32 * 0.1 - 0.5).to_le_bytes())
        .collect()
}

fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| {
            line.strip_prefix(&format!("counter {name} "))
                .map(|v| v.parse().expect("counter value"))
        })
        .unwrap_or_else(|| panic!("no counter {name} in:\n{metrics}"))
}

#[test]
fn socket_smoke() {
    let registry = MetricsRegistry::new();
    let spec = ModelSpec {
        name: "m".to_string(),
        model: plain20(4, 4).unwrap(),
        serve: ServeConfig {
            queue_depth: 64,
            ..ServeConfig::new(3, 12, 12)
        },
    };
    let cfg = NetConfig {
        threads: Some(1),
        ..NetConfig::new("127.0.0.1:0")
    };
    let server = Arc::new(NetServer::start(vec![spec], cfg, registry.clone()).unwrap());
    let addr = server.addr();

    // --- concurrent keep-alive load, one connection per client thread ---
    let load: Vec<std::thread::JoinHandle<BTreeMap<u16, u64>>> = (0..LOAD_CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr, TIMEOUT).unwrap();
                let mut statuses = BTreeMap::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let resp = client
                        .post("/v1/models/m/predict", &[], &image_body(t * 1000 + i))
                        .expect("every request gets an answer");
                    assert!(
                        matches!(resp.status, 200 | 503 | 504),
                        "untyped status {}: {}",
                        resp.status,
                        resp.text()
                    );
                    *statuses.entry(resp.status).or_insert(0) += 1;
                }
                statuses
            })
        })
        .collect();

    // --- one hot checkpoint swap over the wire, mid-load ---
    let blob = alf_core::checkpoint::save(&plain20(4, 4).unwrap());
    let mut admin = HttpClient::connect(addr, TIMEOUT).unwrap();
    let resp = admin
        .post("/v1/models/m/checkpoint", &[], &blob)
        .expect("swap answered");
    assert_eq!(resp.status, 200, "{}", resp.text());

    let mut tallies: BTreeMap<u16, u64> = BTreeMap::new();
    for handle in load {
        for (status, n) in handle.join().expect("load client panicked") {
            *tallies.entry(status).or_insert(0) += n;
        }
    }
    let load_total: u64 = tallies.values().sum();
    assert_eq!(load_total, (LOAD_CLIENTS * REQUESTS_PER_CLIENT) as u64);

    // --- explicit deadline behaviour over the wire ---
    // An already-expired deadline must come back 504; a generous one 200.
    let resp = admin
        .post(
            "/v1/models/m/predict",
            &[("x-deadline-ms", "0")],
            &image_body(7),
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    let resp = admin
        .post(
            "/v1/models/m/predict",
            &[("x-deadline-ms", "60000")],
            &image_body(8),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    *tallies.entry(504).or_insert(0) += 1;
    *tallies.entry(200).or_insert(0) += 1;

    // --- /metrics totals account exactly for what the clients saw ---
    let metrics = admin.get("/metrics").expect("metrics scrape").text();
    let get = |name: &str| counter(&metrics, name);

    assert_eq!(
        get("serve.m.completed"),
        tallies.get(&200).copied().unwrap_or(0)
    );
    assert_eq!(
        get("serve.m.rejected_overloaded"),
        tallies.get(&503).copied().unwrap_or(0)
    );
    assert_eq!(
        get("serve.m.expired"),
        tallies.get(&504).copied().unwrap_or(0)
    );
    assert_eq!(get("serve.m.swaps"), 1);
    assert_eq!(get("net.parse_errors"), 0);

    // Every admitted request was answered or expired; nothing was lost.
    assert_eq!(
        get("serve.m.submitted"),
        get("serve.m.completed") + get("serve.m.expired")
    );
    // Every predict the clients sent was admitted to the queue or
    // typed-rejected at it.
    let sent: u64 = tallies.values().sum();
    assert_eq!(
        sent,
        get("serve.m.submitted")
            + get("serve.m.rejected_overloaded")
            + get("serve.m.rejected_shutdown")
    );

    // The registry and the per-model ServerStats are the same cells.
    let stats = server.router().server("m").unwrap().stats();
    assert_eq!(stats.submitted, get("serve.m.submitted"));
    assert_eq!(stats.completed + stats.expired, stats.submitted);

    server.shutdown();
}

/// One model behind one worker on an ephemeral port.
fn start_small(registry: MetricsRegistry) -> NetServer {
    let spec = ModelSpec {
        name: "m".to_string(),
        model: plain20(4, 4).unwrap(),
        serve: ServeConfig::new(3, 12, 12),
    };
    let cfg = NetConfig {
        threads: Some(1),
        ..NetConfig::new("127.0.0.1:0")
    };
    NetServer::start(vec![spec], cfg, registry).unwrap()
}

fn raw(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream
}

fn predict_wire(body: &[u8], extra_headers: &str) -> Vec<u8> {
    let mut wire = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\n{extra_headers}content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

#[test]
fn pipelined_requests_answer_in_order_then_close() {
    let server = start_small(MetricsRegistry::new());
    // What each image gets on its own (one replica, batches of one), framed
    // as the three pipelined answers must come back: in order, then EOF.
    let mut client = HttpClient::connect(server.addr(), TIMEOUT).unwrap();
    let mut expected = Vec::new();
    for seed in 0..2 {
        let resp = client.post("/v1/models/m/predict", &[], &image_body(seed));
        let body = resp.unwrap().body;
        write_response(&mut expected, 200, "OK", "application/json", &body, true);
    }
    write_response(
        &mut expected,
        200,
        "OK",
        "text/plain; charset=utf-8",
        b"ok\n",
        false,
    );

    let mut wire = predict_wire(&image_body(0), "");
    wire.extend(predict_wire(&image_body(1), ""));
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    let mut stream = raw(&server);
    stream.write_all(&wire).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&answer),
        String::from_utf8_lossy(&expected)
    );
    server.shutdown();
}

#[test]
fn a_request_dribbled_one_byte_per_write_is_answered() {
    let server = start_small(MetricsRegistry::new());
    let mut stream = raw(&server);
    stream.set_nodelay(true).unwrap();
    for byte in predict_wire(&image_body(3), "connection: close\r\n") {
        stream.write_all(&[byte]).unwrap();
    }
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    server.shutdown();
}

/// Three live peers — idle keep-alive, half a header block, a predict in
/// flight — and `stop` must still return promptly and close them all.
fn stops_with_live_peers(stop: fn(NetServer)) {
    let registry = MetricsRegistry::new();
    let server = start_small(registry.clone());
    let addr = server.addr();
    let mut idle = HttpClient::connect(addr, TIMEOUT).unwrap();
    assert_eq!(idle.get("/healthz").unwrap().status, 200);
    let mut half = raw(&server);
    half.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n")
        .unwrap();
    let mut inflight = raw(&server);
    inflight
        .write_all(&predict_wire(&image_body(5), ""))
        .unwrap();
    // All three connections are admitted, and the predict was read whole
    // (unread bytes would turn the close into a reset).
    let deadline = Instant::now() + TIMEOUT;
    let ready = || {
        let snap = registry.snapshot();
        snap.counter("net.accepted") == Some(3) && snap.counter("serve.m.submitted") == Some(1)
    };
    while !ready() {
        assert!(Instant::now() < deadline, "peers never got admitted");
        std::thread::yield_now();
    }

    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        stop(server);
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("shutdown hung on a live peer");
    stopper.join().unwrap();

    let mut answer = Vec::new();
    inflight.read_to_end(&mut answer).unwrap();
    assert!(
        answer.is_empty() || answer.starts_with(b"HTTP/1.1 200 "),
        "{}",
        String::from_utf8_lossy(&answer)
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("net.accepted"), snap.counter("net.closed"));
    assert!(TcpStream::connect(addr).is_err(), "still accepting");
}

#[test]
fn shutdown_returns_with_live_peers() {
    stops_with_live_peers(|server| server.shutdown());
}

#[test]
fn drop_returns_with_live_peers() {
    stops_with_live_peers(drop);
}
