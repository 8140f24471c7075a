//! The network front end: a nonblocking TCP listener plus one poll
//! thread driving every connection.
//!
//! No epoll, no `unsafe`, no dependencies: the listener and every
//! accepted stream are `set_nonblocking(true)`, and the single
//! `alf-net-poll` thread loops accept → tick-every-connection → (idle)
//! park ≤ 300 µs. Each [`Connection`](crate::conn::Connection) tick makes
//! whatever progress its socket allows; ticks never block, so a stalled
//! peer cannot wedge the loop, and the replica workers inside each
//! [`alf_serve::Server`] do the actual inference on their own threads —
//! the poll thread only shuttles bytes and polls
//! [`Pending::try_wait`](alf_serve::Pending::try_wait). The two kinds of
//! event it waits for wake it differently: a finished prediction unparks
//! it (the poll thread is the one that submitted the request, and
//! `alf_serve` unparks the submitter), so the response is written at once;
//! bytes arriving on a socket are only seen at the next timed poll,
//! because readiness notification needs epoll.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alf_obs::metrics::{Counter, HistogramSpec, MetricsRegistry};

use crate::conn::{Connection, NetCounters, Tick};
use crate::http::HttpLimits;
use crate::quota::{QuotaConfig, QuotaState};
use crate::router::{ModelSpec, Router};
use crate::{NetError, Result};

/// Front-end configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (`:0` for an ephemeral
    /// port — read the result from [`NetServer::addr`]).
    pub addr: String,
    /// HTTP parser size bounds.
    pub limits: HttpLimits,
    /// Per-tenant admission quotas.
    pub quota: QuotaConfig,
    /// Most concurrently open connections; accepts beyond this are
    /// answered `503` and closed immediately.
    pub max_connections: usize,
    /// Worker budget shared by all models: `Some(n)` forces `n`,
    /// otherwise `ALF_NET_THREADS`, otherwise the host parallelism
    /// (see `alf_obs::runtime::resolve_threads`).
    pub threads: Option<usize>,
}

impl NetConfig {
    /// Defaults: the given address, default limits, unlimited quota,
    /// 256 connections, auto worker budget.
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            limits: HttpLimits::default(),
            quota: QuotaConfig::unlimited(),
            max_connections: 256,
            threads: None,
        }
    }
}

/// Longest the poll loop parks when no connection made progress.
const IDLE_SLEEP: Duration = Duration::from_micros(300);

/// A running front end: listener, poll thread, and the model servers
/// behind [`Router`]. Dropping the server shuts it down.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    poll: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `cfg.addr`, starts the per-model servers, and spawns the
    /// poll thread. Serving begins before this returns.
    ///
    /// # Errors
    ///
    /// [`NetError::Bind`] when the address cannot be bound,
    /// [`NetError::BadConfig`] for a zero connection bound or a bad model
    /// list, [`NetError::Serve`] when a model server rejects its
    /// configuration.
    pub fn start(specs: Vec<ModelSpec>, cfg: NetConfig, registry: MetricsRegistry) -> Result<Self> {
        if cfg.max_connections == 0 {
            return Err(NetError::BadConfig("max_connections must be >= 1".into()));
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| NetError::Bind {
            addr: cfg.addr.clone(),
            detail: e.to_string(),
        })?;
        listener.set_nonblocking(true).map_err(|e| NetError::Bind {
            addr: cfg.addr.clone(),
            detail: format!("set_nonblocking: {e}"),
        })?;
        let addr = listener.local_addr().map_err(|e| NetError::Bind {
            addr: cfg.addr.clone(),
            detail: format!("local_addr: {e}"),
        })?;
        let router = Arc::new(Router::start(specs, registry.clone(), cfg.threads)?);
        let counters = NetCounters {
            responses: registry.counter("net.responses"),
            parse_errors: registry.counter("net.parse_errors"),
            request_ns: registry.histogram("net.request_ns", HistogramSpec::latency_ns()),
        };
        let accepted = registry.counter("net.accepted");
        let closed = registry.counter("net.closed");
        let conn_limit_rejected = registry.counter("net.conn_limit_rejected");
        let stop = Arc::new(AtomicBool::new(false));
        let poll = {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("alf-net-poll".to_string())
                .spawn(move || {
                    poll_loop(
                        listener,
                        router,
                        cfg,
                        stop,
                        counters,
                        accepted,
                        closed,
                        conn_limit_rejected,
                    )
                })
                .map_err(|e| NetError::BadConfig(format!("spawn poll thread: {e}")))?
        };
        Ok(Self {
            addr,
            router,
            stop,
            poll: Mutex::new(Some(poll)),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dispatch table (model names, per-model servers, registry).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Stops accepting, closes every connection, then drains the model
    /// servers. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.poll.lock().expect("poll handle poisoned").take() {
            let _ = handle.join();
        }
        self.router.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[allow(clippy::too_many_arguments)]
fn poll_loop(
    listener: TcpListener,
    router: Arc<Router>,
    cfg: NetConfig,
    stop: Arc<AtomicBool>,
    counters: NetCounters,
    accepted: Counter,
    closed: Counter,
    conn_limit_rejected: Counter,
) {
    let mut quota = QuotaState::new(cfg.quota.clone(), Instant::now());
    let mut conns: Vec<Connection> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let mut progressed = false;

        // Accept everything currently pending.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if conns.len() >= cfg.max_connections {
                        conn_limit_rejected.inc();
                        // Best effort: tell the peer why before dropping.
                        let mut stream = stream;
                        let _ = stream.write_all(
                            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 21\r\nconnection: close\r\n\r\nconnection limit hit\n",
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    accepted.inc();
                    conns.push(Connection::new(stream, cfg.limits));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failures (e.g. the peer reset before we
                // got to it) should not kill the loop.
                Err(_) => break,
            }
        }

        // Drive every connection one tick.
        let mut i = 0;
        while i < conns.len() {
            match conns[i].tick(&router, &mut quota, &counters) {
                Tick::Open { progressed: p } => {
                    progressed |= p;
                    i += 1;
                }
                Tick::Closed => {
                    closed.inc();
                    conns.swap_remove(i);
                }
            }
        }

        if !progressed {
            // A finished prediction unparks this thread (it submitted the
            // request), so the response goes out at once; bytes arriving
            // on a socket do not, hence the timeout.
            std::thread::park_timeout(IDLE_SLEEP);
        }
    }
    // Poll thread exit closes the listener and every connection.
    closed.add(conns.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use alf_core::models::plain20;
    use alf_serve::ServeConfig;

    const TIMEOUT: Duration = Duration::from_secs(30);

    fn spec(name: &str) -> ModelSpec {
        ModelSpec {
            name: name.to_string(),
            model: plain20(4, 4).unwrap(),
            serve: ServeConfig::new(3, 12, 12),
        }
    }

    fn image_body() -> Vec<u8> {
        (0..3 * 12 * 12)
            .flat_map(|i| ((i % 7) as f32 * 0.2 - 0.5).to_le_bytes())
            .collect()
    }

    fn start(n_models: usize) -> NetServer {
        let specs = (0..n_models).map(|i| spec(&format!("m{i}"))).collect();
        NetServer::start(specs, NetConfig::new("127.0.0.1:0"), MetricsRegistry::new()).unwrap()
    }

    #[test]
    fn bad_addresses_fail_typed() {
        let err = NetServer::start(
            vec![spec("m")],
            NetConfig::new("definitely-not-an-addr"),
            MetricsRegistry::new(),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Bind { .. }), "{err}");
    }

    #[test]
    fn healthz_and_models_over_a_real_socket() {
        let server = start(2);
        let mut client = HttpClient::connect(server.addr(), TIMEOUT).unwrap();
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
        // Keep-alive: same connection answers again.
        let resp = client.get("/v1/models").unwrap();
        assert_eq!(resp.status, 200);
        let text = resp.text();
        assert!(text.contains("\"m0\"") && text.contains("\"m1\""), "{text}");
        server.shutdown();
    }

    #[test]
    fn predict_roundtrip_and_metrics_over_the_wire() {
        let server = start(1);
        let mut client = HttpClient::connect(server.addr(), TIMEOUT).unwrap();
        let resp = client
            .post("/v1/models/m0/predict", &[("x-tenant", "t")], &image_body())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let text = resp.text();
        assert!(text.contains("\"model\":\"m0\""), "{text}");
        assert!(text.contains("\"class\":"), "{text}");

        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let text = metrics.text();
        assert!(text.contains("counter serve.m0.completed 1"), "{text}");
        assert!(text.contains("counter net.accepted 1"), "{text}");
        assert!(text.contains("histogram net.request_ns total 1"), "{text}");
        server.shutdown();
    }

    #[test]
    fn parse_errors_answer_typed_and_close() {
        use std::io::{Read, Write};
        let server = start(1);
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(TIMEOUT)).unwrap();
        raw.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap(); // EOF ⇒ server closed
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("connection: close"), "{response}");
        server.shutdown();
        let snap = server.router().registry().snapshot();
        assert_eq!(snap.counter("net.parse_errors"), Some(1));
    }

    #[test]
    fn connection_limit_is_a_typed_503() {
        use std::io::Read;
        let specs = vec![spec("m")];
        let cfg = NetConfig {
            max_connections: 1,
            ..NetConfig::new("127.0.0.1:0")
        };
        let server = NetServer::start(specs, cfg, MetricsRegistry::new()).unwrap();
        let mut first = HttpClient::connect(server.addr(), TIMEOUT).unwrap();
        assert_eq!(first.get("/healthz").unwrap().status, 200);
        // The first connection is parked open, so the second must be shed.
        let mut second = std::net::TcpStream::connect(server.addr()).unwrap();
        second.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut response = String::new();
        second.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
        drop(second);
        assert_eq!(first.get("/healthz").unwrap().status, 200);
        server.shutdown();
        let snap = server.router().registry().snapshot();
        assert_eq!(snap.counter("net.conn_limit_rejected"), Some(1));
        assert_eq!(snap.counter("net.accepted"), Some(1));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let server = start(1);
        server.shutdown();
        server.shutdown();
        assert!(HttpClient::connect(server.addr(), TIMEOUT).is_err());
    }
}
