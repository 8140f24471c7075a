//! The network front end: a blocking TCP listener on one `alf-net-accept`
//! thread, and one blocking `alf-net-conn` thread per open connection.
//!
//! No epoll, no `unsafe`, no dependencies, no timed polling: each thread
//! sleeps in the kernel until its own event arrives. The accept thread
//! blocks in `accept`; a connection thread blocks in `read` until request
//! bytes arrive, then in [`Pending::wait`](alf_serve::Pending::wait)
//! until the replica workers inside the [`alf_serve::Server`] have
//! answered. A request is therefore read when it arrives, and an idle
//! server does not wake. [`NetConfig::max_connections`] bounds the
//! connection threads; a stalled peer pins one of them.
//!
//! Shutdown sets the stop flag and wakes the blocking `accept` with a
//! loopback connect. The accept thread then shuts down every live socket,
//! which ends each connection thread's blocking `read` or `write`, and
//! joins the connection threads before the model servers drain.

use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alf_obs::metrics::MetricsRegistry;

use crate::conn::{self, Shared};
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
    /// Most concurrently open connections, each held by one thread;
    /// accepts beyond this are answered `503` and closed immediately.
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

/// A running front end: listener, accept thread, connection threads, and
/// the model servers behind [`Router`]. Dropping the server shuts it down.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `cfg.addr`, starts the per-model servers, and spawns the
    /// accept thread. Serving begins before this returns.
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
        let addr = listener.local_addr().map_err(|e| NetError::Bind {
            addr: cfg.addr.clone(),
            detail: format!("local_addr: {e}"),
        })?;
        let router = Arc::new(Router::start(specs, registry.clone(), cfg.threads)?);
        let shared = Arc::new(Shared {
            router: Arc::clone(&router),
            quota: Mutex::new(QuotaState::new(cfg.quota, Instant::now())),
            limits: cfg.limits,
            responses: registry.counter("net.responses"),
            parse_errors: registry.counter("net.parse_errors"),
            closed: registry.counter("net.closed"),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            let max_connections = cfg.max_connections;
            std::thread::Builder::new()
                .name("alf-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &stop, max_connections, &registry))
                .map_err(|e| NetError::BadConfig(format!("spawn accept thread: {e}")))?
        };
        Ok(Self {
            addr,
            router,
            stop,
            accept: Mutex::new(Some(accept)),
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
        if let Some(accept) = self.accept.lock().expect("accept handle poisoned").take() {
            self.stop.store(true, Ordering::Release);
            // Wake the blocking accept; it sees the flag and exits.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = accept.join();
        }
        self.router.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Admits connections until `stop`, one thread each, then shuts down
/// every live socket and joins every connection thread.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    stop: &AtomicBool,
    max_connections: usize,
    registry: &MetricsRegistry,
) {
    let accepted = registry.counter("net.accepted");
    let conn_limit_rejected = registry.counter("net.conn_limit_rejected");
    // Each connection thread and a clone of its socket, kept so shutdown
    // can unblock the thread.
    let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    loop {
        let result = listener.accept();
        if stop.load(Ordering::Acquire) {
            break;
        }
        let mut stream = match result {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Transient failures (a peer that reset before we got to it)
            // must not kill the front end; a short back-off keeps a
            // persistent one (no file descriptors left) from spinning.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        for (_, done) in live.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = done.join();
        }
        if live.len() >= max_connections {
            conn_limit_rejected.inc();
            // Best effort: tell the peer why before dropping.
            let _ = stream.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 21\r\nconnection: close\r\n\r\nconnection limit hit\n",
            );
            continue;
        }
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        accepted.inc();
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("alf-net-conn".to_string())
            .spawn(move || {
                conn::serve(&stream, &conn_shared);
                conn_shared.closed.inc();
                // The accept thread's clone keeps the socket open; tell the
                // peer it is done now.
                let _ = stream.shutdown(Shutdown::Both);
            });
        match spawned {
            Ok(thread) => live.push((clone, thread)),
            Err(_) => shared.closed.inc(),
        }
    }
    // Unblock every connection thread's read or write; one waiting on a
    // prediction finishes it first (the model servers are still up).
    for (stream, _) in &live {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for (_, thread) in live {
        let _ = thread.join();
    }
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
