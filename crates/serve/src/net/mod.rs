//! The network front end over the serving engine: one or more deployed
//! models answering HTTP/1.1 requests.
//!
//! The ALF pipeline compresses a CNN so it can be *deployed* cheaply;
//! this module is where deployment meets the network. It is built the
//! way the rest of the workspace is built — no external dependencies, no
//! `unsafe` — from four layers:
//!
//! * [`http`] — an incremental HTTP/1.1 parser (byte-at-a-time safe,
//!   keep-alive + pipelining, every size bound enforced as bytes arrive,
//!   typed errors with HTTP statuses) and a response serialiser.
//! * [`Router`] — multi-model dispatch: one [`Server`](crate::Server) per
//!   checkpoint, sharing one worker budget (`NetConfig::threads`) and one
//!   [`MetricsRegistry`](alf_obs::metrics::MetricsRegistry)
//!   (`serve.<model>.*` instruments per model), with typed `503/504`
//!   mappings of [`ServeError`](crate::ServeError).
//! * [`NetServer`] — a blocking TCP listener on one accept thread and one
//!   blocking thread per open connection (at most
//!   [`NetConfig::max_connections`]), which reads a request as it
//!   arrives, waits for its prediction and writes the answer; inference
//!   itself stays on the serving workers. Nothing polls, so an idle
//!   server does not wake.
//! * [`client::HttpClient`] — the blocking keep-alive client used by the
//!   socket benchmarks and smoke tests.
//!
//! ```no_run
//! use alf_obs::metrics::MetricsRegistry;
//! use alf_serve::net::{ModelSpec, NetConfig, NetServer};
//! use alf_serve::ServeConfig;
//!
//! let model = alf_core::models::plain20(10, 16).unwrap();
//! let spec = ModelSpec {
//!     name: "plain20".to_string(),
//!     model,
//!     serve: ServeConfig::new(3, 32, 32),
//! };
//! let server = NetServer::start(
//!     vec![spec],
//!     NetConfig::new("127.0.0.1:8080"),
//!     MetricsRegistry::new(),
//! )
//! .unwrap();
//! println!("serving on {}", server.addr());
//! // POST /v1/models/plain20/predict with 3*32*32 little-endian f32 bytes;
//! // GET /metrics for the text exposition.
//! # server.shutdown();
//! ```

pub mod client;
mod conn;
pub mod http;
mod router;
mod server;

use std::fmt;

pub use http::{HttpError, HttpLimits, Request, RequestParser};
pub use router::{ModelSpec, Router};
pub use server::{NetConfig, NetServer};

/// Front-end failures surfaced to the embedder (wire-level failures are
/// answered on the wire instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The listen address could not be bound or configured.
    Bind {
        /// The address that failed.
        addr: String,
        /// The OS error text.
        detail: String,
    },
    /// Invalid front-end configuration (empty model list, duplicate model
    /// name, zero connection bound, …).
    BadConfig(String),
    /// A model server rejected its configuration at startup.
    Serve(crate::ServeError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Bind { addr, detail } => write!(f, "cannot bind {addr}: {detail}"),
            NetError::BadConfig(detail) => write!(f, "bad net config: {detail}"),
            NetError::Serve(e) => write!(f, "serving backend: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::ServeError> for NetError {
    fn from(e: crate::ServeError) -> Self {
        NetError::Serve(e)
    }
}

/// The front end's result type.
pub type Result<T> = std::result::Result<T, NetError>;
