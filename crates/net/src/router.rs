//! Multi-model routing: one [`alf_serve::Server`] per checkpoint, all
//! sharing one worker budget and one [`MetricsRegistry`], with decoded
//! HTTP requests dispatched by path.
//!
//! Endpoints:
//!
//! * `POST /v1/models/<name>/predict` — body is the raw little-endian
//!   `f32` image (`C*H*W*4` bytes); optional `x-tenant` (quota identity,
//!   default `anon`) and `x-deadline-ms` (request deadline) headers.
//!   Answers `200` with `{"model","class","logits"}`.
//! * `POST /v1/models/<name>/checkpoint` — hot-swaps the model's weights
//!   to the checkpoint blob in the body (`422` on a bad blob).
//! * `GET /v1/models` — the served model list with geometry.
//! * `GET /metrics` — plain-text exposition of the shared registry.
//! * `GET /healthz` — liveness probe.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alf_obs::json::JsonWriter;
use alf_obs::metrics::{Counter, Histogram, HistogramSpec, MetricsRegistry};
use alf_obs::runtime::resolve_threads;
use alf_serve::{ServeConfig, ServeError, Server};
use alf_tensor::Tensor;

use crate::http::Request;
use crate::quota::QuotaState;
use crate::{NetError, Result};

/// One model to serve: a name (its URL segment and metric prefix), the
/// model itself, and its serving configuration. [`Router::start`]
/// overwrites [`ServeConfig::name`] with `name` and
/// [`ServeConfig::workers`] with this router's per-model share of the
/// worker budget. Numeric precision rides in the serving configuration:
/// set [`ServeConfig::precision`] to `Precision::Int8(calib)` to serve
/// this model through the fused int8 engine.
#[derive(Debug)]
pub struct ModelSpec {
    /// URL segment (`/v1/models/<name>/…`) and metric prefix
    /// (`serve.<name>.*`). Restricted to `[A-Za-z0-9_.-]`, nonempty.
    pub name: String,
    /// The model to serve.
    pub model: alf_core::model::CnnModel,
    /// Serving configuration (queue depth, batching, geometry, …).
    pub serve: ServeConfig,
}

/// A finished HTTP answer, ready for [`write_response`].
///
/// [`write_response`]: crate::http::write_response
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `content-type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: String) -> Self {
        Self {
            status,
            reason,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    fn error(status: u16, reason: &'static str, code: &str, detail: &str) -> Self {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("error", code);
        w.field_str("detail", detail);
        w.end_object();
        Self::json(status, reason, w.finish())
    }

    fn text(status: u16, reason: &'static str, body: String) -> Self {
        Self {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }
}

struct Entry {
    name: String,
    server: Server,
}

/// The dispatch table: per-model servers, the shared registry, and the
/// front-end counters.
pub struct Router {
    models: Vec<Entry>,
    registry: MetricsRegistry,
    requests: Counter,
    shed_quota: Counter,
    not_found: Counter,
    /// End-to-end admitted-predict latency (submit → response ready), ns.
    request_ns: Arc<Histogram>,
}

impl Router {
    /// Starts one [`Server`] per spec, splitting one worker budget evenly:
    /// `budget = resolve_threads(threads, "ALF_NET_THREADS")`, each model
    /// getting `max(1, budget / specs.len())` workers. Every server
    /// registers its instruments in `registry` under `serve.<name>.*`.
    ///
    /// # Errors
    ///
    /// [`NetError::BadConfig`] for an empty spec list, a duplicate or
    /// empty model name; [`NetError::Serve`] when a server rejects its
    /// configuration.
    pub fn start(
        specs: Vec<ModelSpec>,
        registry: MetricsRegistry,
        threads: Option<usize>,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(NetError::BadConfig("at least one model is required".into()));
        }
        for (i, spec) in specs.iter().enumerate() {
            if spec.name.is_empty() {
                return Err(NetError::BadConfig("model names must be nonempty".into()));
            }
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(NetError::BadConfig(format!(
                    "duplicate model name '{}'",
                    spec.name
                )));
            }
        }
        let budget = resolve_threads(threads, "ALF_NET_THREADS");
        let workers = (budget / specs.len()).max(1);
        let mut models = Vec::with_capacity(specs.len());
        for spec in specs {
            let cfg = ServeConfig {
                name: spec.name.clone(),
                workers,
                ..spec.serve
            };
            let server = Server::start_with_registry(&spec.model, cfg, registry.clone())?;
            models.push(Entry {
                name: spec.name,
                server,
            });
        }
        Ok(Self {
            requests: registry.counter("net.requests"),
            shed_quota: registry.counter("net.shed_quota"),
            not_found: registry.counter("net.not_found"),
            request_ns: registry.histogram("net.request_ns", HistogramSpec::latency_ns()),
            registry,
            models,
        })
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Names of the served models, in table order.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.iter().map(|e| e.name.as_str()).collect()
    }

    /// The server for `name`, if routed.
    pub fn server(&self, name: &str) -> Option<&Server> {
        self.models
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.server)
    }

    /// Drains every model's server. Idempotent.
    pub fn shutdown(&self) {
        for entry in &self.models {
            entry.server.shutdown();
        }
    }

    /// Answers one decoded request, blocking until the model server has
    /// served it for a predict. Quota admission (for predict requests)
    /// charges `quota`.
    pub(crate) fn route(&self, req: &Request, quota: &Mutex<QuotaState>) -> Response {
        self.requests.inc();
        match (req.method.as_str(), req.path()) {
            ("GET", "/healthz") => Response::text(200, "OK", "ok\n".into()),
            ("GET", "/metrics") => Response::text(200, "OK", self.metrics_text()),
            ("GET", "/v1/models") => self.list_models(),
            (method, path) => {
                let Some(rest) = path.strip_prefix("/v1/models/") else {
                    return self.unrouted();
                };
                match (method, rest.split_once('/')) {
                    ("POST", Some((name, "predict"))) => self.predict(name, req, quota),
                    ("POST", Some((name, "checkpoint"))) => self.swap(name, req),
                    _ => self.unrouted(),
                }
            }
        }
    }

    fn unrouted(&self) -> Response {
        self.not_found.inc();
        Response::error(404, "Not Found", "not_found", "no such endpoint")
    }

    fn model_index(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|e| e.name == name)
    }

    fn predict(&self, name: &str, req: &Request, quota: &Mutex<QuotaState>) -> Response {
        let Some(index) = self.model_index(name) else {
            self.not_found.inc();
            return Response::error(
                404,
                "Not Found",
                "unknown_model",
                &format!("no model named '{name}'"),
            );
        };
        let tenant = req.header("x-tenant").unwrap_or("anon");
        let (label, admitted) = {
            let mut quota = quota.lock().expect("quota table poisoned");
            let (charged, admitted) = quota.admit(tenant, Instant::now());
            (sanitize_tenant(charged), admitted)
        };
        if !admitted {
            self.shed_quota.inc();
            self.registry
                .counter(&format!("net.tenant.{label}.shed"))
                .inc();
            return Response::error(
                429,
                "Too Many Requests",
                "quota_exceeded",
                &format!("tenant '{tenant}' is over its request quota"),
            );
        }
        self.registry
            .counter(&format!("net.tenant.{label}.admitted"))
            .inc();
        let deadline = match req.header("x-deadline-ms") {
            None => None,
            Some(ms) => match ms.parse::<u64>() {
                Ok(ms) => Some(Instant::now() + Duration::from_millis(ms)),
                Err(_) => {
                    return Response::error(
                        400,
                        "Bad Request",
                        "bad_deadline",
                        &format!("x-deadline-ms {ms:?} is not a non-negative integer"),
                    )
                }
            },
        };
        let entry = &self.models[index];
        let cfg = entry.server.config();
        let dims = [cfg.channels, cfg.height, cfg.width];
        let want = dims[0] * dims[1] * dims[2] * 4;
        if req.body.len() != want {
            return Response::error(
                400,
                "Bad Request",
                "bad_body",
                &format!(
                    "body must be {want} bytes of little-endian f32 ({}x{}x{}), got {}",
                    dims[0],
                    dims[1],
                    dims[2],
                    req.body.len()
                ),
            );
        }
        let data: Vec<f32> = req
            .body
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let image = Tensor::from_vec(data, &dims).expect("length checked above");
        let started = Instant::now();
        let pending = match entry.server.submit_with_deadline(image, deadline) {
            Ok(pending) => pending,
            Err(e) => return self.render_serve_error(&e),
        };
        let response = match pending.wait() {
            Ok(prediction) => self.render_prediction(index, &prediction),
            Err(e) => self.render_serve_error(&e),
        };
        let elapsed = started.elapsed().as_nanos();
        self.request_ns
            .record(elapsed.min(u128::from(u64::MAX)) as u64);
        response
    }

    fn swap(&self, name: &str, req: &Request) -> Response {
        let Some(index) = self.model_index(name) else {
            self.not_found.inc();
            return Response::error(
                404,
                "Not Found",
                "unknown_model",
                &format!("no model named '{name}'"),
            );
        };
        let entry = &self.models[index];
        match entry.server.swap_checkpoint(&req.body) {
            Ok(()) => {
                let mut w = JsonWriter::new();
                w.begin_object();
                w.field_str("model", name);
                w.field_u64("swaps", entry.server.stats().swaps);
                w.end_object();
                Response::json(200, "OK", w.finish())
            }
            Err(e) => self.render_serve_error(&e),
        }
    }

    fn list_models(&self) -> Response {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("models");
        w.begin_array();
        for entry in &self.models {
            let cfg = entry.server.config();
            w.begin_object();
            w.field_str("name", &entry.name);
            w.field_u64s(
                "image_dims",
                [cfg.channels as u64, cfg.height as u64, cfg.width as u64],
            );
            w.field_u64("workers", cfg.workers as u64);
            w.field_u64("queue_depth", cfg.queue_depth as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        Response::json(200, "OK", w.finish())
    }

    /// Renders a completed prediction for the model at index `model`.
    fn render_prediction(&self, model: usize, prediction: &alf_serve::Prediction) -> Response {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("model", &self.models[model].name);
        w.field_u64("class", prediction.class as u64);
        w.field_f32s("logits", prediction.logits.data().iter().copied());
        w.end_object();
        Response::json(200, "OK", w.finish())
    }

    /// Maps a typed serving error onto its HTTP answer: `Overloaded` and
    /// `ShuttingDown` are `503` load-shed responses (distinct typed
    /// reasons), `Expired` is `504`, `BadRequest` `400`, `BadCheckpoint`
    /// `422`.
    pub fn render_serve_error(&self, e: &ServeError) -> Response {
        match e {
            ServeError::Overloaded { queue_depth } => Response::error(
                503,
                "Service Unavailable",
                "overloaded",
                &format!("queue is at its depth bound ({queue_depth})"),
            ),
            ServeError::ShuttingDown => Response::error(
                503,
                "Service Unavailable",
                "shutting_down",
                "server is draining",
            ),
            ServeError::Expired => Response::error(
                504,
                "Gateway Timeout",
                "deadline_expired",
                "request deadline passed while queued",
            ),
            ServeError::BadRequest(detail) => {
                Response::error(400, "Bad Request", "bad_request", detail)
            }
            ServeError::BadCheckpoint(detail) => {
                Response::error(422, "Unprocessable Content", "bad_checkpoint", detail)
            }
            other => Response::error(500, "Internal Server Error", "internal", &other.to_string()),
        }
    }

    /// Plain-text metrics exposition: one line per instrument, stable
    /// (name-sorted) order —
    /// `counter <name> <value>`, `gauge <name> <value>`,
    /// `histogram <name> total <n> p50 <x> p95 <y> p99 <z>`.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write;
        let snap = self.registry.snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "histogram {name} total {} p50 {} p95 {} p99 {}",
                h.total, h.p50, h.p95, h.p99
            );
        }
        out
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("models", &self.model_names())
            .finish_non_exhaustive()
    }
}

/// Tenant labels become metric-name segments; anything outside the
/// registry-safe charset collapses to `_` so a hostile tenant string
/// cannot fabricate arbitrary metric names.
fn sanitize_tenant(tenant: &str) -> String {
    tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpLimits, RequestParser};
    use crate::quota::QuotaConfig;
    use alf_core::models::plain20;

    fn spec(name: &str) -> ModelSpec {
        ModelSpec {
            name: name.to_string(),
            model: plain20(4, 4).unwrap(),
            serve: ServeConfig::new(3, 12, 12),
        }
    }

    fn parse(wire: &[u8]) -> Request {
        RequestParser::new(HttpLimits::default())
            .feed(wire)
            .unwrap()
            .1
            .unwrap()
    }

    fn image_body() -> Vec<u8> {
        (0..3 * 12 * 12)
            .flat_map(|i| ((i % 13) as f32 * 0.1).to_le_bytes())
            .collect()
    }

    fn predict_wire(model: &str, extra_headers: &str, body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "POST /v1/models/{model}/predict HTTP/1.1\r\n{extra_headers}content-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    #[test]
    fn rejects_empty_and_duplicate_specs() {
        let registry = MetricsRegistry::new();
        assert!(matches!(
            Router::start(Vec::new(), registry.clone(), Some(1)),
            Err(NetError::BadConfig(_))
        ));
        assert!(matches!(
            Router::start(vec![spec("m"), spec("m")], registry, Some(1)),
            Err(NetError::BadConfig(_))
        ));
    }

    #[test]
    fn routes_predict_to_the_named_model_and_404s_unknowns() {
        let registry = MetricsRegistry::new();
        let router = Router::start(vec![spec("a"), spec("b")], registry, Some(2)).unwrap();
        let quota = Mutex::new(QuotaState::new(QuotaConfig::unlimited(), Instant::now()));

        let resp = router.route(&parse(&predict_wire("b", "", &image_body())), &quota);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"model\":\"b\""), "{text}");
        assert!(text.contains("\"logits\":["), "{text}");

        let resp = router.route(&parse(&predict_wire("zzz", "", &image_body())), &quota);
        assert_eq!(resp.status, 404);
        router.shutdown();
    }

    #[test]
    fn wrong_body_length_is_400_without_submission() {
        let registry = MetricsRegistry::new();
        let router = Router::start(vec![spec("m")], registry.clone(), Some(1)).unwrap();
        let quota = Mutex::new(QuotaState::new(QuotaConfig::unlimited(), Instant::now()));
        let resp = router.route(&parse(&predict_wire("m", "", b"abc")), &quota);
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8(resp.body).unwrap().contains("bad_body"));
        assert_eq!(registry.snapshot().counter("serve.m.submitted"), Some(0));
        router.shutdown();
    }

    #[test]
    fn over_quota_tenants_get_429_and_counters() {
        let registry = MetricsRegistry::new();
        let router = Router::start(vec![spec("m")], registry.clone(), Some(1)).unwrap();
        // 1-token burst, no refill to speak of: second request sheds.
        let quota = Mutex::new(QuotaState::new(
            QuotaConfig::per_tenant(1e-9, 1.0),
            Instant::now(),
        ));
        let req = parse(&predict_wire("m", "x-tenant: t0\r\n", &image_body()));
        assert_eq!(router.route(&req, &quota).status, 200);
        let resp = router.route(&req, &quota);
        assert_eq!(resp.status, 429);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("quota_exceeded"));
        router.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("net.tenant.t0.admitted"), Some(1));
        assert_eq!(snap.counter("net.tenant.t0.shed"), Some(1));
        assert_eq!(snap.counter("net.shed_quota"), Some(1));
    }

    #[test]
    fn metrics_endpoint_exposes_registry_lines() {
        let registry = MetricsRegistry::new();
        let router = Router::start(vec![spec("m")], registry, Some(1)).unwrap();
        let quota = Mutex::new(QuotaState::new(QuotaConfig::unlimited(), Instant::now()));
        let resp = router.route(&parse(b"GET /metrics HTTP/1.1\r\n\r\n"), &quota);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("counter serve.m.submitted 0"), "{text}");
        assert!(text.contains("counter net.requests 1"), "{text}");
        assert!(
            text.contains("histogram serve.m.latency_ns total 0"),
            "{text}"
        );
        router.shutdown();
    }

    #[test]
    fn checkpoint_swap_over_the_router_applies_and_rejects() {
        let registry = MetricsRegistry::new();
        let router = Router::start(vec![spec("m")], registry, Some(1)).unwrap();
        let quota = Mutex::new(QuotaState::new(QuotaConfig::unlimited(), Instant::now()));

        let blob = alf_core::checkpoint::save(&plain20(4, 4).unwrap());
        let mut wire = format!(
            "POST /v1/models/m/checkpoint HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            blob.len()
        )
        .into_bytes();
        wire.extend_from_slice(&blob);
        let resp = router.route(&parse(&wire), &quota);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"swaps\":1"));

        let garbage = b"POST /v1/models/m/checkpoint HTTP/1.1\r\ncontent-length: 3\r\n\r\nnop";
        let resp = router.route(&parse(garbage), &quota);
        assert_eq!(resp.status, 422);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("bad_checkpoint"));
        router.shutdown();
    }

    #[test]
    fn tenant_labels_are_sanitised_for_metric_names() {
        assert_eq!(sanitize_tenant("team-a_1"), "team-a_1");
        assert_eq!(sanitize_tenant("a b.c\"d"), "a_b_c_d");
    }
}
