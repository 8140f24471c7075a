//! Per-run execution context threaded through every [`Layer`](crate::Layer).
//!
//! A [`RunCtx`] bundles the three things a layer needs from its caller but
//! should not own privately:
//!
//! * the forward-pass [`Mode`] (train vs eval),
//! * a shared [`Workspace`] arena that *all* layers draw transient scratch
//!   from (a convolution's bordered images and weight panels, GEMM packing
//!   panels, gradient staging buffers),
//!   so one warm arena serves a whole model instead of one arena per conv,
//! * an optional [`Profiler`] sink recording per-layer wall time, FLOPs,
//!   bytes moved and the arena's high-water mark.
//!
//! Ownership rules: the *caller* (trainer, evaluator, test harness) owns the
//! `RunCtx` and keeps it alive across steps — that is what makes the arena
//! reach a steady state where `take`/`give` never allocate. Layers only
//! borrow it for the duration of one `forward`/`backward` call and must
//! return every buffer they take before returning. Buffers that have to
//! survive from `forward` to `backward` (conv's copy of its input, BN's
//! normalised activations) are layer-owned caches, *not* arena slots —
//! two layers sharing a slot name would otherwise evict each other.
//!
//! Profiling overhead budget: with the profiler disabled every hook is a
//! single branch on an `Option` discriminant — no clocks are read, no
//! strings touched — keeping the disabled-path overhead well under the 2%
//! budget. With it enabled, each profiled scope costs two `Instant::now()`
//! calls and a linear scan over the (small) entry table.

use std::time::Instant;

use alf_obs::json::JsonWriter;
use alf_obs::metrics::MetricsRegistry;
use alf_tensor::ops::Workspace;

use crate::layer::Mode;
use crate::stats::StatLink;

/// Which half of the cache-and-replay contract a profiled scope covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// A `forward` call.
    Forward,
    /// A `backward` call.
    Backward,
}

/// Execution context passed to every [`Layer::forward`](crate::Layer::forward)
/// and [`Layer::backward`](crate::Layer::backward) call.
///
/// # Example
///
/// ```
/// use alf_nn::{Activation, ActivationKind, Layer, RunCtx};
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_nn::Result<()> {
/// let mut ctx = RunCtx::train();
/// let mut relu = Activation::new(ActivationKind::Relu);
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?;
/// let y = relu.forward(&x, &mut ctx)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
///
/// Cloning copies the mode and profiler; the clone's arena starts empty
/// (scratch is not state) and warms on first use.
#[derive(Debug, Clone)]
pub struct RunCtx {
    mode: Mode,
    /// Shared scratch arena. Public so layers can pass `&mut ctx.ws`
    /// straight into kernel entry points while still calling profiling
    /// hooks on `ctx` itself.
    pub ws: Workspace,
    profiler: Option<Profiler>,
    freeze_norm: bool,
    stat_link: Option<StatLink>,
}

impl RunCtx {
    /// Fresh context in the given mode with an empty arena, no profiler.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            ws: Workspace::new(),
            profiler: None,
            freeze_norm: false,
            stat_link: None,
        }
    }

    /// Fresh training-mode context.
    pub fn train() -> Self {
        Self::new(Mode::Train)
    }

    /// Fresh evaluation-mode context.
    pub fn eval() -> Self {
        Self::new(Mode::Eval)
    }

    /// Current forward-pass mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Switches the mode in place (the arena and profiler are kept — a
    /// trainer flips one long-lived context between train and eval).
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// Whether normalisation layers should *freeze* their statistics in
    /// training mode: normalise with the tracked running statistics
    /// (exactly as evaluation does) instead of batch statistics, and
    /// leave the running statistics untouched. Gradients then treat the
    /// statistics as constants.
    ///
    /// This is the knob behind `alf-dp`'s per-sample workers: batch
    /// statistics over a single-sample shard would make the normalisation
    /// (and so the whole run) depend on the shard layout, while frozen
    /// statistics are a pure function of the synced weights. Off by
    /// default; ignored in [`Mode::Eval`] (eval always uses running
    /// statistics) and [`Mode::Stats`] (whose purpose is to refresh them).
    pub(crate) fn freeze_norm(&self) -> bool {
        self.freeze_norm
    }

    /// Turns frozen-statistics normalisation on or off (see
    /// `RunCtx::freeze_norm`).
    pub fn set_freeze_norm(&mut self, on: bool) {
        self.freeze_norm = on;
    }

    /// The batch this context's [`Mode::Stats`] forwards are a shard of,
    /// if any: normalisation layers then take their batch statistics over
    /// every participant's samples instead of the local input alone.
    pub(crate) fn stat_link(&self) -> Option<&StatLink> {
        self.stat_link.as_ref()
    }

    /// Installs (or clears) the [`StatLink`] of a sharded statistics pass.
    pub fn set_stat_link(&mut self, link: Option<StatLink>) {
        self.stat_link = link;
    }

    /// Builder-style: enables profiling and returns the context.
    pub fn with_profiler(mut self) -> Self {
        self.enable_profiler();
        self
    }

    /// Attaches a fresh [`Profiler`] (replacing any existing one).
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Profiler::default());
    }

    /// Detaches and returns the profiler, disabling profiling.
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// Whether a profiler is attached.
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Records `n` floating-point operations against the innermost open
    /// profiled scope. A single branch when profiling is disabled.
    #[inline]
    pub(crate) fn count_flops(&mut self, n: u64) {
        if let Some(p) = self.profiler.as_mut() {
            p.pending_flops += n;
        }
    }

    /// Records `n` bytes moved (reads + writes of tensor payloads) against
    /// the innermost open profiled scope.
    #[inline]
    pub fn count_bytes(&mut self, n: u64) {
        if let Some(p) = self.profiler.as_mut() {
            p.pending_bytes += n;
        }
    }

    /// Opens a profiled scope. Returns `None` (for free) when profiling is
    /// disabled; pass the token to [`RunCtx::scope_end`] with the layer
    /// name once the work is done.
    ///
    /// The start/end pair is deliberately not a closure-taking wrapper:
    /// callers usually need to name the scope from a field of the same
    /// struct whose other fields the body mutates, which a closure would
    /// make a borrow-checker fight.
    #[inline]
    pub fn scope_start(&mut self) -> Option<ScopeToken> {
        self.profiler.as_ref().map(|p| ScopeToken {
            start: Instant::now(),
            flops0: p.pending_flops,
            bytes0: p.pending_bytes,
        })
    }

    /// Closes a profiled scope, attributing elapsed wall time and all
    /// FLOPs/bytes counted since `scope_start` to `name`. A no-op when the
    /// token is `None`.
    pub fn scope_end(&mut self, token: Option<ScopeToken>, name: &str, pass: Pass) {
        let Some(token) = token else { return };
        let elapsed = token.start.elapsed().as_nanos() as u64;
        let Some(p) = self.profiler.as_mut() else {
            return;
        };
        let flops = p.pending_flops - token.flops0;
        let bytes = p.pending_bytes - token.bytes0;
        // Reset so an enclosing scope only attributes its own direct counts.
        p.pending_flops = token.flops0;
        p.pending_bytes = token.bytes0;
        let entry = p.entry_mut(name);
        entry.flops += flops;
        entry.bytes += bytes;
        match pass {
            Pass::Forward => {
                entry.fwd_ns += elapsed;
                entry.fwd_calls += 1;
            }
            Pass::Backward => {
                entry.bwd_ns += elapsed;
                entry.bwd_calls += 1;
            }
        }
    }

    /// Snapshot of everything profiled so far, including the arena's
    /// current high-water mark. `None` when profiling is disabled.
    pub fn report(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(|p| ProfileReport {
            layers: p.entries.clone(),
            ws_high_water_bytes: self.ws.high_water_bytes(),
        })
    }
}

/// Opaque handle returned by [`RunCtx::scope_start`].
#[derive(Debug)]
pub struct ScopeToken {
    start: Instant,
    flops0: u64,
    bytes0: u64,
}

/// Accumulates per-layer timing and operation counts.
#[derive(Debug, Default, Clone)]
pub struct Profiler {
    entries: Vec<LayerProfile>,
    pending_flops: u64,
    pending_bytes: u64,
}

impl Profiler {
    fn entry_mut(&mut self, name: &str) -> &mut LayerProfile {
        if let Some(i) = self.entries.iter().position(|e| e.name == name) {
            return &mut self.entries[i];
        }
        self.entries.push(LayerProfile::new(name));
        self.entries.last_mut().expect("just pushed")
    }

    /// Accumulated entries in first-seen order.
    pub fn layers(&self) -> &[LayerProfile] {
        &self.entries
    }
}

/// Accumulated measurements for one named layer (or scope).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Scope name — conv-unit names for model layers (`conv1`, `res2b_1`,
    /// …) or static labels (`maxpool`, `fc`).
    pub name: String,
    /// Total wall time spent in `forward`, nanoseconds.
    pub fwd_ns: u64,
    /// Total wall time spent in `backward`, nanoseconds.
    pub bwd_ns: u64,
    /// Number of `forward` calls.
    pub fwd_calls: u64,
    /// Number of `backward` calls.
    pub bwd_calls: u64,
    /// Floating-point operations counted inside this scope (both passes).
    pub flops: u64,
    /// Tensor payload bytes moved inside this scope (both passes).
    pub bytes: u64,
}

impl LayerProfile {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            fwd_ns: 0,
            bwd_ns: 0,
            fwd_calls: 0,
            bwd_calls: 0,
            flops: 0,
            bytes: 0,
        }
    }

    /// Total wall time across both passes, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns
    }

    /// Writes this layer as one JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", &self.name);
        w.field_u64("fwd_ns", self.fwd_ns);
        w.field_u64("bwd_ns", self.bwd_ns);
        w.field_u64("fwd_calls", self.fwd_calls);
        w.field_u64("bwd_calls", self.bwd_calls);
        w.field_u64("flops", self.flops);
        w.field_u64("bytes", self.bytes);
        w.end_object();
    }

    /// One JSON object for this layer.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Point-in-time snapshot of a [`Profiler`] plus arena footprint.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-layer entries in first-seen (i.e. network) order.
    pub layers: Vec<LayerProfile>,
    /// Shared arena high-water mark at snapshot time, bytes.
    pub ws_high_water_bytes: usize,
}

impl ProfileReport {
    /// Entry for `name`, if that scope was ever closed.
    pub fn layer(&self, name: &str) -> Option<&LayerProfile> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Total wall time across all layers and both passes, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.layers.iter().map(LayerProfile::total_ns).sum()
    }

    /// Writes the whole report as one JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("ws_high_water_bytes", self.ws_high_water_bytes as u64);
        w.key("layers");
        w.begin_array();
        for l in &self.layers {
            l.write_json(w);
        }
        w.end_array();
        w.end_object();
    }

    /// Serialises the whole report as a JSON object through the shared
    /// workspace writer (`alf_obs::json`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Exports the report into `registry` as gauges, one per layer and
    /// measurement (`profile.<layer>.fwd_ns`, `.bwd_ns`, `.flops`,
    /// `.bytes`) plus `profile.ws_high_water_bytes`, so profiler snapshots
    /// travel through the same [`MetricsRegistry`] surface as server and
    /// trainer metrics.
    pub fn export_into(&self, registry: &MetricsRegistry) {
        for l in &self.layers {
            registry
                .gauge(&format!("profile.{}.fwd_ns", l.name))
                .set(l.fwd_ns as f64);
            registry
                .gauge(&format!("profile.{}.bwd_ns", l.name))
                .set(l.bwd_ns as f64);
            registry
                .gauge(&format!("profile.{}.flops", l.name))
                .set(l.flops as f64);
            registry
                .gauge(&format!("profile.{}.bytes", l.name))
                .set(l.bytes as f64);
        }
        registry
            .gauge("profile.ws_high_water_bytes")
            .set(self.ws_high_water_bytes as f64);
    }

    /// Renders a fixed-width text table of per-layer measurements.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>12} {:>12}\n",
            "layer", "fwd ms", "bwd ms", "MFLOPs", "MB moved"
        ));
        for l in &self.layers {
            out.push_str(&format!(
                "{:<14} {:>10.3} {:>10.3} {:>12.2} {:>12.2}\n",
                l.name,
                l.fwd_ns as f64 / 1e6,
                l.bwd_ns as f64 / 1e6,
                l.flops as f64 / 1e6,
                l.bytes as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "arena high water: {:.2} MB\n",
            self.ws_high_water_bytes as f64 / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut ctx = RunCtx::train();
        let t = ctx.scope_start();
        assert!(t.is_none());
        ctx.count_flops(100);
        ctx.scope_end(t, "conv1", Pass::Forward);
        assert!(ctx.report().is_none());
    }

    #[test]
    fn scopes_attribute_time_flops_and_bytes() {
        let mut ctx = RunCtx::train().with_profiler();
        let t = ctx.scope_start();
        ctx.count_flops(1000);
        ctx.count_bytes(64);
        ctx.scope_end(t, "conv1", Pass::Forward);
        let t = ctx.scope_start();
        ctx.count_flops(500);
        ctx.scope_end(t, "conv1", Pass::Backward);
        let report = ctx.report().unwrap();
        let l = report.layer("conv1").unwrap();
        assert_eq!(l.flops, 1500);
        assert_eq!(l.bytes, 64);
        assert_eq!(l.fwd_calls, 1);
        assert_eq!(l.bwd_calls, 1);
    }

    #[test]
    fn counts_outside_any_scope_are_dropped_on_next_scope() {
        let mut ctx = RunCtx::eval().with_profiler();
        ctx.count_flops(42); // no scope open — attributed to nothing
        let t = ctx.scope_start();
        ctx.count_flops(8);
        ctx.scope_end(t, "fc", Pass::Forward);
        let report = ctx.report().unwrap();
        assert_eq!(report.layer("fc").unwrap().flops, 8);
    }

    #[test]
    fn nested_scopes_split_counts() {
        let mut ctx = RunCtx::train().with_profiler();
        let outer = ctx.scope_start();
        ctx.count_flops(10);
        let inner = ctx.scope_start();
        ctx.count_flops(100);
        ctx.scope_end(inner, "inner", Pass::Forward);
        ctx.count_flops(1);
        ctx.scope_end(outer, "outer", Pass::Forward);
        let report = ctx.report().unwrap();
        assert_eq!(report.layer("inner").unwrap().flops, 100);
        assert_eq!(report.layer("outer").unwrap().flops, 11);
    }

    #[test]
    fn report_includes_arena_high_water() {
        let mut ctx = RunCtx::train().with_profiler();
        let b: Vec<f32> = ctx.ws.take("scratch", 256);
        ctx.ws.give("scratch", b);
        let report = ctx.report().unwrap();
        assert!(report.ws_high_water_bytes >= 256 * 4);
    }

    #[test]
    fn json_round_trips_key_fields() {
        let mut ctx = RunCtx::train().with_profiler();
        let t = ctx.scope_start();
        ctx.count_flops(7);
        ctx.scope_end(t, "conv1", Pass::Forward);
        let json = ctx.report().unwrap().to_json();
        assert!(json.contains("\"name\":\"conv1\""));
        assert!(json.contains("\"flops\":7"));
        assert!(json.contains("\"ws_high_water_bytes\""));
        let table = ctx.report().unwrap().table();
        assert!(table.contains("conv1"));
    }

    #[test]
    fn report_exports_gauges_into_registry() {
        let mut ctx = RunCtx::train().with_profiler();
        let t = ctx.scope_start();
        ctx.count_flops(7);
        ctx.count_bytes(32);
        ctx.scope_end(t, "conv1", Pass::Forward);
        let registry = MetricsRegistry::new();
        ctx.report().unwrap().export_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("profile.conv1.flops"), Some(7.0));
        assert_eq!(snap.gauge("profile.conv1.bytes"), Some(32.0));
        assert!(snap.gauge("profile.ws_high_water_bytes").is_some());
    }

    #[test]
    fn mode_flips_in_place() {
        let mut ctx = RunCtx::eval();
        assert_eq!(ctx.mode(), Mode::Eval);
        ctx.set_mode(Mode::Train);
        assert_eq!(ctx.mode(), Mode::Train);
    }
}
