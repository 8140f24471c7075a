//! Worker-count resolution shared across the workspace.
//!
//! Every threaded subsystem takes an explicit worker count (the
//! `Evaluator::with_threads`/`DpConfig::with_threads` constructors,
//! `NetConfig::threads`, `alf-lab --jobs`) and falls back to the host's
//! available parallelism when it is absent. Thread counts are purely a
//! resource knob: all threaded paths are bitwise deterministic, so a
//! thread count never changes results. The program reads no environment
//! variable for a thread count.

/// Resolves a worker-thread count: an explicit value wins (clamped to at
/// least 1), otherwise the host's available parallelism.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_wins_and_is_clamped() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
    }

    #[test]
    fn absent_falls_back_to_host_parallelism() {
        assert!(resolve_threads(None) >= 1);
    }
}
