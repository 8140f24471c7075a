//! Per-tenant token-bucket admission: each tenant (the `x-tenant` request
//! header) gets a bucket refilled at a configured rate; a predict request
//! that finds the bucket empty is shed with `429` before it ever touches
//! the serving queue, so one noisy tenant cannot starve the others of
//! queue slots.
//!
//! Tenant cardinality is bounded: at most
//! [`QuotaConfig::max_tracked_tenants`] distinct tenants get their own
//! bucket (and their own `net.tenant.<t>.*` counters); arrivals beyond
//! that share one `other` bucket, so a tenant-name-spraying client cannot
//! grow server state without bound.

use std::time::Instant;

/// The shared bucket for tenants beyond the tracking bound.
pub(crate) const OVERFLOW_TENANT: &str = "other";

/// Token-bucket quota policy.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaConfig {
    /// Default refill rate, requests per second. `f64::INFINITY` (the
    /// default) admits everything.
    pub default_rate: f64,
    /// Default bucket capacity (burst size), requests.
    pub default_burst: f64,
    /// Per-tenant `(tenant, rate, burst)` overrides.
    pub overrides: Vec<(String, f64, f64)>,
    /// Most distinct tenants tracked with their own bucket and counters.
    pub max_tracked_tenants: usize,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        Self {
            default_rate: f64::INFINITY,
            default_burst: 1.0,
            overrides: Vec::new(),
            max_tracked_tenants: 64,
        }
    }
}

impl QuotaConfig {
    /// Admit everything (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Every tenant gets `rate` requests/s with `burst` capacity.
    pub fn per_tenant(rate: f64, burst: f64) -> Self {
        Self {
            default_rate: rate,
            default_burst: burst,
            ..Self::default()
        }
    }

    /// Adds a per-tenant override.
    #[must_use]
    pub fn with_override(mut self, tenant: &str, rate: f64, burst: f64) -> Self {
        self.overrides.push((tenant.to_string(), rate, burst));
        self
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
    rate: f64,
    burst: f64,
}

impl Bucket {
    fn new(rate: f64, burst: f64, now: Instant) -> Self {
        Self {
            tokens: burst,
            last: now,
            rate,
            burst,
        }
    }

    fn try_take(&mut self, now: Instant) -> bool {
        if self.rate.is_infinite() {
            return true;
        }
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Live bucket table.
#[derive(Debug)]
pub(crate) struct QuotaState {
    cfg: QuotaConfig,
    buckets: Vec<(String, Bucket)>,
}

impl QuotaState {
    pub(crate) fn new(cfg: QuotaConfig, now: Instant) -> Self {
        let buckets = cfg
            .overrides
            .iter()
            .map(|(t, rate, burst)| (t.clone(), Bucket::new(*rate, *burst, now)))
            .collect();
        Self { cfg, buckets }
    }

    /// Admits or sheds one request from `tenant`. Returns the tracked
    /// tenant label actually charged (the tenant itself, or
    /// [`OVERFLOW_TENANT`] past the tracking bound) and whether the
    /// request was admitted.
    pub(crate) fn admit<'s>(&'s mut self, tenant: &str, now: Instant) -> (&'s str, bool) {
        let index = match self.buckets.iter().position(|(t, _)| t == tenant) {
            Some(i) => i,
            None if self.buckets.len() < self.cfg.max_tracked_tenants => {
                self.buckets.push((
                    tenant.to_string(),
                    Bucket::new(self.cfg.default_rate, self.cfg.default_burst, now),
                ));
                self.buckets.len() - 1
            }
            None => match self.buckets.iter().position(|(t, _)| t == OVERFLOW_TENANT) {
                Some(i) => i,
                None => {
                    // The bound counts real tenants; the shared overflow
                    // bucket rides one slot past it.
                    self.buckets.push((
                        OVERFLOW_TENANT.to_string(),
                        Bucket::new(self.cfg.default_rate, self.cfg.default_burst, now),
                    ));
                    self.buckets.len() - 1
                }
            },
        };
        let (name, bucket) = &mut self.buckets[index];
        (name.as_str(), bucket.try_take(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_always_admits() {
        let now = Instant::now();
        let mut q = QuotaState::new(QuotaConfig::unlimited(), now);
        for _ in 0..1000 {
            assert!(q.admit("t", now).1);
        }
    }

    #[test]
    fn burst_then_refill() {
        let now = Instant::now();
        let mut q = QuotaState::new(QuotaConfig::per_tenant(10.0, 3.0), now);
        assert!(q.admit("t", now).1);
        assert!(q.admit("t", now).1);
        assert!(q.admit("t", now).1);
        assert!(!q.admit("t", now).1, "burst of 3 exhausted");
        // 10 tokens/s: 150 ms refills 1.5 tokens -> exactly one more.
        let later = now + Duration::from_millis(150);
        assert!(q.admit("t", later).1);
        assert!(!q.admit("t", later).1);
    }

    #[test]
    fn tenants_have_independent_buckets_and_overrides_apply() {
        let now = Instant::now();
        let cfg = QuotaConfig::per_tenant(1.0, 1.0).with_override("vip", 1.0, 3.0);
        let mut q = QuotaState::new(cfg, now);
        assert!(q.admit("a", now).1);
        assert!(!q.admit("a", now).1);
        assert!(q.admit("b", now).1, "tenant b has its own bucket");
        for _ in 0..3 {
            assert!(q.admit("vip", now).1);
        }
        assert!(!q.admit("vip", now).1);
    }

    #[test]
    fn tenants_beyond_the_bound_share_the_overflow_bucket() {
        let now = Instant::now();
        let cfg = QuotaConfig {
            default_rate: 1.0,
            default_burst: 1.0,
            overrides: Vec::new(),
            max_tracked_tenants: 2,
        };
        let mut q = QuotaState::new(cfg, now);
        assert_eq!(q.admit("a", now), ("a", true));
        assert_eq!(q.admit("b", now), ("b", true));
        // c and d both land in the shared overflow bucket.
        assert_eq!(q.admit("c", now), (OVERFLOW_TENANT, true));
        assert_eq!(q.admit("d", now), (OVERFLOW_TENANT, false));
    }
}
