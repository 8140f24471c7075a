//! The pruning-pressure schedule `νprune` (paper §III-B).
//!
//! The mask regulariser `Lprune = 1/Co·Σ|m|` is weighted by
//! `νprune = max(0, 1 − exp(m·(θ − prmax)))` where `θ` is the current zero
//! fraction of the code. Pressure is near 1 while the layer is dense and
//! decays to 0 as `θ` approaches the target `prmax`, slowing pruning near
//! the end of training — the adaptive analogue of Han et al.'s layer
//! sensitivity.

/// Parameters of the `νprune` schedule.
///
/// # Example
///
/// ```
/// use alf_core::PruneSchedule;
///
/// let s = PruneSchedule::paper_default(); // m = 8, prmax = 0.85
/// assert!(s.nu(0.0) > 0.99);          // full pressure while dense
/// assert_eq!(s.nu(0.85), 0.0);        // no pressure at the target
/// assert_eq!(s.nu(1.0), 0.0);         // clamped beyond the target
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneSchedule {
    /// Sensitivity slope `m ∈ [1, 10]`.
    pub slope: f32,
    /// Maximum pruning rate `prmax ∈ [0, 1]`.
    pub pr_max: f32,
}

impl PruneSchedule {
    /// The paper's experimental setting: `m = 8`, `prmax = 0.85` (§IV).
    pub fn paper_default() -> Self {
        Self {
            slope: 8.0,
            pr_max: 0.85,
        }
    }

    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics when `slope` is not in `[1, 10]` or `pr_max` not in `[0, 1]`
    /// (the domains stated in the paper).
    pub fn new(slope: f32, pr_max: f32) -> Self {
        assert!((1.0..=10.0).contains(&slope), "slope {slope} ∉ [1, 10]");
        assert!((0.0..=1.0).contains(&pr_max), "pr_max {pr_max} ∉ [0, 1]");
        Self { slope, pr_max }
    }

    /// Pressure at zero-fraction `θ`: `max(0, 1 − exp(m·(θ − prmax)))`.
    pub fn nu(&self, theta: f32) -> f32 {
        (1.0 - (self.slope * (theta - self.pr_max)).exp()).max(0.0)
    }
}

impl Default for PruneSchedule {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nu_is_monotonically_decreasing_in_theta() {
        let s = PruneSchedule::paper_default();
        let mut prev = f32::INFINITY;
        for i in 0..=20 {
            let theta = i as f32 / 20.0;
            let nu = s.nu(theta);
            assert!(nu <= prev + 1e-7, "not decreasing at θ={theta}");
            assert!((0.0..=1.0).contains(&nu));
            prev = nu;
        }
    }

    #[test]
    fn nu_zero_at_and_beyond_target() {
        let s = PruneSchedule::new(8.0, 0.5);
        assert_eq!(s.nu(0.5), 0.0);
        assert_eq!(s.nu(0.9), 0.0);
    }

    #[test]
    fn steeper_slope_holds_pressure_longer() {
        let shallow = PruneSchedule::new(2.0, 0.85);
        let steep = PruneSchedule::new(10.0, 0.85);
        // Mid-way to the target the steep schedule is still near 1.
        assert!(steep.nu(0.4) > shallow.nu(0.4));
    }

    #[test]
    #[should_panic(expected = "slope")]
    fn rejects_out_of_domain_slope() {
        PruneSchedule::new(0.5, 0.85);
    }

    #[test]
    #[should_panic(expected = "pr_max")]
    fn rejects_out_of_domain_target() {
        PruneSchedule::new(8.0, 1.5);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(PruneSchedule::default(), PruneSchedule::paper_default());
    }
}
