//! The simulation clock: milliseconds since the simulation epoch.

/// Simulation time in milliseconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms)
    }

    /// Milliseconds since epoch.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// This time advanced by `ms` milliseconds (saturating).
    pub fn plus_millis(self, ms: u64) -> SimTime {
        SimTime(self.0.saturating_add(ms))
    }

    /// Duration since an earlier time (saturating at zero).
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::from_secs(2);
        assert_eq!(t.as_millis(), 2000);
        assert_eq!(t.plus_millis(500).as_secs_f64(), 2.5);
        assert_eq!(t.since(SimTime::from_millis(1500)), 500);
        assert_eq!(SimTime::from_millis(1).since(t), 0);
        assert_eq!(format!("{t}"), "2.000s");
    }
}
