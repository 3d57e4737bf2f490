//! Utilization tracking, the building block of the per-component
//! utilization breakdown the virtual platform reports.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::time::SimTime;

/// Tracks how much of the simulated horizon a component spent busy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utilization {
    busy: SimTime,
}

impl Utilization {
    /// Creates a tracker with no busy time.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Adds a busy interval.
    pub fn add_busy(&mut self, duration: SimTime) {
        self.busy += duration;
    }

    /// Accumulated busy time.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Busy fraction of `horizon` (clamped to 1.0 for multi-server owners).
    pub fn ratio(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        self.busy.as_ps() as f64 / horizon.as_ps() as f64
    }

    /// Encodes the accumulated busy time (the tracker's only state).
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_time(self.busy);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        self.busy = dec.get_time()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_ratio() {
        let mut u = Utilization::new();
        u.add_busy(SimTime::from_ms(1));
        assert!((u.ratio(SimTime::from_ms(4)) - 0.25).abs() < 1e-12);
        assert_eq!(u.ratio(SimTime::ZERO), 0.0);
    }
}
