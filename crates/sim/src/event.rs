//! Events exchanged through the simulation calendar.

use crate::time::SimTime;
use std::fmt;

/// Opaque identifier assigned to every scheduled event.
///
/// Identifiers are unique within one [`crate::Scheduler`] and increase
/// monotonically in scheduling order, which also serves as the tie-breaker
/// for events scheduled at the same instant (FIFO among equals, the same
/// deterministic rule SystemC applies to its evaluate queue). The
/// scheduler's payload arena recycles *slots*, never identifiers: an
/// `EventId` observed once is never handed out again, so identifiers remain
/// safe to use as correlation keys across a whole simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// Raw numeric value of the identifier.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event #{}", self.0)
    }
}

/// A scheduled event carrying a user-defined payload.
///
/// The payload type `T` is chosen by the component that owns the scheduler;
/// the kernel itself never inspects it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// Unique identifier of this event.
    pub id: EventId,
    /// Simulated instant at which the event fires.
    pub at: SimTime,
    /// User payload.
    pub payload: T,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_id_display_and_order() {
        let a = EventId(1);
        let b = EventId(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "event #1");
        assert_eq!(b.as_u64(), 2);
    }
}
