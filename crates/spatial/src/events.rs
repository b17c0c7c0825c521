//! Spatial events and trip records.
//!
//! An [`Event`] is the paper's atomic unit: something that happens at a
//! point in space at a minute in time (a ride request, a crime, ...). A
//! [`TripRecord`] is the taxi-dataset refinement used by the dispatch case
//! study: it adds a drop-off location and the driver's revenue.

use crate::geom::Point;
use crate::time::{SlotClock, SlotId};

/// A point event: location in the unit square plus absolute minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Location in unit-square coordinates.
    pub loc: Point,
    /// Absolute minute since the start of the dataset.
    pub minute: u32,
}

impl Event {
    /// Creates an event.
    pub fn new(loc: Point, minute: u32) -> Self {
        Event { loc, minute }
    }

    /// The global slot this event falls in.
    pub fn slot(&self, clock: &SlotClock) -> SlotId {
        clock.slot_of_minute(self.minute)
    }
}

/// One taxi trip: the dispatch case study's order type. Mirrors the fields
/// the paper lists for the TLC/GAIA records: "pick-up and drop-up locations,
/// the pick-up timestamp, and the driver's profit".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripRecord {
    /// Pick-up location (unit square).
    pub pickup: Point,
    /// Drop-off location (unit square).
    pub dropoff: Point,
    /// Request minute (absolute).
    pub minute: u32,
    /// Driver revenue for serving the trip.
    pub revenue: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_slot_uses_clock() {
        let clock = SlotClock::default();
        let e = Event::new(Point::new(0.5, 0.5), 61);
        assert_eq!(e.slot(&clock), SlotId(2));
    }
}
