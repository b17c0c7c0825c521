//! The slot-stepped dispatch simulator.
//!
//! Orders are batched per 30-minute slot (the standard batched-dispatch
//! approximation). Each slot the engine:
//!
//! 1. hands idle drivers to the dispatcher's `reposition` stage (POLAR's
//!    predictive stage 1) and moves them within the slot's travel budget;
//! 2. hands the slot's orders and the available drivers to `assign`
//!    (stage 2) and applies the returned matching: a served order parks the
//!    driver at the drop-off until pick-up travel + trip travel complete;
//! 3. drops unassigned orders (the paper's served-order metric counts them
//!    as lost).
//!
//! Demand predictions reach dispatchers only through a [`DemandView`]: the
//! per-HGrid field `λ̂_i/m` obtained by spreading the prediction model's
//! MGrid output — the exact quantity whose fidelity the grid size `n`
//! controls.

use crate::error::DispatchError;
use crate::metrics::DispatchOutcome;
use crate::model::{Driver, FleetConfig, Order};
use gridtuner_obs as obs;
use gridtuner_spatial::{
    CellId, CountMatrix, GeoBounds, GridSpec, Partition, Point, SlotClock, SlotId,
};
use rand::{rngs::StdRng, SeedableRng};

/// Per-HGrid predicted demand for one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandView {
    field: CountMatrix,
}

impl DemandView {
    /// Spreads an MGrid prediction uniformly over the partition's HGrids
    /// (`λ̂_ij = λ̂_i / m`). Panics on a lattice mismatch; see
    /// [`try_from_mgrid`](Self::try_from_mgrid) for the typed-error form.
    pub fn from_mgrid(pred_mgrid: &CountMatrix, partition: &Partition) -> Self {
        match Self::try_from_mgrid(pred_mgrid, partition) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`from_mgrid`](Self::from_mgrid): a prediction on the wrong
    /// lattice is a typed error instead of a panic.
    pub fn try_from_mgrid(
        pred_mgrid: &CountMatrix,
        partition: &Partition,
    ) -> Result<Self, DispatchError> {
        Ok(DemandView {
            field: pred_mgrid.to_hgrid(partition)?,
        })
    }

    /// Uses an HGrid-resolution field directly (e.g. ground-truth demand
    /// for the "real order data" baselines in Figs. 6–9).
    pub fn from_hgrid(field: CountMatrix) -> Self {
        DemandView { field }
    }

    /// The HGrid lattice.
    pub fn spec(&self) -> GridSpec {
        self.field.spec()
    }

    /// Predicted demand of the HGrid containing `p` (0 outside the map).
    pub fn demand_at(&self, p: &Point) -> f64 {
        self.spec()
            .cell_of(p)
            .map(|c| self.field.get(c))
            .unwrap_or(0.0)
    }

    /// Per-cell demand.
    pub fn cell_demand(&self, cell: CellId) -> f64 {
        self.field.get(cell)
    }

    /// Total predicted demand.
    pub fn total(&self) -> f64 {
        self.field.total()
    }

    /// The `k` highest-demand cells, descending.
    pub fn hotspots(&self, k: usize) -> Vec<(CellId, f64)> {
        let mut cells: Vec<(CellId, f64)> = self
            .spec()
            .cells()
            .map(|c| (c, self.field.get(c)))
            .collect();
        cells.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        cells.truncate(k);
        cells
    }

    /// Counts `drivers` into a supply field on this view's lattice.
    pub fn supply_field(&self, drivers: &[&Driver]) -> CountMatrix {
        let spec = self.spec();
        let mut supply = CountMatrix::zeros(spec.side());
        for d in drivers {
            if let Some(c) = spec.cell_of(&d.pos) {
                *supply.get_mut(c) += 1.0;
            }
        }
        supply
    }
}

/// What a dispatcher sees each slot.
pub struct SlotContext<'a> {
    /// The global slot.
    pub slot: SlotId,
    /// First minute of the slot.
    pub minute: u32,
    /// Predicted demand at HGrid resolution.
    pub demand: &'a DemandView,
    /// Geography (for km distances).
    pub geo: &'a GeoBounds,
    /// Fleet/motion parameters.
    pub fleet: &'a FleetConfig,
}

impl SlotContext<'_> {
    /// Travel minutes between two points.
    pub fn travel_minutes(&self, a: &Point, b: &Point) -> f64 {
        self.fleet.travel_minutes(self.geo, a, b)
    }
}

/// A batched dispatcher (POLAR, LS, or any custom policy).
pub trait Dispatcher {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Stage 1: optionally move idle drivers. Returns `(index into
    /// `idle`, target)` pairs; the engine caps the actual displacement by
    /// the slot's travel budget.
    fn reposition(&mut self, _ctx: &SlotContext, _idle: &[Driver]) -> Vec<(usize, Point)> {
        Vec::new()
    }

    /// Stage 2: match the slot's orders to the available drivers. Returns
    /// `(index into orders, index into drivers)` pairs; the engine rejects
    /// pairs whose pick-up travel exceeds the wait cap.
    fn assign(
        &mut self,
        ctx: &SlotContext,
        orders: &[Order],
        drivers: &[Driver],
    ) -> Vec<(usize, usize)>;
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Fleet and motion model.
    pub fleet: FleetConfig,
    /// Geography.
    pub geo: GeoBounds,
    /// Penalty (km-equivalents) per unserved order in the unified cost.
    pub unserved_penalty_km: f64,
}

impl SimConfig {
    /// Default simulator for a city's bounds.
    pub fn for_geo(geo: GeoBounds) -> Self {
        SimConfig {
            fleet: FleetConfig::default(),
            geo,
            unserved_penalty_km: 10.0,
        }
    }
}

/// The engine. One instance per run.
pub struct Simulator {
    cfg: SimConfig,
    clock: SlotClock,
}

impl Simulator {
    /// Creates a simulator with the default 30-minute clock.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
            cfg,
            clock: SlotClock::default(),
        }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs one day of orders through `dispatcher`. `demand_for_slot` is
    /// consulted once per slot (typically: predict with the trained model,
    /// spread via [`DemandView::from_mgrid`]).
    pub fn run(
        &self,
        orders: &[Order],
        dispatcher: &mut dyn Dispatcher,
        demand_for_slot: &mut dyn FnMut(SlotId) -> DemandView,
    ) -> DispatchOutcome {
        let _span = obs::span!(
            "simulate",
            dispatcher = dispatcher.name(),
            orders = orders.len(),
        );
        obs::counter!("dispatch.orders").add(orders.len() as u64);
        let mut rng = StdRng::seed_from_u64(self.cfg.fleet.seed);
        let mut fleet = self.cfg.fleet.spawn_fleet(&mut rng);
        let mut outcome = DispatchOutcome {
            total_orders: orders.len(),
            ..DispatchOutcome::default()
        };
        if orders.is_empty() {
            return outcome;
        }
        let mut sorted: Vec<&Order> = orders.iter().collect();
        sorted.sort_by_key(|o| o.minute);
        // Run from the start of the first order's day: predictive
        // repositioning needs the quiet early slots to pre-place drivers.
        let first_order_slot = self.clock.slot_of_minute(sorted[0].minute);
        let first_slot = self.clock.slot_at(self.clock.day_of(first_order_slot), 0).0;
        let last_minute = sorted.last().map_or(0, |o| o.minute); // non-empty: checked above
        let last_slot = self.clock.slot_of_minute(last_minute).0;
        let mut cursor = 0usize;
        let slot_budget_km = self.cfg.fleet.speed_km_per_min * self.clock.slot_minutes() as f64;
        for s in first_slot..=last_slot {
            let slot = SlotId(s);
            let minute = self.clock.minute_of_slot(slot);
            // Orders of this slot.
            let mut slot_orders: Vec<Order> = Vec::new();
            while cursor < sorted.len() && self.clock.slot_of_minute(sorted[cursor].minute) == slot
            {
                slot_orders.push(*sorted[cursor]);
                cursor += 1;
            }
            let _slot_span = obs::span!("simulate.slot", slot = s, orders = slot_orders.len());
            obs::counter!("dispatch.slots").inc();
            let demand = demand_for_slot(slot);
            let ctx = SlotContext {
                slot,
                minute,
                demand: &demand,
                geo: &self.cfg.geo,
                fleet: &self.cfg.fleet,
            };
            // Stage 1: reposition idle drivers (half the slot's budget, so
            // they remain available for stage 2).
            let idle: Vec<Driver> = fleet
                .iter()
                .filter(|d| d.free_at <= minute)
                .copied()
                .collect();
            for (idx, target) in dispatcher.reposition(&ctx, &idle) {
                let id = idle[idx].id;
                let d = &mut fleet[id];
                let dist = self.cfg.geo.manhattan_km(&d.pos, &target);
                let cap = slot_budget_km / 2.0;
                let f = if dist <= cap { 1.0 } else { cap / dist };
                d.pos = Point::new(
                    d.pos.x + (target.x - d.pos.x) * f,
                    d.pos.y + (target.y - d.pos.y) * f,
                );
                outcome.travel_km += dist.min(cap);
            }
            if slot_orders.is_empty() {
                continue;
            }
            // Stage 2: assignment.
            let avail: Vec<Driver> = fleet
                .iter()
                .filter(|d| d.free_at <= minute)
                .copied()
                .collect();
            if avail.is_empty() {
                continue;
            }
            let pairs = dispatcher.assign(&ctx, &slot_orders, &avail);
            let mut order_used = vec![false; slot_orders.len()];
            let mut driver_used = vec![false; avail.len()];
            for (oi, di) in pairs {
                assert!(oi < slot_orders.len() && di < avail.len(), "bad pair");
                if order_used[oi] || driver_used[di] {
                    continue; // dispatcher returned a conflict: first wins
                }
                let order = &slot_orders[oi];
                let driver_pos = avail[di].pos;
                let to_pickup = ctx.travel_minutes(&driver_pos, &order.pickup);
                if to_pickup > self.cfg.fleet.max_wait_min {
                    continue; // engine-enforced wait cap
                }
                order_used[oi] = true;
                driver_used[di] = true;
                let trip = ctx.travel_minutes(&order.pickup, &order.dropoff);
                let id = avail[di].id;
                let d = &mut fleet[id];
                d.pos = order.dropoff;
                d.free_at = minute + (to_pickup + trip).ceil() as u32;
                outcome.served += 1;
                outcome.revenue += order.revenue;
                outcome.travel_km += self.cfg.geo.manhattan_km(&driver_pos, &order.pickup)
                    + self.cfg.geo.manhattan_km(&order.pickup, &order.dropoff);
            }
        }
        outcome.unified_cost = outcome.travel_km
            + self.cfg.unserved_penalty_km * (outcome.total_orders - outcome.served) as f64;
        obs::counter!("dispatch.served").add(outcome.served as u64);
        obs::event!(
            "dispatch.outcome",
            dispatcher = dispatcher.name(),
            total_orders = outcome.total_orders,
            served = outcome.served,
            travel_km = outcome.travel_km,
            unified_cost = outcome.unified_cost,
        );
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{greedy_assignment, INFEASIBLE};

    /// Nearest-driver greedy baseline used by the engine tests.
    struct Nearest;

    impl Dispatcher for Nearest {
        fn name(&self) -> &'static str {
            "nearest"
        }

        fn assign(
            &mut self,
            ctx: &SlotContext,
            orders: &[Order],
            drivers: &[Driver],
        ) -> Vec<(usize, usize)> {
            let mut cost = vec![INFEASIBLE; orders.len() * drivers.len()];
            for (oi, o) in orders.iter().enumerate() {
                for (di, d) in drivers.iter().enumerate() {
                    let t = ctx.travel_minutes(&d.pos, &o.pickup);
                    if t <= ctx.fleet.max_wait_min {
                        cost[oi * drivers.len() + di] = t;
                    }
                }
            }
            greedy_assignment(&cost, orders.len(), drivers.len())
                .into_iter()
                .enumerate()
                .filter_map(|(oi, di)| di.map(|di| (oi, di)))
                .collect()
        }
    }

    fn flat_demand(side: u32) -> DemandView {
        DemandView::from_hgrid(CountMatrix::zeros(side))
    }

    fn order(id: usize, px: f64, py: f64, minute: u32, revenue: f64) -> Order {
        Order {
            id,
            pickup: Point::new(px, py),
            dropoff: Point::new((px + 0.05).min(0.99), py),
            minute,
            revenue,
        }
    }

    fn sim(n_drivers: usize) -> Simulator {
        Simulator::new(SimConfig {
            fleet: FleetConfig {
                n_drivers,
                max_wait_min: 60.0,
                ..FleetConfig::default()
            },
            geo: GeoBounds::xian(),
            unserved_penalty_km: 10.0,
        })
    }

    #[test]
    fn demand_view_spreads_mgrid_predictions() {
        let p = Partition::new(2, 2);
        let pred = CountMatrix::from_vec(2, vec![8.0, 0.0, 0.0, 4.0]).unwrap();
        let v = DemandView::from_mgrid(&pred, &p);
        assert_eq!(v.spec().side(), 4);
        assert!((v.demand_at(&Point::new(0.1, 0.1)) - 2.0).abs() < 1e-12);
        assert!((v.demand_at(&Point::new(0.9, 0.9)) - 1.0).abs() < 1e-12);
        assert_eq!(v.demand_at(&Point::new(0.9, 0.1)), 0.0);
        assert!((v.total() - 12.0).abs() < 1e-12);
        let hs = v.hotspots(4);
        assert_eq!(hs.len(), 4);
        assert!(hs[0].1 >= hs[3].1);
    }

    #[test]
    fn single_order_single_driver_is_served() {
        let s = sim(1);
        let orders = vec![order(0, 0.5, 0.5, 10, 6.0)];
        let out = s.run(&orders, &mut Nearest, &mut |_| flat_demand(4));
        assert_eq!(out.served, 1);
        assert_eq!(out.total_orders, 1);
        assert!((out.revenue - 6.0).abs() < 1e-12);
        assert!(out.travel_km > 0.0);
        assert!((out.unified_cost - out.travel_km).abs() < 1e-9);
    }

    #[test]
    fn busy_driver_cannot_serve_two_slots_in_a_row() {
        // One driver, two orders in consecutive slots far apart: the trip
        // takes longer than a slot, so the second order is lost.
        let s = Simulator::new(SimConfig {
            fleet: FleetConfig {
                n_drivers: 1,
                speed_km_per_min: 0.1, // slow: trips outlast slots
                max_wait_min: 300.0,
                ..FleetConfig::default()
            },
            geo: GeoBounds::xian(),
            unserved_penalty_km: 5.0,
        });
        let orders = vec![
            Order {
                id: 0,
                pickup: Point::new(0.1, 0.1),
                dropoff: Point::new(0.9, 0.9),
                minute: 0,
                revenue: 10.0,
            },
            order(1, 0.2, 0.2, 35, 8.0),
        ];
        let out = s.run(&orders, &mut Nearest, &mut |_| flat_demand(4));
        assert_eq!(out.served, 1);
        assert!((out.unified_cost - (out.travel_km + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn wait_cap_is_enforced_by_the_engine() {
        // Driver too far to reach in time: order lost even if the
        // dispatcher proposes the pair.
        struct Always;
        impl Dispatcher for Always {
            fn name(&self) -> &'static str {
                "always"
            }
            fn assign(
                &mut self,
                _ctx: &SlotContext,
                orders: &[Order],
                _drivers: &[Driver],
            ) -> Vec<(usize, usize)> {
                (0..orders.len()).map(|i| (i, 0)).collect()
            }
        }
        let s = Simulator::new(SimConfig {
            fleet: FleetConfig {
                n_drivers: 1,
                speed_km_per_min: 0.05,
                max_wait_min: 1.0,
                seed: 1,
            },
            geo: GeoBounds::nyc(),
            unserved_penalty_km: 10.0,
        });
        let orders = vec![order(0, 0.95, 0.95, 10, 5.0)];
        let out = s.run(&orders, &mut Always, &mut |_| flat_demand(4));
        assert_eq!(out.served, 0);
    }

    #[test]
    fn more_drivers_serve_more_orders() {
        let orders: Vec<Order> = (0..60)
            .map(|i| {
                order(
                    i,
                    0.05 + (i as f64 * 0.611) % 0.9,
                    0.05 + (i as f64 * 0.377) % 0.9,
                    (i as u32 % 4) * 30,
                    5.0,
                )
            })
            .collect();
        let few = sim(3).run(&orders, &mut Nearest, &mut |_| flat_demand(4));
        let many = sim(50).run(&orders, &mut Nearest, &mut |_| flat_demand(4));
        assert!(
            many.served > few.served,
            "{} vs {}",
            many.served,
            few.served
        );
        assert!(many.unified_cost < few.unified_cost);
    }

    #[test]
    fn conflicting_pairs_first_wins() {
        struct Conflict;
        impl Dispatcher for Conflict {
            fn name(&self) -> &'static str {
                "conflict"
            }
            fn assign(
                &mut self,
                _ctx: &SlotContext,
                _orders: &[Order],
                _drivers: &[Driver],
            ) -> Vec<(usize, usize)> {
                vec![(0, 0), (1, 0)] // same driver twice
            }
        }
        let s = sim(1);
        let orders = vec![order(0, 0.5, 0.5, 0, 5.0), order(1, 0.5, 0.6, 0, 5.0)];
        let out = s.run(&orders, &mut Conflict, &mut |_| flat_demand(4));
        assert_eq!(out.served, 1);
    }

    #[test]
    fn empty_order_list_is_fine() {
        let s = sim(5);
        let out = s.run(&[], &mut Nearest, &mut |_| flat_demand(4));
        assert_eq!(out.served, 0);
        assert_eq!(out.total_orders, 0);
    }
}
