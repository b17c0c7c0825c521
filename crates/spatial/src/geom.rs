//! Points, bounding boxes and geographic coordinate mapping.
//!
//! All grid logic in the workspace operates on the **unit square**
//! `[0,1) × [0,1)`. A [`GeoBounds`] describes the real-world rectangle a
//! dataset covers (e.g. NYC: `-74.03°..-73.77°` × `40.58°..40.92°`,
//! ≈ 23 km × 37 km) and converts between lon/lat and unit coordinates, so
//! distances can be reported in kilometres while partitioning stays
//! resolution-independent.

/// A point in the normalized unit square (or, for intermediate geometry,
/// any point in the plane).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude direction).
    pub x: f64,
    /// Vertical coordinate (latitude direction).
    pub y: f64,
}

impl Point {
    /// Creates a new point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Returns true when the point lies inside the half-open unit square.
    pub fn in_unit_square(&self) -> bool {
        (0.0..1.0).contains(&self.x) && (0.0..1.0).contains(&self.y)
    }

    /// Clamps the point into the half-open unit square. Useful when numeric
    /// noise pushes a sampled point onto the `1.0` boundary.
    pub fn clamp_unit(&self) -> Point {
        // `f64::EPSILON` is too small to move 1.0 below itself reliably after
        // further arithmetic, so clamp to the largest representable value < 1.
        const MAX: f64 = 1.0 - 1e-12;
        Point {
            x: self.x.clamp(0.0, MAX),
            y: self.y.clamp(0.0, MAX),
        }
    }

    /// Euclidean distance to `other` in unit-square coordinates.
    pub fn dist(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// An axis-aligned rectangle in unit-square coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Minimum corner (inclusive).
    pub min: Point,
    /// Maximum corner (exclusive).
    pub max: Point,
}

impl BBox {
    /// Creates a bounding box from two corners; the arguments may be given
    /// in any order.
    pub fn new(a: Point, b: Point) -> Self {
        BBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The unit square itself.
    pub fn unit() -> Self {
        BBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(1.0, 1.0),
        }
    }

    /// Width of the box.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the box.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of the box.
    pub fn center(&self) -> Point {
        Point::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
        )
    }

    /// Half-open containment test (`min` inclusive, `max` exclusive), which
    /// matches how grid cells tile space without double-counting edges.
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x < self.max.x && p.y >= self.min.y && p.y < self.max.y
    }
}

/// The geographic rectangle a dataset covers, with conversion to/from the
/// unit square and kilometre-scale distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoBounds {
    /// Western edge, degrees.
    pub lon_min: f64,
    /// Eastern edge, degrees.
    pub lon_max: f64,
    /// Southern edge, degrees.
    pub lat_min: f64,
    /// Northern edge, degrees.
    pub lat_max: f64,
}

/// Kilometres per degree of latitude (WGS-84 mean).
const KM_PER_DEG_LAT: f64 = 111.32;

impl GeoBounds {
    /// Creates geographic bounds. Panics if the rectangle is degenerate.
    pub fn new(lon_min: f64, lon_max: f64, lat_min: f64, lat_max: f64) -> Self {
        assert!(lon_max > lon_min, "empty longitude range");
        assert!(lat_max > lat_min, "empty latitude range");
        GeoBounds {
            lon_min,
            lon_max,
            lat_min,
            lat_max,
        }
    }

    /// NYC bounds from the paper: `-74.03..-73.77` × `40.58..40.92`
    /// (≈ 23 km × 37 km).
    pub fn nyc() -> Self {
        GeoBounds::new(-74.03, -73.77, 40.58, 40.92)
    }

    /// Chengdu bounds from the paper: `103.93..104.19` × `30.50..30.84`
    /// (≈ 23 km × 37 km).
    pub fn chengdu() -> Self {
        GeoBounds::new(103.93, 104.19, 30.50, 30.84)
    }

    /// Xi'an bounds from the paper: `108.91..109.00` × `34.20..34.28`
    /// (≈ 8.5 km × 8.6 km).
    pub fn xian() -> Self {
        GeoBounds::new(108.91, 109.00, 34.20, 34.28)
    }

    /// Width of the covered area in kilometres (measured at the mid
    /// latitude, which is accurate to well under 1% at city scale).
    pub fn width_km(&self) -> f64 {
        let mid_lat = 0.5 * (self.lat_min + self.lat_max);
        (self.lon_max - self.lon_min) * KM_PER_DEG_LAT * mid_lat.to_radians().cos()
    }

    /// Height of the covered area in kilometres.
    pub fn height_km(&self) -> f64 {
        (self.lat_max - self.lat_min) * KM_PER_DEG_LAT
    }

    /// Maps a lon/lat pair into the unit square. Points outside the bounds
    /// map outside `[0,1)`; callers decide whether to drop or clamp them.
    pub fn to_unit(&self, lon: f64, lat: f64) -> Point {
        Point::new(
            (lon - self.lon_min) / (self.lon_max - self.lon_min),
            (lat - self.lat_min) / (self.lat_max - self.lat_min),
        )
    }

    /// Maps a unit-square point back to lon/lat.
    pub fn to_geo(&self, p: &Point) -> (f64, f64) {
        (
            self.lon_min + p.x * (self.lon_max - self.lon_min),
            self.lat_min + p.y * (self.lat_max - self.lat_min),
        )
    }

    /// Approximate ground distance in kilometres between two unit-square
    /// points under these bounds (equirectangular, exact enough at city
    /// scale where the paper's trip lengths live).
    pub fn dist_km(&self, a: &Point, b: &Point) -> f64 {
        let dx = (a.x - b.x) * self.width_km();
        let dy = (a.y - b.y) * self.height_km();
        (dx * dx + dy * dy).sqrt()
    }

    /// Manhattan ground distance in kilometres; the dispatch travel model.
    pub fn manhattan_km(&self, a: &Point, b: &Point) -> f64 {
        (a.x - b.x).abs() * self.width_km() + (a.y - b.y).abs() * self.height_km()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.3, 0.4);
        assert!((a.dist(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn point_unit_square_membership() {
        assert!(Point::new(0.0, 0.0).in_unit_square());
        assert!(Point::new(0.999, 0.999).in_unit_square());
        assert!(!Point::new(1.0, 0.5).in_unit_square());
        assert!(!Point::new(0.5, -0.001).in_unit_square());
    }

    #[test]
    fn clamp_unit_brings_boundary_points_inside() {
        let p = Point::new(1.0, -0.5).clamp_unit();
        assert!(p.in_unit_square());
        assert!(p.x < 1.0 && p.y == 0.0);
    }

    #[test]
    fn bbox_orders_corners() {
        let b = BBox::new(Point::new(0.8, 0.1), Point::new(0.2, 0.9));
        assert_eq!(b.min, Point::new(0.2, 0.1));
        assert_eq!(b.max, Point::new(0.8, 0.9));
        assert!((b.area() - 0.48).abs() < 1e-12);
    }

    #[test]
    fn bbox_containment_is_half_open() {
        let b = BBox::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5));
        assert!(b.contains(&Point::new(0.0, 0.0)));
        assert!(!b.contains(&Point::new(0.5, 0.25)));
        assert!(!b.contains(&Point::new(0.25, 0.5)));
    }

    #[test]
    fn bbox_center() {
        let b = BBox::new(Point::new(0.2, 0.4), Point::new(0.4, 0.8));
        let c = b.center();
        assert!((c.x - 0.3).abs() < 1e-12);
        assert!((c.y - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nyc_bounds_match_paper_scale() {
        let g = GeoBounds::nyc();
        // Paper: "The size of the whole space is 23km × 37km".
        assert!((g.width_km() - 23.0).abs() < 2.0, "width {}", g.width_km());
        assert!(
            (g.height_km() - 37.0).abs() < 2.0,
            "height {}",
            g.height_km()
        );
    }

    #[test]
    fn xian_bounds_match_paper_scale() {
        let g = GeoBounds::xian();
        // Paper: "The size of Xi'an is 8.5km × 8.6km".
        assert!((g.width_km() - 8.5).abs() < 1.0);
        assert!((g.height_km() - 8.6).abs() < 1.0);
    }

    #[test]
    fn geo_unit_roundtrip() {
        let g = GeoBounds::chengdu();
        let p = g.to_unit(104.0, 30.7);
        let (lon, lat) = g.to_geo(&p);
        assert!((lon - 104.0).abs() < 1e-9);
        assert!((lat - 30.7).abs() < 1e-9);
        assert!(p.in_unit_square());
    }

    #[test]
    fn geo_distance_is_anisotropic_in_unit_space() {
        // NYC is taller (37 km) than wide (23 km): the same unit-space step
        // must be longer in km along y than along x.
        let g = GeoBounds::nyc();
        let o = Point::new(0.5, 0.5);
        let dx = g.dist_km(&o, &Point::new(0.6, 0.5));
        let dy = g.dist_km(&o, &Point::new(0.5, 0.6));
        assert!(dy > dx);
    }

    #[test]
    fn manhattan_km_dominates_euclid_km() {
        let g = GeoBounds::nyc();
        let a = Point::new(0.1, 0.2);
        let b = Point::new(0.7, 0.9);
        assert!(g.manhattan_km(&a, &b) >= g.dist_km(&a, &b));
    }
}
