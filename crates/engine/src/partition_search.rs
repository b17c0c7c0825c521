//! The partition-refinement search: Theorem II.1's bound minimised over
//! non-square partitions.
//!
//! The 1-D searches ([`TuningSession::tune`]) walk the square family
//! `n = s²`. This stage widens the family while keeping the bound exact:
//! every candidate is a [`SpatialPartition`] (HGrid-aligned, so the α
//! field and the batched kernel are reused unchanged), its expression leg
//! is the per-region kernel sweep, and its model leg is interpolated from
//! the square-side model curve at the candidate's region count.
//!
//! Three searches, selected by [`PartitionKind`]:
//!
//! * **uniform** — no refinement: the 1-D winner re-evaluated through the
//!   same square-partition sweep the 1-D tune ran, so bit-identical to it;
//! * **rect** — a deterministic hill-climb over `(nx, ny)` region counts,
//!   seeded at the 1-D winner `(s*, s*)`, stepping one count at a time
//!   within the configured side range;
//! * **quadtree** — exact refinement by a tree DP, under a **region cap**
//!   equal to the 1-D winner's `n`, so the final quadtree never uses more
//!   regions than the uniform optimum it is compared against.
//!
//! # The quadtree DP
//!
//! The bound of a quadtree is a sum of per-leaf expression errors `E(leaf)`
//! plus a model leg `M(R)` that depends only on the leaf count `R`. So the
//! best tree for every `R` solves exactly as a tree knapsack: evaluate
//! `E(node)` once for every node of the complete quadtree over the
//! `budget.next_power_of_two()` lattice, set `f(node, 0) = E(node)` (the
//! node is a leaf), and let `f(node, j ≥ 1)` be the min-plus convolution
//! of the four children's tables at `j − 1` (the node splits). Tables are
//! indexed by `j = (R − 1)/3`, since quadtree leaf counts are ≡ 1 (mod 3),
//! and stop at the cap. The search returns the argmin of
//! `f(root, j) + M(3j + 1)` over the **reachable** counts: a uniform-depth
//! count `4^d` within the cap (the seeds, whose model legs it evaluates),
//! or a count whose bracketing sides `⌊√R⌋` and `⌊√R⌋ + 1` (just `⌊√R⌋`
//! for a square) are already in the session's model memo — so no model
//! is ever trained for the refinement beyond the seeds.
//!
//! The DP adds node errors in its own order, so the chosen tree's legs are
//! then reported through the canonical
//! [`partition_expression_error`](gridtuner_core::AlphaFieldCache::partition_expression_error)
//! fold, and the search keeps the best of that tree and the uniform-depth
//! seeds under the same fold: association noise can never lift the
//! reported bound above a reachable seed's.
//!
//! Every choice is deterministically tie-broken: fewer regions win exact
//! ties, a convolution keeps the first minimum in ascending split count
//! of its left operand, and the rect climb keeps the first candidate in
//! its fixed neighbour order. Every value is computed per node, per region
//! or per block in a fixed order, so the search is reproducible across
//! worker counts like everything else in the engine.

use crate::error::EngineError;
use crate::session::{TuneReport, TuningSession};
use gridtuner_core::expression::quadtree_node_index;
use gridtuner_core::upper_bound::ModelErrorSource;
use gridtuner_obs as obs;
use gridtuner_spatial::{QuadLeaf, QuadTreePartition, RectGrid, SpatialPartition};
use std::collections::HashMap;

/// Which partition family [`TuningSession::tune_partition`] searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// The paper's square layout (no refinement on top of the 1-D search).
    Uniform,
    /// Independent x/y region counts, hill-climbed from the 1-D winner.
    Rect,
    /// Quadtree leaves, chosen exactly by a tree DP under a region cap.
    QuadTree,
}

impl PartitionKind {
    /// Parses the CLI spelling (`uniform` | `rect` | `quadtree`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(PartitionKind::Uniform),
            "rect" => Some(PartitionKind::Rect),
            "quadtree" => Some(PartitionKind::QuadTree),
            _ => None,
        }
    }

    /// Short stable label (reports, goldens, span attributes).
    pub fn name(self) -> &'static str {
        match self {
            PartitionKind::Uniform => "uniform",
            PartitionKind::Rect => "rect",
            PartitionKind::QuadTree => "quadtree",
        }
    }
}

impl std::fmt::Display for PartitionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The geometry the search settled on.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionLayout {
    /// Square `side × side` MGrids.
    Uniform {
        /// MGrid side `s` (regions `= s²`).
        side: u32,
    },
    /// `nx × ny` rectangular region blocks.
    Rect {
        /// Region columns.
        nx: u32,
        /// Region rows.
        ny: u32,
    },
    /// The refined quadtree itself (leaf layout carries the geometry).
    QuadTree(QuadTreePartition),
}

/// Outcome of a partition search: the refined partition's bound
/// decomposition next to the 1-D uniform baseline it started from.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Which family was searched.
    pub kind: PartitionKind,
    /// The winning geometry.
    pub layout: PartitionLayout,
    /// Regions in the winning partition.
    pub n_regions: usize,
    /// Expression-error leg of the winning bound.
    pub expression_error: f64,
    /// Model-error leg (interpolated at `n_regions` for non-square counts).
    pub model_error: f64,
    /// The Theorem II.1 upper bound (`expression_error + model_error`).
    pub bound: f64,
    /// Internal nodes of the winning quadtree, `(n_regions − 1)/3` (0 for
    /// uniform/rect).
    pub splits: usize,
    /// Always 0: the quadtree DP never merges. Kept for report readers.
    pub merges: usize,
    /// Candidate partitions whose bound went through the canonical
    /// expression fold.
    pub evals: usize,
    /// The region budget the search ran under (the 1-D winner's `n`).
    pub region_cap: usize,
    /// The full 1-D uniform tune this search started from — the
    /// comparison baseline, bit-identical to a plain
    /// [`tune`](TuningSession::tune).
    pub uniform: TuneReport,
}

impl PartitionReport {
    /// The uniform baseline's bound (`e(s*)` of the 1-D search).
    pub fn uniform_bound(&self) -> f64 {
        self.uniform.outcome.error
    }

    /// The uniform baseline's region count `n = s*²`.
    pub fn uniform_regions(&self) -> usize {
        self.uniform.partition.n()
    }

    /// The acceptance predicate of the refinement: bound no worse than the
    /// best uniform `n`, at equal or fewer regions.
    pub fn improves_on_uniform(&self) -> bool {
        self.bound <= self.uniform_bound() && self.n_regions <= self.uniform_regions()
    }
}

/// Integer square root (floor), exact for any region count.
fn isqrt(n: usize) -> u32 {
    let n = n as u64;
    let mut s = (n as f64).sqrt() as u64;
    while (s + 1).saturating_mul(s + 1) <= n {
        s += 1;
    }
    while s.saturating_mul(s) > n {
        s -= 1;
    }
    s as u32
}

/// Hill-climb steps before the rect search gives up.
const MAX_REFINE_ITERS: usize = 64;

impl<S: ModelErrorSource> TuningSession<S> {
    /// The `PartitionSearch` stage: runs the configured 1-D tune (the
    /// baseline — bit-identical to [`tune`](Self::tune)), then refines
    /// within the requested partition family. See the module docs for the
    /// three searches.
    pub fn tune_partition(&mut self, kind: PartitionKind) -> Result<PartitionReport, EngineError> {
        let uniform = self.tune()?;
        let _span = obs::span!("partition_search", side = uniform.outcome.side);
        let report = match kind {
            PartitionKind::Uniform => self.uniform_report(uniform)?,
            PartitionKind::Rect => self.rect_search(uniform)?,
            PartitionKind::QuadTree => self.quadtree_search(uniform)?,
        };
        Ok(report)
    }

    /// Model leg at an arbitrary region count: the session's per-side memo
    /// bracketed by the two nearest squares `s₁² ≤ R ≤ (s₁+1)²` and
    /// interpolated linearly in `n` — exact for model curves linear in n
    /// (the analytic sources the goldens use), a monotone estimate
    /// otherwise.
    fn region_model_error(&mut self, n_regions: usize) -> Result<f64, EngineError> {
        let s1 = isqrt(n_regions.max(1)).max(1);
        let n1 = (s1 as usize).pow(2);
        if n1 == n_regions.max(1) {
            return self.model_error(s1);
        }
        let s2 = s1 + 1;
        let n2 = (s2 as usize).pow(2);
        let lo = self.model_error(s1)?;
        let hi = self.model_error(s2)?;
        let t = (n_regions - n1) as f64 / (n2 - n1) as f64;
        Ok(lo + t * (hi - lo))
    }

    /// Both legs of the bound for one candidate partition.
    fn partition_legs<P: SpatialPartition + Sync>(
        &mut self,
        partition: &P,
    ) -> Result<(f64, f64), EngineError> {
        let expr = self.cache_handle()?.partition_expression_error(partition)?;
        let model = self.region_model_error(partition.n_regions())?;
        Ok((expr, model))
    }

    fn uniform_report(&mut self, uniform: TuneReport) -> Result<PartitionReport, EngineError> {
        let side = uniform.outcome.side;
        let (expr, model) = self.partition_legs(&uniform.partition)?;
        let n_regions = uniform.partition.n_regions();
        Ok(PartitionReport {
            kind: PartitionKind::Uniform,
            layout: PartitionLayout::Uniform { side },
            n_regions,
            expression_error: expr,
            model_error: model,
            bound: expr + model,
            splits: 0,
            merges: 0,
            evals: 1,
            region_cap: n_regions,
            uniform,
        })
    }

    /// Deterministic hill-climb over `(nx, ny)` from the 1-D winner:
    /// evaluate the four single-count neighbours each round, move to the
    /// strictly best one, stop at a local minimum. Evaluated pairs are
    /// memoised so re-visits are free.
    fn rect_search(&mut self, uniform: TuneReport) -> Result<PartitionReport, EngineError> {
        let budget = self.config().hgrid_budget_side;
        let (lo, hi) = self.config().side_range;
        let start = uniform.outcome.side.clamp(lo, hi);
        let mut memo: HashMap<(u32, u32), (f64, f64)> = HashMap::new();
        let mut evals = 0usize;
        let seed = self.partition_legs(&RectGrid::for_budget(start, start, budget))?;
        memo.insert((start, start), seed);
        evals += 1;
        let mut best = (start, start);
        let mut best_legs = seed;
        for _ in 0..MAX_REFINE_ITERS {
            let (nx, ny) = best;
            let neighbours = [
                (nx.wrapping_sub(1), ny),
                (nx + 1, ny),
                (nx, ny.wrapping_sub(1)),
                (nx, ny + 1),
            ];
            let mut choice = best;
            let mut choice_legs = best_legs;
            for &(cx, cy) in &neighbours {
                if cx < lo || cx > hi || cy < lo || cy > hi {
                    continue;
                }
                let legs = match memo.get(&(cx, cy)) {
                    Some(&l) => l,
                    None => {
                        let l = self.partition_legs(&RectGrid::for_budget(cx, cy, budget))?;
                        memo.insert((cx, cy), l);
                        evals += 1;
                        l
                    }
                };
                // Strict `<`: ties keep the earlier candidate in the fixed
                // neighbour order — deterministic.
                if legs.0 + legs.1 < choice_legs.0 + choice_legs.1 {
                    choice = (cx, cy);
                    choice_legs = legs;
                }
            }
            if choice == best {
                break;
            }
            best = choice;
            best_legs = choice_legs;
        }
        let grid = RectGrid::for_budget(best.0, best.1, budget);
        Ok(PartitionReport {
            kind: PartitionKind::Rect,
            layout: PartitionLayout::Rect {
                nx: best.0,
                ny: best.1,
            },
            n_regions: grid.n_regions(),
            expression_error: best_legs.0,
            model_error: best_legs.1,
            bound: best_legs.0 + best_legs.1,
            splits: 0,
            merges: 0,
            evals,
            region_cap: (hi as usize).pow(2),
            uniform,
        })
    }

    /// Exact quadtree refinement under the uniform winner's region cap:
    /// the tree DP of the module docs over every reachable region count,
    /// then the canonical fold of the DP's tree and of every uniform-depth
    /// seed, keeping the best.
    fn quadtree_search(&mut self, uniform: TuneReport) -> Result<PartitionReport, EngineError> {
        let budget = self.config().hgrid_budget_side;
        let lattice = budget.next_power_of_two();
        let cap = uniform.partition.n().max(1);
        // Uniform-depth seeds whose region count fits the cap. Their model
        // legs are the only ones this search may evaluate afresh.
        let seeds: Vec<QuadTreePartition> = (0u32..)
            .map_while(|depth| {
                let fits = 4usize.checked_pow(depth).is_some_and(|r| r <= cap);
                fits.then(|| QuadTreePartition::uniform_depth(budget, depth))
                    .flatten()
            })
            .collect();
        // Model legs by split count j (R = 3j + 1 regions), up to the cap
        // or the lattice's cell count, whichever is smaller.
        let max_splits = (cap - 1).min((lattice as usize).pow(2) - 1) / 3;
        let mut model_at: Vec<Option<f64>> = vec![None; max_splits + 1];
        for seed in &seeds {
            let r = seed.n_regions();
            model_at[(r - 1) / 3] = Some(self.region_model_error(r)?);
        }
        // Every other count is reachable only if the bracketing squares'
        // model errors are already memoised: no new model evaluation.
        for (j, slot) in model_at.iter_mut().enumerate() {
            let r = 3 * j + 1;
            let s1 = isqrt(r);
            let memoised =
                self.has_model_error(s1) && (s1 * s1 == r as u32 || self.has_model_error(s1 + 1));
            if slot.is_none() && memoised {
                *slot = Some(self.region_model_error(r)?);
            }
        }
        let nodes = self.cache_handle()?.quadtree_node_errors(lattice)?;
        let dp = TreeDp::solve(&nodes, lattice.trailing_zeros(), max_splits);
        let mut best_j = 0;
        let mut best_score = f64::INFINITY;
        for (j, (&f, m)) in dp.root().iter().zip(&model_at).enumerate() {
            // Strict `<` in ascending region count: ties keep fewer regions.
            if let Some(m) = m.filter(|m| f + m < best_score) {
                best_j = j;
                best_score = f + m;
            }
        }
        let tree = QuadTreePartition::from_leaves(budget, dp.leaves(best_j)).ok_or_else(|| {
            EngineError::Internal("quadtree DP produced leaves that do not tile".into())
        })?;
        // Report through the canonical fold, and never above a seed under
        // that same fold: ties keep fewer regions, then the DP's tree.
        let mut evals = 0usize;
        let mut best: Option<(QuadTreePartition, (f64, f64))> = None;
        for cand in std::iter::once(tree).chain(seeds) {
            if best.as_ref().is_some_and(|(q, _)| *q == cand) {
                continue;
            }
            let legs = self.partition_legs(&cand)?;
            evals += 1;
            let better = best.as_ref().is_none_or(|(q, b)| {
                let (bound, best_bound) = (legs.0 + legs.1, b.0 + b.1);
                bound < best_bound || (bound == best_bound && cand.n_regions() < q.n_regions())
            });
            if better {
                best = Some((cand, legs));
            }
        }
        let (best_q, best_legs) = best
            .ok_or_else(|| EngineError::Internal("quadtree search produced no candidate".into()))?;
        let n_regions = best_q.n_regions();
        Ok(PartitionReport {
            kind: PartitionKind::QuadTree,
            layout: PartitionLayout::QuadTree(best_q),
            n_regions,
            expression_error: best_legs.0,
            model_error: best_legs.1,
            bound: best_legs.0 + best_legs.1,
            splits: (n_regions - 1) / 3,
            merges: 0,
            evals,
            region_cap: cap,
            uniform,
        })
    }
}

/// The min-plus tree DP over the complete quadtree of a `2^D`-side
/// lattice. `f(node, j)` is the least sum of leaf errors over the subtrees
/// of `node` with `3j + 1` leaves (quadtree leaf counts are ≡ 1 mod 3):
/// `f(node, 0) = E(node)`, and for `j ≥ 1` the node splits and its four
/// children share the `j − 1` remaining splits — a min-plus convolution
/// of their tables, folded left to right in quadrant order (TL, TR, BL,
/// BR). Tables stop at the split cap.
struct TreeDp {
    max_depth: u32,
    /// Per depth: entries per node table (`j = 0..len`).
    lens: Vec<usize>,
    /// Per depth: the node tables, node-major, nodes row-major.
    tables: Vec<Vec<f64>>,
    /// Per depth and node, for each partial split total `t < len − 1`: the
    /// splits the TR, BL and BR children get in the argmin of the first,
    /// second and third convolution at `t`.
    args: Vec<Vec<[u32; 3]>>,
}

impl TreeDp {
    /// Solves every node bottom-up. `nodes` is the level-major layout of
    /// [`AlphaFieldCache::quadtree_node_errors`], `max_splits` the split
    /// cap `(cap − 1)/3`.
    ///
    /// [`AlphaFieldCache::quadtree_node_errors`]: gridtuner_core::AlphaFieldCache::quadtree_node_errors
    fn solve(nodes: &[f64], max_depth: u32, max_splits: usize) -> TreeDp {
        let levels = max_depth as usize + 1;
        // A subtree of height h holds at most (4^h − 1)/3 splits.
        let lens: Vec<usize> = (0..=max_depth)
            .map(|d| ((4usize.pow(max_depth - d) - 1) / 3).min(max_splits) + 1)
            .collect();
        let mut tables = vec![Vec::new(); levels];
        let mut args = vec![Vec::new(); levels];
        tables[max_depth as usize] = nodes[quadtree_node_index(max_depth, 0, 0)..].to_vec();
        let (mut acc, mut next) = (Vec::new(), Vec::new());
        for d in (0..max_depth).rev() {
            let (len, child_len, per_side) = (lens[d as usize], lens[d as usize + 1], 1usize << d);
            let children = &tables[d as usize + 1];
            let child = |r: usize, c: usize| {
                let i = r * 2 * per_side + c;
                &children[i * child_len..(i + 1) * child_len]
            };
            let mut table = Vec::with_capacity(per_side * per_side * len);
            let mut arg = vec![[0u32; 3]; per_side * per_side * (len - 1)];
            for i in 0..per_side * per_side {
                let (r, c) = (2 * (i / per_side), 2 * (i % per_side));
                table.push(nodes[quadtree_node_index(d, r / 2, c / 2)]);
                let node_args = &mut arg[i * (len - 1)..(i + 1) * (len - 1)];
                acc.clear();
                acc.extend_from_slice(child(r, c));
                acc.truncate(len - 1);
                let rest = [child(r, c + 1), child(r + 1, c), child(r + 1, c + 1)];
                for (stage, b) in rest.into_iter().enumerate() {
                    min_plus(&acc, b, &mut next, node_args, stage);
                    std::mem::swap(&mut acc, &mut next);
                }
                table.extend_from_slice(&acc);
            }
            tables[d as usize] = table;
            args[d as usize] = arg;
        }
        TreeDp {
            max_depth,
            lens,
            tables,
            args,
        }
    }

    /// `f(root, j)` for every `j` up to the split cap.
    fn root(&self) -> &[f64] {
        &self.tables[0]
    }

    /// The leaves of the argmin tree with `j` splits, walking the stored
    /// convolution argmins down from the root.
    fn leaves(&self, j: usize) -> Vec<QuadLeaf> {
        let side = 1usize << self.max_depth;
        let mut leaves = Vec::with_capacity(3 * j + 1);
        let mut stack = vec![(0u32, 0usize, 0usize, j)];
        while let Some((d, r, c, j)) = stack.pop() {
            let size = side >> d;
            if j == 0 {
                leaves.push(QuadLeaf {
                    row0: r * size,
                    col0: c * size,
                    size,
                });
                continue;
            }
            let stride = self.lens[d as usize] - 1;
            let node = &self.args[d as usize][(r * (1 << d) + c) * stride..];
            let mut t = j - 1;
            let mut k = [0usize; 4];
            for stage in (0..3).rev() {
                k[stage + 1] = node[t][stage] as usize;
                t -= k[stage + 1];
            }
            k[0] = t;
            for (q, (dr, dc)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
                stack.push((d + 1, 2 * r + dr, 2 * c + dc, k[q]));
            }
        }
        leaves
    }
}

/// `out[t] = min over i + k = t of a[i] + b[k]`, for `t < args.len()`,
/// with the argmin `k` stored in `args[t][stage]`. Candidates are scanned
/// in ascending `i` and only a strictly smaller sum replaces the running
/// minimum, so ties keep the smallest `i`.
fn min_plus(a: &[f64], b: &[f64], out: &mut Vec<f64>, args: &mut [[u32; 3]], stage: usize) {
    let len = (a.len() + b.len() - 1).min(args.len());
    out.clear();
    out.resize(len, f64::INFINITY);
    for (i, &x) in a.iter().enumerate().take(len) {
        for (k, &y) in b.iter().enumerate().take(len - i) {
            if x + y < out[i + k] {
                out[i + k] = x + y;
                args[i + k][stage] = k as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use gridtuner_core::alpha::AlphaWindow;
    use gridtuner_core::search::SearchStrategy;
    use gridtuner_spatial::{Event, Point};

    fn hotspot_events(n: usize, days: u32) -> Vec<Event> {
        // Strongly non-uniform: most mass in one corner plus a thin
        // background — the regime where adaptive partitions win.
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::new();
        for d in 0..days {
            for i in 0..n {
                let (x, y) = if i % 4 != 0 {
                    (0.05 + 0.15 * unit(), 0.05 + 0.15 * unit())
                } else {
                    (unit(), unit())
                };
                out.push(Event::new(Point::new(x, y), d * 24 * 60 + (i % 30) as u32));
            }
        }
        out
    }

    fn cfg() -> EngineConfig {
        EngineConfig::builder()
            .hgrid_budget_side(16)
            .side_range(2, 12)
            .strategy(SearchStrategy::BruteForce)
            .alpha_window(AlphaWindow {
                slot_of_day: 0,
                day_start: 0,
                day_end: 7,
                weekdays_only: false,
            })
            .build()
            .unwrap()
    }

    fn model(s: u32) -> f64 {
        (s * s) as f64 * 0.4
    }

    type TestSession = TuningSession<fn(u32) -> f64>;

    fn session() -> TestSession {
        let mut s = TuningSession::new(cfg(), model as fn(u32) -> f64).unwrap();
        s.ingest(&hotspot_events(300, 7)).unwrap();
        s
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0usize..2000 {
            let s = isqrt(n) as usize;
            assert!(s * s <= n && (s + 1) * (s + 1) > n, "n={n} s={s}");
        }
    }

    #[test]
    fn region_model_leg_interpolates_linearly_in_n() {
        let mut s = session();
        // Linear-in-n model: interpolation is exact at every region count,
        // square counts (1, 9, 100) taking the non-interpolated leg.
        for regions in [1usize, 2, 3, 5, 9, 12, 17, 100] {
            let got = s.region_model_error(regions).unwrap();
            assert!(
                (got - 0.4 * regions as f64).abs() < 1e-9,
                "R={regions}: {got}"
            );
        }
    }

    #[test]
    fn kind_parse_roundtrips() {
        for kind in [
            PartitionKind::Uniform,
            PartitionKind::Rect,
            PartitionKind::QuadTree,
        ] {
            assert_eq!(PartitionKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PartitionKind::parse("hex"), None);
    }

    #[test]
    fn uniform_partition_report_mirrors_the_1d_tune() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::Uniform).unwrap();
        assert_eq!(report.kind, PartitionKind::Uniform);
        assert_eq!(report.n_regions, report.uniform.partition.n());
        // The trait-dispatched decomposition re-adds to the 1-D winner's
        // bound bit for bit: same expression sweep, same memoised model
        // value, same addition.
        assert_eq!(
            report.bound.to_bits(),
            report.uniform.outcome.error.to_bits()
        );
        assert!(report.improves_on_uniform());
        assert_eq!((report.splits, report.merges), (0, 0));
    }

    #[test]
    fn rect_search_never_loses_to_its_seed() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::Rect).unwrap();
        assert_eq!(report.kind, PartitionKind::Rect);
        let PartitionLayout::Rect { nx, ny } = report.layout else {
            panic!("rect search must return a rect layout");
        };
        assert_eq!(report.n_regions, (nx as usize) * (ny as usize));
        // The climb starts at (s*, s*) and only moves on strict
        // improvement, so the final bound is ≤ the square seed's bound
        // evaluated through the same trait path.
        let budget = s.config().hgrid_budget_side;
        let side = report.uniform.outcome.side;
        let seed = RectGrid::for_budget(side, side, budget);
        let seed_expr = s
            .alpha_cache()
            .unwrap()
            .partition_expression_error(&seed)
            .unwrap();
        let seed_bound = seed_expr + model(side);
        assert!(
            report.bound <= seed_bound + 1e-12,
            "bound {} vs seed {seed_bound}",
            report.bound
        );
        assert!(report.evals >= 1);
    }

    #[test]
    fn quadtree_search_respects_cap_and_beats_uniform_on_hotspots() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::QuadTree).unwrap();
        assert_eq!(report.kind, PartitionKind::QuadTree);
        assert_eq!(report.region_cap, report.uniform.partition.n());
        assert!(
            report.n_regions <= report.region_cap,
            "{} regions over cap {}",
            report.n_regions,
            report.region_cap
        );
        let PartitionLayout::QuadTree(q) = &report.layout else {
            panic!("quadtree search must return a quadtree layout");
        };
        assert_eq!(q.n_regions(), report.n_regions);
        assert!((report.expression_error + report.model_error - report.bound).abs() < 1e-15);
        // On a hotspot field the adaptive tree must do at least as well as
        // the best uniform n, at equal or fewer regions — the tentpole's
        // acceptance predicate.
        assert!(
            report.improves_on_uniform(),
            "bound {} regions {} vs uniform {} regions {}",
            report.bound,
            report.n_regions,
            report.uniform_bound(),
            report.uniform_regions()
        );
    }

    #[test]
    fn quadtree_dp_beats_every_seed_without_new_model_evaluations() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::QuadTree).unwrap();
        assert_eq!(report.splits, (report.n_regions - 1) / 3);
        assert_eq!(report.merges, 0);
        // Every uniform-depth seed within the cap, through the same fold.
        let cache = s.alpha_cache().unwrap();
        let mut seed_sides = Vec::new();
        for depth in 0u32.. {
            let side = 1u32 << depth;
            if (side * side) as usize > report.region_cap {
                break;
            }
            let seed = QuadTreePartition::uniform_depth(16, depth).unwrap();
            let bound = cache.partition_expression_error(&seed).unwrap() + model(side);
            assert!(
                report.bound <= bound,
                "bound {} above seed {depth}'s {bound}",
                report.bound
            );
            seed_sides.push(side);
        }
        // The model was asked only for the 1-D range and the seeds' sides.
        let (lo, hi) = s.config().side_range;
        let outside = seed_sides.iter().filter(|&&x| x < lo || x > hi).count();
        assert_eq!(s.memoised_sides(), (hi - lo + 1) as usize + outside);
    }

    #[test]
    fn quadtree_search_is_deterministic() {
        let run = || {
            let mut s = session();
            s.tune_partition(PartitionKind::QuadTree).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.bound.to_bits(), b.bound.to_bits());
        assert_eq!(a.layout, b.layout);
        assert_eq!((a.splits, a.merges, a.evals), (b.splits, b.merges, b.evals));
    }
}
