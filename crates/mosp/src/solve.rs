//! The MOSP solver: exact Pareto enumeration or Warburton's
//! ε-approximation, with an optional label cap and resource budget, all
//! behind one [`solve`] entry point.

use crate::budget::{Budget, Exhaustion};
use crate::graph::{MospError, MospGraph, VertexId};
use crate::kernels;
use crate::pareto::{ParetoFront, ParetoPath, ParetoSet, SolveStats};

/// Observer hooks for solver-internal trace events, implemented by the
/// event journal in the `wavemin` core crate (which owns the clock and the
/// buffers — this crate stays dependency-free).
///
/// The DP calls these at three granularities:
///
/// * one *layer* span per vertex expansion (all out-arcs of one vertex);
/// * one *label-batch* span per (vertex, arc) pair — every insertion
///   attempt that batch made plus the labels it pruned;
/// * instants for per-vertex cap evictions and the first budget-exhaustion
///   transition.
///
/// Span hooks receive the `start_ns` the caller sampled via [`now_ns`]
/// before the work ran; the observer stamps the end itself. Every hook
/// site in the solver is a single `Option` branch when no observer is
/// attached, so untraced solves pay nothing.
///
/// [`now_ns`]: SolveObserver::now_ns
pub trait SolveObserver {
    /// The observer's current monotonic timestamp, nanoseconds since its
    /// own epoch.
    fn now_ns(&mut self) -> u64;
    /// One finished vertex expansion: `labels` source labels propagated
    /// over all of `vertex`'s out-arcs.
    fn layer_span(&mut self, start_ns: u64, vertex: usize, labels: usize);
    /// One finished (vertex, arc) label batch: `attempts` insertion
    /// attempts into `target`, of which `pruned` incumbent labels were
    /// evicted by dominance.
    fn batch_span(
        &mut self,
        start_ns: u64,
        vertex: usize,
        target: usize,
        attempts: u64,
        pruned: u64,
    );
    /// Instant: the per-vertex cap evicted `count` labels at `vertex`.
    fn cap_evictions(&mut self, vertex: usize, count: u64);
    /// Instant: the shared budget ran out mid-solve (fired once per solve,
    /// on the first `None -> Some` exhaustion transition).
    fn budget_exhausted(&mut self, reason: Exhaustion);
}

/// One vertex's active label frontier, kept sorted by cached min–max key
/// with the label data in contiguous slabs.
///
/// The costs of the *active* labels live in one flat `f64` slab (stride =
/// the graph's weight dimension) whose row order matches `entries`; the
/// ε-solver's scaled grid lives in a parallel `i64` slab that stays
/// **empty** in exact mode. Keeping the slab in ascending key order makes
/// the two dominance scans of a candidate insertion contiguous slab
/// passes, each restricted by the key partition:
///
/// * rejection: an incumbent dominating (weakly) the candidate satisfies
///   componentwise `inc <= cand`, hence `max(inc) <= max(cand)` — only
///   the sorted prefix with `key <= cand_key` needs comparing;
/// * eviction: symmetrically, only entries with `key >= cand_key` can be
///   dominated by the candidate.
///
/// The implications require NaN-free costs, which the solver guarantees:
/// [`MospGraph`] validates arc weights finite and non-negative, and sums
/// of non-negative finite values never produce NaN (at worst `+inf`,
/// which orders fine). [`crate::pareto::ParetoFront`] is the public
/// variant that stays sound for arbitrary inputs.
///
/// Dominated or cap-evicted labels leave the frontier (their slab rows
/// are compacted away) but keep their slot in the vertex's append-only
/// predecessor store, so reconstruction chains stay valid.
#[derive(Debug, Default, Clone)]
struct Frontier {
    entries: Vec<FrontierEntry>,
    costs: Vec<f64>,
    scaled: Vec<i64>,
}

#[derive(Debug, Clone, Copy)]
struct FrontierEntry {
    /// Cached max true-cost component: the exact-mode sort key and the
    /// cap-truncation order in both modes.
    fkey: f64,
    /// Cached max scaled component: the ε-mode sort key (the `i64` grid
    /// must not be compared through `f64` — large grids lose precision).
    /// 0 in exact mode.
    ikey: i64,
    /// The label's slot in its vertex's predecessor store.
    slot: usize,
}

impl Frontier {
    /// Empties the frontier while keeping its slab allocations — the
    /// recycled state is logically identical to `Frontier::default()`
    /// (every operation depends only on content, never capacity).
    fn clear(&mut self) {
        self.entries.clear();
        self.costs.clear();
        self.scaled.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn cost(&self, dim: usize, i: usize) -> &[f64] {
        &self.costs[i * dim..(i + 1) * dim]
    }

    #[inline]
    fn scaled_row(&self, dim: usize, i: usize) -> &[i64] {
        &self.scaled[i * dim..(i + 1) * dim]
    }

    fn move_row(&mut self, dim: usize, from: usize, to: usize) {
        self.entries[to] = self.entries[from];
        self.costs
            .copy_within(from * dim..(from + 1) * dim, to * dim);
        if !self.scaled.is_empty() {
            self.scaled
                .copy_within(from * dim..(from + 1) * dim, to * dim);
        }
    }

    fn truncate_rows(&mut self, dim: usize, len: usize) {
        self.entries.truncate(len);
        self.costs.truncate(len * dim);
        if !self.scaled.is_empty() {
            self.scaled.truncate(len * dim);
        }
    }

    /// Dominance screening of a candidate: the rejection test against the
    /// admissible sorted prefix, then eviction of every incumbent the
    /// candidate dominates. Returns whether the candidate belongs in the
    /// frontier. Comparison runs on the scaled grid in ε mode (weak
    /// dominance) and on true costs otherwise.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        dim: usize,
        eps_mode: bool,
        cost: &[f64],
        scaled: &[i64],
        fkey: f64,
        ikey: i64,
        stats: &mut SolveStats,
    ) -> bool {
        let n = self.entries.len();
        if eps_mode {
            let hi = self.entries.partition_point(|e| e.ikey <= ikey);
            stats.dominance_skipped += (n - hi) as u64;
            if let Some(r) = kernels::scaled_leq_any(&self.scaled, dim, hi, scaled) {
                stats.dominance_checks += (r + 1) as u64;
                return false;
            }
            stats.dominance_checks += hi as u64;
            let lo = self.entries.partition_point(|e| e.ikey < ikey);
            stats.dominance_skipped += lo as u64;
            let mut w = lo;
            for r in lo..n {
                stats.dominance_checks += 1;
                let doomed = kernels::scaled_leq(scaled, self.scaled_row(dim, r));
                if !doomed {
                    if w != r {
                        self.move_row(dim, r, w);
                    }
                    w += 1;
                }
            }
            stats.labels_pruned += (n - w) as u64;
            self.truncate_rows(dim, w);
        } else {
            let hi = self
                .entries
                .partition_point(|e| e.fkey.total_cmp(&fkey) != std::cmp::Ordering::Greater);
            stats.dominance_skipped += (n - hi) as u64;
            if let Some(r) = kernels::dominated_weakly_by_any(&self.costs, dim, hi, cost) {
                stats.dominance_checks += (r + 1) as u64;
                return false;
            }
            stats.dominance_checks += hi as u64;
            let lo = self
                .entries
                .partition_point(|e| e.fkey.total_cmp(&fkey) == std::cmp::Ordering::Less);
            stats.dominance_skipped += lo as u64;
            let mut w = lo;
            for r in lo..n {
                stats.dominance_checks += 1;
                let doomed = kernels::dominates(cost, self.cost(dim, r));
                if !doomed {
                    if w != r {
                        self.move_row(dim, r, w);
                    }
                    w += 1;
                }
            }
            stats.labels_pruned += (n - w) as u64;
            self.truncate_rows(dim, w);
        }
        true
    }

    /// Inserts an admitted label at its sorted position (after equal
    /// keys, so ties keep insertion order).
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        dim: usize,
        eps_mode: bool,
        cost: &[f64],
        scaled: &[i64],
        fkey: f64,
        ikey: i64,
        slot: usize,
    ) {
        let p = if eps_mode {
            self.entries.partition_point(|e| e.ikey <= ikey)
        } else {
            self.entries
                .partition_point(|e| e.fkey.total_cmp(&fkey) != std::cmp::Ordering::Greater)
        };
        self.entries.insert(p, FrontierEntry { fkey, ikey, slot });
        insert_row(&mut self.costs, dim, p, cost);
        if eps_mode {
            insert_row(&mut self.scaled, dim, p, scaled);
        }
    }

    /// Truncates to the `cap` labels with the smallest max true-cost
    /// component (ties keep earlier-inserted labels, as before the slab
    /// rewrite). Exact mode is already in that order; ε mode selects by
    /// `fkey` but preserves the scaled-key order of the survivors.
    /// Returns the number of evicted labels.
    fn apply_cap(&mut self, dim: usize, eps_mode: bool, cap: usize) -> usize {
        let n = self.entries.len();
        if n <= cap {
            return 0;
        }
        if eps_mode {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| self.entries[a].fkey.total_cmp(&self.entries[b].fkey));
            let mut keep = vec![false; n];
            for &i in order.iter().take(cap) {
                keep[i] = true;
            }
            let mut w = 0;
            for (r, &kept) in keep.iter().enumerate() {
                if kept {
                    if w != r {
                        self.move_row(dim, r, w);
                    }
                    w += 1;
                }
            }
            self.truncate_rows(dim, w);
        } else {
            self.truncate_rows(dim, cap);
        }
        n - cap
    }
}

/// Splices `values` in as row `row` of a flat slab of stride `dim`.
fn insert_row<T: Copy + Default>(slab: &mut Vec<T>, dim: usize, row: usize, values: &[T]) {
    let old = slab.len();
    slab.resize(old + dim, T::default());
    slab.copy_within(row * dim..old, (row + 1) * dim);
    slab[row * dim..(row + 1) * dim].copy_from_slice(values);
}

/// Per-thread solve scratch recycled between solves: the per-vertex
/// frontiers and predecessor stores, which the streaming zone pipeline
/// otherwise reallocates for every zone. A solve takes the thread's pool,
/// clears exactly the prefix it will index, and returns the pool (with
/// its grown capacities) on completion — including early returns and
/// panics, via [`ScratchGuard`]'s `Drop`. Recycling is bit-neutral: a
/// cleared [`Frontier`] is logically `Frontier::default()`, and no solver
/// operation observes capacity.
#[derive(Default)]
struct SolveScratch {
    fronts: Vec<Frontier>,
    preds: Vec<Vec<Option<(usize, usize)>>>,
}

impl SolveScratch {
    /// Prepares the pool for a graph of `n` vertices: oversized pools are
    /// truncated (a later bigger solve must never see stale rows), the
    /// surviving prefix is cleared in place, and missing slots are
    /// default-constructed.
    fn begin(&mut self, n: usize) {
        self.fronts.truncate(n);
        self.preds.truncate(n);
        for f in &mut self.fronts {
            f.clear();
        }
        for p in &mut self.preds {
            p.clear();
        }
        self.fronts.resize_with(n, Frontier::default);
        self.preds.resize_with(n, Vec::new);
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SolveScratch> =
        std::cell::RefCell::new(SolveScratch::default());
}

/// Moves the thread's scratch pool out of thread-local storage (leaving a
/// fresh empty pool behind, so a nested or racing borrow can never
/// observe the in-use state) and prepares it for `n` vertices.
fn acquire_scratch(n: usize) -> ScratchGuard {
    let mut scratch = SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    scratch.begin(n);
    ScratchGuard { scratch }
}

/// Returns the scratch pool to thread-local storage on drop — the unwind
/// path included, so a panicking solve (fault injection) recycles its
/// allocations instead of leaking the pool for the thread's lifetime.
struct ScratchGuard {
    scratch: SolveScratch,
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        SCRATCH.with(|c| {
            if let Ok(mut slot) = c.try_borrow_mut() {
                *slot = scratch;
            }
        });
    }
}

/// What one [`solve`] call computes.
///
/// The default is exact enumeration with no label cap and an unlimited
/// budget.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveSpec {
    /// Warburton's approximation parameter ε; `None` enumerates the
    /// Pareto set exactly.
    ///
    /// With `Some(ε)`, costs in dimension `k` are compared on a grid of
    /// `δ_k = ε·UB_k / n` (with `UB_k` the longest-path bound and `n` the
    /// vertex count). This bounds the per-vertex label count by
    /// `∏_k (n/ε)` and matches every Pareto point within a `(1+ε)` factor
    /// per dimension (Warburton, OR 35(1), 1987).
    pub epsilon: Option<f64>,
    /// Per-vertex label cap (`None` = uncapped). When it triggers, the
    /// labels with the smallest maximum component survive (biased toward
    /// the min–max selection) and the result is marked
    /// [`ParetoSet::is_truncated`]. The budget's own label cap, if any,
    /// applies too; the tighter one wins.
    pub max_labels: Option<usize>,
    /// Resource budget. When it trips mid-solve the DP does not abort: it
    /// finishes in single-label greedy mode (keeping only the best min–max
    /// label per vertex), so a valid path set still comes back, marked
    /// truncated, with [`ParetoSet::exhaustion`] naming the resource that
    /// ran out.
    pub budget: Budget,
}

/// Solves a MOSP instance over a DAG: label-correcting Pareto
/// enumeration in topological order, exact or ε-approximate as `spec`
/// says. Exact enumeration is worst-case exponential (the frontier can
/// be), so exact callers usually set a label cap or a budget.
///
/// `observer`, when attached, receives layer and label-batch spans plus
/// eviction and exhaustion instants; `None` costs a single branch per
/// hook site.
///
/// Each label-insertion attempt charges one unit against the budget's
/// shared atomic work counter, so concurrent solves on a worker pool draw
/// from a single global cap. Arc weights arrive as borrowed arena slices
/// from the graph; candidate costs are built in reusable scratch buffers,
/// so the hot loop performs no per-attempt allocation.
///
/// # Errors
///
/// [`MospError::InvalidParameter`] for an ε that is not a positive finite
/// number, [`MospError::Cyclic`] for non-DAG inputs, and
/// [`MospError::NoPath`] when `dest` is unreachable from `source`.
pub fn solve(
    graph: &MospGraph,
    source: VertexId,
    dest: VertexId,
    spec: &SolveSpec,
    mut observer: Option<&mut dyn SolveObserver>,
) -> Result<ParetoSet, MospError> {
    let deltas: Option<Vec<f64>> = match spec.epsilon {
        None => None,
        Some(epsilon) => {
            if epsilon <= 0.0 || !epsilon.is_finite() {
                return Err(MospError::InvalidParameter("epsilon must be positive"));
            }
            let ub = graph.path_upper_bounds(source)?;
            let n = graph.vertex_count().max(1) as f64;
            Some(
                ub.iter()
                    .map(|&u| {
                        let d = epsilon * u / n;
                        if d > 0.0 {
                            d
                        } else {
                            1.0
                        }
                    })
                    .collect(),
            )
        }
    };
    let deltas = deltas.as_deref();
    let budget = &spec.budget;
    let order = graph.topological_order()?;
    let n = graph.vertex_count();
    if source.0 >= n {
        return Err(MospError::InvalidVertex(source));
    }
    if dest.0 >= n {
        return Err(MospError::InvalidVertex(dest));
    }
    let dim = graph.dim();
    let eps_mode = deltas.is_some();

    // Merge the per-vertex cap from the call site with the budget's.
    let max_labels = match (spec.max_labels, budget.label_cap()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    // Per-vertex frontiers and the append-only predecessor store
    // (dominated or cap-evicted labels leave the frontier but keep their
    // slot here, so predecessor chains stay valid for reconstruction).
    // Both come from the thread's recycled scratch pool: at scale the
    // streaming pipeline runs thousands of zone solves per thread, and
    // reusing the grown slabs removes the per-zone allocation storm.
    let mut guard = acquire_scratch(n);
    let SolveScratch { fronts, preds } = &mut guard.scratch;
    let mut truncated = false;
    let mut exhausted = None;
    let mut stats = SolveStats::default();

    // Writes the ε-grid image of `cost` into `out` (left empty in exact
    // mode, matching the frontier's empty scaled slab).
    let scale_into = |cost: &[f64], out: &mut Vec<i64>| {
        out.clear();
        if let Some(ds) = deltas {
            out.extend(cost.iter().zip(ds).map(|(c, d)| (c / d).floor() as i64));
        }
    };

    let mut scaled_scratch: Vec<i64> = Vec::new();
    let zero = vec![0.0; dim];
    scale_into(&zero, &mut scaled_scratch);
    preds[source.0].push(None);
    fronts[source.0].commit(
        dim,
        eps_mode,
        &zero,
        &scaled_scratch,
        kernels::max_component(&zero),
        ikey_of(&scaled_scratch),
        0,
    );
    stats.labels_created += 1;

    // Scratch buffers reused across vertices: the expanding vertex's
    // frontier snapshot (slots + flat costs) and the candidate cost.
    let mut src_slots: Vec<usize> = Vec::new();
    let mut src_costs: Vec<f64> = Vec::new();
    let mut cand = vec![0.0; dim];

    // The first None -> Some exhaustion transition is reported to the
    // observer exactly once.
    let mut exhaustion_reported = false;
    for v in order {
        if exhausted.is_none() {
            exhausted = budget.exhausted();
        }
        if let (Some(reason), false) = (exhausted, exhaustion_reported) {
            exhaustion_reported = true;
            if let Some(o) = observer.as_deref_mut() {
                o.budget_exhausted(reason);
            }
        }
        // Apply the per-vertex cap before expanding. Once the budget is
        // exhausted the cap collapses to 1: the remainder of the DP is a
        // greedy min–max completion that still reaches the destination.
        let cap = if exhausted.is_some() {
            Some(1)
        } else {
            max_labels
        };
        if let Some(cap) = cap {
            let evicted = fronts[v.0].apply_cap(dim, eps_mode, cap);
            if evicted > 0 {
                stats.labels_pruned += evicted as u64;
                truncated = true;
                if let Some(o) = observer.as_deref_mut() {
                    o.cap_evictions(v.0, evicted as u64);
                }
            }
        }
        if fronts[v.0].is_empty() {
            continue;
        }
        // Snapshot the frontier once per vertex: targets come strictly
        // later in topological order, so `v`'s frontier cannot change
        // while its arcs are expanded, and the snapshot lets the target
        // frontiers be borrowed mutably. The cost slab is already
        // contiguous, so this is one memcpy.
        src_slots.clear();
        src_slots.extend(fronts[v.0].entries.iter().map(|e| e.slot));
        src_costs.clear();
        src_costs.extend_from_slice(&fronts[v.0].costs);
        let layer_start = observer.as_deref_mut().map(|o| o.now_ns());
        for (to, w) in graph.out_arcs(v) {
            let batch_start = observer.as_deref_mut().map(|o| o.now_ns());
            let pruned_before = stats.labels_pruned;
            for (k, &slot) in src_slots.iter().enumerate() {
                stats.work += 1;
                if exhausted.is_none() {
                    exhausted = budget.charge(1);
                }
                let base = &src_costs[k * dim..(k + 1) * dim];
                kernels::add_into(&mut cand, base, w);
                scale_into(&cand, &mut scaled_scratch);
                push_label(
                    &mut fronts[to.0],
                    &mut preds[to.0],
                    dim,
                    &cand,
                    &scaled_scratch,
                    (v.0, slot),
                    eps_mode,
                    &mut stats,
                );
            }
            if let Some(o) = observer.as_deref_mut() {
                o.batch_span(
                    batch_start.unwrap_or(0),
                    v.0,
                    to.0,
                    src_slots.len() as u64,
                    stats.labels_pruned - pruned_before,
                );
            }
        }
        if let Some(o) = observer.as_deref_mut() {
            o.layer_span(layer_start.unwrap_or(0), v.0, src_slots.len());
        }
    }
    if let (Some(reason), false) = (exhausted, exhaustion_reported) {
        // Exhaustion during the final vertex's inner loop.
        if let Some(o) = observer {
            o.budget_exhausted(reason);
        }
    }

    if fronts[dest.0].is_empty() {
        if source == dest {
            let mut set = ParetoSet::new(
                vec![ParetoPath {
                    cost: vec![0.0; dim],
                    vertices: vec![source],
                }],
                false,
            );
            stats.front_size = 1;
            set.set_stats(stats);
            return Ok(set);
        }
        return Err(MospError::NoPath);
    }

    // Final exact-dominance sweep through a maintained [`ParetoFront`]
    // (the ε-solver's scaled dominance can let exactly-dominated paths
    // coexist); its key index replaces the old all-pairs O(k²) pass and
    // its pruning counters fold into the solve stats.
    let mut dest_front: ParetoFront<usize> = ParetoFront::new(dim);
    for i in 0..fronts[dest.0].len() {
        let slot = fronts[dest.0].entries[i].slot;
        dest_front.insert(fronts[dest.0].cost(dim, i), slot);
    }
    let (checks, skipped) = dest_front.counters();
    stats.dominance_checks += checks;
    stats.dominance_skipped += skipped;
    let paths: Vec<ParetoPath> = dest_front
        .into_pairs()
        .into_iter()
        .map(|(cost, slot)| ParetoPath {
            cost,
            vertices: reconstruct(preds, dest.0, slot),
        })
        .collect();
    let mut set = ParetoSet::new(paths, truncated);
    if let Some(reason) = exhausted {
        set.mark_exhausted(reason);
    }
    stats.front_size = set.paths().len() as u64;
    set.set_stats(stats);
    Ok(set)
}

/// Inserts a candidate label unless dominated; prunes dominated incumbents
/// from the frontier (the predecessor store is append-only). Comparison
/// uses the scaled grid in ε mode, true costs otherwise. The candidate is
/// copied into the frontier slab only when it survives screening.
#[allow(clippy::too_many_arguments)]
fn push_label(
    front: &mut Frontier,
    preds: &mut Vec<Option<(usize, usize)>>,
    dim: usize,
    cost: &[f64],
    scaled: &[i64],
    pred: (usize, usize),
    eps_mode: bool,
    stats: &mut SolveStats,
) -> bool {
    let fkey = kernels::max_component(cost);
    let ikey = ikey_of(scaled);
    if !front.admit(dim, eps_mode, cost, scaled, fkey, ikey, stats) {
        return false;
    }
    stats.labels_created += 1;
    preds.push(Some(pred));
    front.commit(dim, eps_mode, cost, scaled, fkey, ikey, preds.len() - 1);
    true
}

/// Max scaled component: the ε-mode frontier sort key (0 in exact mode,
/// where the scaled slice is empty).
fn ikey_of(scaled: &[i64]) -> i64 {
    scaled.iter().copied().max().unwrap_or(0)
}

fn reconstruct(preds: &[Vec<Option<(usize, usize)>>], vertex: usize, slot: usize) -> Vec<VertexId> {
    let mut rev = vec![VertexId(vertex)];
    let mut cur = preds[vertex][slot];
    while let Some((pv, ps)) = cur {
        rev.push(VertexId(pv));
        cur = preds[pv][ps];
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates;
    use std::time::Duration;

    /// Brute-force path enumeration for validation.
    fn all_paths(g: &MospGraph, from: VertexId, to: VertexId) -> Vec<(Vec<f64>, Vec<VertexId>)> {
        let mut out = Vec::new();
        let mut stack = vec![(from, vec![0.0; g.dim()], vec![from])];
        while let Some((v, cost, path)) = stack.pop() {
            if v == to {
                out.push((cost.clone(), path.clone()));
                if v == from && g.out_degree(v) == 0 {
                    continue;
                }
            }
            for (next, w) in g.out_arcs(v) {
                let mut c = cost.clone();
                for (a, b) in c.iter_mut().zip(w) {
                    *a += b;
                }
                let mut p = path.clone();
                p.push(next);
                stack.push((next, c, p));
            }
        }
        out
    }

    fn spec(epsilon: Option<f64>, max_labels: Option<usize>) -> SolveSpec {
        budgeted(epsilon, max_labels, Budget::unlimited())
    }

    fn budgeted(epsilon: Option<f64>, max_labels: Option<usize>, budget: Budget) -> SolveSpec {
        SolveSpec {
            epsilon,
            max_labels,
            budget,
        }
    }

    fn diamond() -> (MospGraph, VertexId, VertexId) {
        // src -> {a, b} -> dest, asymmetric weights.
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(4);
        g.add_arc(vs[0], vs[1], vec![1.0, 8.0]).unwrap();
        g.add_arc(vs[0], vs[2], vec![8.0, 1.0]).unwrap();
        g.add_arc(vs[1], vs[3], vec![1.0, 1.0]).unwrap();
        g.add_arc(vs[2], vs[3], vec![1.0, 1.0]).unwrap();
        (g, vs[0], vs[3])
    }

    #[test]
    fn exact_finds_both_pareto_paths() {
        let (g, s, t) = diamond();
        let set = solve(&g, s, t, &spec(None, None), None).unwrap();
        assert_eq!(set.paths().len(), 2);
        assert!(!set.is_truncated());
        let mm = set.min_max().unwrap();
        assert_eq!(mm.max_component(), 9.0);
        assert_eq!(mm.vertices.len(), 3);
    }

    #[test]
    fn solve_stats_count_labels_and_work() {
        let (g, s, t) = diamond();
        let set = solve(&g, s, t, &spec(None, None), None).unwrap();
        let stats = set.stats();
        // src label + one label per vertex reached (a, b, and two at dest).
        assert_eq!(stats.labels_created, 5);
        // One insertion attempt per (arc, source label) pair: 4 arcs, one
        // label each side.
        assert_eq!(stats.work, 4);
        assert_eq!(stats.front_size, 2);
        assert_eq!(stats.labels_pruned, 0, "no dominated labels here");
        // Merging stats adds componentwise.
        let twice = stats.plus(stats);
        assert_eq!(twice.work, 8);
        assert_eq!(twice.front_size, 4);
    }

    #[test]
    fn solve_stats_record_pruning_under_cap() {
        let (g, src, dest) = diamond_chain(6);
        let set = solve(&g, src, dest, &spec(None, Some(2)), None).unwrap();
        assert!(set.is_truncated());
        assert!(set.stats().labels_pruned > 0, "the cap must prune");
        assert!(set.stats().work >= set.stats().labels_created - 1);
    }

    #[test]
    fn exact_drops_dominated_paths() {
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(2);
        g.add_arc(vs[0], vs[1], vec![1.0, 1.0]).unwrap();
        g.add_arc(vs[0], vs[1], vec![2.0, 2.0]).unwrap();
        g.add_arc(vs[0], vs[1], vec![0.5, 3.0]).unwrap();
        let set = solve(&g, vs[0], vs[1], &spec(None, None), None).unwrap();
        assert_eq!(set.paths().len(), 2, "the (2,2) arc is dominated");
    }

    #[test]
    fn exact_matches_brute_force_on_layered_graph() {
        // A 3-layer, 3-column layered graph like the WaveMin conversion.
        let mut g = MospGraph::new(3);
        let src = g.add_vertex();
        let l1 = g.add_vertices(3);
        let l2 = g.add_vertices(3);
        let dest = g.add_vertex();
        let w = |a: f64, b: f64, c: f64| vec![a, b, c];
        for (i, &v) in l1.iter().enumerate() {
            g.add_arc(src, v, w(i as f64, 2.0 - i as f64, 1.0)).unwrap();
        }
        for &u in &l1 {
            for (j, &v) in l2.iter().enumerate() {
                g.add_arc(u, v, w(1.0 + j as f64, 3.0 - j as f64, j as f64))
                    .unwrap();
            }
        }
        for &u in &l2 {
            g.add_arc(u, dest, w(0.5, 0.5, 0.5)).unwrap();
        }
        let set = solve(&g, src, dest, &spec(None, None), None).unwrap();
        // Every returned path must be nondominated against brute force,
        // and every brute-force nondominated cost must appear.
        let brute = all_paths(&g, src, dest);
        for p in set.paths() {
            assert!(
                !brute.iter().any(|(c, _)| dominates(c, &p.cost)),
                "solver returned dominated path {:?}",
                p.cost
            );
        }
        for (c, _) in &brute {
            if !brute.iter().any(|(c2, _)| dominates(c2, c)) {
                assert!(
                    set.paths().iter().any(|p| p.cost == *c),
                    "missing nondominated cost {c:?}"
                );
            }
        }
    }

    #[test]
    fn path_reconstruction_is_consistent() {
        let (g, s, t) = diamond();
        let set = solve(&g, s, t, &spec(None, None), None).unwrap();
        for p in set.paths() {
            assert_eq!(p.vertices.first(), Some(&s));
            assert_eq!(p.vertices.last(), Some(&t));
            // Re-sum the arc weights along the reconstructed path.
            let mut cost = vec![0.0; g.dim()];
            for w2 in p.vertices.windows(2) {
                let (u, v) = (w2[0], w2[1]);
                let (_, w) = g.out_arcs(u).find(|(to, _)| *to == v).expect("arc exists");
                for (a, b) in cost.iter_mut().zip(w) {
                    *a += b;
                }
            }
            assert_eq!(&cost, &p.cost);
        }
    }

    #[test]
    fn label_cap_truncates_but_still_answers() {
        let mut g = MospGraph::new(2);
        let mut prev = g.add_vertex();
        let src = prev;
        // 8 diamond stages: up to 2^8 Pareto paths.
        for _ in 0..8 {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            g.add_arc(prev, a, vec![1.0, 0.0]).unwrap();
            g.add_arc(prev, b, vec![0.0, 1.0]).unwrap();
            g.add_arc(a, join, vec![0.0, 0.0]).unwrap();
            g.add_arc(b, join, vec![0.0, 0.0]).unwrap();
            prev = join;
        }
        let capped = solve(&g, src, prev, &spec(None, Some(4)), None).unwrap();
        assert!(capped.is_truncated());
        // The min-max optimum splits 4/4.
        let mm = capped.min_max().unwrap().max_component();
        assert!(mm <= 6.0, "cap kept a good min-max path, got {mm}");
        let full = solve(&g, src, prev, &spec(None, None), None).unwrap();
        assert_eq!(full.min_max().unwrap().max_component(), 4.0);
    }

    /// `stages` chained diamonds with power-of-two stage weights: every
    /// subset sum is distinct and all `2^stages` path costs lie on one
    /// anti-diagonal, so the frontier is genuinely exponential — the worst
    /// case for the exact DP.
    fn diamond_chain(stages: usize) -> (MospGraph, VertexId, VertexId) {
        let mut g = MospGraph::new(2);
        let mut prev = g.add_vertex();
        let src = prev;
        for i in 0..stages {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            let w = (1u64 << i) as f64;
            g.add_arc(prev, a, vec![w, 0.0]).unwrap();
            g.add_arc(prev, b, vec![0.0, w]).unwrap();
            g.add_arc(a, join, vec![0.0, 0.0]).unwrap();
            g.add_arc(b, join, vec![0.0, 0.0]).unwrap();
            prev = join;
        }
        (g, src, prev)
    }

    #[test]
    fn work_cap_degrades_to_valid_paths() {
        let (g, src, dest) = diamond_chain(14);
        let budget = Budget::unlimited().and_work_cap(2_000);
        let set = solve(&g, src, dest, &budgeted(None, None, budget), None).unwrap();
        assert_eq!(
            set.exhaustion(),
            Some(crate::budget::Exhaustion::WorkCapReached)
        );
        assert!(set.is_truncated());
        // Every returned path is still a genuine source→dest path whose
        // cost re-adds along its arcs.
        assert!(!set.paths().is_empty());
        for p in set.paths() {
            assert_eq!(p.vertices.first(), Some(&src));
            assert_eq!(p.vertices.last(), Some(&dest));
            let total = ((1u64 << 14) - 1) as f64;
            assert_eq!(p.cost.iter().sum::<f64>(), total, "total arc weight");
        }
    }

    #[test]
    fn expired_deadline_still_returns_a_path() {
        let (g, src, dest) = diamond_chain(12);
        let budget =
            Budget::unlimited().and_deadline(std::time::Instant::now() - Duration::from_secs(1));
        let set = solve(&g, src, dest, &budgeted(None, None, budget), None).unwrap();
        assert_eq!(
            set.exhaustion(),
            Some(crate::budget::Exhaustion::DeadlineExpired)
        );
        assert!(!set.paths().is_empty());
        let p = &set.paths()[0];
        assert_eq!(p.vertices.first(), Some(&src));
        assert_eq!(p.vertices.last(), Some(&dest));
    }

    #[test]
    fn tight_deadline_finishes_fast_on_exponential_instance() {
        // 2^22 Pareto paths unbudgeted — minutes of work. Under a ~100 ms
        // budget the solve must come back quickly with a valid answer.
        let (g, src, dest) = diamond_chain(22);
        let budget = Budget::with_time_limit(Duration::from_millis(100));
        let started = std::time::Instant::now();
        let set = solve(&g, src, dest, &budgeted(None, None, budget), None).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "budgeted solve took {elapsed:?}"
        );
        assert!(set.is_truncated());
        assert!(set.exhaustion().is_some());
        assert!(!set.paths().is_empty());
    }

    #[test]
    fn generous_budget_reports_no_exhaustion() {
        let (g, s, t) = diamond();
        let budget = Budget::with_time_limit(Duration::from_secs(60)).and_work_cap(1 << 30);
        let set = solve(&g, s, t, &budgeted(None, None, budget), None).unwrap();
        assert_eq!(set.exhaustion(), None);
        assert!(!set.is_truncated());
        assert_eq!(set.paths().len(), 2);
    }

    #[test]
    fn budget_label_cap_merges_with_solver_cap() {
        let (g, src, dest) = diamond_chain(8);
        let budget = Budget::unlimited().and_label_cap(2);
        let set = solve(&g, src, dest, &budgeted(None, Some(64), budget), None).unwrap();
        assert!(set.is_truncated(), "tighter budget cap applies");
        assert!(set.paths().len() <= 2);
        assert_eq!(set.exhaustion(), None, "caps are not exhaustion");
    }

    #[test]
    fn shared_budget_caps_across_solves() {
        // Two solves drawing from one budget: the second starts with the
        // counter already charged by the first and degrades sooner —
        // exactly the semantics concurrent zone solves rely on.
        let (g, src, dest) = diamond_chain(10);
        let lone = Budget::unlimited().and_work_cap(5_000);
        let lone_set = solve(&g, src, dest, &budgeted(None, None, lone), None).unwrap();
        assert_eq!(lone_set.exhaustion(), None, "5k units suffice alone");

        let shared = Budget::unlimited().and_work_cap(5_000);
        let first = solve(&g, src, dest, &budgeted(None, None, shared.clone()), None).unwrap();
        assert_eq!(first.exhaustion(), None);
        let second = solve(&g, src, dest, &budgeted(None, None, shared.clone()), None).unwrap();
        assert_eq!(
            second.exhaustion(),
            Some(crate::budget::Exhaustion::WorkCapReached),
            "the second solve inherits the first one's spend"
        );
        assert!(!second.paths().is_empty(), "still degrades to a valid path");
    }

    #[test]
    fn approximate_solve_degrades_under_a_budget_too() {
        let (g, src, dest) = diamond_chain(14);
        let budget = Budget::unlimited().and_work_cap(500);
        let set = solve(&g, src, dest, &budgeted(Some(0.01), None, budget), None).unwrap();
        assert!(set.exhaustion().is_some());
        assert!(!set.paths().is_empty());
    }

    #[test]
    fn approximation_stays_within_epsilon_bound() {
        let (g, s, t) = diamond();
        for eps in [0.01, 0.1, 0.5] {
            let approx = solve(&g, s, t, &spec(Some(eps), None), None).unwrap();
            let exact_set = solve(&g, s, t, &spec(None, None), None).unwrap();
            let opt = exact_set.min_max().unwrap().max_component();
            let got = approx.min_max().unwrap().max_component();
            assert!(
                got <= opt * (1.0 + eps) + 1e-9,
                "eps={eps}: got {got}, opt {opt}"
            );
        }
    }

    #[test]
    fn approximation_collapses_near_equal_labels() {
        // Many near-identical parallel routes: the ε grid should merge them.
        let mut g = MospGraph::new(2);
        let mut prev = g.add_vertex();
        let src = prev;
        for i in 0..6 {
            let a = g.add_vertex();
            let b = g.add_vertex();
            let join = g.add_vertex();
            let jitter = 1e-4 * i as f64;
            g.add_arc(prev, a, vec![1.0 + jitter, 1.0]).unwrap();
            g.add_arc(prev, b, vec![1.0, 1.0 + jitter]).unwrap();
            g.add_arc(a, join, vec![0.0, 0.0]).unwrap();
            g.add_arc(b, join, vec![0.0, 0.0]).unwrap();
            prev = join;
        }
        let approx = solve(&g, src, prev, &spec(Some(0.2), None), None).unwrap();
        assert!(
            approx.paths().len() <= 8,
            "grid should collapse near-ties, got {}",
            approx.paths().len()
        );
    }

    #[test]
    fn approximation_rejects_bad_epsilon() {
        let (g, s, t) = diamond();
        assert!(matches!(
            solve(&g, s, t, &spec(Some(0.0), None), None),
            Err(MospError::InvalidParameter(_))
        ));
        assert!(matches!(
            solve(&g, s, t, &spec(Some(-1.0), None), None),
            Err(MospError::InvalidParameter(_))
        ));
        assert!(matches!(
            solve(&g, s, t, &spec(Some(f64::NAN), None), None),
            Err(MospError::InvalidParameter(_))
        ));
    }

    #[test]
    fn unreachable_dest_errors() {
        let mut g = MospGraph::new(1);
        let a = g.add_vertex();
        let b = g.add_vertex();
        assert_eq!(
            solve(&g, a, b, &spec(None, None), None),
            Err(MospError::NoPath)
        );
    }

    #[test]
    fn source_equals_dest() {
        let mut g = MospGraph::new(2);
        let a = g.add_vertex();
        let set = solve(&g, a, a, &spec(None, None), None).unwrap();
        assert_eq!(set.paths().len(), 1);
        assert_eq!(set.paths()[0].cost, vec![0.0, 0.0]);
        assert_eq!(set.paths()[0].vertices, vec![a]);
    }

    #[test]
    fn zero_weight_graph() {
        let mut g = MospGraph::new(2);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![0.0, 0.0]).unwrap();
        g.add_arc(vs[1], vs[2], vec![0.0, 0.0]).unwrap();
        let set = solve(&g, vs[0], vs[2], &spec(Some(0.1), None), None).unwrap();
        assert_eq!(set.paths().len(), 1);
        assert_eq!(set.paths()[0].cost, vec![0.0, 0.0]);
    }

    #[test]
    fn high_dimension_weights() {
        // r = 8 like a multi-mode WaveMin instance.
        let mut g = MospGraph::new(8);
        let vs = g.add_vertices(3);
        g.add_arc(vs[0], vs[1], vec![1.0; 8]).unwrap();
        g.add_arc(vs[1], vs[2], vec![2.0; 8]).unwrap();
        let set = solve(&g, vs[0], vs[2], &spec(None, None), None).unwrap();
        assert_eq!(set.paths()[0].cost, vec![3.0; 8]);
    }
}
