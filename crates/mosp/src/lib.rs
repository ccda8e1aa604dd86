//! Multi-objective shortest path (MOSP) solvers.
//!
//! WaveMin casts polarity assignment inside one feasible time interval as a
//! MOSP problem on a layered DAG: every arc carries an `r = |S|`-dimensional
//! noise vector, a path's cost is the componentwise sum of its arc weights,
//! and the wanted solution is the Pareto-optimal path minimizing the maximum
//! component (the *min–max* or *max-ordering* objective).
//!
//! Even for `r = 2` the decision version is NP-complete. One entry point,
//! [`solve::solve`], runs a label-correcting DP over the DAG in one of two
//! modes, chosen by its [`SolveSpec`]:
//!
//! * `epsilon: None` — exact Pareto enumeration (exponential worst case);
//! * `epsilon: Some(ε)` — Warburton's fully polynomial ε-approximation
//!   (OR 35(1), 1987): weights are rounded onto per-dimension grids of
//!   `ε·UB/n` so the label space per vertex is polynomial in `n/ε`, and
//!   every Pareto point is approximated within `(1+ε)`.
//!
//! The same spec carries an optional per-vertex label cap and a resource
//! [`Budget`].
//!
//! # Example
//!
//! ```
//! use wavemin_mosp::{solve, MospGraph, SolveSpec};
//!
//! // Two parallel arcs: (10, 1) and (1, 10) — both Pareto-optimal.
//! let mut g = MospGraph::new(2);
//! let s = g.add_vertex();
//! let t = g.add_vertex();
//! g.add_arc(s, t, vec![10.0, 1.0]).unwrap();
//! g.add_arc(s, t, vec![1.0, 10.0]).unwrap();
//! let set = solve::solve(&g, s, t, &SolveSpec::default(), None).unwrap();
//! assert_eq!(set.paths().len(), 2);
//! // Min–max picks either (max component 10 both ways).
//! assert_eq!(set.min_max().unwrap().max_component(), 10.0);
//!
//! // The ε-approximation with a label cap finds the same min–max here.
//! let spec = SolveSpec { epsilon: Some(0.01), max_labels: Some(64), ..SolveSpec::default() };
//! let approx = solve::solve(&g, s, t, &spec, None).unwrap();
//! assert_eq!(approx.min_max().unwrap().max_component(), 10.0);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod graph;
pub mod kernels;
pub mod pareto;
pub mod solve;
pub mod storage;

pub use budget::{Budget, Exhaustion};
pub use graph::{MospError, MospGraph, VertexId};
pub use kernels::{CostPrecision, Kernel};
pub use pareto::{ParetoFront, ParetoPath, ParetoSet, SolveStats};
pub use solve::{SolveObserver, SolveSpec};
pub use storage::CompactCosts;
