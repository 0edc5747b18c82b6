//! Multi-probe and covering LSH — the extensions §5 of the paper names
//! as future work for the hybrid strategy.
//!
//! * **Multi-probe LSH** (Lv, Josephson, Wang, Charikar, Li, VLDB'07):
//!   instead of one bucket per table, probe the `T` most promising
//!   buckets, trading fewer tables for more lookups. The paper observes
//!   that multi-probe schemes "typically require a large number of
//!   probes" — exactly the regime where duplicate removal dominates, so
//!   the hybrid cost model applies verbatim: sum probed bucket sizes
//!   (`#collisions`), merge probed-bucket HLLs (`candSize`), compare
//!   with the linear cost. [`multiprobe_query`] runs the level query
//!   over a multi-probe view of any [`HybridLshIndex`](crate::HybridLshIndex)
//!   whose g-functions implement [`ProbeSequence`]: the view changes
//!   only step S1, so the decision and both arms are the single-probe
//!   engine's, and `T = 1` probe per table answers exactly as
//!   [`Engine::query_with_strategy`](crate::Engine::query_with_strategy).
//!
//! * **Covering LSH** (Pagh, SODA'16): a Hamming-space construction
//!   with *zero false negatives* within radius `r`. We implement the
//!   core scheme — random map `a : [d] → F₂^{r+1}`, one table per
//!   nonzero dual vector `v`, each projecting onto
//!   `{i : ⟨a(i), v⟩ = 1}` — plus the dimension-splitting trick that
//!   keeps the table count practical at larger radii, and the same
//!   per-bucket HLL instrumentation so hybrid decisions work there too
//!   ([`CoveringLshIndex`], queried through the same level engine).
//!
//! # Example
//!
//! Multi-probe trades tables for probes: here 6 tables at 3 probes
//! each stand in for a larger single-probe index, while the hybrid
//! cost model still guards against dense queries. Every reported id is
//! verified, so the output is exact over the probed candidates.
//!
//! ```
//! use hlsh_core::{CostModel, IndexBuilder, Strategy};
//! use hlsh_families::PStableL2;
//! use hlsh_core::probe::multiprobe_query;
//! use hlsh_vec::{DenseDataset, L2};
//!
//! let data = DenseDataset::from_rows(2, (0..300).map(|i| [(i % 20) as f32, (i / 20) as f32]));
//! let index = IndexBuilder::new(PStableL2::new(2, 2.0), L2)
//!     .tables(6)
//!     .hash_len(4)
//!     .seed(9)
//!     .cost_model(CostModel::from_ratio(6.0))
//!     .build(data);
//!
//! let q = [5.0f32, 5.0];
//! let out = multiprobe_query(&index, &q, 1.0, 3, Strategy::Hybrid);
//! assert!(out.ids.contains(&105)); // the grid point at exactly (5, 5)
//! assert!(out.ids.iter().all(|&id| {
//!     hlsh_vec::dense::l2(index.data().row(id as usize), &q) <= 1.0
//! }));
//! ```

pub use crate::covering::{CoveringGFn, CoveringLshIndex};
pub use crate::multiprobe::{multiprobe_query, ProbeSequence};
pub use crate::perturb::{PerturbationGenerator, ProbeOption};
