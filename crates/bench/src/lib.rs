//! Experiment harness regenerating the tables and figures of the
//! EDBT'17 evaluation (§4), plus the build and snapshot timing
//! binaries.
//!
//! One binary per artifact:
//!
//! | Artifact | Binary | What it prints |
//! |---|---|---|
//! | Table 1 | `table1` | relative HLL cost and candSize error per data set |
//! | Figure 2a–d | `fig2` | CPU time vs radius for Hybrid/LSH/Linear |
//! | Figure 3 left | `fig3` | avg/max/min output size vs radius (Webspam) |
//! | Figure 3 right | `fig3` | % of linear-search calls vs radius (Webspam) |
//! | Algorithm 2 per query | `explain` | collisions, candSize estimate, costs, decision |
//! | `BENCH_build.json` | `build_throughput` | per-point vs blocked vs sharded build points/s |
//! | `BENCH_snapshot.json` | `snapshot` | rebuild vs cold start in every load mode |
//!
//! Plus Criterion micro benches (`hashing`, `hll`, `kernels`;
//! `cargo bench -p hlsh-bench`). Whole-query throughput, recall and
//! the serving layers are measured by the gated `perfbench` harness.
//!
//! The paper binaries accept `--scale <f>` (fraction of the paper's n,
//! default 0.05), `--full` (paper-scale n), `--queries`, `--runs`,
//! `--seed`, `--dataset`, and print plain-text tables plus
//! machine-readable CSV.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod experiment;
pub mod tablefmt;

pub use args::CommonArgs;
pub use experiment::{run_dataset, ExperimentConfig, RadiusRow};
pub use tablefmt::Table;
