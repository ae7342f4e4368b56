//! # energy-harvester
//!
//! A Rust reproduction of *"Integrated approach to energy harvester mixed
//! technology modelling and performance optimisation"* (Wang, Kazmierski,
//! Al-Hashimi, Beeby, Torah — DATE 2008): a complete mixed physical-domain
//! model of a vibration energy harvester (micro-generator, voltage booster,
//! super-capacitor storage) simulated on one platform, plus the integrated
//! genetic-algorithm optimisation loop that tunes the generator coil and the
//! booster together.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`numerics`] — dense and sparse linear algebra, GMRES, interpolation
//!   and the other numerical kernels the simulator is built on.
//! * [`mna`] — the mixed-technology transient simulation kernel
//!   (the stand-in for the paper's VHDL-AMS simulator), including the
//!   [`netlist`] front-end that parses SPICE-flavoured circuit files with
//!   subcircuit elaboration (see `docs/netlist.md`).
//! * [`models`] — the harvester component models and system assembly
//!   (micro-generator models of Fig. 2, boosters of Figs. 4 and 9, storage,
//!   envelope acceleration, the synthetic experimental reference).
//! * [`optim`] — the genetic algorithm and alternative optimisers, plus the
//!   parallel batch-evaluation engine that shards each generation's
//!   simulations over worker threads with bit-identical results.
//! * [`experiments`] — one entry point per table and figure of the paper's
//!   evaluation.
//! * [`service`] — the fault-tolerant simulation job service: a queue and
//!   worker pool with wall-clock deadlines, retry with recovery-policy
//!   escalation, panic isolation and a poison-proof content-addressed
//!   design-point cache (see `docs/service.md`).
//!
//! # Quickstart
//!
//! ```
//! use energy_harvester::models::HarvesterConfig;
//! use energy_harvester::mna::transient::TransientOptions;
//!
//! # fn main() -> Result<(), energy_harvester::mna::MnaError> {
//! let mut config = HarvesterConfig::unoptimised(); // the paper's Table 1 design
//! config.storage.capacitance = 100e-6; // a small capacitor for a fast doc test
//! let run = config.simulate(TransientOptions {
//!     t_stop: 0.5,
//!     dt: 5e-5,
//!     ..TransientOptions::default()
//! })?;
//! println!("storage reached {:.3} V", run.final_storage_voltage());
//! println!("efficiency loss (Eq. 9): {:.1} %", 100.0 * run.efficiency_loss());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the figure-by-figure reproduction binaries and
//! `EXPERIMENTS.md` for the paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use harvester_core as models;
pub use harvester_experiments as experiments;
pub use harvester_mna as mna;
pub use harvester_numerics as numerics;
pub use harvester_optim as optim;
pub use harvester_service as service;

pub use harvester_mna::netlist;
