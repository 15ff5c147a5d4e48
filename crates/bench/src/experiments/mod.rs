//! One module per table/figure of the paper.
//!
//! Each experiment exposes `run()` returning one or more
//! [`crate::format::TableWriter`]s; the corresponding `src/bin/` binary
//! prints them and saves JSON under `results/`. `all_experiments` runs the
//! full set and regenerates `EXPERIMENTS.md`.

pub mod durability_sweep;
pub mod fault_sweep;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod online_drift;
pub mod sim_scale;
pub mod table1;
pub mod table2;
pub mod table4;
