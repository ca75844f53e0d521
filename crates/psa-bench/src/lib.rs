//! Reproduction harness library.
//!
//! One function per paper artifact (Table 1, Table 2, Table 3, the in-text
//! §5.1/§5.2/§5.3 numbers), each returning structured rows that the `repro`
//! binary prints alongside the paper's published values. Everything is
//! deterministic: same seed, same table.

pub mod artifact;
pub mod export;
pub mod export4;
pub mod export5;
pub mod export6;
pub mod export7;
pub mod export8;
pub mod micro;
pub mod paper;
pub mod runner;
pub mod tables;

pub use export::{collect, BenchExport, TracedRun};
pub use export4::{collect4, AllocationCounts, Bench4Export};
pub use export5::{collect5, Bench5Export, Bench5Workload};
pub use export6::{collect6, Bench6Export};
pub use export7::{collect7, Bench7Export, Bench7Workload};
pub use export8::{collect8, Bench8Cell, Bench8Export};
pub use runner::{Experiment, RunOutcome};
pub use tables::{reductions, table1, table2, table3, text_numbers, TableRow};
