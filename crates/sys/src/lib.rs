#![warn(missing_docs)]

//! `nx-sys` — the system-integration layer around the accelerator model:
//! how software on a POWER9 or z15 actually reaches the compression
//! engine, and what that costs.
//!
//! The ISCA 2020 paper stresses that the accelerator's value depends on
//! the *integration stack*, not just the engine:
//!
//! * On **POWER9**, user space fills a [Coprocessor Request Block](crb)
//!   and issues a `paste` to a [VAS window](vas); the NX unit [DMAs](dma)
//!   source data through the nest, compresses, DMAs the result back and
//!   posts a CSB the user [polls or receives an interrupt for](completion).
//!   Address translation happens in the NX [ERAT](erat); a page fault
//!   aborts the job with partial progress and software touches the page
//!   and resubmits.
//! * On **z15**, the `DFLTCC` instruction runs [synchronously](zsync) on
//!   the core, serviced by the on-chip accelerator shared by all cores.
//!
//! This crate models all of those paths on the `nx-sim` kernel, using a
//! [cost model](cost) *calibrated against the cycle-accurate engine model
//! in `nx-accel`*, plus the [multi-core software baseline](software), the
//! [chip/drawer topologies](chip) for aggregate-throughput studies, and
//! the open/closed-loop [workload generators](workload). The event-driven
//! [runner] executes whole experiments (E6, E7, E9, E14, E15, E18) and
//! reports latency percentiles, throughput and recovery counts.
//!
//! It keeps only what those experiments run. VAS window credits are
//! accounted once, by `nx_core::service::sched`; a CRB is its
//! [function code](Function), and a job's DMA is one [`dma::DmaEngines`]
//! pair per unit. The figures read [`ExperimentResult`]; the simulator
//! emits no spans.

pub mod chip;
pub mod completion;
pub mod cost;
pub mod crb;
pub mod dma;
pub mod erat;
pub mod runner;
pub mod software;
pub mod vas;
pub mod workload;
pub mod zsync;

pub use chip::{Chip, Topology};
pub use completion::CompletionMode;
pub use cost::CostModel;
pub use crb::Function;
pub use runner::{ExperimentResult, SystemSim};
pub use software::SoftwareBaseline;
pub use workload::{RequestStream, SizeDistribution};
