//! # fluid-core
//!
//! The public API of the Fluid DyDNN reproduction: the paper's training
//! algorithms, the runtime controller that adapts between High-Accuracy and
//! High-Throughput modes, the reliability manager that reacts to device
//! failure, and the end-to-end experiment drivers that regenerate the
//! paper's evaluation.
//!
//! ## The three training algorithms
//!
//! * [`training::train_plain`] — ordinary SGD on one sub-network
//!   (the Static baseline).
//! * [`training::train_incremental`] — incremental training of a width
//!   ladder with previous levels frozen (the Dynamic baseline, paper
//!   ref \[3\]).
//! * [`training::train_nested`] — **Algorithm 1**, nested incremental
//!   training: iterate (base ladder → nested upper ladder) over shared
//!   weights so every standalone *and* combined sub-network works. The
//!   ladders are data ([`training::NestedSchedule`]): the default is the
//!   paper's two-block model, `NestedSchedule::blocks(n, iterations)` the
//!   same loop over an `n`-block one.
//!
//! All three run the same epoch loop
//! ([`training::train_subnet_epochs`]); they differ only in which
//! sub-networks they visit, in what order, and what they freeze.
//!
//! ## Quickstart
//!
//! ```no_run
//! use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
//! use fluid_core::Experiment;
//! use fluid_data::SynthDigits;
//! use fluid_models::{Arch, FluidModel};
//! use fluid_tensor::Prng;
//!
//! let (train, test) = SynthDigits::new(7).train_test(2000, 500);
//! let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
//! let cfg = TrainConfig::default();
//! let stats = train_nested(&mut model, &train, &cfg, &NestedSchedule::default());
//! println!("final loss {:?}", stats.final_loss());
//! let spec = model.spec("combined100").expect("spec").clone();
//! let acc = Experiment::evaluate_subnet(model.net_mut(), &spec, &test);
//! println!("combined100 accuracy {acc}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod error;
mod planner;
mod reliability;
mod report;
mod scenarios;
pub mod training;

pub use controller::{DeploymentPlan, Goal, RuntimeController};
pub use error::CoreError;
pub use planner::{best_ha_assignment, best_ht_assignment, enumerate_assignments, Assignment};
pub use reliability::{can_operate, surviving_subnet, ReliabilityManager};
pub use report::{format_accuracy_table, format_capability_matrix, format_throughput_table};
pub use scenarios::{AccuracyRow, Experiment, Fig2Accuracy};
