//! # fluid-models
//!
//! The three model families compared in the paper, built over the ranged
//! layers of [`fluid_nn`]:
//!
//! * [`StaticModel`] — a plain dense CNN; only the full 100% network exists.
//! * [`DynamicModel`] — a width-slimmable CNN (incremental training, paper
//!   ref \[3\]): sub-network `w` uses channel prefix `0..w` of every layer,
//!   so larger sub-networks *contain* smaller ones and upper channel groups
//!   read lower activations (triangular connectivity).
//! * [`FluidModel`] — the paper's contribution: the channel space is split
//!   into a *lower* and an *upper* block with **no cross-block conv
//!   connections**. The upper sub-networks (`upper25`, `upper50`) run
//!   standalone, and the combined 75%/100% models merge the blocks only at
//!   the final FC layer via partial-logit summation. The same type holds
//!   the `N`-block generalisation ([`FluidModel::blocks`]): how many
//!   devices the channel space is split for is a constructor argument, not
//!   a second model family.
//!
//! All three share [`ConvNet`] — the paper's 3-conv + 1-FC architecture —
//! and are described by [`SubnetSpec`]s (sets of [`BranchSpec`] chains), so
//! the distributed runtime can deploy any sub-network by name.
//!
//! ## Example
//!
//! ```
//! use fluid_models::{Arch, FluidModel};
//! use fluid_tensor::{Prng, Tensor};
//!
//! let mut model = FluidModel::new(Arch::paper(), &mut Prng::new(0));
//! let x = Tensor::zeros(&[1, 1, 28, 28]);
//! let logits = model.infer("upper50", &x);
//! assert_eq!(logits.dims(), &[1, 10]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod checkpoint;
mod dynamic_model;
mod flops;
mod fluid_model;
mod network;
mod quantized;
mod spec;
mod static_model;

pub use arch::{Arch, WidthLadder};
pub use checkpoint::{
    load_net, load_net_from_path, reload_net, reload_net_from_path, save_net, save_net_to_path,
    CheckpointError,
};
pub use dynamic_model::DynamicModel;
pub use flops::{branch_cost, static_partition_comm_bytes, subnet_cost, CostReport};
pub use fluid_model::{standard_specs, FluidModel, STANDALONE_SUBNETS};
pub use network::ConvNet;
pub use quantized::{
    calibrate, top1_agreement, BranchCalibration, Calibration, Precision, QuantizedNet,
};
pub use spec::{BranchSpec, SubnetSpec};
pub use static_model::StaticModel;
