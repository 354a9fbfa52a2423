//! # fluid-nn
//!
//! Neural-network building blocks with hand-written backpropagation, sized
//! for the Fluid DyDNN paper's 3-conv + 1-FC model family.
//!
//! The distinguishing feature is that the parameterised layers are
//! **ranged**: [`RangedConv2d`] and [`RangedLinear`] hold full-width weight
//! tensors but can run forward/backward on an arbitrary *channel range*
//! (conv) or *input-feature range* (linear). Width-scalable Dynamic DNNs
//! use prefix ranges `0..w`; Fluid DyDNNs use block ranges such as
//! `c50..c100` for the independently-operable *upper* sub-networks.
//!
//! Gradients are accumulated into per-layer `grad` tensors (zero outside
//! the active range), and the optimizers skip zero-gradient elements so
//! that training one sub-network never perturbs the weights of another.
//!
//! ## Example
//!
//! ```
//! use fluid_nn::{RangedConv2d, ChannelRange};
//! use fluid_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::new(0);
//! let mut conv = RangedConv2d::new(16, 1, 3, 1, 1, &mut rng);
//! let x = Tensor::zeros(&[2, 1, 28, 28]);
//! // Run only the lower 50% (8 of 16) output kernels.
//! let y = conv.forward(&x, ChannelRange::new(0, 1), ChannelRange::new(0, 8), false);
//! assert_eq!(y.dims(), &[2, 8, 28, 28]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod flatten;
mod gradcheck;
mod linear;
mod loss;
mod optim;
mod pool;
mod qlayers;
mod range;
mod schedule;

pub use activation::Relu;
pub use conv::RangedConv2d;
pub use flatten::Flatten;
pub use fluid_tensor::Workspace;
pub use gradcheck::{finite_diff_gradient, max_relative_error};
pub use linear::RangedLinear;
pub use loss::{accuracy, softmax_cross_entropy, softmax_cross_entropy_ws};
pub use optim::{Adam, Optimizer, ParamSet, Sgd};
pub use pool::MaxPool2d;
pub use qlayers::{QuantConv2d, QuantLinear};
pub use range::ChannelRange;
pub use schedule::{ConstantLr, CosineLr, LrSchedule, StepLr};
