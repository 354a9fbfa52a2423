//! Training algorithms: plain, incremental (\[3\]) and nested incremental
//! (Algorithm 1 of the paper, for any number of blocks). One epoch loop
//! (in `plain`) serves all three.

mod incremental;
mod nested;
mod plain;

pub use incremental::train_incremental;
pub use nested::{train_nested, NestedSchedule};
pub use plain::{evaluate_subnet, train_plain, train_subnet_epochs};

use fluid_models::ConvNet;
use fluid_nn::ChannelRange;

/// Hyper-parameters shared by all training algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch size (`drop_last` semantics).
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay applied through the gradient.
    pub weight_decay: f32,
    /// Epochs per training phase (per sub-network per iteration).
    pub epochs_per_phase: usize,
    /// Shuffle seed for the data loader.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            epochs_per_phase: 1,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self {
            batch_size: 16,
            lr: 0.08,
            momentum: 0.9,
            weight_decay: 0.0,
            epochs_per_phase: 1,
            seed: 1,
        }
    }
}

/// Per-phase training record.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Which sub-network the phase trained.
    pub subnet: String,
    /// Mean loss of each epoch in the phase.
    pub epoch_losses: Vec<f32>,
}

/// Full training history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainStats {
    /// Phases in execution order.
    pub phases: Vec<PhaseStats>,
}

impl TrainStats {
    /// Mean loss of the final epoch of the final phase, if any.
    pub fn final_loss(&self) -> Option<f32> {
        self.phases.last()?.epoch_losses.last().copied()
    }

    /// Appends another history.
    pub fn extend(&mut self, other: TrainStats) {
        self.phases.extend(other.phases);
    }
}

/// Zeroes the gradients lying inside a previously-trained prefix window so
/// the optimizer cannot disturb it (the freezing step of incremental
/// training \[3\]).
///
/// `frozen_width` is the channel prefix to protect; the FC columns covering
/// those channels and all biases up to the prefix are protected too.
pub(crate) fn freeze_prefix(net: &mut ConvNet, frozen_width: usize) {
    let arch = net.arch().clone();
    let fpc = arch.features_per_channel();
    for conv in net.convs_mut() {
        let kk = conv.kernel() * conv.kernel();
        let ci_max = conv.c_in_max();
        for co in 0..frozen_width.min(conv.c_out_max()) {
            // Freeze this output channel's rows for all frozen input cols.
            let in_hi = if ci_max == arch.image_channels {
                ci_max // first layer: image inputs always inside the prefix
            } else {
                frozen_width.min(ci_max)
            };
            let base = co * ci_max * kk;
            for x in &mut conv.wgrad_mut().data_mut()[base..base + in_hi * kk] {
                *x = 0.0;
            }
            conv.bgrad_mut().data_mut()[co] = 0.0;
        }
    }
    let cols = ChannelRange::prefix(frozen_width).to_feature_range(fpc);
    let fc = net.fc_mut();
    let in_max = fc.in_features_max();
    let out = fc.out_features();
    for r in 0..out {
        for x in &mut fc.wgrad_mut().data_mut()[r * in_max + cols.lo..r * in_max + cols.hi] {
            *x = 0.0;
        }
    }
    // The FC bias is shared by every prefix sub-network, so once any level
    // is frozen the bias must stop moving too — otherwise the frozen
    // level's logits drift.
    fc.bgrad_mut().fill(0.0);
}
