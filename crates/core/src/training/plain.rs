//! Plain SGD training of a single sub-network.

use super::{freeze_prefix, PhaseStats, TrainConfig, TrainStats};
use fluid_data::{DataLoader, Dataset};
use fluid_models::{ConvNet, StaticModel, SubnetSpec};
use fluid_nn::{accuracy, softmax_cross_entropy, Optimizer, Sgd};

/// Trains one sub-network for `cfg.epochs_per_phase` epochs with SGD,
/// returning the mean loss of each epoch.
///
/// This is the primitive all three training algorithms are built from;
/// they differ only in *which* sub-networks they train and in what order —
/// exactly how the paper presents them.
pub fn train_subnet_epochs(
    net: &mut ConvNet,
    spec: &SubnetSpec,
    train: &Dataset,
    cfg: &TrainConfig,
    opt: &mut Sgd,
) -> PhaseStats {
    train_phase(net, spec, train, cfg, opt, cfg.seed ^ 0x5eed, 0)
}

/// The one epoch loop: trains `spec` for `cfg.epochs_per_phase` epochs over
/// a loader shuffled by `loader_seed`, protecting the channel prefix
/// `0..frozen_width` from every optimizer step (incremental training's
/// freezing; `0` freezes nothing).
pub(crate) fn train_phase(
    net: &mut ConvNet,
    spec: &SubnetSpec,
    train: &Dataset,
    cfg: &TrainConfig,
    opt: &mut Sgd,
    loader_seed: u64,
    frozen_width: usize,
) -> PhaseStats {
    let mut epoch_losses = Vec::with_capacity(cfg.epochs_per_phase);
    let mut loader = DataLoader::new(train, cfg.batch_size, true, loader_seed);
    for _epoch in 0..cfg.epochs_per_phase {
        loader.reset();
        let mut total = 0.0f32;
        let mut batches = 0usize;
        while let Some((x, labels)) = loader.next_batch() {
            net.zero_grad();
            let logits = net.forward_subnet(&x, spec, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward_subnet(&grad, spec);
            if frozen_width > 0 {
                freeze_prefix(net, frozen_width);
            }
            let mut params = net.param_set();
            opt.step(&mut params);
            total += loss;
            batches += 1;
        }
        epoch_losses.push(if batches > 0 {
            total / batches as f32
        } else {
            f32::NAN
        });
    }
    PhaseStats {
        subnet: spec.name.clone(),
        epoch_losses,
    }
}

/// Trains a [`StaticModel`] (the paper's Static baseline) with plain SGD.
pub fn train_plain(model: &mut StaticModel, train: &Dataset, cfg: &TrainConfig) -> TrainStats {
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let spec = model.spec().clone();
    let phase = train_subnet_epochs(model.net_mut(), &spec, train, cfg, &mut opt);
    TrainStats {
        phases: vec![phase],
    }
}

/// Batched accuracy of a sub-network over a dataset.
pub fn evaluate_subnet(net: &mut ConvNet, spec: &SubnetSpec, ds: &Dataset) -> f32 {
    if ds.is_empty() {
        return 0.0;
    }
    let mut correct = 0.0f32;
    let mut seen = 0usize;
    let batch = 64usize;
    let mut i = 0;
    while i < ds.len() {
        let hi = (i + batch).min(ds.len());
        let idx: Vec<usize> = (i..hi).collect();
        let (x, labels) = ds.gather(&idx);
        let logits = net.forward_subnet(&x, spec, false);
        correct += accuracy(&logits, &labels) * labels.len() as f32;
        seen += labels.len();
        i = hi;
    }
    correct / seen as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_data::SynthDigits;
    use fluid_models::Arch;
    use fluid_tensor::Prng;

    #[test]
    fn plain_training_learns_tiny_task() {
        let (train, test) = SynthDigits::new(3).train_test(300, 100);
        let mut model = StaticModel::new(Arch::tiny_28(), &mut Prng::new(0));
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs_per_phase = 3;
        let stats = train_plain(&mut model, &train, &cfg);
        let losses = &stats.phases[0].epoch_losses;
        assert!(
            losses.last().expect("loss") < &losses[0],
            "loss must drop: {losses:?}"
        );
        let spec = model.spec().clone();
        let acc = evaluate_subnet(model.net_mut(), &spec, &test);
        assert!(acc > 0.5, "accuracy {acc} too low for the synthetic task");
    }

    #[test]
    fn evaluate_on_empty_dataset_is_zero() {
        let mut model = StaticModel::new(Arch::tiny_28(), &mut Prng::new(0));
        let empty = SynthDigits::new(0).generate(0);
        let spec = model.spec().clone();
        assert_eq!(evaluate_subnet(model.net_mut(), &spec, &empty), 0.0);
    }
}
