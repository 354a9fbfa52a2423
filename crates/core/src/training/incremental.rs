//! Incremental training of the Dynamic DNN ladder (paper reference \[3\]).

use super::plain::{train_phase, train_subnet_epochs};
use super::{TrainConfig, TrainStats};
use fluid_data::Dataset;
use fluid_models::DynamicModel;
use fluid_nn::Sgd;

/// Trains a [`DynamicModel`] incrementally: levels are trained narrowest
/// first, and when training level `l` the weights of level `l−1` are frozen
/// (their gradients are cleared before every optimizer step), so each
/// deployed sub-network keeps working as wider ones are added.
///
/// This reproduces the incremental-training baseline the paper compares
/// against (\[3\]): smaller sub-networks are *contained* in larger ones, and
/// the added channel groups read all lower channels — which is exactly why
/// the upper weights end up useless on their own.
pub fn train_incremental(
    model: &mut DynamicModel,
    train: &Dataset,
    cfg: &TrainConfig,
) -> TrainStats {
    let mut stats = TrainStats::default();
    let specs: Vec<_> = model.specs().to_vec();
    let widths: Vec<usize> = model.net().arch().ladder.widths().to_vec();
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);

    for (level, spec) in specs.iter().enumerate() {
        let net = model.net_mut();
        stats.phases.push(match level {
            // Level 0 has nothing below it to protect: the plain primitive.
            0 => train_subnet_epochs(net, spec, train, cfg, &mut opt),
            _ => {
                let (seed, frozen) = (cfg.seed ^ level as u64, widths[level - 1]);
                train_phase(net, spec, train, cfg, &mut opt, seed, frozen)
            }
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::evaluate_subnet;
    use fluid_data::SynthDigits;
    use fluid_models::Arch;
    use fluid_tensor::Prng;

    #[test]
    fn incremental_preserves_narrow_subnet_outputs() {
        // Once the 25% level is trained, training a wider level must not
        // change the 25% function at all (freezing): the paper's runtime
        // relies on switching widths without re-validation.
        let (train, _) = SynthDigits::new(5).train_test(200, 50);
        let mut model = DynamicModel::new(Arch::tiny_28(), &mut Prng::new(2));
        let mut cfg = TrainConfig::fast_test();
        let _ = train_incremental(&mut model, &train, &cfg);

        let (x, _) = train.gather(&[0, 1, 2, 3]);
        let (spec0, spec1) = (model.level(0).clone(), model.level(1).clone());
        let l0_ref = model.net_mut().forward_subnet(&x, &spec0, false);
        // Three more epochs of level 1 over the frozen level-0 prefix.
        let frozen = model.net().arch().ladder.widths()[0];
        let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        cfg.epochs_per_phase = 3;
        let net = model.net_mut();
        let _ = train_phase(net, &spec1, &train, &cfg, &mut opt, 9, frozen);
        let l0_after = net.forward_subnet(&x, &spec0, false);
        assert!(
            l0_ref.allclose(&l0_after, 1e-6),
            "frozen 25% subnet drifted by {}",
            l0_ref.max_abs_diff(&l0_after)
        );
    }

    #[test]
    fn incremental_all_levels_learn() {
        let (train, test) = SynthDigits::new(6).train_test(400, 100);
        let mut model = DynamicModel::new(Arch::tiny_28(), &mut Prng::new(3));
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs_per_phase = 2;
        let _ = train_incremental(&mut model, &train, &cfg);
        for level in 0..model.specs().len() {
            let spec = model.level(level).clone();
            let acc = evaluate_subnet(model.net_mut(), &spec, &test);
            assert!(acc > 0.3, "level {level} accuracy {acc}");
        }
    }
}
