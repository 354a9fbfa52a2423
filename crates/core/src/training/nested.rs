//! Nested incremental training — Algorithm 1 of the paper.

use super::{plain::train_subnet_epochs, TrainConfig, TrainStats};
use fluid_data::Dataset;
use fluid_models::FluidModel;
use fluid_nn::Sgd;

/// Which sub-networks each Algorithm 1 iteration visits, in order.
///
/// Line 2–5 of the paper's Algorithm 1 trains the base ladder
/// (25%, 50%, 75%, 100% ≙ `lower25`, `lower50`, `combined75`,
/// `combined100`); line 6–10 re-trains the nested upper ladder
/// (`upper25`, `upper50`) so those blocks also work standalone. Because all
/// sub-networks share one weight store, the paper's "copy weights to the
/// next model" steps are identities here — re-training *is* the copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedSchedule {
    /// Number of outer iterations (`niters` in Algorithm 1).
    pub iterations: usize,
    /// The base ladder phase, by sub-network name.
    pub base_ladder: Vec<String>,
    /// The nested upper ladder phase, by sub-network name.
    pub upper_ladder: Vec<String>,
}

impl Default for NestedSchedule {
    fn default() -> Self {
        Self {
            iterations: 2,
            base_ladder: vec![
                "lower25".into(),
                "lower50".into(),
                "combined75".into(),
                "combined100".into(),
            ],
            upper_ladder: vec!["upper25".into(), "upper50".into()],
        }
    }
}

impl NestedSchedule {
    /// A one-iteration schedule for fast tests.
    pub fn fast_test() -> Self {
        Self {
            iterations: 1,
            ..Self::default()
        }
    }

    /// Algorithm 1 for an `n_blocks`-way model ([`FluidModel::blocks`]) —
    /// the paper states it "is applicable to any number" of sub-networks.
    /// The base ladder walks the combined prefixes narrow → wide (`block0`,
    /// `combined2`, …, `combined{N}`); the nested ladder re-trains each
    /// remaining block standalone (`block1` … `block{N-1}`).
    pub fn blocks(n_blocks: usize, iterations: usize) -> Self {
        let combined = (2..=n_blocks).map(|k| format!("combined{k}"));
        Self {
            iterations,
            base_ladder: std::iter::once("block0".to_owned())
                .chain(combined)
                .collect(),
            upper_ladder: (1..n_blocks).map(|i| format!("block{i}")).collect(),
        }
    }
}

/// Trains a [`FluidModel`] with **nested incremental training**
/// (Algorithm 1): each outer iteration first fine-tunes the base ladder,
/// then re-trains the nested upper sub-networks, iterating until the shared
/// weights serve both the standalone and the combined models. The default
/// schedule is the paper's two-block ladder; [`NestedSchedule::blocks`]
/// is the same algorithm for an `N`-block model.
///
/// # Panics
///
/// Panics if the schedule names a sub-network the model does not register.
pub fn train_nested(
    model: &mut FluidModel,
    train: &Dataset,
    cfg: &TrainConfig,
    schedule: &NestedSchedule,
) -> TrainStats {
    let mut stats = TrainStats::default();
    for iter in 0..schedule.iterations {
        // Later iterations are the paper's "fine-tune all the models"
        // passes: anneal the rate so the phases converge on shared weights
        // instead of oscillating, and start each iteration with fresh
        // momentum so one phase's velocity cannot drag another's weights.
        let lr = cfg.lr * 0.5f32.powi(iter as i32);
        let mut opt = Sgd::new(lr, cfg.momentum, cfg.weight_decay);
        // Line 2-5: base ladder (weights shared ⇒ copies are implicit),
        // then line 6-10: the nested ladder, trained for standalone use.
        for name in schedule.base_ladder.iter().chain(&schedule.upper_ladder) {
            let spec = model
                .spec(name)
                .unwrap_or_else(|| panic!("schedule names unknown sub-network {name:?}"))
                .clone();
            stats.phases.push(train_subnet_epochs(
                model.net_mut(),
                &spec,
                train,
                cfg,
                &mut opt,
            ));
        }
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

    fn tiny_fluid() -> FluidModel {
        FluidModel::new(Arch::tiny_28(), &mut Prng::new(4))
    }

    fn accuracy_of(model: &mut FluidModel, test: &Dataset, name: &str) -> f32 {
        let spec = model.spec(name).expect("spec").clone();
        evaluate_subnet(model.net_mut(), &spec, test)
    }

    fn assert_all_learn(model: &mut FluidModel, test: &Dataset, names: &[&str], floor: f32) {
        for name in names {
            let acc = accuracy_of(model, test, name);
            assert!(acc > floor, "{name} accuracy {acc} barely above chance");
        }
    }

    #[test]
    fn schedule_visits_all_phases() {
        let (train, _) = SynthDigits::new(8).train_test(100, 10);
        let mut model = tiny_fluid();
        let cfg = TrainConfig::fast_test();
        let stats = train_nested(&mut model, &train, &cfg, &NestedSchedule::fast_test());
        let visited: Vec<&str> = stats.phases.iter().map(|p| p.subnet.as_str()).collect();
        assert_eq!(
            visited,
            vec![
                "lower25",
                "lower50",
                "combined75",
                "combined100",
                "upper25",
                "upper50"
            ]
        );
    }

    #[test]
    fn every_subnet_learns_after_nested_training() {
        // The paper's core training claim: after Algorithm 1, *all six*
        // sub-networks (standalone and combined) classify well above chance.
        let (train, test) = SynthDigits::new(9).train_test(500, 150);
        let mut model = tiny_fluid();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs_per_phase = 2;
        let schedule = NestedSchedule {
            iterations: 2,
            ..NestedSchedule::default()
        };
        let _ = train_nested(&mut model, &train, &cfg, &schedule);
        let names = [
            "lower25",
            "lower50",
            "upper25",
            "upper50",
            "combined75",
            "combined100",
        ];
        assert_all_learn(&mut model, &test, &names, 0.4);
    }

    #[test]
    fn combined_outperforms_or_matches_halves() {
        // Wider should help (or at least not catastrophically hurt): the
        // regularization argument of the paper's accuracy figure.
        let (train, test) = SynthDigits::new(10).train_test(500, 150);
        let mut model = tiny_fluid();
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs_per_phase = 2;
        let _ = train_nested(&mut model, &train, &cfg, &NestedSchedule::default());
        let combined = accuracy_of(&mut model, &test, "combined100");
        let lower = accuracy_of(&mut model, &test, "lower25");
        assert!(
            combined + 0.05 >= lower,
            "combined100 {combined} much worse than lower25 {lower}"
        );
    }

    #[test]
    fn block_schedule_ladder_shape() {
        let s = NestedSchedule::blocks(4, 3);
        assert_eq!(s.iterations, 3);
        assert_eq!(
            s.base_ladder,
            vec!["block0", "combined2", "combined3", "combined4"]
        );
        assert_eq!(s.upper_ladder, vec!["block1", "block2", "block3"]);
        // One block: nothing to combine, nothing nested.
        let one = NestedSchedule::blocks(1, 1);
        assert_eq!((one.base_ladder.len(), one.upper_ladder.len()), (1, 0));
    }

    #[test]
    fn two_block_model_learns_every_unit() {
        let (train, test) = SynthDigits::new(61).train_test(500, 150);
        let mut model = FluidModel::blocks(Arch::tiny_28(), 2, &mut Prng::new(0));
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs_per_phase = 2;
        let stats = train_nested(&mut model, &train, &cfg, &NestedSchedule::blocks(2, 2));
        let visited: Vec<&str> = stats.phases.iter().map(|p| p.subnet.as_str()).collect();
        let ladder = ["block0", "combined2", "block1"];
        assert_eq!(visited, [ladder, ladder].concat());
        assert_all_learn(&mut model, &test, &ladder, 0.3);
    }

    #[test]
    fn four_block_paper_arch_learns_every_unit() {
        // 4-channel blocks on the paper architecture: every standalone
        // block and the combined prefixes must classify above chance.
        let (train, test) = SynthDigits::new(62).train_test(600, 120);
        let mut model = FluidModel::blocks(Arch::paper(), 4, &mut Prng::new(1));
        // Narrow 4-channel blocks are sensitive to high rates; use the
        // default (paper-scale) hyper-parameters rather than the hot test
        // preset.
        let cfg = TrainConfig {
            epochs_per_phase: 1,
            seed: 62,
            ..TrainConfig::default()
        };
        let stats = train_nested(&mut model, &train, &cfg, &NestedSchedule::blocks(4, 2));
        assert_eq!(stats.phases.len(), 2 * 7);
        let names = [
            "block0",
            "block1",
            "block2",
            "block3",
            "combined2",
            "combined4",
        ];
        assert_all_learn(&mut model, &test, &names, 0.2);
    }

    #[test]
    #[should_panic(expected = "unknown sub-network")]
    fn bad_schedule_panics() {
        let (train, _) = SynthDigits::new(11).train_test(50, 10);
        let mut model = tiny_fluid();
        let schedule = NestedSchedule {
            iterations: 1,
            base_ladder: vec!["nope".into()],
            upper_ladder: vec![],
        };
        let _ = train_nested(&mut model, &train, &TrainConfig::fast_test(), &schedule);
    }
}
