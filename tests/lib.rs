//! Shared fixtures for the cross-crate integration tests.

use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
use fluid_data::{Dataset, SynthDigits};
use fluid_models::{Arch, FluidModel};
use fluid_tensor::{Prng, Tensor};

/// Trains a small fluid model on a small synthetic dataset; shared by the
/// integration tests that need *trained* weights but not paper-scale
/// accuracy.
pub fn quick_trained_fluid(seed: u64) -> (FluidModel, Dataset) {
    let (train, test) = SynthDigits::new(seed).train_test(400, 120);
    let mut model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(seed));
    let cfg = TrainConfig::fast_test();
    let _ = train_nested(&mut model, &train, &cfg, &NestedSchedule::fast_test());
    (model, test)
}

/// The paper-architecture fluid model with fresh random weights (for tests
/// that check structure, not learning).
pub fn fresh_paper_fluid(seed: u64) -> FluidModel {
    FluidModel::new(Arch::paper(), &mut Prng::new(seed))
}

/// The held-out int8 calibration batch: 64 images from a seed no
/// training set draws from.
pub fn calibration_batch() -> Tensor {
    let ds = SynthDigits::new(0xCA11B).generate(64);
    let (images, _) = ds.gather(&(0..64).collect::<Vec<_>>());
    images
}
