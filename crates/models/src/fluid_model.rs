//! The Fluid Dynamic DNN — the paper's contribution.

use crate::arch::Arch;
use crate::network::ConvNet;
use crate::spec::{BranchSpec, SubnetSpec};
use fluid_nn::ChannelRange;
use fluid_tensor::{Prng, Tensor};

/// A Fluid DyDNN: block-structured channel connectivity that makes the
/// upper sub-networks independently executable.
///
/// With the paper's `[4, 8, 12, 16]` ladder the channel space of every conv
/// layer splits at 8 into a *lower* and an *upper* block:
///
/// | sub-network   | conv channels | standalone? |
/// |---------------|---------------|-------------|
/// | `lower25`     | `0..4`        | yes         |
/// | `lower50`     | `0..8`        | yes         |
/// | `upper25`     | `8..12`       | yes         |
/// | `upper50`     | `8..16`       | yes         |
/// | `combined75`  | `lower50` + `upper25` | collective |
/// | `combined100` | `lower50` + `upper50` | collective |
///
/// Upper-block conv channels read only upper-block activations of the
/// previous layer (block-diagonal connectivity); the only cross-block
/// operation is the final FC, whose logits decompose into a sum of partial
/// products. That is what enables both execution modes of the paper:
///
/// * **High-Throughput**: `lower50` on the Master and `upper50` on the
///   Worker process *different* inputs concurrently.
/// * **High-Accuracy**: both devices run their branch on the *same* input
///   and the Master sums the partial logits — one tiny message per batch
///   instead of per-layer activation exchange.
///
/// The lower/upper split is the two-block case of a structure the paper
/// states "is applicable to any number" of sub-networks:
/// [`FluidModel::blocks`] splits the channel space into `N` equal blocks
/// instead, one standalone branch per device of an `N`-device system.
#[derive(Debug, Clone)]
pub struct FluidModel {
    net: ConvNet,
    specs: Vec<SubnetSpec>,
}

/// Names of the standalone fluid sub-networks, narrow to wide.
pub const STANDALONE_SUBNETS: [&str; 4] = ["lower25", "lower50", "upper25", "upper50"];

/// The standard fluid sub-network registry for `arch` (the table in
/// [`FluidModel`]'s docs). Specs are pure structure — derived from the
/// ladder and stage count alone — so callers that only need a spec (e.g.
/// the serving layer looking up `combined100` for a loaded checkpoint)
/// can build them without initializing any weights.
///
/// # Panics
///
/// Panics if the architecture's ladder has fewer than 4 levels (the
/// quarter structure needs 25/50/75/100 points).
///
/// # Example
///
/// ```
/// use fluid_models::{standard_specs, Arch};
/// let specs = standard_specs(&Arch::paper());
/// assert!(specs.iter().any(|s| s.name == "combined100"));
/// ```
pub fn standard_specs(arch: &Arch) -> Vec<SubnetSpec> {
    let w = arch.ladder.widths();
    assert!(
        w.len() >= 4,
        "fluid quarter structure needs a 4-level ladder"
    );
    let (c25, c50, c75, c100) = (w[0], w[1], w[2], w[3]);
    let stages = arch.conv_stages;

    let lower25 = BranchSpec::uniform("lower25", ChannelRange::new(0, c25), stages, true);
    let lower50 = BranchSpec::uniform("lower50", ChannelRange::new(0, c50), stages, true);
    let upper25 = BranchSpec::uniform("upper25", ChannelRange::new(c50, c75), stages, true);
    let upper50 = BranchSpec::uniform("upper50", ChannelRange::new(c50, c100), stages, true);

    let mut upper25_partial = upper25.clone();
    upper25_partial.fc_bias = false;
    let mut upper50_partial = upper50.clone();
    upper50_partial.fc_bias = false;

    vec![
        SubnetSpec::single(lower25),
        SubnetSpec::single(lower50.clone()),
        SubnetSpec::single(upper25),
        SubnetSpec::single(upper50),
        SubnetSpec::collective("combined75", vec![lower50.clone(), upper25_partial]),
        SubnetSpec::collective("combined100", vec![lower50, upper50_partial]),
    ]
}

/// The `n_blocks`-way registry behind [`FluidModel::blocks`]; like
/// [`standard_specs`] it is pure structure.
fn block_specs(arch: &Arch, n_blocks: usize) -> Vec<SubnetSpec> {
    assert!(n_blocks > 0, "zero blocks");
    let max = arch.ladder.max();
    assert!(
        max.is_multiple_of(n_blocks),
        "{max} channels not divisible into {n_blocks} blocks"
    );
    let bw = max / n_blocks;
    let block = |i: usize, fc_bias: bool| {
        let range = ChannelRange::new(i * bw, (i + 1) * bw);
        BranchSpec::uniform(&format!("block{i}"), range, arch.conv_stages, fc_bias)
    };
    let standalone = (0..n_blocks).map(|i| SubnetSpec::single(block(i, true)));
    let combined = (2..=n_blocks).map(|k| {
        let branches = (0..k).map(|i| block(i, i == 0)).collect();
        SubnetSpec::collective(&format!("combined{k}"), branches)
    });
    standalone.chain(combined).collect()
}

impl FluidModel {
    /// Creates a fluid model with fresh weights and the standard sub-network
    /// registry listed in the type docs.
    ///
    /// # Panics
    ///
    /// Panics if the architecture's ladder has fewer than 4 levels (the
    /// quarter structure needs 25/50/75/100 points).
    pub fn new(arch: Arch, rng: &mut Prng) -> Self {
        let specs = standard_specs(&arch);
        Self {
            net: ConvNet::new(arch, rng),
            specs,
        }
    }

    /// Creates a fluid model with fresh weights whose channel space splits
    /// into `n_blocks` equal, mutually isolated blocks. Registered, in order:
    ///
    /// * `block0` … `block{N-1}` — standalone, one per device;
    /// * `combined2` … `combined{N}` — blocks `0..k` merged at the FC layer
    ///   (`block0` owns the bias).
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks == 0` or the architecture's maximum width is not
    /// divisible by `n_blocks`.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_models::{Arch, FluidModel};
    /// use fluid_tensor::{Prng, Tensor};
    /// let mut m = FluidModel::blocks(Arch::paper(), 4, &mut Prng::new(0));
    /// let x = Tensor::zeros(&[1, 1, 28, 28]);
    /// assert_eq!(m.infer("block3", &x).dims(), &[1, 10]);
    /// assert_eq!(m.infer("combined4", &x).dims(), &[1, 10]);
    /// ```
    pub fn blocks(arch: Arch, n_blocks: usize, rng: &mut Prng) -> Self {
        let specs = block_specs(&arch, n_blocks);
        Self {
            net: ConvNet::new(arch, rng),
            specs,
        }
    }

    /// All sub-network specs.
    pub fn specs(&self) -> &[SubnetSpec] {
        &self.specs
    }

    /// Looks up a sub-network by name (`"lower50"`, `"combined100"`, …).
    pub fn spec(&self, name: &str) -> Option<&SubnetSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// The underlying network.
    pub fn net(&self) -> &ConvNet {
        &self.net
    }

    /// Mutable access to the underlying network (training).
    pub fn net_mut(&mut self) -> &mut ConvNet {
        &mut self.net
    }

    /// Runs inference with the named sub-network.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered sub-network.
    pub fn infer(&mut self, name: &str, x: &Tensor) -> Tensor {
        let spec = self
            .spec(name)
            .unwrap_or_else(|| panic!("unknown sub-network {name:?}"))
            .clone();
        self.net.forward_subnet(x, &spec, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_six_subnets() {
        let m = FluidModel::new(Arch::paper(), &mut Prng::new(0));
        let names: Vec<&str> = m.specs().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "lower25",
                "lower50",
                "upper25",
                "upper50",
                "combined75",
                "combined100"
            ]
        );
    }

    #[test]
    fn all_specs_validate() {
        let arch = Arch::paper();
        let registries = [1usize, 2, 4, 8].map(|n| block_specs(&arch, n));
        for s in registries.iter().flatten().chain(&standard_specs(&arch)) {
            assert!(s.validate(&arch).is_ok(), "{}", s.name);
        }
    }

    #[test]
    fn upper_ranges_are_blocks() {
        let m = FluidModel::new(Arch::paper(), &mut Prng::new(0));
        let u25 = &m.spec("upper25").expect("upper25").branches[0];
        assert_eq!((u25.channels[0].lo, u25.channels[0].hi), (8, 12));
        let u50 = &m.spec("upper50").expect("upper50").branches[0];
        assert_eq!((u50.channels[0].lo, u50.channels[0].hi), (8, 16));
    }

    /// A combined model's logits are the sum of its standalone parts,
    /// minus the extra bias copy each standalone part beyond the first adds.
    fn assert_decomposes(m: &mut FluidModel, joint: &str, parts: &[&str], tol: f32) {
        let x = Tensor::from_fn(&[2, 1, 28, 28], |i| ((i * 13 % 53) as f32) / 53.0);
        let joint = m.infer(joint, &x);
        let extra = (parts.len() - 1) as f32;
        let bias = m.net().fc().bias().data().to_vec();
        let mut merged = Tensor::from_fn(&[2, 10], |i| -extra * bias[i % 10]);
        for part in parts {
            merged = merged.add(&m.infer(part, &x));
        }
        assert!(
            joint.allclose(&merged, tol),
            "diff {}",
            joint.max_abs_diff(&merged)
        );
    }

    #[test]
    fn combined100_decomposes_into_halves() {
        let mut m = FluidModel::new(Arch::paper(), &mut Prng::new(4));
        assert_decomposes(&mut m, "combined100", &["lower50", "upper50"], 1e-5);
    }

    #[test]
    fn combined_n_decomposes_into_blocks() {
        let mut m = FluidModel::blocks(Arch::paper(), 4, &mut Prng::new(2));
        let parts = ["block0", "block1", "block2", "block3"];
        assert_decomposes(&mut m, "combined4", &parts, 1e-4);
    }

    #[test]
    fn every_standalone_subnet_runs_alone() {
        let mut m = FluidModel::new(Arch::paper(), &mut Prng::new(5));
        let x = Tensor::zeros(&[1, 1, 28, 28]);
        for name in STANDALONE_SUBNETS {
            let y = m.infer(name, &x);
            assert_eq!(y.dims(), &[1, 10], "{name}");
        }
    }

    fn block_range(m: &FluidModel, i: usize) -> ChannelRange {
        m.spec(&format!("block{i}")).expect("block").branches[0].channels[0]
    }

    #[test]
    fn four_blocks_register_seven_specs() {
        let m = FluidModel::blocks(Arch::paper(), 4, &mut Prng::new(0));
        let names: Vec<&str> = m.specs().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "block0",
                "block1",
                "block2",
                "block3",
                "combined2",
                "combined3",
                "combined4"
            ]
        );
        assert_eq!(block_range(&m, 2), ChannelRange::new(8, 12));
    }

    #[test]
    fn two_block_matches_paper_structure() {
        // The 2-block split is exactly the paper's lower/upper split: the
        // same ranges as the standard registry's lower50/upper50.
        let blocks = FluidModel::blocks(Arch::paper(), 2, &mut Prng::new(1));
        let paper = FluidModel::new(Arch::paper(), &mut Prng::new(1));
        for (block, half) in [(0, "lower50"), (1, "upper50")] {
            let half = paper.spec(half).expect("spec").branches[0].channels[0];
            assert_eq!(block_range(&blocks, block), half);
        }
        assert_eq!(block_range(&blocks, 1), ChannelRange::new(8, 16));
    }

    #[test]
    fn blocks_are_mutually_isolated() {
        let mut m = FluidModel::blocks(Arch::paper(), 4, &mut Prng::new(3));
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| ((i * 5 % 37) as f32) / 37.0);
        let before = m.infer("block2", &x);
        // Scramble every other block's conv weights (one row per output
        // channel).
        let block2 = block_range(&m, 2);
        for conv in m.net_mut().convs_mut() {
            let row = conv.c_in_max() * conv.kernel() * conv.kernel();
            for co in (0..16).filter(|&co| !block2.contains(co)) {
                for w in &mut conv.weight_mut().data_mut()[co * row..(co + 1) * row] {
                    *w += 9.0;
                }
            }
        }
        let after = m.infer("block2", &x);
        assert!(
            before.allclose(&after, 0.0),
            "block2 depends on other blocks"
        );
    }

    #[test]
    fn single_block_degenerates_to_static() {
        let m = FluidModel::blocks(Arch::paper(), 1, &mut Prng::new(5));
        assert_eq!(m.specs().len(), 1);
        assert_eq!(m.specs()[0].name, "block0");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_blocks_panic() {
        let _ = FluidModel::blocks(Arch::paper(), 5, &mut Prng::new(6));
    }

    #[test]
    #[should_panic(expected = "unknown sub-network")]
    fn unknown_name_panics() {
        let mut m = FluidModel::new(Arch::paper(), &mut Prng::new(6));
        let _ = m.infer("nope", &Tensor::zeros(&[1, 1, 28, 28]));
    }
}
