//! Ablation: scale-out beyond two devices.
//!
//! The paper's Algorithm 1 "is applicable to any number" of sub-networks;
//! this bench measures what an N-device fluid system buys. It trains an
//! N-block model (`NestedSchedule::blocks`), verifies every block learns,
//! and models the throughput of an N-device High-Throughput deployment.
//!
//! Run with `cargo bench -p fluid-bench --bench abl_scale_out`.

use fluid_core::training::{train_nested, NestedSchedule, TrainConfig};
use fluid_core::Experiment;
use fluid_data::SynthDigits;
use fluid_models::{branch_cost, Arch, FluidModel};
use fluid_perf::DeviceModel;
use fluid_tensor::Prng;

fn main() {
    let (train, test) = SynthDigits::new(99).train_test(1200, 400);
    let device = DeviceModel::jetson_master();
    println!("Scale-out ablation: N-block fluid models on N devices\n");
    println!(
        "{:>8} {:>14} {:>14} {:>16} {:>14}",
        "blocks", "HT img/s", "per-block acc", "combined acc", "train time"
    );

    for n in [1usize, 2, 4, 8] {
        let arch = Arch::paper();
        let mut model = FluidModel::blocks(arch.clone(), n, &mut Prng::new(n as u64));
        let cfg = TrainConfig {
            epochs_per_phase: 1,
            seed: n as u64,
            ..TrainConfig::default()
        };
        let t0 = std::time::Instant::now();
        let _ = train_nested(&mut model, &train, &cfg, &NestedSchedule::blocks(n, 2));
        let train_time = t0.elapsed().as_secs_f32();

        // Every device serves its own standalone block: modelled HT
        // throughput is the sum of the block rates; accuracy their mean.
        let (mut ht_ips, mut acc_sum) = (0.0, 0.0);
        for spec in model.specs().to_vec().iter().filter(|s| s.is_standalone()) {
            ht_ips += device.throughput(branch_cost(&arch, &spec.branches[0]).macs);
            acc_sum += Experiment::evaluate_subnet(model.net_mut(), spec, &test);
        }
        let block_acc = acc_sum / n as f32;
        // The registry ends with the widest unit: `combined{n}` (`block0` at n = 1).
        let full = model.specs().last().expect("spec").clone();
        let combined_acc = Experiment::evaluate_subnet(model.net_mut(), &full, &test);

        println!(
            "{n:>8} {ht_ips:>14.1} {:>13.1}% {:>15.1}% {train_time:>13.1}s",
            block_acc * 100.0,
            combined_acc * 100.0
        );
    }

    println!("\ntakeaway: HT throughput scales with device count (narrower blocks run");
    println!("faster each, bounded by per-image overhead), while per-block accuracy");
    println!("falls as blocks thin out — the 2-block point the paper evaluates is the");
    println!("sweet spot for a 16-channel budget; bigger models support more blocks.");
}
