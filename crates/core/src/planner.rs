//! Branch→device assignment planning for heterogeneous devices.
//!
//! The paper's Worker measures ~4% slower than its Master. With asymmetric
//! branches (e.g. the combined75 model's lower50 + upper25) the assignment
//! matters: High-Accuracy latency is the *maximum* of the branch latencies,
//! so the wider branch belongs on the faster device. This planner
//! enumerates assignments and picks the best for the requested mode.

use fluid_models::{branch_cost, Arch, SubnetSpec};
use fluid_perf::DeviceModel;
use std::time::Duration;

/// One branch→device assignment with its modelled performance.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `slots[d]` is the index of the branch assigned to device `d`
    /// (devices in the order given to the planner).
    pub slots: Vec<usize>,
    /// Modelled HA latency (max branch latency; communication excluded —
    /// it is assignment-independent).
    pub ha_latency: Duration,
    /// Modelled HT throughput (sum of device rates on their branches).
    pub ht_throughput_ips: f64,
}

/// Enumerates all assignments of a collective sub-network's branches onto
/// the given devices (one branch per device) and returns them sorted by HA
/// latency, best first.
///
/// # Panics
///
/// Panics if the branch count differs from the device count or exceeds 8
/// (factorial enumeration guard).
pub fn enumerate_assignments(
    arch: &Arch,
    subnet: &SubnetSpec,
    devices: &[DeviceModel],
) -> Vec<Assignment> {
    let n = subnet.branches.len();
    assert_eq!(
        n,
        devices.len(),
        "{n} branches for {} devices",
        devices.len()
    );
    assert!(n <= 8, "assignment enumeration capped at 8 branches");

    let macs: Vec<u64> = subnet
        .branches
        .iter()
        .map(|b| branch_cost(arch, b).macs)
        .collect();

    let mut result = Vec::new();
    let mut perm: Vec<usize> = (0..n).collect();
    permute(&mut perm, 0, &mut |p: &[usize]| {
        let mut worst = Duration::ZERO;
        let mut ht = 0.0f64;
        for (device_idx, &branch_idx) in p.iter().enumerate() {
            let lat = devices[device_idx].latency(macs[branch_idx]);
            worst = worst.max(lat);
            ht += devices[device_idx].throughput(macs[branch_idx]);
        }
        result.push(Assignment {
            slots: p.to_vec(),
            ha_latency: worst,
            ht_throughput_ips: ht,
        });
    });
    result.sort_by_key(|a| a.ha_latency);
    result
}

/// The assignment minimising High-Accuracy latency.
///
/// # Panics
///
/// Panics under the same conditions as [`enumerate_assignments`].
pub fn best_ha_assignment(arch: &Arch, subnet: &SubnetSpec, devices: &[DeviceModel]) -> Assignment {
    enumerate_assignments(arch, subnet, devices)
        .into_iter()
        .next()
        .expect("at least one assignment")
}

/// The assignment maximising High-Throughput rate.
///
/// # Panics
///
/// Panics under the same conditions as [`enumerate_assignments`].
pub fn best_ht_assignment(arch: &Arch, subnet: &SubnetSpec, devices: &[DeviceModel]) -> Assignment {
    enumerate_assignments(arch, subnet, devices)
        .into_iter()
        .max_by(|a, b| {
            a.ht_throughput_ips
                .partial_cmp(&b.ht_throughput_ips)
                .expect("finite")
        })
        .expect("at least one assignment")
}

fn permute(xs: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == xs.len() {
        visit(xs);
        return;
    }
    for i in k..xs.len() {
        xs.swap(k, i);
        permute(xs, k + 1, visit);
        xs.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_models::FluidModel;
    use fluid_tensor::Prng;

    fn combined75() -> (Arch, SubnetSpec) {
        let arch = Arch::paper();
        let model = FluidModel::new(arch.clone(), &mut Prng::new(0));
        (
            arch.clone(),
            model.spec("combined75").expect("spec").clone(),
        )
    }

    #[test]
    fn wider_branch_goes_to_faster_device() {
        // combined75 = lower50 (wider) + upper25 (narrower). With a fast
        // master and slow worker, HA latency is minimised by putting the
        // wider branch on the faster device.
        let (arch, subnet) = combined75();
        let fast = DeviceModel::jetson_master().scaled(2.0);
        let slow = DeviceModel::jetson_worker();
        let best = best_ha_assignment(&arch, &subnet, &[fast, slow]);
        // Device 0 (fast) must take branch 0 (lower50, the wider one).
        assert_eq!(best.slots, vec![0, 1]);
    }

    #[test]
    fn symmetric_branches_tie_within_rounding() {
        // combined100's branches are equal-cost, so both assignments have
        // identical HA latency per device pair.
        let arch = Arch::paper();
        let model = FluidModel::new(arch.clone(), &mut Prng::new(1));
        let subnet = model.spec("combined100").expect("spec").clone();
        let d = [DeviceModel::jetson_master(), DeviceModel::jetson_worker()];
        let all = enumerate_assignments(&arch, &subnet, &d);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].ha_latency, all[1].ha_latency);
    }

    #[test]
    fn enumeration_counts_factorial() {
        let arch = Arch::paper();
        let model = FluidModel::blocks(arch.clone(), 4, &mut Prng::new(2));
        let subnet = model.spec("combined4").expect("spec").clone();
        let devices: Vec<DeviceModel> = (0..4)
            .map(|i| DeviceModel::jetson_master().scaled(1.0 + i as f64 * 0.1))
            .collect();
        let all = enumerate_assignments(&arch, &subnet, &devices);
        assert_eq!(all.len(), 24);
        // Sorted best-first.
        for w in all.windows(2) {
            assert!(w[0].ha_latency <= w[1].ha_latency);
        }
    }

    #[test]
    fn ht_best_pairs_heavy_work_with_fast_devices() {
        let (arch, subnet) = combined75();
        let fast = DeviceModel::jetson_master().scaled(3.0);
        let slow = DeviceModel::jetson_worker();
        let best = best_ht_assignment(&arch, &subnet, &[fast.clone(), slow.clone()]);
        let worst = enumerate_assignments(&arch, &subnet, &[fast, slow])
            .into_iter()
            .min_by(|a, b| {
                a.ht_throughput_ips
                    .partial_cmp(&b.ht_throughput_ips)
                    .expect("finite")
            })
            .expect("assignment");
        assert!(best.ht_throughput_ips >= worst.ht_throughput_ips);
    }

    #[test]
    #[should_panic(expected = "branches for")]
    fn mismatched_device_count_panics() {
        let (arch, subnet) = combined75();
        let _ = enumerate_assignments(&arch, &subnet, &[DeviceModel::jetson_master()]);
    }
}
