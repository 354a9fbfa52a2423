//! The metric names and units the benchmark prints: the same lists
//! `BENCHMARK.json` declares (a test holds the two together).

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`.
/// Ladder metrics (timed entry points) describe the code and read alike on
/// every workload; the `serve.*`/`router.*` counters, `client.*`, `alloc.*`,
/// `proc.*` and `trace.*` describe the workload that ran.
pub const PER_LAYER: [(&str, &str); 69] = [
    // tensor
    ("tensor.conv_gemm_fwd_b16_ms", "ms"),
    ("tensor.conv_gemm_fwd_b1_ms", "ms"),
    ("tensor.matmul_fc_b16_ms", "ms"),
    ("tensor.qgemm_b16_ms", "ms"),
    ("tensor.gemm_gflops_b16", "GFLOP/s"),
    ("tensor.gemm_bytes_b16", "B"),
    ("tensor.microkernel_peak_gflops", "GFLOP/s"),
    ("tensor.gemm_peak_share", "ratio"),
    // nn
    ("nn.conv1_fwd_b16_ms", "ms"),
    ("nn.conv2_fwd_b16_ms", "ms"),
    ("nn.conv3_fwd_b16_ms", "ms"),
    ("nn.pool_relu_fwd_b16_ms", "ms"),
    ("nn.fc_fwd_b16_ms", "ms"),
    ("nn.self_b16_ms", "ms"),
    // models
    ("models.forward_b1_ms", "ms"),
    ("models.forward_b16_ms", "ms"),
    ("models.qforward_b1_ms", "ms"),
    ("models.qforward_b16_ms", "ms"),
    ("models.branch_fwd_b1_ms", "ms"),
    ("models.self_b16_ms", "ms"),
    // dist
    ("dist.wire.encode_infer_us", "us"),
    ("dist.wire.decode_infer_us", "us"),
    ("dist.wire.encode_logits_us", "us"),
    ("dist.wire.decode_logits_us", "us"),
    ("dist.wire.infer_frame_bytes", "B"),
    ("dist.transport.tcp_rtt_us", "us"),
    ("dist.transport.inproc_rtt_us", "us"),
    ("dist.engine.infer_b1_ms", "ms"),
    ("dist.master.ha_call_ms", "ms"),
    ("dist.master.ht_call_ms", "ms"),
    ("dist.master.local_call_ms", "ms"),
    ("dist.master.comm_self_ms", "ms"),
    ("dist.master.deploy_ms", "ms"),
    ("dist.master.failover_ms", "ms"),
    ("dist.master.reattach_ms", "ms"),
    // serve
    ("serve.backend.infer_batch_b1_ms", "ms"),
    ("serve.backend.infer_batch_b16_ms", "ms"),
    ("serve.backend.q_infer_batch_b16_ms", "ms"),
    ("serve.backend.self_b16_ms", "ms"),
    ("serve.sched.handoff_self_ms", "ms"),
    ("serve.sched.window_self_ms", "ms"),
    ("serve.tcp.hop_self_ms", "ms"),
    ("serve.tcp.connect_ms", "ms"),
    ("serve.tcp.first_reply_ms", "ms"),
    ("serve.mean_batch_requests", "count"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.retried", "count"),
    ("serve.server_p50_share", "ratio"),
    ("serve.outside_self_ms", "ms"),
    // router
    ("router.infer_self_ms", "ms"),
    ("router.front_self_ms", "ms"),
    ("router.shard_lookup_ns", "ns"),
    ("router.boot_converge_ms", "ms"),
    ("router.admitted", "count"),
    ("router.completed", "count"),
    ("router.shed", "count"),
    ("router.rejected", "count"),
    ("router.retries", "count"),
    ("router.node_deaths", "count"),
    ("router.node_spread", "ratio"),
    // harness
    ("client.slot_wait_p95_ms", "ms"),
    ("client.lateness_p95_ms", "ms"),
    ("alloc.count_per_req", "count"),
    ("alloc.bytes_per_req", "B"),
    ("proc.threads_peak", "count"),
    ("proc.ctx_switches_per_req", "count"),
    ("trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` declares exactly what the binary prints.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("parse BENCHMARK.json");
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |f| {
                    w.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);
        for m in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("list")
        {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
            assert!(name.chars().all(|c| ok(c, "_.-")), "{name}");
            assert!(unit.chars().all(|c| ok(c, "_/%.-")), "{unit}");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
