//! The names and units of every metric the benchmark prints — the same
//! lists `BENCHMARK.json` carries (a unit test keeps the two in step).

/// End-to-end metrics, printed by a `--trace 0` run for every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("msgs_per_s", "1/s"),
    ("lat_p02_us", "us"),
    ("cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a `--trace 1` run for every workload.
/// Layer = crate; `client.*` is the load generator's view of the selected
/// workload, `host.*` says whether the run is worth reading.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("core.tree_build_us", "us"),
    ("core.lambda", "ratio"),
    ("workloads.gen_ns_per_msg", "ns"),
    ("sim.perm_us", "us"),
    ("sim.rel2_us", "us"),
    ("sim.other_us", "us"),
    ("sim.arena_new_us", "us"),
    ("sim.cycle1_us", "us"),
    ("sim.retry_us", "us"),
    ("sim.attempts", "count"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.ns_per_attempt", "ns"),
    ("sim.single_wide_us", "us"),
    ("sim.run_2e20_ms", "ms"),
    ("sched.thm1_rel2_us", "us"),
    ("sched.thm1_hotspot_us", "us"),
    ("sched.thm1_kary_us", "us"),
    ("sched.online_rel2_us", "us"),
    ("sched.other_us", "us"),
    ("sched.arena_new_us", "us"),
    ("sched.ns_per_msg", "ns"),
    ("sched.bound_ratio", "ratio"),
    ("sched.online_cycles", "cycles"),
    ("topology.embed_build_us", "us"),
    ("topology.pad_ratio", "ratio"),
    ("topology.map_ns_per_msg", "ns"),
    ("shard.barrier_wait_us", "us"),
    ("shard.merge_us", "us"),
    ("shard.top_us", "us"),
    ("shard.other_us", "us"),
    ("shard.up_us_max", "us"),
    ("shard.down_us_max", "us"),
    ("shard.critical_path_us", "us"),
    ("shard.frames_per_op", "count"),
    ("shard.wire_kib_per_op", "KiB"),
    ("shard.retries", "count"),
    ("shard.vs_single", "ratio"),
    ("serve.spawn_ms", "ms"),
    ("serve.handshake_us", "us"),
    ("serve.client_encode_us", "us"),
    ("serve.client_send_us", "us"),
    ("serve.client_wait_us", "us"),
    ("serve.client_verify_us", "us"),
    ("serve.other_us", "us"),
    ("serve.compute_us_per_req", "us"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.batches_per_s", "1/s"),
    ("serve.busy_share", "ratio"),
    ("serve.lambda_max", "ratio"),
    ("serve.stage.decode_us", "us"),
    ("serve.stage.admit_wait_us", "us"),
    ("serve.stage.batch_wait_us", "us"),
    ("serve.stage.schedule_us", "us"),
    ("serve.stage.encode_us", "us"),
    ("serve.stage.wall_us", "us"),
    ("telemetry.recorder_cost", "ratio"),
    ("client.lat_p50_us", "us"),
    ("client.lat_p90_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.rate_mean_per_s", "1/s"),
    ("host.ref_kernel_spread", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.cpu_us_per_op", "us"),
    ("host.loopback_rtt_us", "us"),
    ("trace.overhead", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `{"name": …, "unit": …}` pair under `key` of BENCHMARK.json,
    /// in order (the file is flat enough to scan).
    fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let grab = |obj: &str, k: &str| {
            let at = obj.find(&format!("\"{k}\"")).expect("field present");
            let rest = &obj[at + k.len() + 2..];
            let open = rest.find('"').unwrap();
            let close = rest[open + 1..].find('"').unwrap();
            rest[open + 1..open + 1 + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (grab(obj, "name"), grab(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        // The gated workloads are a subset of the ones the command knows
        // (README: the two that compute on both processors are ungated).
        let start = doc.find("\"workloads\"").expect("key present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let gated: Vec<&str> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("name closes")])
            .collect();
        assert!(gated.len() >= 2, "{gated:?}");
        for name in gated {
            assert!(
                crate::workloads::Workload::from_name(name).is_some(),
                "{name}"
            );
        }
    }
}
