//! Every metric the benchmark reports: its unit, which way is better,
//! the layer it measures, and the end-to-end metric (on which
//! workload) it should move. `BENCHMARK.json` at the repository root
//! lists the same names, units and directions (a unit test holds the
//! two together); `--list` prints this table.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    /// End-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// Reported with `--trace 0`, on every workload.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "store+broker+server", "itself, all workloads"),
    m("values_per_s", "1/s", "higher", "client->solver", "itself: op-1 queries plus op-3 ticks per second"),
    m("rtt_p50_us", "us", "lower", "client->solver", "itself: warm requests, all workloads"),
    m("rtt_p90_us", "us", "lower", "client->solver", "itself: warm requests, all workloads"),
    m("cpu_us_per_request", "us", "lower", "server process", "itself, all workloads"),
    m("idle_cpu_vs_ref_loop", "ratio", "lower", "event loop", "itself: idle CPU over a bare 1 ms poll loop's, all workloads"),
    m("peak_rss_mb", "MB", "lower", "process", "itself, all workloads"),
];

/// Reported with `--trace 1`, on every workload (0 where a layer is
/// not on the workload's path).
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("queries_per_s", "1/s", "higher", "client->solver", "values_per_s on warm_batch, cold_mix"),
    m("sweep_ticks_per_s", "1/s", "higher", "client->solver", "values_per_s on sweep_stream"),
    m("rtt_p99_us", "us", "lower", "client->solver", "rtt_p90_us on every workload (tail percentile by rule)"),
    m("cold_p50_ms", "ms", "lower", "client->solver", "cpu_us_per_request on cold_mix"),
    m("cold_p90_ms", "ms", "lower", "client->solver", "cpu_us_per_request on cold_mix"),
    m("cold_samples", "count", "higher", "client", "sample count behind cold_p50_ms/cold_p90_ms"),
    m("warm_samples", "count", "higher", "client", "sample count behind the warm rtt figures"),
    m("error_rate", "ratio", "lower", "all", "every metric: failed calls plus wrong answers per request"),
    m("wire.encode_ns", "ns", "lower", "wire", "rtt_p50_us, cpu_us_per_request on warm_batch"),
    m("wire.decode_ns", "ns", "lower", "wire", "rtt_p50_us, cpu_us_per_request on warm_batch"),
    m("wire.bytes_per_req", "B", "lower", "wire", "rtt_p50_us on warm_batch"),
    m("wire.runs_codec_ns", "ns", "lower", "wire", "values_per_s on sweep_stream; replayed on warm_batch"),
    m("wire.runs_bytes_per_sweep", "B", "lower", "wire", "values_per_s on sweep_stream; replayed on warm_batch"),
    m("broker.batch_ns", "ns", "lower", "broker", "rtt_p50_us, values_per_s on warm_batch"),
    m("broker.self_ns", "ns", "lower", "broker", "rtt_p50_us, values_per_s on warm_batch"),
    m("cache.hit_ns", "ns", "lower", "cache", "values_per_s on warm_batch"),
    m("cache.hit_ratio", "ratio", "higher", "cache", "cpu_us_per_request on cold_mix"),
    m("cache.misses", "count", "lower", "cache", "cpu_us_per_request on cold_mix"),
    m("cache.evictions", "count", "lower", "cache", "cpu_us_per_request on cold_mix"),
    m("eval.query_ns", "ns", "lower", "eval", "rtt_p50_us on warm_batch"),
    m("eval.runs_ns", "ns", "lower", "eval", "values_per_s on sweep_stream; replayed on warm_batch"),
    m("eval.runs_per_sweep", "count", "lower", "eval", "values_per_s on sweep_stream; replayed on warm_batch"),
    m("client.expand_ns", "ns", "lower", "client", "values_per_s, rtt_p50_us on sweep_stream; replayed on warm_batch"),
    m("solve.ms", "ms", "lower", "solver", "cpu_us_per_request on cold_mix"),
    m("solve.events", "count", "lower", "solver", "cpu_us_per_request on cold_mix"),
    m("solve.stored_runs", "count", "lower", "solver", "peak_rss_mb on cold_mix"),
    m("solve.bytes", "B", "lower", "solver", "peak_rss_mb on cold_mix"),
    m("solve.phase.skeleton_build_ms", "ms", "lower", "solver", "cpu_us_per_request on cold_mix"),
    m("solve.phase.event_loop_ms", "ms", "lower", "solver", "cpu_us_per_request on cold_mix"),
    m("solve.phase.run_compression_ms", "ms", "lower", "solver", "cpu_us_per_request on cold_mix"),
    m("store.load_ms", "ms", "lower", "store", "setup_s on warm_batch, sweep_stream"),
    m("store.bytes", "B", "lower", "store", "setup_s on warm_batch, sweep_stream"),
    m("server.unattributed_us", "us", "lower", "event loop", "rtt_p50_us, values_per_s on warm_batch"),
    m("server.span.recv_us", "us", "lower", "event loop", "rtt_p99_us on cold_mix"),
    m("server.span.lane_us", "us", "lower", "fairness lanes", "rtt_p99_us on cold_mix"),
    m("server.span.solve_us", "us", "lower", "solver", "rtt_p99_us on cold_mix"),
    m("server.joined_traces", "count", "higher", "tracing", "cross-check: traces found in the op-4 journal"),
    m("broker.shed", "count", "lower", "admission", "error_rate, rtt_p99_us on cold_mix"),
    m("broker.tenant_sheds", "count", "lower", "fairness lanes", "error_rate, rtt_p99_us on cold_mix"),
    m("broker.deadline_rejects", "count", "lower", "admission", "error_rate on cold_mix"),
    m("broker.coalesced", "count", "higher", "broker", "cpu_us_per_request on cold_mix"),
    m("idle_cpu_ms_per_s", "ms/s", "lower", "event loop", "idle_cpu_vs_ref_loop on all workloads"),
    m("idle.wakeups_per_s", "1/s", "lower", "event loop", "idle_cpu_vs_ref_loop on all workloads"),
    m("trace.overhead_ratio", "ratio", "lower", "tracing", "instrumentation budget on warm_batch"),
];

pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

pub fn print() {
    for (kind, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in metrics {
            println!(
                "{kind:<10} {:<32} {:<6} {:<6} {:<20} {}",
                m.name, m.unit, m.better, m.layer, m.moves
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = benchmark_json();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(m.better, "higher" | "lower"));
        }
    }
}
