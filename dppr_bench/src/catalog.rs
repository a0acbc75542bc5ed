//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`dppr_bench schema`)
//! and a unit test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and why it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics carry none.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How long one driver run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 18;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "push_seq",
        why: "library only, one hub source, SeqEngine batched: core::seq and graph do the work; serve, wal and the thread fan-out do none, so a parallel-engine change must not move it",
    },
    WorkloadDef {
        name: "push_par",
        why: "same inputs and slides through ParallelEngine(OPT, nproc): core::par and the rayon shim do the work; the paper's headline is this over push_seq",
    },
    WorkloadDef {
        name: "serve_read",
        why: "real server, light paced writer, 1000 q/s open loop then closed loop: loopback, parse, route, cache-or-snapshot, top-k and write do the work; push is a few percent, wal none",
    },
    WorkloadDef {
        name: "serve_write",
        why: "same server, unpaced durable writer, 100 q/s probe: WAL append, graph apply, 32x restore+push, estimates, publish and checkpoint do the work; http does little",
    },
];

use Better::{Higher, Lower};

/// Bounds come from the A/A calibration in `AA.md`. A bound is at least
/// twice the largest gap between set medians and at least the widest
/// within-set IQR/median over every workload, capped at the 25 % the
/// contract allows. Every time, rate and memory metric sits at the cap:
/// the host this was calibrated on changes speed by a third from one hour
/// to the next, and what the reference clock leaves of that (spreads of
/// 0.04 to 0.14, see `AA.md`) has to stay under the bound when the
/// benchmark driver repeats the calibration on its own, noisier, host.
/// `slide_p90_ms` needed more than the cap there and is reported as
/// `tail.slide_p90_ms`, ungated; `README.md` says why. `query_slo_ratio`
/// is the median stretch's ratio and sits at 1; its bound is how large a
/// share of queries may miss the limit in a typical quarter second.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("updates_per_s", "updates/s", Higher, 0.25),
    e2e("slide_p50_ms", "ms", Lower, 0.25),
    e2e("query_slo_ratio", "ratio", Higher, 0.03),
    e2e("query_sat_qps", "q/s", Higher, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.25),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.gen_s", "s", Lower),
    layer("graph.ingest_edges_per_s", "edges/s", Higher),
    layer("graph.apply_us_per_update", "us", Lower),
    layer("graph.applied_ratio", "ratio", Higher),
    layer("graph.arena_utilization", "ratio", Higher),
    layer("graph.bytes_per_edge", "B", Lower),
    layer("stream.slide_batch_us", "us", Lower),
    layer("core.bootstrap_s", "s", Lower),
    layer("core.restore_us_per_update", "us", Lower),
    layer("core.push_ms", "ms", Lower),
    layer("core.us_per_iteration", "us", Lower),
    layer("core.mean_frontier", "count", Higher),
    layer("core.pushes_per_update", "count", Lower),
    layer("core.edge_traversals_per_update", "count", Lower),
    layer("core.iterations_per_slide", "count", Lower),
    layer("core.restore_ops_per_update", "count", Lower),
    layer("core.cas_retry_ratio", "ratio", Lower),
    layer("core.dup_avoided_ratio", "ratio", Higher),
    layer("core.estimates_us", "us", Lower),
    layer("core.topk_us", "us", Lower),
    layer("core.cpu_s_per_mupdate", "s", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.fsync_ms", "ms", Lower),
    layer("wal.fsyncs_per_s", "1/s", Lower),
    layer("wal.bytes_per_update", "B", Lower),
    layer("wal.open_replay_ms", "ms", Lower),
    layer("serve.start_s", "s", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.route_us", "us", Lower),
    layer("serve.write_us", "us", Lower),
    layer("serve.request_p50_us", "us", Lower),
    layer("serve.request_p99_us", "us", Lower),
    layer("serve.unattributed_us", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.cache_stale_purged", "count", Lower),
    layer("serve.snapshot_query_us", "us", Lower),
    layer("serve.publish_ms", "ms", Lower),
    layer("serve.publish_bytes_per_slide", "B", Lower),
    layer("serve.shed_ratio", "ratio", Lower),
    layer("serve.checkpoint_ms", "ms", Lower),
    layer("serve.ckpt_load_ms", "ms", Lower),
    layer("serve.replay_ms", "ms", Lower),
    layer("obs.hist_record_ns", "ns", Lower),
    layer("obs.scrape_ms", "ms", Lower),
    layer("raw.setup_s", "s", Lower),
    layer("raw.updates_per_s", "updates/s", Higher),
    layer("raw.slide_p50_ms", "ms", Lower),
    layer("raw.query_sat_qps", "q/s", Higher),
    layer("raw.recovery_s", "s", Lower),
    layer("tail.slide_p90_ms", "ms", Lower),
    layer("tail.query_slo_ratio", "ratio", Higher),
    layer("tail.query_p50_ms", "ms", Lower),
    layer("tail.query_p90_ms", "ms", Lower),
    layer("tail.query_p99_ms", "ms", Lower),
    layer("tail.query_p999_ms", "ms", Lower),
    layer("tail.slide_p99_ms", "ms", Lower),
    layer("tail.slide_max_ms", "ms", Lower),
    layer("gen.achieved_qps", "q/s", Higher),
    layer("gen.closed_qps", "q/s", Higher),
    layer("gen.lateness_p99_ms", "ms", Lower),
    layer("gen.threshold_rows", "count", Lower),
    layer("gen.offered_updates_per_s", "updates/s", Higher),
    layer("host.nproc", "count", Higher),
    layer("host.steal_ratio", "ratio", Lower),
    layer("host.calib_ms", "ms", Lower),
    layer("host.slowdown", "ratio", Lower),
    layer("host.ctx_switches", "count", Lower),
    layer("host.threads_peak", "count", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.slide_attributed_ratio", "ratio", Higher),
    layer("trace.slide_unattributed_us", "us", Lower),
    layer("trace.request_unattributed_us", "us", Lower),
];

/// The per-layer name under which an end-to-end time or rate is also
/// reported as measured, before the reference clock rescales it; `None`
/// for ratios and memory, which are never rescaled.
pub fn raw_twin(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|raw| raw.strip_prefix("raw.") == Some(name))
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    fn lines<T>(items: &[T], line: impl Fn(&T) -> String) -> String {
        let lines: Vec<String> = items.iter().map(line).collect();
        lines.join(",\n")
    }
    let workloads = lines(WORKLOADS, |w| {
        format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)
    });
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"dppr_bench/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"dppr_bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        lines(END_TO_END, metric),
        lines(PER_LAYER, metric),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        }
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        let largest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound.unwrap(),
            largest,
            "setup_s carries the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `dppr_bench schema`"
        );
    }
}
