//! The metric tables: every number the benchmark reports, with its unit,
//! the direction that is better, and — end to end — the share of the
//! parent's median by which it may worsen. `BENCHMARK.json` at the root of
//! the repository repeats these tables; a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::quote;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric. `host` numbers are wall-clock of the runtime
/// itself; the others are simulated — what the modelled DRAM+PM machine
/// would take — and repeat exactly for a given seed.
///
/// The host bounds sit at the contract's cap of 25 %: the reference sandbox
/// itself runs the same code tens of percent faster or slower for seconds at
/// a time (README, "Steadiness"), and a tighter bound would reject changes
/// for the weather. The simulated bounds cover the difference between seeds.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub host: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "rounds/s",
        better: Better::Higher,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "round_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "round_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "sim_speedup_vs_pm",
        unit: "x",
        better: Better::Higher,
        bound: 0.15,
        host: false,
    },
    EndToEnd {
        name: "sim_acv",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        host: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        host: true,
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 49] = [
    lo("apps.build_ms", "ms"),
    lo("apps.instance_ms_per_round", "ms"),
    lo("patterns.classify_us", "us"),
    lo("models.train_ms", "ms"),
    lo("models.compiled.predict_ns", "ns"),
    lo("profiling.pmc.collect_us_per_task", "us"),
    lo("profiling.bbtimer.measure_us_per_task", "us"),
    lo("core.policy.on_allocate_ms", "ms"),
    lo("core.policy.before_round_ms", "ms"),
    lo("core.policy.after_round_ms", "ms"),
    lo("core.policy.before_round_share", "ratio"),
    lo("core.allocator.plan_cold_us", "us"),
    lo("core.allocator.plan_warm_us", "us"),
    lo("core.allocator.curve_evals", "count"),
    lo("core.policy.state_bytes", "bytes"),
    lo("hm.runtime.round_self_ms", "ms"),
    lo("hm.page.pages", "count"),
    lo("hm.page.runs", "count"),
    lo("hm.page.get_ns_per_page", "ns"),
    lo("hm.page.iter_ns_per_page", "ns"),
    lo("hm.topk.hot_1pct_us", "us"),
    lo("hm.page.migrate_us_per_kpage", "us"),
    lo("hm.migrated_pages", "count"),
    lo("hm.migration_attempts", "count"),
    hi("hm.epoch.commits", "count"),
    lo("hm.epoch.rollbacks", "count"),
    lo("hm.runtime.degraded_rounds", "count"),
    lo("hm.checkpoint.snapshot_ms", "ms"),
    lo("hm.checkpoint.wal_append_ms", "ms"),
    lo("hm.checkpoint.bytes_per_record", "bytes"),
    lo("hm.checkpoint.records", "count"),
    lo("hm.checkpoint.recover_ms", "ms"),
    lo("hm.checkpoint.decode_ms", "ms"),
    lo("hm.checkpoint.loop_share", "ratio"),
    lo("hm.service.run_wall_ms", "ms"),
    lo("hm.service.tenant_step_busy_ms", "ms"),
    lo("hm.service.submit_us_per_tenant", "us"),
    lo("hm.service.control_self_ms", "ms"),
    lo("hm.service.control_share", "ratio"),
    hi("hm.service.concurrent_speedup", "x"),
    hi("hm.service.admitted", "count"),
    lo("hm.service.queued", "count"),
    lo("hm.service.squeezed", "count"),
    lo("hm.service.shed", "count"),
    lo("hm.service.quarantined", "count"),
    hi("hm.service.jain_fairness", "ratio"),
    hi("sched.pool_jobs", "count"),
    lo("sched.scope_spawn_ns_per_task", "ns"),
    lo("trace.overhead_pct", "%"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line of the benchmark contract: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`, each metric with every
/// digit of its value.
///
/// # Panics
/// When `values` lacks a metric of `names`: a bug in this program.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
        // JSON has no NaN or infinity; a metric that is either is a bug
        // upstream, reported as a failed run by the caller.
        let v = if v.is_finite() { *v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "{}: {{\"value\": {v:?}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("}}");
    out
}

pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// The text of `BENCHMARK.json` these tables describe.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to String cannot fail");
    out.push_str("  \"workloads\": [\n");
    let w = &crate::workloads::WORKLOADS;
    for (i, d) in w.iter().enumerate() {
        writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            quote(d.name),
            quote(d.why),
            if i + 1 < w.len() { "," } else { "" }
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {:?}}}{}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Seconds one run measures; `BENCHMARK.json` tells the driver the same.
pub const RUN_SECONDS: u32 = 10;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (n, u) in end_to_end_names().into_iter().chain(per_layer_names()) {
            assert!(ok_name(n), "{n}");
            assert!(ok_unit(u), "{n}: {u}");
            assert!(seen.insert(n), "duplicate {n}");
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        let v = Json::parse(&committed).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("a.b", 1.25);
        values.insert("c", f64::NAN);
        let line = result_line(true, 0, 0, &[("a.b", "ms"), ("c", "x")], &values);
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("a.b").unwrap().get("value").and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.get("a.b").unwrap().get("unit").and_then(Json::as_str),
            Some("ms")
        );
        assert_eq!(
            m.get("c").unwrap().get("value").and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
