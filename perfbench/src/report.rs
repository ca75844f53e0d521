//! Metric names, correctness accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::Tracer;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them (see README.md for the meaning of
/// each on each workload). `modeled_*` values are cost-model virtual time
/// and never share a metric with host time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("sessions_per_s", "sessions/s"),
    ("modeled_makespan_s", "virtual_s"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_frame", "count"),
];

/// Per-layer metrics `(name, unit)` from the traced run; layer names are
/// the crate names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("psa-workloads.scene_build_ms", "ms"),
    ("psa-core.kernel.ns_per_particle", "ns"),
    ("psa-core.kernel.allocs_per_call", "count"),
    ("psa-core.leavers.ns_per_particle", "ns"),
    ("psa-core.leavers.leaver_ratio", "fraction"),
    ("psa-core.donate.us_per_call", "us"),
    ("psa-runtime.step_frame.ms_p50", "ms"),
    ("psa-runtime.step_frame.ms_p90", "ms"),
    ("psa-runtime.protocol_overhead.ms_per_frame", "ms"),
    ("psa-runtime.balance.ns_per_decide", "ns"),
    ("psa-runtime.balance.orders_per_round", "count"),
    ("psa-runtime.exchange.migrated_per_frame", "count"),
    ("netsim.messages_per_frame", "count"),
    ("netsim.bytes_per_frame", "bytes"),
    ("psa-runtime.checkpoint.snapshot_us", "us"),
    ("psa-runtime.checkpoint.bytes", "bytes"),
    ("psa-runtime.checkpoint.encode_mb_per_s", "MB/s"),
    ("psa-runtime.checkpoint.decode_mb_per_s", "MB/s"),
    ("psa-desim.events_per_frame", "count"),
    ("psa-desim.events_per_s", "1/s"),
    ("psa-render.splat.ns_per_particle", "ns"),
    ("psa-render.to_rgb8_ms", "ms"),
    ("psa-sessions.admit_us", "us"),
    ("psa-sessions.us_per_dispatch", "us"),
    ("psa-sessions.requeues", "count"),
    ("psa-sessions.lost_frames", "count"),
    ("psa-trace.phases_overhead_pct", "%"),
    ("modeled.phase.compute_s", "virtual_s"),
    ("modeled.phase.exchange_s", "virtual_s"),
    ("modeled.phase.load_report_s", "virtual_s"),
    ("modeled.phase.balance_s", "virtual_s"),
    ("modeled.phase.ship_s", "virtual_s"),
    ("modeled.phase.render_s", "virtual_s"),
    ("perfbench.trace_overhead_ms_per_frame", "ms"),
];

/// Attempted operations and the ones that failed: a `ProtocolError`, a
/// rejected or failed session, or a fingerprint/checksum mismatch.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; a failure is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// What one invocation measures against.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Smoke-test sizes instead of the benchmark sizes.
    pub tiny: bool,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    pub tracer: Tracer,
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, tiny: bool, traced: bool) -> Self {
        Ctx {
            seed,
            seconds,
            tiny,
            traced,
            tracer: Tracer::new(traced),
            checks: Checks::default(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The metrics this run must report.
    pub fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Count a missing or non-finite declared metric as a failure, then
    /// render the result line.
    pub fn result_line(&mut self) -> String {
        let mut body = String::new();
        for &(name, unit) in self.declared() {
            let value = self.metrics.get(name).copied();
            match value {
                Some(v) if v.is_finite() => {
                    let sep = if body.is_empty() { "" } else { ", " };
                    let _ =
                        write!(body, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
                }
                _ => self.checks.op(false, || format!("metric {name} is {value:?}")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        )
    }
}
