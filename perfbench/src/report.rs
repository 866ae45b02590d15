//! The result of one benchmark run: the metric tables, the
//! workload-and-host block, and the JSON the run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::Summary;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cold_run_s", "s"),
    ("user_days_per_s", "user-day/s"),
    ("expected_accuracy", "ratio"),
    ("active_fraction", "ratio"),
    ("peak_rss_mb", "MB"),
    ("rtt_p50_us", "us"),
    ("max_rate_rps", "1/s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never calls reads 0 there. `*_ms` entries are self times of the
/// layer's spans over the traced end-to-end path.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("harvest.trace_gen_ms", "ms"),
    ("harvest.perturb_apply_ms", "ms"),
    ("fleet.build_ms", "ms"),
    ("fleet.user_params_ms", "ms"),
    ("fleet.user_scenario_ms", "ms"),
    ("fleet.aggregate_ms", "ms"),
    ("frontier.build_ms", "ms"),
    ("soa.flatten_ms", "ms"),
    ("soa.run_ms", "ms"),
    ("soa.run_1t_ms", "ms"),
    ("soa.cohorts", "count"),
    ("soa.cohorts_per_user", "ratio"),
    ("soa.bytes_per_user", "B"),
    ("engine.user_run_ms", "ms"),
    ("mpc.plan_ms", "ms"),
    ("mpc.plan_p50_us", "us"),
    ("mpc.plan_p99_us", "us"),
    ("horizon.lp_ms", "ms"),
    ("horizon.lp_p50_us", "us"),
    ("mpc.solves", "count"),
    ("mpc.reuses", "count"),
    ("mpc.fallbacks", "count"),
    ("mpc.reuse_ratio", "ratio"),
    ("clock.run_ms", "ms"),
    ("clock.events", "count"),
    ("clock.ns_per_event", "ns"),
    ("clock.bursts", "count"),
    ("clock.commit_ratio", "ratio"),
    ("clock.ledger_drift_j", "J"),
    ("state.new_ms", "ms"),
    ("state.warmup_ms", "ms"),
    ("state.cohorts", "count"),
    ("state.cohorts_per_user", "ratio"),
    ("state.observe_ns", "ns"),
    ("state.decide_ns", "ns"),
    ("protocol.request_encode_ns", "ns"),
    ("protocol.request_decode_ns", "ns"),
    ("protocol.response_encode_ns", "ns"),
    ("protocol.response_decode_ns", "ns"),
    ("transport.rtt_share", "ratio"),
    ("server.bind_ms", "ms"),
    ("client.handshake_ms", "ms"),
    ("server.decide_p99_us", "us"),
    ("server.observe_p99_us", "us"),
    ("server.errors", "count"),
    ("server.evicted", "count"),
    ("server.shed", "count"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("loadgen.rtt_p99_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("error_rate", "ratio"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The per-layer metric holding the self time of spans named `span`.
/// `Fleet::run`'s own time, beyond the inner layers replayed under it,
/// is the aggregation of per-user outcomes into the report.
#[must_use]
pub fn layer_ms(span: &str) -> Option<&'static str> {
    let stem = if span == "fleet.run" {
        "fleet.aggregate"
    } else {
        span
    };
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix("_ms") == Some(stem))
}

/// Which workload ran on which host: results are comparable only when
/// every field but `seed` and `rev` matches (`perfbench/compare.py`).
#[derive(Debug, Clone)]
pub struct Block {
    pub workload: String,
    pub seed: u64,
    pub users: u32,
    pub days: u32,
    pub threads: usize,
    pub nproc: usize,
    pub offered_rps: Vec<f64>,
    pub seconds: u64,
    pub trace: bool,
    pub rev: String,
    pub cpu: String,
}

impl Block {
    fn json(&self) -> String {
        let rates: Vec<String> = self.offered_rps.iter().map(|r| num(*r)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"users\":{},\"days\":{},\"threads\":{},\
             \"nproc\":{},\"offered_rps\":[{}],\"seconds\":{},\"trace\":{},\"rev\":{},\"cpu\":{}}}",
            quote(&self.workload),
            self.seed,
            self.users,
            self.days,
            self.threads,
            self.nproc,
            rates.join(","),
            self.seconds,
            self.trace,
            quote(&self.rev),
            quote(&self.cpu)
        )
    }
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub block: Block,
    attempted: u64,
    /// One entry per failed operation.
    failures: Vec<String>,
    values: BTreeMap<String, f64>,
    timings: Vec<(String, &'static str, Summary, Vec<f64>)>,
}

impl Outcome {
    #[must_use]
    pub fn new(block: Block) -> Outcome {
        Outcome {
            block,
            attempted: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            timings: Vec::new(),
        }
    }

    /// Counts one operation and records it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Sets a metric's value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records the summary of a timing for the detail block.
    pub fn timing(&mut self, name: impl Into<String>, unit: &'static str, summary: Summary) {
        self.timings.push((name.into(), unit, summary, Vec::new()));
    }

    /// Records a timing's summary and its individual samples.
    pub fn timing_samples(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples, 0.99);
        self.timings
            .push((name.into(), unit, summary, samples.to_vec()));
    }

    /// Prints the detail line and the result line, writes the detail to
    /// `out`, and returns the process exit code (non-zero when any check
    /// failed, in which case no metric is reported).
    #[must_use]
    pub fn finish(mut self, out: Option<&Path>) -> i32 {
        let table: &[(&str, &str)] = if self.block.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        self.set(
            "error_rate",
            self.failed() as f64 / self.attempted.max(1) as f64,
        );
        for (name, _) in table {
            match self.values.get(*name) {
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => {
                    self.failures
                        .push(format!("metric {name} is not finite ({v})"));
                }
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            self.failures.push("no operation was attempted".into());
        }
        let correct = self.failures.is_empty();

        let mut detail = String::new();
        let _ = write!(
            detail,
            "{{\"perfbench\":{{\"block\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\
             \"failures\":[{}],\"timings\":{{",
            self.block.json(),
            self.attempted,
            self.failed(),
            self.failures
                .iter()
                .take(20)
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(",")
        );
        for (i, (name, unit, s, samples)) in self.timings.iter().enumerate() {
            let samples: Vec<String> = samples.iter().map(|v| num(*v)).collect();
            let _ = write!(
                detail,
                "{}{}:{{\"unit\":{},\"n\":{},\"median\":{},\"tail_q\":{},\"tail\":{},\
                 \"samples\":[{}]}}",
                if i == 0 { "" } else { "," },
                quote(name),
                quote(unit),
                s.n,
                num(s.median),
                num(s.tail_q),
                num(s.tail),
                samples.join(",")
            );
        }
        detail.push_str("},\"values\":{");
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
            .collect();
        detail.push_str(&values.join(","));
        detail.push_str("}}}");

        let mut result = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(self.failed()),
            self.failed()
        );
        if correct {
            let metrics: Vec<String> = table
                .iter()
                .map(|(name, unit)| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        quote(name),
                        num(self.values[*name]),
                        quote(unit)
                    )
                })
                .collect();
            result.push_str(&metrics.join(","));
        }
        result.push_str("}}");

        for f in self.failures.iter().take(20) {
            eprintln!("perfbench: FAILED: {f}");
        }
        if let Some(path) = out {
            if let Err(e) = std::fs::write(path, format!("{detail}\n")) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        println!("{detail}");
        println!("{result}");
        i32::from(!correct)
    }
}

/// A JSON number; non-finite values (never printed as metrics) become
/// `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
