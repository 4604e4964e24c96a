//! End-to-end benchmark of the Spitfire stack with a per-layer breakdown.
//!
//! One run drives one workload closed-loop for a fixed time, checks every
//! value it reads, and reports end-to-end metrics (untraced) or per-layer
//! metrics (an untraced window for counters, then a traced window for
//! timings). See `README.md` in this directory for the workloads and the
//! layer-to-metric map.

pub mod check;
pub mod db;
pub mod harness;
pub mod kv_serve;
pub mod meta;
pub mod page_hot;
pub mod report;
pub mod stats;
pub mod trace;
pub mod txn_tiered;

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spitfire_core::BufferManagerConfig;

use crate::harness::Plan;
use crate::meta::Meta;
use crate::report::Report;
use crate::trace::Span;

/// Closed-loop client threads per workload: one per core of a 2-vCPU VM.
pub const CLIENTS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["kv-serve", "page-hot", "txn-tiered"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured seconds per window.
    pub seconds: f64,
    /// Per-layer run: an untraced then a traced window.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds {s} not in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// Client `id`'s generator of keys and operation kinds.
    pub fn client_rng(&self, id: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ (id + 1).wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// How far the seed rotates the Zipf ranks over `n` keys, so each seed
    /// makes different keys hot.
    pub fn hot_offset(&self, n: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9) % n
    }

    /// The first (untraced) window, split into `parts` windows of equal
    /// length that together take the measured seconds: a warm-up of
    /// `warmup`, or half the window if that is shorter, then the window in
    /// slices of [`harness::SLICE`].
    pub fn plan(&self, warmup: Duration, time_every: u64, parts: usize) -> Plan {
        let window = Duration::from_secs_f64(self.seconds / parts as f64);
        Plan {
            warmup: warmup.min(window / 2),
            window,
            slices: ((window.as_secs_f64() / harness::SLICE.as_secs_f64()).round() as usize).max(1),
            time_every,
            traced: false,
        }
    }

    /// The traced window, which follows the untraced one on warm caches.
    pub fn traced_plan(&self, time_every: u64) -> Plan {
        Plan {
            traced: true,
            ..self.plan(Duration::ZERO, time_every, 1)
        }
    }
}

/// What a workload's run produced.
#[derive(Debug)]
pub struct Run {
    /// Metrics, notes and the reasons for absent metrics.
    pub report: Report,
    /// Configuration of the run.
    pub meta: Meta,
    /// Ops attempted and failed over every window and the final pass.
    pub tally: harness::Tally,
}

/// A workload instance and how long building it took.
pub struct Setup<T> {
    /// The last instance built.
    pub value: T,
    /// Median build time in seconds.
    pub seconds: f64,
}

/// Build [`SETUPS`] instances one after another, dropping all but the
/// last, and time each build.
pub fn setup_median<T>(build: impl FnMut() -> Result<T, String>) -> Result<Setup<T>, String> {
    measure_each_setup(build, |_, _| Ok(())).map(|(setup, _)| setup)
}

/// Build [`SETUPS`] instances one after another, timing each build, and
/// run `measure` on each (told whether it is the last) before the next is
/// built; all but the last are dropped. Returns what `measure` returned
/// for each instance, in order.
pub fn measure_each_setup<T, M>(
    mut build: impl FnMut() -> Result<T, String>,
    mut measure: impl FnMut(&T, bool) -> Result<M, String>,
) -> Result<(Setup<T>, Vec<M>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut measured = Vec::with_capacity(SETUPS);
    let mut value = None;
    for i in 0..SETUPS {
        drop(value.take());
        let t0 = Instant::now();
        let v = build()?;
        times.push(t0.elapsed().as_secs_f64());
        measured.push(measure(&v, i + 1 == SETUPS)?);
        value = Some(v);
    }
    let setup = Setup {
        value: value.expect("SETUPS > 0"),
        seconds: stats::median(&times),
    };
    Ok((setup, measured))
}

/// Metadata every workload records.
pub fn base_meta(args: &Args) -> Meta {
    let mut m = Meta::default();
    m.text("workload", &args.workload);
    m.num("seed", args.seed as f64);
    m.num("seconds", args.seconds);
    m.num("trace", u8::from(args.trace));
    m.num("clients", CLIENTS as f64);
    m.text("loop", "closed");
    m.text("git_rev", meta::git_rev());
    m.num(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    m.text("cpu_model", meta::cpu_model());
    m.num("setups", SETUPS as f64);
    m
}

/// Buffer-manager configuration worth recording with a result.
pub fn buffer_meta(m: &mut Meta, cfg: &BufferManagerConfig) {
    m.text("ssd_backend", format!("{:?}", cfg.ssd_backend));
    m.num("time_scale", cfg.time_scale.0);
    m.text("device_latencies", "emulated (Table 1 cost model)");
    m.num("page_size", cfg.page_size as f64);
    m.num("dram_bytes", cfg.dram_capacity as f64);
    m.num("nvm_bytes", cfg.nvm_capacity as f64);
    m.text("migration_policy", format!("{:?}", cfg.policy));
    m.text("dram_replacement", cfg.dram_policy);
    m.text("nvm_replacement", cfg.nvm_policy);
    m.text("shadow_migrations", cfg.shadow_migrations);
}

/// Trace accounting shared by every workload: self times (failing on a
/// negative one), coverage of client ops by child spans, tracing overhead
/// and a breakdown of self time by span name.
pub fn analyse_spans(
    report: &mut Report,
    spans: &[Span],
    untraced_ops_s: f64,
    traced_ops_s: f64,
) -> Result<(), String> {
    let own = trace::self_times(spans)?;
    match trace::coverage(spans, &own) {
        Some(c) => report.set("trace.coverage_ratio", c),
        None => report.absent("trace.coverage_ratio", "no client op was traced"),
    }
    report.set(
        "obs.trace_overhead_ratio",
        report::ratio(untraced_ops_s - traced_ops_s, untraced_ops_s),
    );
    let total: u64 = own.values().sum();
    for (name, count, ns) in trace::self_time_by_name(spans, &own) {
        report.notes.push(format!(
            "self time {name}: {count} spans, {:.3} ms, {:.1} % of all span time",
            ns as f64 / 1e6,
            report::ratio(ns as f64 * 100.0, total as f64)
        ));
    }
    Ok(())
}
