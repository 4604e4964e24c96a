//! The metric catalog and the per-run report.
//!
//! Every name here is also in `BENCHMARK.json`; a test keeps the two in
//! step.

use std::collections::HashMap;

use spitfire_core::{BufferManager, MetricsSnapshot, Tier};
use spitfire_device::StatsSnapshot;

use crate::harness::{Log, Slice, Window, SLICE};
use crate::stats::{self, Quantile};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("failed_ratio", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. The first, buffer NVM
/// plus WAL NVM bytes written per op, spans two layers; it is not an
/// end-to-end metric because `page-hot` keeps every hot page in DRAM, so
/// it reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nvm_write_bytes_per_op", "B/op"),
    ("server.handle_p50_us", "us"),
    ("server.handle_p99_us", "us"),
    ("server.transport_p50_us", "us"),
    ("server.shed_ratio", "ratio"),
    ("server.protocol_errors", "count"),
    ("txn.read_p50_us", "us"),
    ("txn.read_p99_us", "us"),
    ("txn.update_p50_us", "us"),
    ("txn.update_p99_us", "us"),
    ("txn.commit_p50_us", "us"),
    ("txn.commit_p99_us", "us"),
    ("txn.conflict_ratio", "ratio"),
    ("txn.vacuum_busy_ratio", "ratio"),
    ("txn.vacuum_freed_per_op", "1/op"),
    ("txn.checkpoint_busy_ratio", "ratio"),
    ("wal.bytes_per_commit", "B/commit"),
    ("wal.nvm_write_bytes_per_op", "B/op"),
    ("wal.nvm_fences_per_op", "1/op"),
    ("wal.ssd_write_bytes_per_op", "B/op"),
    ("core.fetch_read_p50_ns", "ns"),
    ("core.fetch_read_p99_ns", "ns"),
    ("core.fetch_write_p50_ns", "ns"),
    ("core.fetch_write_p99_ns", "ns"),
    ("core.page_copy_p50_ns", "ns"),
    ("core.unpin_p50_ns", "ns"),
    ("core.fast_path_ratio", "ratio"),
    ("core.pin_restarts_per_kop", "1/kop"),
    ("core.fetches_per_op", "1/op"),
    ("core.dram_hit_ratio", "ratio"),
    ("core.nvm_hit_ratio", "ratio"),
    ("core.ssd_fetches_per_op", "1/op"),
    ("core.migr.ssd_to_nvm_per_kop", "1/kop"),
    ("core.migr.nvm_to_dram_per_kop", "1/kop"),
    ("core.migr.ssd_to_dram_per_kop", "1/kop"),
    ("core.migr.nvm_to_ssd_per_kop", "1/kop"),
    ("core.migr.dram_to_nvm_per_kop", "1/kop"),
    ("core.migr.dram_to_ssd_per_kop", "1/kop"),
    ("core.evict_dram_per_kop", "1/kop"),
    ("core.evict_nvm_per_kop", "1/kop"),
    ("core.backpressure_per_kop", "1/kop"),
    ("core.maint_evictions_per_kop", "1/kop"),
    ("core.maint_writebacks_per_kop", "1/kop"),
    ("core.shadow_abort_ratio.promote", "ratio"),
    ("core.shadow_abort_ratio.evict", "ratio"),
    ("core.shadow_abort_ratio.flush", "ratio"),
    ("device.dram.read_bytes_per_op", "B/op"),
    ("device.dram.write_bytes_per_op", "B/op"),
    ("device.nvm.read_bytes_per_op", "B/op"),
    ("device.nvm.write_bytes_per_op", "B/op"),
    ("device.nvm.fences_per_op", "1/op"),
    ("device.ssd.read_ops_per_op", "1/op"),
    ("device.ssd.write_bytes_per_op", "B/op"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// Metric values of one run, with the reasons some could not be taken.
#[derive(Debug, Default)]
pub struct Report {
    values: HashMap<&'static str, f64>,
    absent: Vec<(&'static str, String)>,
    /// Free-form lines printed before the result (sample counts,
    /// lowered percentiles, span breakdown).
    pub notes: Vec<String>,
}

fn catalog_name(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(catalog_name(name), value);
    }

    /// Declare why the metrics whose names start with `prefix` are not
    /// measured on this workload.
    pub fn absent(&mut self, prefix: &'static str, why: impl Into<String>) {
        self.absent.push((prefix, why.into()));
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Why `name` was not measured, if declared.
    pub fn why_absent(&self, name: &str) -> Option<&str> {
        self.absent
            .iter()
            .find(|(p, _)| name.starts_with(p))
            .map(|(_, w)| w.as_str())
    }

    /// Set `name` to percentile `want` of `samples_ns`, scaled by `div`
    /// (1000 for µs), noting a lowered percentile and the sample count.
    pub fn set_quantile(&mut self, name: &str, samples_ns: &mut [u64], want: f64, div: f64) {
        match stats::quantile(samples_ns, want) {
            Some(Quantile { value, at, samples }) => {
                self.set(name, value as f64 / div);
                let lowered = if at < want {
                    format!(", lowered from p{want} for lack of samples")
                } else {
                    String::new()
                };
                self.notes
                    .push(format!("{name}: p{at} over {samples} samples{lowered}"));
            }
            None => self.notes.push(format!(
                "{name}: only {} samples, too few for a median with {} beyond it",
                samples_ns.len(),
                stats::MIN_BEYOND
            )),
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counters of the buffer manager and its three devices.
#[derive(Debug, Clone, Copy)]
pub struct CoreCounters {
    /// `BufferManager::metrics()`.
    pub core: MetricsSnapshot,
    /// `device_stats` for DRAM, NVM and SSD.
    pub devices: [StatsSnapshot; 3],
}

impl CoreCounters {
    /// Read the counters of `bm`.
    pub fn read(bm: &BufferManager) -> Self {
        let dev = |t| bm.device_stats(t).map(|s| s.snapshot()).unwrap_or_default();
        CoreCounters {
            core: bm.metrics(),
            devices: [dev(Tier::Dram), dev(Tier::Nvm), dev(Tier::Ssd)],
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            core: self.core.delta(&earlier.core),
            devices: std::array::from_fn(|i| self.devices[i].delta(&earlier.devices[i])),
        }
    }

    /// Buffer NVM bytes written.
    pub fn nvm_bytes_written(&self) -> u64 {
        self.devices[1].bytes_written
    }
}

/// The `core.*` and `device.*` counter metrics over `ops` ops.
pub fn set_core_counters(r: &mut Report, d: &CoreCounters, ops: u64) {
    let m = &d.core;
    let ops = ops as f64;
    let per_kop = |v: u64| ratio(v as f64 * 1000.0, ops);
    let per_op = |v: u64| ratio(v as f64, ops);
    let requests = m.total_requests() as f64;
    r.set(
        "core.fast_path_ratio",
        ratio(
            m.fetch_fast as f64,
            (m.fetch_fast + m.fetch_fallbacks) as f64,
        ),
    );
    r.set("core.pin_restarts_per_kop", per_kop(m.pin_restarts));
    r.set("core.fetches_per_op", per_op(m.total_requests()));
    r.set("core.dram_hit_ratio", ratio(m.dram_hits as f64, requests));
    r.set("core.nvm_hit_ratio", ratio(m.nvm_hits as f64, requests));
    r.set("core.ssd_fetches_per_op", per_op(m.ssd_fetches));
    const PATHS: [&str; 6] = [
        "core.migr.ssd_to_nvm_per_kop",
        "core.migr.nvm_to_dram_per_kop",
        "core.migr.ssd_to_dram_per_kop",
        "core.migr.nvm_to_ssd_per_kop",
        "core.migr.dram_to_nvm_per_kop",
        "core.migr.dram_to_ssd_per_kop",
    ];
    // `migrations` is indexed like `MigrationPath::ALL`, the order above.
    for (name, &n) in PATHS.iter().zip(&m.migrations) {
        r.set(name, per_kop(n));
    }
    r.set("core.evict_dram_per_kop", per_kop(m.evictions_dram));
    r.set("core.evict_nvm_per_kop", per_kop(m.evictions_nvm));
    r.set(
        "core.backpressure_per_kop",
        per_kop(m.backpressure_fallbacks),
    );
    r.set("core.maint_evictions_per_kop", per_kop(m.maint_evictions));
    r.set("core.maint_writebacks_per_kop", per_kop(m.maint_writebacks));
    for (i, path) in ["promote", "evict", "flush"].iter().enumerate() {
        let (a, c) = (m.shadow_aborts[i], m.shadow_commits[i]);
        r.set(
            &format!("core.shadow_abort_ratio.{path}"),
            ratio(a as f64, (a + c) as f64),
        );
    }
    let [dram, nvm, ssd] = &d.devices;
    r.set("device.dram.read_bytes_per_op", per_op(dram.bytes_read));
    r.set("device.dram.write_bytes_per_op", per_op(dram.bytes_written));
    r.set("device.nvm.read_bytes_per_op", per_op(nvm.bytes_read));
    r.set("device.nvm.write_bytes_per_op", per_op(nvm.bytes_written));
    r.set("device.nvm.fences_per_op", per_op(nvm.fences));
    r.set("device.ssd.read_ops_per_op", per_op(ssd.read_ops));
    r.set("device.ssd.write_bytes_per_op", per_op(ssd.bytes_written));
}

/// Set `name` to percentile `want` of the reads' or writes' latencies
/// (µs) in the slices `calm`, pooled (lowered if need be).
fn set_latency(
    r: &mut Report,
    name: &str,
    slices: &[Slice],
    calm: &[usize],
    write: bool,
    want: f64,
) {
    let mut pooled: Vec<u64> = calm
        .iter()
        .flat_map(|&i| {
            let s = &slices[i];
            if write {
                &s.write_ns
            } else {
                &s.read_ns
            }
        })
        .copied()
        .collect();
    r.set_quantile(name, &mut pooled, want, 1e3);
}

/// Pseudo-count of ops in the denominator of `failed_ratio`. With no
/// failures the ratio would otherwise read 1 / ops and move with the run's
/// throughput, which `throughput_ops_s` already bounds; against this count
/// a run's own ops (at most a few times 10⁷) move it by a few per cent,
/// while each failure adds as much as the pseudo-failure does.
const FAILED_PRIOR_OPS: f64 = 1e9;

/// The end-to-end metrics every workload derives the same way from its
/// measured window: throughput, latencies, failures and peak RSS.
/// Throughput and latencies come from the window's calm slices; see
/// [`Window::calm_slices`]. `late_failures` are failures found after the
/// window (the final verification pass).
pub fn set_client_metrics<S>(r: &mut Report, w: &Window<S>, late_failures: u64) {
    // Read before the latency samples are pooled below.
    r.set(
        "peak_rss_mb",
        crate::meta::Usage::now().max_rss_kib as f64 / 1024.0,
    );
    let calm = w.calm_slices();
    r.set("throughput_ops_s", w.calm_throughput());
    let calm_steal = calm.iter().map(|&i| w.slice_steal[i]).fold(0.0, f64::max);
    r.notes.push(format!(
        "calm slices: {} of {} ({} ms each), steal at most {calm_steal:.3}; {:.1} ops/s over the whole window",
        calm.len(),
        w.slice_secs.len(),
        SLICE.as_millis(),
        w.throughput()
    ));
    // One line per second of the window.
    let per_line = (1.0 / SLICE.as_secs_f64()).round().max(1.0) as usize;
    let idx: Vec<usize> = (0..w.slice_secs.len()).collect();
    for (k, group) in idx.chunks(per_line).enumerate() {
        let ok: u64 = group.iter().map(|&i| w.log.slices[i].ok).sum();
        let secs: f64 = group.iter().map(|&i| w.slice_secs[i]).sum();
        let steal: f64 = group
            .iter()
            .map(|&i| w.slice_steal[i] * w.slice_secs[i])
            .sum();
        r.notes.push(format!(
            "second {k}: {:.0} ops/s, steal {:.3}, {} of {} slices calm",
            ok as f64 / secs,
            steal / secs,
            group.iter().filter(|i| calm.contains(i)).count(),
            group.len()
        ));
    }
    let log: &Log = &w.log;
    set_latency(r, "read_p50_us", &log.slices, &calm, false, 50.0);
    set_latency(r, "read_p99_us", &log.slices, &calm, false, 99.0);
    set_latency(r, "write_p50_us", &log.slices, &calm, true, 50.0);
    set_latency(r, "write_p99_us", &log.slices, &calm, true, 99.0);
    // The pseudo-failure keeps the ratio above 0, so a relative bound on
    // it is defined.
    let failed = log.failed() + late_failures;
    r.set(
        "failed_ratio",
        (failed as f64 + 1.0) / (log.ops() as f64 + FAILED_PRIOR_OPS),
    );
    r.notes.push(format!(
        "ops: {} ok ({} reads, {} writes), {} refused, {} errors, {} mismatches, {} refusals over {} attempts",
        log.ok(),
        log.ok_reads,
        log.ok_writes,
        log.refused,
        log.errors,
        log.mismatches,
        log.refusals,
        log.attempts
    ));
    for p in &log.problems {
        r.notes.push(format!("failure: {p}"));
    }
}
